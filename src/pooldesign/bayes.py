"""Bayesian pool-size selection under truncated beta priors on (0, U].

The prior density is p^(a-1)(1-p)^(b-1) / B(U; a, b) on (0, U], where
B(U; a, b) is the incomplete beta function; (1,1) is the uniform prior and
(1/2, 1/2) the Jeffreys prior, whose normalizer is 2*arcsin(sqrt(U)).

The solver needs no quadrature and no special-function library. With
R_j = E[p(1-p)^j] = B(U; a+1, b+j) / B(U; a, b), the prior-mean cost of pool
size k >= 2 is the sum of positive terms 1/k + sum_{j<k} R_j, free of the
cancellation in 1 - E[(1-p)^k]. The recurrence in b of DLMF §8.17(iv) gives
R_{j+1} = ((b+j) R_j + w_j) / (a+b+j+1) with w_j = U^(a+1)(1-U)^(b+j) / B(U; a, b),
again positive terms, so each k costs a few float operations. R_0 and w_0
come from the continued fraction of DLMF 8.17.22, taken at U or at 1-U,
whichever does not cancel. Adaptive quadrature in theta (p = U*sin^2(theta))
is kept as the independent oracle `expected_tests_under_prior`.
"""

from __future__ import annotations

import itertools
import math
from collections import namedtuple

from .core import _check_group_size, _check_upper_bound

__all__ = [
    "PriorSpec",
    "BayesResult",
    "QuadratureError",
    "jeffreys_constant",
    "expected_tests_uniform",
    "uniform_optimal_k",
    "expected_tests_under_prior",
    "bayes_optimal_k",
]


class QuadratureError(RuntimeError):
    """Adaptive quadrature failed to converge within its budget."""

    def __init__(self, message: str, error_estimate: float = math.nan):
        super().__init__(message)
        self.error_estimate = error_estimate


class PriorSpec(namedtuple("PriorSpec", "a b upper")):
    """Beta(a, b) prior truncated and renormalized to (0, upper]."""

    __slots__ = ()

    def __new__(cls, a: float, b: float, upper: float = 1.0):
        if not (0.0 < a < math.inf and 0.0 < b < math.inf):
            raise ValueError(
                f"beta shapes must be positive and finite, got a={a!r}, b={b!r}"
            )
        _check_upper_bound(upper)
        return super().__new__(cls, a, b, upper)

    @classmethod
    def _make(cls, iterable):  # the inherited one, behind _replace, skips __new__
        return cls(*iterable)

    @classmethod
    def uniform(cls, upper: float = 1.0) -> "PriorSpec":
        return cls(1.0, 1.0, upper)

    @classmethod
    def jeffreys(cls, upper: float = 1.0) -> "PriorSpec":
        return cls(0.5, 0.5, upper)


class BayesResult(namedtuple("BayesResult", "k_opt expected_tests_at_opt prior")):
    """The pool size k_opt minimizing the prior-mean cost, and that cost."""

    __slots__ = ()


def jeffreys_constant(U: float) -> float:
    """Mass of (p(1-p))^(-1/2) on (0, U]: 2*arcsin(sqrt(U))."""
    _check_upper_bound(U)
    return 2.0 * math.asin(math.sqrt(U))


def expected_tests_uniform(k: int, U: float) -> float:
    """Prior-mean tests per person under Uniform(0, U], in closed form."""
    _check_group_size(k)
    _check_upper_bound(U)
    if k == 1:
        return 1.0
    # (1-U)^(k+1) - 1 without cancellation at small U; exactly -1 at U = 1
    tail_m1 = -1.0 if U == 1.0 else math.expm1((k + 1) * math.log1p(-U))
    return 1.0 + 1.0 / k + tail_m1 / (U * (k + 1))


def _weighted_cost_mass(k, a, b, U, tol, budget):
    """Integral of E(k,p) * p^(a-1)(1-p)^(b-1) over (0, U].

    Uses p = U*sin^2(theta); in theta the integrand is
    2 U^a sin(theta)^(2a-1) cos(theta) (1 - U sin^2)^(b-1) E(k, p),
    smooth for the uniform and Jeffreys shapes. 1 - U sin^2 is computed
    as (1-U) + U cos^2 to stay exact near theta = pi/2.
    """
    two_a = 2.0 * a - 1.0
    b_m1 = b - 1.0
    inv_k = 0.0 if k == 1 else 1.0 / k

    def g(theta: float) -> float:
        s = math.sin(theta)
        c = math.cos(theta)
        q = (1.0 - U) + U * c * c  # 1 - p
        cost = 1.0 if k == 1 else 1.0 - q ** k + inv_k
        return 2.0 * U ** a * s ** two_a * c * q ** b_m1 * cost

    from scipy import integrate  # only the oracle integrates numerically

    out = integrate.quad(
        g, 0.0, 0.5 * math.pi, epsabs=tol, epsrel=tol, limit=budget, full_output=1
    )
    if len(out) > 3:
        raise QuadratureError(
            f"quadrature did not converge for k={k}, prior=({a}, {b}, {U}): "
            f"{out[3]} (error estimate {out[1]:.3e})",
            out[1],
        )
    return out[0]


def expected_tests_under_prior(
    k: int, prior: PriorSpec, *, quad_tol: float = 1e-10, budget: int = 10_000
) -> float:
    """Prior-mean tests per person for pool size k under a truncated beta
    prior, by adaptive quadrature (the oracle for `bayes_optimal_k`)."""
    from scipy import special  # the oracle normalizes independently of the solver

    _check_group_size(k)
    a, b, U = prior.a, prior.b, prior.upper
    mass = _weighted_cost_mass(k, a, b, U, quad_tol, budget)
    ratio = float(special.betainc(a, b, U))
    if ratio == 0.0:
        raise RuntimeError(f"{prior} has no mass on (0, upper] in double precision")
    return mass / math.exp(math.log(ratio) + float(special.betaln(a, b)))


_PATIENCE = 10  # sizes without improvement before the cost scan stops
_K_CAP = 100_000  # the cost scan gives up at this pool size
# Terms of the continued fraction before it counts as divergent; the
# number needed grows like the square root of the larger beta shape.
_CF_MAX_TERMS = 10_000
_TINY = 1e-300  # stands in for a zero denominator in Lentz's method
# log Gamma(x) - (x-1/2) log x + x - log(2 pi)/2 = sum_i _STIRLING[i] / x^(2i+1);
# the first omitted term is below 7e-16 for x >= 10.
_STIRLING = (1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188, -691 / 360360)


def _beta_cf(a: float, b: float, x: float) -> float:
    """h with B(x; a, b) = x^a (1-x)^b h / a, by the continued fraction of
    DLMF 8.17.22 (modified Lentz); fast for x < (a+1)/(a+b+2)."""
    c = 1.0
    d = 1.0 - (a + b) * x / (a + 1.0)
    d = 1.0 / (d if abs(d) > _TINY else _TINY)
    h = d
    for m in range(1, _CF_MAX_TERMS + 1):
        for num in (
            m * (b - m) * x / ((a + 2 * m - 1.0) * (a + 2 * m)),
            -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1.0)),
        ):
            d = 1.0 + num * d
            d = 1.0 / (d if abs(d) > _TINY else _TINY)
            c = 1.0 + num / c
            c = c if abs(c) > _TINY else _TINY
            h *= c * d
        if abs(c * d - 1.0) <= math.ulp(1.0):
            return h
    raise RuntimeError(
        f"the incomplete-beta continued fraction for ({a}, {b}) at {x} "
        f"did not converge in {_CF_MAX_TERMS} terms"
    )


def _stirling_tail(x: float) -> float:
    y = 1.0 / (x * x)
    s = 0.0
    for c in reversed(_STIRLING):
        s = s * y + c
    return s / x


def _log_beta(a: float, b: float) -> float:
    """log B(a, b); Stirling's series keeps log Gamma(b) - log Gamma(a+b)
    free of cancellation when the larger shape b is large."""
    a, b = min(a, b), max(a, b)
    if b < 10.0:
        return math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
    return (
        math.lgamma(a)
        - (b - 0.5) * math.log1p(a / b)
        - a * math.log(a + b)
        + a
        + _stirling_tail(b)
        - _stirling_tail(a + b)
    )


def _start_values(a: float, b: float, U: float):
    """(R_0, w_0, log I_U(a, b)) of the cost recurrence.

    Below (a+1)/(a+b+2), or when more than a tenth of the mass lies above
    U, both incomplete betas come from the continued fraction at U and the
    power prefactors cancel. Otherwise each is a complement taken at 1-U,
    unless that complement would cancel (a tenth again).
    """
    if U == 1.0:
        return a / (a + b), 0.0, 0.0
    log_z = a * math.log(U) + b * math.log1p(-U) - _log_beta(a, b)
    if U >= (a + 1.0) / (a + b + 2.0):
        z = math.exp(log_z)  # U^a (1-U)^b / B(a, b)
        tail = z * _beta_cf(b, a, 1.0 - U) / b  # 1 - I_U(a, b)
        if tail <= 0.1:
            mass = 1.0 - tail
            mean = a / (a + b)  # B(a+1, b) / B(a, b)
            mean_tail = z * U * _beta_cf(b, a + 1.0, 1.0 - U) / b
            if mean_tail <= 0.1 * mean:
                lower = mean - mean_tail
            else:
                lower = z * U * _beta_cf(a + 1.0, b, U) / (a + 1.0)
            return lower / mass, U * z / mass, math.log(mass)
    h = _beta_cf(a, b, U)
    r0 = U * a * _beta_cf(a + 1.0, b, U) / ((a + 1.0) * h)
    return r0, U * a / h, log_z + math.log(h / a)


def _prior_costs(prior: PriorSpec):
    """Prior-mean costs of k = 1, 2, ... by the positive-term recurrence."""
    a, b, U = prior.a, prior.b, prior.upper
    try:
        r, w, log_mass = _start_values(a, b, U)
    except RuntimeError as exc:  # the continued fraction did not converge
        raise RuntimeError(f"{prior}: {exc}") from None
    if math.exp(log_mass) == 0.0:
        raise RuntimeError(f"{prior} has no mass on (0, upper] in double precision")
    yield 1.0  # k = 1 tests everyone once
    log_q = math.log1p(-U) if U < 1.0 else 0.0  # w_j = w_0 (1-U)^j; w_0 = 0 at U = 1
    total = r  # R_0 + ... + R_{k-1}
    for j in itertools.count():
        r = ((b + j) * r + w * math.exp(j * log_q)) / (a + b + j + 1.0)
        total += r
        yield 1.0 / (j + 2) + total


def bayes_optimal_k(prior: PriorSpec) -> BayesResult:
    """Pool size minimizing the prior-mean cost; ties go to the smaller k.

    The scan stops after _PATIENCE sizes without a strict improvement,
    which also handles cost curves that flatten out without rising.
    """
    best_k, best = None, math.inf
    for k, e in enumerate(_prior_costs(prior), 1):
        if e < best:
            best_k, best = k, e
        elif k - best_k >= _PATIENCE:
            return BayesResult(best_k, best, prior)
        if k >= _K_CAP:
            raise RuntimeError(
                f"pool-size scan reached k={_K_CAP} without bracketing a minimum"
            )


def uniform_optimal_k(U: float) -> int:
    """Pool size minimizing the Uniform(0, U] prior-mean cost."""
    return bayes_optimal_k(PriorSpec.uniform(U)).k_opt
