"""Bayesian pool-size selection under truncated beta priors on (0, U].

The prior density is p^(a-1)(1-p)^(b-1) / B(U; a, b) on (0, U], where
B(U; a, b) is the incomplete beta function; (1,1) is the uniform prior and
(1/2, 1/2) the Jeffreys prior, whose normalizer is 2*arcsin(sqrt(U)).

The solver needs no quadrature. Since E[p(1-p)^j] = B(U; a+1, b+j) / B(U; a, b)
(DLMF 8.17), the prior-mean cost of pool size k >= 2 is the sum of positive
terms 1/k + sum_{j<k} B(U; a+1, b+j) / B(U; a, b), free of the cancellation
in 1 - E[(1-p)^k]. Adaptive quadrature in theta (p = U*sin^2(theta)) is
kept as the independent oracle `expected_tests_under_prior`.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np
from scipy import special

from .core import _check_group_size, _check_upper_bound, _scan_for_minimum

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


@dataclass(frozen=True)
class PriorSpec:
    """Beta(a, b) prior truncated and renormalized to (0, upper]."""

    a: float
    b: float
    upper: float = 1.0

    def __post_init__(self):
        if not (0.0 < self.a < math.inf and 0.0 < self.b < math.inf):
            raise ValueError(
                f"beta shapes must be positive and finite, got a={self.a!r}, b={self.b!r}"
            )
        _check_upper_bound(self.upper)

    @classmethod
    def uniform(cls, upper: float = 1.0) -> "PriorSpec":
        return cls(1.0, 1.0, upper)

    @classmethod
    def jeffreys(cls, upper: float = 1.0) -> "PriorSpec":
        return cls(0.5, 0.5, upper)


@dataclass(frozen=True)
class BayesResult:
    k_opt: int
    expected_tests_at_opt: float
    prior: PriorSpec


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


def _log_mass(prior: PriorSpec) -> float:
    """log B(U; a, b), the mass of the untruncated density on (0, U]."""
    a, b, U = prior.a, prior.b, prior.upper
    ratio = float(special.betainc(a, b, U))
    if ratio == 0.0:
        raise RuntimeError(f"{prior} has no mass on (0, upper] in double precision")
    return math.log(ratio) + float(special.betaln(a, b))


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
    _check_group_size(k)
    mass = _weighted_cost_mass(k, prior.a, prior.b, prior.upper, quad_tol, budget)
    return mass / math.exp(_log_mass(prior))


# Pool sizes per array evaluation of the cost curve: enough to amortize the
# ufunc calls, few enough that the common small-k answers pay little for it.
_CHUNK = 64


def _prior_costs(prior: PriorSpec):
    """Prior-mean costs of k = 1, 2, ... in closed form, one chunk at a time."""
    a, b, U = prior.a, prior.b, prior.upper
    log_mass = _log_mass(prior)
    total = 0.0  # sum of the terms j < start
    for start in itertools.count(0, _CHUNK):
        j = np.arange(start, start + _CHUNK, dtype=float)
        with np.errstate(divide="ignore"):  # a term that underflows adds 0
            log_inc = np.log(special.betainc(a + 1.0, b + j, U))
        log_terms = log_inc + special.betaln(a + 1.0, b + j) - log_mass
        sums = total + np.cumsum(np.exp(log_terms))
        total = float(sums[-1])
        costs = 1.0 / (j + 1.0) + sums  # cost of k = j + 1
        if start == 0:
            costs[0] = 1.0  # k = 1 tests everyone once
        yield from costs.tolist()


def bayes_optimal_k(
    prior: PriorSpec, *, patience: int = 10, k_cap: int = 100_000
) -> BayesResult:
    """Pool size minimizing the prior-mean cost; ties go to the smaller k."""
    k, e = _scan_for_minimum(_prior_costs(prior), patience, k_cap)
    return BayesResult(k, e, prior)


def uniform_optimal_k(U: float, *, patience: int = 10, k_cap: int = 100_000) -> int:
    """Pool size minimizing the Uniform(0, U] prior-mean cost."""
    return bayes_optimal_k(PriorSpec.uniform(U), patience=patience, k_cap=k_cap).k_opt
