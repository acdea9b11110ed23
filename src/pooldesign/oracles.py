"""Prior-mean costs in closed form and by quadrature: the Bayes oracles.

No solver calls these; the tests and the benchmark check `bayes_optimal_k`
against them. `expected_tests_under_prior` integrates E(k, p) against a
truncated beta prior numerically, in theta with p = U*sin^2(theta), with
scipy and independently of the continued fractions of `bayes`;
`expected_tests_uniform` is the closed form under the uniform prior, and
`jeffreys_constant` the normalizer of the Jeffreys prior. They need only
the input checks and `_times` of `core`, so importing this module loads no
solver.
"""

import math
import sys

from .core import _check_group_size, _check_upper_bound, _times


class QuadratureError(RuntimeError):
    """Adaptive quadrature failed to converge within its budget."""

    def __init__(self, message: str, error_estimate: float = math.nan):
        super().__init__(message)
        self.error_estimate = error_estimate


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
    # _times multiplies by k also past the largest double, and 1 / k rounds in ints
    if (ku := _times(k, U)) < 1.0:
        # 1/k plus the mean of 1 - (1-p)^k by its binomial series: the closed
        # form below cancels 1 against its last term when kU is small; these
        # terms alternate and fall by (k-n)U/(n+2) < 1/3 each, so nothing does
        mean, term, n = 0.0, 0.5 * ku, 1
        while mean + term != mean:
            mean += term
            term *= -_times(k - n, U) / (n + 2)
            n += 1
        return 1 / k + mean
    # (1-U)^(k+1) - 1 without cancellation at small U; exactly -1 at U = 1
    tail_m1 = -1.0 if U == 1.0 else math.expm1(_times(k + 1, math.log1p(-U)))
    return 1.0 + 1 / k + tail_m1 / _times(k + 1, U)


def _weighted_cost_mass(k, a, b, U, tol, budget):
    """Integral of E(k,p) * p^(a-1)(1-p)^(b-1) over (0, U].

    Uses p = U*sin^2(theta); in theta the integrand is
    2 U^a sin(theta)^(2a-1) cos(theta) (1 - U sin^2)^(b-1) E(k, p),
    smooth for the uniform and Jeffreys shapes. 1 - U sin^2 is computed
    as (1-U) + U cos^2 to stay exact near theta = pi/2.
    """
    two_a = 2.0 * a - 1.0
    b_m1 = b - 1.0
    inv_k = 0.0 if k == 1 else 1 / k  # in ints, which do not overflow
    huge = k > sys.float_info.max  # where q ** k raises OverflowError

    def g(theta: float) -> float:
        s = math.sin(theta)
        c = math.cos(theta)
        q = (1.0 - U) + U * c * c  # 1 - p
        if huge:  # (1-p)^k is 0 unless p < 1e-290, where log1p(-p) keeps p
            cost = 1.0 - math.exp(_times(k, math.log1p(-U * s * s))) + inv_k
        else:
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
    k: int, prior: "PriorSpec", *, quad_tol: float = 1e-10, budget: int = 10_000
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
