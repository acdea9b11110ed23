"""Prior-mean costs in closed form and by quadrature: the Bayes oracles.

No solver calls these; the tests and the benchmark check `bayes_optimal_k`
against them. `expected_tests_under_prior` integrates E(k, p) against a
truncated beta prior numerically, in theta with p = U*sin^2(theta), with
scipy and independently of the continued fractions of `bayes`. One
integrand serves every k, with log(1-p) from log1p(-p) where p is small,
and a relative tolerance only. Its tests find it within 1e-13 of 50 digits
for five priors down to U = 4.1e-30, and, uniform, within 1e-8 for k past
a double at U >= 1e-300; at a subnormal U it misses (1-p)^k for such k.
`expected_tests_uniform` is the closed form under the uniform prior and
`jeffreys_constant` the Jeffreys normalizer; they need only the checks and
`_times` of `core`, so importing this module loads no solver.
"""

import math

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


def expected_tests_under_prior(
    k: int, prior: "PriorSpec", *, quad_tol: float = 1e-10, budget: int = 10_000
) -> float:
    """Prior-mean tests per person for pool size k under a truncated beta
    prior, by adaptive quadrature in theta with p = U sin^2(theta), to a
    relative tolerance (the oracle for `bayes_optimal_k`). It normalizes by
    scipy's I_U(a, b) as a number and raises RuntimeError where that
    underflows to 0.0, for example Beta(100, 1) on (0, 1e-6], which
    `bayes_optimal_k` answers."""
    from scipy import integrate, special  # on first use: only this oracle needs scipy

    _check_group_size(k)
    a, b, U = prior
    inv_k = 1 / k  # in ints, which do not overflow

    def g(theta: float) -> float:
        # p^(a-1) (1-p)^(b-1) dp is U^a 2 sin^(2a-1) cos (1-p)^(b-1) dtheta;
        # U^a is left to the mass. q = 1 - p as (1-U) + U cos^2 is exact near
        # pi/2 at U = 1, where p rounds to 1: log q is log(q) below q = 1/2 and
        # log1p(-p) above, where q would round p away; _times takes any k
        s, c = math.sin(theta), math.cos(theta)
        q = (1.0 - U) + U * c * c
        log_q = math.log(q) if q < 0.5 else math.log1p(-U * s * s)
        cost = 1.0 if k == 1 else inv_k - math.expm1(_times(k, log_q))
        return 2.0 * s ** (2.0 * a - 1.0) * c * q ** (b - 1.0) * cost

    out = integrate.quad(
        g, 0.0, 0.5 * math.pi, epsabs=0.0, epsrel=quad_tol, limit=budget, full_output=1
    )
    if len(out) > 3:
        raise QuadratureError(
            f"quadrature did not converge for k={k}, prior=({a}, {b}, {U}): "
            f"{out[3]} (error estimate {out[1]:.3e})",
            out[1],
        )
    ratio = float(special.betainc(a, b, U))
    if ratio == 0.0:
        raise RuntimeError(f"{prior}: the oracle's normalizer I_U(a, b) underflows")
    # over the mass without U^a, I_U(a, b) B(a, b) / U^a
    return out[0] / math.exp(
        math.log(ratio) + float(special.betaln(a, b)) - a * math.log(U)
    )
