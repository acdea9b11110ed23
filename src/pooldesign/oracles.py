"""Prior-mean costs in closed form and by quadrature: the Bayes oracles.

No solver calls these; the tests and the benchmark check `bayes_optimal_k`
against them. `expected_tests_under_prior` integrates E(k, p) against a
truncated beta prior with scipy, independently of the continued fractions
of `bayes`: in t with p = U t^2, by QUADPACK's QAWS, which takes the
density's endpoint powers as weights. The mean and the mass are integrals
of one form, so no normalizer is formed and U^a cancels. Its tests find it
within 1e-14 of 50 digits for five priors down to U = 4.1e-30, within
1e-13 of 40 digits at U = 1 with b < 1, and, uniform, within 1e-8 for k
past a double at U >= 1e-300; at a subnormal U it misses (1-p)^k for such
k. `expected_tests_uniform` is the closed form under the uniform prior
and `jeffreys_constant` the Jeffreys normalizer; they need only the checks
and `_times` of `core`, so importing this module loads no solver.
"""

import math

from .core import _check_group_size, _check_upper_bound, _times


class QuadratureError(RuntimeError):
    """Adaptive quadrature did not converge to its tolerance."""

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


def expected_tests_under_prior(k: int, prior: "PriorSpec") -> float:
    """Prior-mean tests per person for pool size k under a truncated beta
    prior, by adaptive quadrature in t = sqrt(p/U) weighted by the density's
    endpoint powers, to 1e-10 relative (the oracle for `bayes_optimal_k`);
    QuadratureError where it does not converge, as at b < 1 near U = 1."""
    from scipy import integrate  # on first use: only this oracle needs scipy

    _check_group_size(k)
    if k == 1:
        return 1.0
    a, b, U = prior
    inv_k = 1 / k  # in ints, which do not overflow
    full = U == 1.0

    def f(t: float, cost: bool) -> float:
        # p^(a-1) (1-p)^(b-1) dp is 2 U^a t^(2a-1) q^(b-1) dt with q = 1 - p,
        # and 2 U^a cancels. QAWS weighs by t^(2a-1) and, at U = 1, where
        # q = (1-t)(1+t), by (1-t)^(b-1). q as (1-U) + U(1-t)(1+t) is exact
        # near t = 1: log q is log(q) below 1/2, -inf at 0, and log1p(-U t^2)
        # above, where q would round p away; _times takes any k
        q = (1.0 - U) + U * (1.0 - t) * (1.0 + t)
        w = (1.0 + t if full else q) ** (b - 1.0)
        if not cost:
            return w
        log_q = math.log1p(-U * t * t) if q >= 0.5 else math.log(q) if q else -math.inf
        return w * (inv_k - math.expm1(_times(k, log_q)))

    def integral(cost: bool) -> float:
        out = integrate.quad(
            f, 0.0, 1.0, args=(cost,), full_output=1, epsabs=0.0, epsrel=1e-10,
            limit=10_000, weight="alg", wvar=(2.0 * a - 1.0, b - 1.0 if full else 0.0),
        )
        if len(out) > 3:
            msg = f"quadrature did not converge for k={k}, prior=({a}, {b}, {U})"
            raise QuadratureError(f"{msg}: {out[3]} (error estimate {out[1]:.3e})", out[1])
        return out[0]

    return integral(True) / integral(False)  # the mean over the mass
