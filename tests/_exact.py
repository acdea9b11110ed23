"""The tests' exact oracles, each multi-precision form written once: the
incomplete beta and prior-mean costs, the Dorfman cost E(k, p) and its
breakpoints, and the worst-case regret of a pool size.

Every function works at the `dps` digits its caller passes and returns
mpmath numbers. Arithmetic on them afterwards runs at the caller's own
working precision. The `iv_` forms return mpmath `iv` intervals that
enclose the exact value (Moore, Kearfott and Cloud 2009).
"""

import math
from contextlib import contextmanager
from functools import cache

import mpmath as mp
import numpy as np
from mpmath import iv

from pooldesign import P0


def direct_beta(a, b, U, dps):
    """B(U; a, b) by `mp.betainc` at U itself."""
    with mp.workdps(dps):
        return mp.betainc(a, b, 0, U)


@cache
def incomplete_beta(a, b, U, dps):
    """B(U; a, b). Near U = 1 `mp.betainc` does not converge, so above 1/2
    it is B(a, b) - B(1-U; b, a), whose cancellation the caller's digits
    must cover; where that keeps fewer than half of them, as for a mass far
    below the mean that underflows a double, it is `mp.betainc` at U, whose
    series converges there. Cached, as the costs of one prior share its mass."""
    if U <= 0.5:
        return direct_beta(a, b, U, dps)
    with mp.workdps(dps):
        whole = mp.beta(a, b)
        rest = whole - direct_beta(b, a, 1 - mp.mpf(U), dps)
        if rest > whole * mp.mpf(10) ** (-dps // 2):
            return rest
    return direct_beta(a, b, U, dps)


def prior_ratio(a, b, U, j, dps):
    """R_j = B(U; a+1, b+j) / B(U; a, b), the prior mean of p (1-p)^j."""
    with mp.workdps(dps):
        a, b = mp.mpf(a), mp.mpf(b)
        return incomplete_beta(a + 1, b + j, U, dps) / incomplete_beta(a, b, U, dps)


def prior_cost(a, b, U, k, dps):
    """C(k) = 1 + 1/k - B(U; a, b+k) / B(U; a, b), the mean of E(k, p) under
    Beta(a, b) truncated to (0, U], as the plain ratio; 1 at k = 1."""
    if k == 1:
        return mp.mpf(1)
    with mp.workdps(dps):
        a, b = mp.mpf(a), mp.mpf(b)
        mass = incomplete_beta(a, b, U, dps)
        return 1 + mp.mpf(1) / k - incomplete_beta(a, b + k, U, dps) / mass


def prior_gap(a, b, U, j, dps):
    """C(j+1) - C(j) = R_j - 1/(j(j+1))."""
    with mp.workdps(dps):
        return prior_ratio(a, b, U, j, dps) - mp.mpf(1) / (j * (j + 1))


def beta_cf(a, b, x, dps):
    """h(a, b, x) = a B(x; a, b) / (x^a (1-x)^b), the continued fraction's value."""
    with mp.workdps(dps):
        a, b, x = mp.mpf(a), mp.mpf(b), mp.mpf(x)
        return a * incomplete_beta(a, b, x, dps) / (x**a * (1 - x) ** b)


def uniform_cost(k, U, dps):
    """C(k) = 1 + 1/k - (1 - (1-U)^(k+1)) / (U (k+1)) of the uniform prior."""
    with mp.workdps(dps):
        u = mp.mpf(U)
        return 1 + mp.mpf(1) / k - (1 - (1 - u) ** (k + 1)) / (u * (k + 1))


@cache
def jeffreys_mass(U, dps):
    """The integral of 1/sqrt(p(1-p)) over (0, U], by quadrature; cached,
    as each Jeffreys cost divides by it."""
    with mp.workdps(dps):
        return mp.quad(lambda p: 1 / mp.sqrt(p * (1 - p)), [0, mp.mpf(U)])


def jeffreys_cost(k, U, dps):
    """C(k) of the Jeffreys prior on (0, U], by quadrature of E(k, p)."""
    with mp.workdps(dps):
        f = lambda p: expected_tests(k, p, dps) / mp.sqrt(p * (1 - p))
        return mp.quad(f, [0, mp.mpf(U)]) / jeffreys_mass(U, dps)


def expected_tests(k, p, dps):
    """E(k, p) = 1 - (1-p)^k + 1/k, and 1 at k = 1."""
    if k == 1:
        return mp.mpf(1)
    with mp.workdps(dps):
        return 1 - (1 - mp.mpf(p)) ** k + mp.mpf(1) / k


def regret(k, j, p, dps):
    """E(k, p) - E(j, p), as the plain difference of the two costs."""
    with mp.workdps(dps):
        return expected_tests(k, p, dps) - expected_tests(j, p, dps)


def samuels_gap(k, p, dps):
    """E(k+1, p) - E(k, p) = p (1-p)^k - 1/(k(k+1)), without cancelling."""
    with mp.workdps(dps):
        p = mp.mpf(p)
        return p * (1 - p) ** k - mp.mpf(1) / (k * (k + 1))


def breakpoint_root(k, dps):
    """The smaller root p of p (1-p)^k = 1/(k(k+1)), where samuels_gap(k, p)
    changes sign; the bracket [1/(k(k+1)), 1/(k+1)] holds it for k >= 3."""
    with mp.workdps(dps):
        k = mp.mpf(k)
        return mp.findroot(
            lambda p: mp.log(p) + k * mp.log1p(-p) + mp.log(k * (k + 1)),
            (1 / (k * (k + 1)), 1 / (k + 1)),
            solver="illinois",
        )


@cache
def _domain_end(U, dps):
    """-ln q at p = 1 - q = min(U, P0), where the prevalences end."""
    with mp.workdps(dps):
        return -mp.log1p(-min(mp.mpf(U), 1 - mp.cbrt(mp.mpf(1) / 3)))


def minimax_peak(k, m, U, dps):
    """(g_m, c): the largest regret q^m - q^k + 1/k - 1/m of size k against
    the oracle size m, m real, over p = 1 - q in (0, min(U, P0)], and
    c = -ln q where it is taken."""
    with mp.workdps(dps):
        m = mp.mpf(m)
        c = min(mp.log(k / m) / (k - m), _domain_end(U, dps))
        return mp.exp(-c * m) - mp.exp(-c * k) + mp.mpf(1) / k - 1 / m, c


def minimax_supremum(k, U, dps):
    """sup_loss(k, U) from the real maximizer over m.

    Bisects the sign of dv/dm = 1/m^2 - c e^(-cm), c = -ln q*, over real m
    in [3, k-1] (docs/decisions.md), then takes the largest peak of the
    integers around it and compares it with the p->0 limit 1/k.
    """
    with mp.workdps(dps):
        a, b = mp.mpf(3), mp.mpf(k - 1)
        for _ in range(200):
            mid = (a + b) / 2
            c = minimax_peak(k, mid, U, dps)[1]
            a, b = (mid, b) if 1 / mid**2 > c * mp.exp(-c * mid) else (a, mid)
        ms = range(max(3, int(a) - 1), min(k - 1, int(a) + 2) + 1)
        return max([mp.mpf(1) / k] + [minimax_peak(k, m, U, dps)[0] for m in ms])


def screened_supremum(k, U, dps):
    """(p_star, sup_loss) of pool size k.

    Every oracle size m = 3..k-1 is screened in double precision, whose
    error here stays below 1e-11; each g_m within 1e-9 of the largest is
    then peaked in mpmath and compared with the p->0 limit 1/k.
    """
    m = np.arange(3, k)
    q = np.maximum((m / k) ** (1.0 / (k - m)), 1.0 - min(U, P0))
    vals = q**m - q**k + 1.0 / k - 1.0 / m
    with mp.workdps(dps):
        best_c, best = mp.mpf(0), mp.mpf(1) / k
        for j in m[vals >= vals.max() - 1e-9]:
            g, c = minimax_peak(k, int(j), U, dps)
            if g > best:
                best_c, best = c, g
        return -mp.expm1(-best_c), best


@contextmanager
def _iv_digits(dps):
    """iv's working precision, which has no workdps of its own."""
    saved = iv.prec
    iv.dps = dps
    try:
        yield
    finally:
        iv.prec = saved


def _iv_max(x, y):
    return iv.mpf([max(x.a, y.a), max(x.b, y.b)])


def _iv_pick(x, y, what):
    """The larger of two intervals that do not overlap."""
    if x.a > y.b:
        return x
    if y.a > x.b:
        return y
    raise ArithmeticError(f"the enclosures do not decide {what}")


def iv_sup_loss(k, U, dps):
    """An interval enclosing sup_loss(k, U), the largest regret of pool size
    k over p in (0, min(U, P0)].

    With hi = min(U, P0) and q = 1 - p, it is the largest of the p -> 0
    limit 1/k and, for each oracle size m < k, the peak of g_m = q^m - q^k
    + 1/k - 1/m, which rises to q_m = (m/k)^(1/(k-m)) and falls after it,
    so it peaks on the domain at max(q_m, 1 - hi); g_1 = 1/k - q^k peaks at
    1 - hi. Samuels' rule puts every oracle size on the domain above
    floor(hi^(-1/2)), so smaller m are left out. Raises ArithmeticError
    where the enclosures do not decide min(U, P0) or a clamp.
    """
    with _iv_digits(dps):
        hi = -_iv_pick(-iv.mpf(U), (iv.mpf(1) / 3) ** (iv.mpf(1) / 3) - 1, "min(U, P0)")
        q_end = 1 - hi
        inv_k = iv.mpf(1) / k
        best = inv_k
        # one below the float floor, against its rounding
        for m in range(max(1, math.floor(float(hi.a) ** -0.5) - 1), k):
            if m == 1:
                g = inv_k - q_end**k
            else:
                q_m = iv.exp(iv.log(iv.mpf(m) / k) / (k - m))
                q = _iv_pick(q_m, q_end, f"the clamp of m = {m} for k = {k}")
                g = q**m - q**k + inv_k - iv.mpf(1) / m
            best = _iv_max(best, g)
        return best
