"""The jump phase of the Bayes pool-size search.

`bayes._search` walks small optima one size at a time and hands the search
to `jump` where the walk leaves it open. A jump evaluates S_k and R_k at any
k in O(1) from the continued fraction at shape b + k; tail, chord and floor
bounds prune the search of `core`, and `_settle` decides between neighbours
whose costs agree to rounding (docs/decisions.md). Calls that the walk
certifies, most command-line calls among them, never compile this module.
"""

from __future__ import annotations

import math

from .bayes import _TIE, _beta_cf, _far_bound, _log_beta, _start_values
from .core import _K_RESOLVABLE, _branch_and_bound

# R_k k(k+1) within this of 1 is a tie of C(k) and C(k+1) in rounding
_GAP_RTOL = 1e-14


def _floor(a: float, b: float, log_c: float, i: int, j: float) -> float:
    """A lower bound on C(k) - 1 over i <= k <= j (j may be inf).

    E[(1-p)^k] <= c B(a, b+k) = phi(k) / k with log c = log_c = -log B(U; a, b),
    equal up to the mass above U, so C(k) - 1 >= (1 - phi(k)) / k. Since
    digamma is increasing and concave, phi increases when a < 1, and log
    phi gains at most b/k^2 per unit of k when a > 1; for a = 1 the bound
    (b - (c-1) k) / (k (k+b)) is minimized exactly. It resolves the nearly
    flat costs 1/k - E[(1-p)^k] of priors with a near 1 and U near 1, where
    the chord bound needs about sqrt(k) splits.
    """
    if a == 1.0:  # phi(k) = c k / (b+k), so the bound is exact in k
        d = math.expm1(log_c)  # c - 1

        def f(k):
            return 0.0 if k == math.inf else (b - d * k) / (k * (k + b))

        if d <= 0.0:
            return f(j)  # f decreases to 0
        k = math.floor(b * (1.0 + math.sqrt(1.0 + d)) / d)  # f is least next to k
        return min(f(min(max(k, i), j)), f(min(max(k + 1, i), j)))
    log_phi = log_c + math.log(i) + _log_beta(a, b + i)
    if j == math.inf and a < 1.0:
        # phi(k) <= A (k/i)^(1-a) with A = phi(i) (1 + b/i)^a; the least of
        # (1 - A t^(1-a)) / t over t = k/i >= 1 is at t = 1 when A a >= 1
        log_big_a = log_phi + a * math.log1p(b / i)
        if log_big_a + math.log(a) >= 0.0:
            return (1.0 - math.exp(log_big_a)) / i
        return -(1.0 - a) / a * math.exp((log_big_a + math.log(a)) / (1.0 - a)) / i
    if a > 1.0:  # the largest phi on [i, j] is at most phi(i) e^(b/i - b/j)
        top = math.exp(log_phi + b / i - b / j)
    else:
        top = math.exp(log_c + math.log(j) + _log_beta(a, b + j))
    return (1.0 - top) / (i if top > 1.0 else j)


def jump(
    a: float, b: float, U: float, start_values: tuple, start: tuple,
    top: int, tail: float, best_k: int, best: float,
):
    """(k, C(k)) for the smallest k minimizing the prior-mean cost.

    start_values is what `bayes._start_values` gave, start is (k, S_k, R_k)
    where the walk ended (or k = 1), (best_k, best) the best size up to it,
    top the first size to jump to, and every k >= tail costs at least 1.
    """
    _, w0, log_mass, log_h0 = start_values
    log_q = math.log1p(-U) if U < 1.0 else 0.0  # w_j = w_0 (1-U)^j; w_0 = 0 at U = 1
    log_b = _log_beta(a, b)
    log_c = -log_mass - log_b  # -log B(U; a, b)
    k, s, r = start
    S, R = {k: s}, {k: r}  # S_k and R_k at the walk's end and at the sizes jumped to

    def visit(k):
        """S_k and R_k in O(1), from the continued fraction at shape b + k."""
        nonlocal best_k, best
        if k in S:  # the walk's end keeps the values of the recurrence
            return
        if U < (a + 1.0) / (a + b + k + 2.0):
            # 1 - S_k = B(U; a, b+k) / B(U; a, b) = (1-U)^k h(a, b+k) / h(a, b)
            t = _beta_cf(a, b + k, U, rest=True)
            x = k * log_q - math.log1p(-(a + b + k) * U / (a + 1.0) * t) - log_h0
            R[k] = math.exp(x) * U * a * t / (a + 1.0)
        else:
            r0k, _, log_mass_k, _ = _start_values(a, b + k, U)
            x = log_mass_k - log_mass + _log_beta(a, b + k) - log_b
            R[k] = r0k * math.exp(x)
        S[k] = -math.expm1(x)
        e = 1.0 / k + S[k]
        if e < best - _TIE * best or (e <= best + _TIE * best and k < best_k):
            best_k, best = k, e

    def beyond(k):
        """Whether every size above k is certified to cost at least best."""
        s, r, slack = S[k], R[k], best - _TIE * best
        if s >= slack or k + 1 >= tail:
            return True
        if r * k * k >= 1.0:
            nxt = ((b + k) * r + w0 * math.exp(k * log_q)) / (a + b + k + 1.0)
            if _far_bound(s, r, nxt) >= slack:
                return True
        return best > 0.5 and _floor(a, b, log_c, k + 1, math.inf) >= slack - 1.0

    def split(lo, hi):
        # S is concave, so on (lo, hi) C(k) >= 1/k + S_lo + (k - lo) slope,
        # a convex bound whose minimum is at k = 1/sqrt(slope)
        slope = (S[hi] - S[lo]) / (hi - lo)
        m = hi - 1 if slope <= 0.0 else min(max(int(slope**-0.5), lo + 1), hi - 1)
        if m + 1 < hi and 1.0 / (m + 1) + slope < 1.0 / m:
            m += 1
        slack = best - _TIE * best
        pruned = 1.0 / m + S[lo] + (m - lo) * slope >= slack or (
            best > 0.5 and _floor(a, b, log_c, lo + 1, hi - 1) >= slack - 1.0
        )  # the floor helps only where costs are close to 1
        return None if pruned else m

    _branch_and_bound(visit, beyond, split, (k, top), min(_K_RESOLVABLE, tail - 1))
    if best_k > 1 and best_k in R:  # the gap at j = 1 is not C(2) - C(1)
        best_k = _settle(best_k, visit, R)
        best = 1.0 / best_k + S[best_k]
    return best_k, best


def _settle(k, visit, R):
    """The local minimum next to k by the sign of C(j+1) - C(j) = R_j -
    1/(j(j+1)), which keeps R_j's full relative precision where the costs
    of neighbours agree to rounding; ties go to the smaller size.

    The first j >= 2 at which C stops falling is found by galloping and
    bisecting, because on nearly flat costs it can lie 1e10 sizes away.
    """

    def down(j):  # C(j+1) < C(j) beyond rounding
        visit(j)
        return R[j] * j * (j + 1.0) < 1.0 - _GAP_RTOL

    if down(k):  # the minimum lies above k
        lo, step = k, 1
        while lo + step < _K_RESOLVABLE and down(lo + step):
            lo, step = lo + step, 2 * step
        hi = lo + step
    else:  # the minimum is k or below it
        hi, step = k, 1
        while hi - step >= 2 and not down(hi - step):
            hi, step = hi - step, 2 * step
        lo = max(hi - step, 1)  # down(lo), or lo = 1, below every compared size
    while hi - lo > 1:  # down(lo) and not down(hi)
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if down(mid) else (lo, mid)
    return hi
