"""Minimax pool size: minimize the worst-case regret over prevalence.

The worst case for a fixed pool size k is searched over (0, min(U, P0)];
nothing is lost by truncating at P0, where individual testing takes over.
The shipped solver is a maximum over the oracle size m. In q = 1-p the
regret is E(k) - min_m E(m) = max_m g_m(q) with g_m(q) = q^m - q^k + 1/k - 1/m,
so its supremum is the largest of the sup_q g_m. Each g_m with m < k rises
up to q_m = (m/k)^(1/(k-m)) and falls after it, so it peaks on the domain at
max(q_m, 1 - min(U, P0)); sizes m >= k stay below the p->0 limit 1/k.
These peaks are unimodal in m (proved in docs/decisions.md, "The worst
oracle size by a gallop over m"), so a gallop up from the smallest candidate
m_lo finds the largest, m*, in O(log(m* - m_lo)) scalar peaks and O(1)
memory, two when the peak of m_lo + 1 is clamped.
A plain grid search over p serves as the independent oracle in tests; it is
the only code here that builds numpy arrays. The minimax k comes from an
exact search over k with no stopping heuristic, from the small-U asymptote
g of the answer. On nearly every bound a local certificate ends it after
the suprema of g, or of g and g + 1: the regret at the worst prevalence of
the top, or at the domain end, rules out every larger size, and 1/(g-1),
the p -> 0 limit of size 1, every smaller one. Elsewhere an exact branch
and bound goes on, and prunes sizes by the regret at the worst prevalence
of a size it has already visited.
"""

import math
from collections import namedtuple
from functools import partial

from .core import P0, _K_RESOLVABLE, _branch_and_bound, _check_group_size
from .core import _check_upper_bound, _unresolved, samuels_optimal_k

LossPoint = namedtuple("LossPoint", "k p_star sup_loss")
LossPoint.__doc__ = """Worst-case prevalence p_star and regret sup_loss for pool size k.

p_star = 0 encodes the p->0 limit, where the regret tends to 1/k
(1 for k = 1).
"""

MinimaxResult = namedtuple("MinimaxResult", "k_minimax upper_bound worst_point method")
MinimaxResult.__doc__ = """\
The minimax pool size for the bound U, its worst LossPoint and the
method ('analytic' or 'grid') that found it."""


def _peak(k: int, m: int, log_floor: float) -> tuple[float, float]:
    """(g_m at its peak on the domain, ln q there), for oracle size m < k.

    Formed in log q as q^m (1 - q^(k-m)) - (k-m)/(km), which does not
    cancel at small U.
    """
    d = k - m
    log_q = max(math.log1p(-d / k) / d, log_floor)
    return math.exp(m * log_q) * -math.expm1(d * log_q) - d / (k * m), log_q


def _domain(U: float) -> tuple[float, float, int]:
    """(the domain end hi = min(U, P0), ln q there, the least oracle size k*(hi) >= 3)."""
    hi = min(U, P0)
    return hi, math.log1p(-hi), samuels_optimal_k(hi)


def _sup_loss(log_floor: float, m_lo: int, k: int) -> LossPoint:
    """sup_loss_analytic for an int k, given the _domain constants of U.

    Probes m = m_lo, m_lo+1, m_lo+3, m_lo+7, ..., none past the midpoint of
    the open bracket, and bisects once a probe fails the predicate: m+1 is
    unclamped and peak(m+1) >= peak(m). A clamped m+1 never rises above m.
    """
    limit = 1.0 if k == 1 else 1.0 / k
    lo, top, reach = m_lo, k - 1, 1
    if lo <= top:
        while lo < top:
            m = min(m_lo + reach - 1, (lo + top) // 2)
            up, log_q = _peak(k, m + 1, log_floor)
            if log_q > log_floor and up >= _peak(k, m, log_floor)[0]:
                lo, reach = m + 1, 2 * reach
            else:
                top = m
        best, log_q = _peak(k, lo, log_floor)
        if best > limit:
            return LossPoint(k, -math.expm1(log_q), best)
    return LossPoint(k, 0.0, limit)


def sup_loss_analytic(k: int, U: float = 1.0) -> LossPoint:
    """Supremum of the regret of pool size k over p in (0, min(U, P0)].

    One candidate per oracle size m < k: the peak of g_m on the domain,
    compared against the p->0 limit. The oracle size does not increase
    with p, so m runs from m_lo = k*(min(U, P0)) >= 3 only. The peaks
    are unimodal in m and stop rising once clamped to the domain end
    (docs/decisions.md, "The worst oracle size by a gallop over m"), so a
    gallop from m_lo finds the largest, m*, in O(log(m* - m_lo)) scalar
    peaks, two when m_lo + 1 is clamped; ties go to the highest q and so
    the smallest p. Raises RuntimeError for k above 10**15, which double
    precision cannot resolve.
    """
    _check_group_size(k)
    _check_upper_bound(U)
    if k > _K_RESOLVABLE:
        raise RuntimeError(
            f"the supremum of pool size {k} is not resolvable in double precision"
        )
    _, log_floor, m_lo = _domain(U)
    return _sup_loss(log_floor, m_lo, int(k))  # numpy integers would wrap in k*m


def _grid_tests(k, p):
    """E(k, p) on an array of p; k >= 2 is a size or an array of sizes."""
    import numpy as np

    try:
        return 1.0 / k - np.expm1(k * np.log1p(-p))
    except OverflowError:  # an int k past the largest double, as core._times takes it
        t = k.bit_length() - 64
        with np.errstate(over="ignore"):  # to -inf, where expm1 is -1
            return 1 / k - np.expm1(np.ldexp(float(k >> t) * np.log1p(-p), t))


def _check_grid_step(U: float, step: float) -> None:
    if not 0.0 < step <= 1e-3 or min(U, P0) / step > 1e7:
        raise ValueError(
            f"step must lie in (0, 1e-3] and give at most 1e7 grid points, got {step!r}"
        )


def _grid_base(U: float, step: float):
    """The grid p over [0, min(U, P0)] and the oracle cost at p[1:]."""
    import numpy as np

    hi = min(U, P0)
    n = int(math.floor(hi / step + 1e-12))
    p = np.arange(n + 1) * step
    if p[-1] < hi:
        p = np.append(p, hi)  # the right endpoint is part of the domain
    # Oracle cost min(E(i+1, p), E(i+2, p)), i = floor(p^-1/2): on (0, P0]
    # Samuels' theorem puts the optimum at one of the two, so the oracle needs
    # neither the solver's fractional-part test nor its tie rule.
    i = np.floor(p[1:] ** -0.5)
    opt = np.minimum(_grid_tests(i + 1, p[1:]), _grid_tests(i + 2, p[1:]))
    return p, opt


def _grid_sup(k: int, p, opt) -> LossPoint:
    """Worst grid point of pool size k, on the grid p with oracle cost opt."""
    import numpy as np

    losses = np.empty(p.shape)
    losses[0] = 1.0 if k == 1 else 1 / k  # in ints, which do not overflow
    losses[1:] = (1.0 if k == 1 else _grid_tests(k, p[1:])) - opt
    i = int(np.argmax(losses))  # first occurrence: lowest p on ties
    return LossPoint(k, float(p[i]), float(losses[i]))


def sup_loss_grid(k: int, U: float = 1.0, step: float = 1e-6) -> LossPoint:
    """Grid-search counterpart of sup_loss_analytic (test oracle).

    Evaluates the regret on p in {0, step, 2*step, ...} up to min(U, P0)
    (endpoint included) and returns the first maximizing grid point.
    Raises ValueError when the grid would hold more than 1e7 points.
    """
    _check_group_size(k)
    _check_upper_bound(U)
    _check_grid_step(U, step)
    return _grid_sup(k, *_grid_base(U, step))


def _regret_floor(pt: LossPoint, lo: int, hi: float) -> tuple[float, float]:
    """(a lower bound on sup_loss(k) for every k in [lo, hi], the k where it is least).

    sup_loss(k) >= pt.sup_loss + E(k, p) - E(pt.k, p) at p = pt.p_star, and
    E(., p) falls to k*(p), rises and may fall again towards 1, so the least
    is at k*(p) clamped into [lo, hi] or at hi, which may be inf
    (docs/decisions.md, "The minimax pool size by the shared certified search").
    A point of zero regret, as the anchor, lies at an oracle size of its own
    p, which stands in for k*(p).
    """
    j, p = pt.k, pt.p_star
    if p == 0.0:
        return 1.0 / hi, hi
    log_q, loss = math.log1p(-p), pt.sup_loss
    q_j = math.exp(j * log_q)
    floors = []
    for i in (min(max(j if loss == 0.0 else samuels_optimal_k(p), lo), hi), hi):
        # E(i, p) - E(j, p) = up - down in log q, as _peak forms g_m
        up = -q_j * math.expm1((i - j) * log_q)  # q^j at i = inf
        down = 1.0 / j if i == math.inf else (i - j) / (i * j)  # exact past 2**53
        # less a rounding allowance of 4e-15 of the magnitude of the terms
        floors.append((loss + up - down - 4e-15 * (loss + abs(up) + abs(down)), i))
    return min(floors)


def _beyond(pt: LossPoint, best: tuple[float, int], anchor: LossPoint | None) -> bool:
    """Whether every size above pt.k loses to best = (sup_loss, k).

    J(pt.k) >= best rules them out, as sup_loss(k) > J(pt.k) for k > pt.k;
    so does a _regret_floor over (pt.k, inf) above best, or equal to it
    with pt.k + 1 above the best k: first of pt itself, then of the anchor.
    """
    k = pt.k
    if pt.sup_loss - 1.0 / k >= best[0]:
        return True
    for point in (pt, anchor) if anchor else (pt,):
        # ties go to the smaller k, as in split
        if (_regret_floor(point, k + 1, math.inf)[0], k + 1) > best:
            return True
    return False


def _search(sup, g: int, anchor: LossPoint | None = None) -> LossPoint:
    """Worst point of the smallest k minimizing sup(k).sup_loss, from a start g >= 2.

    J(k) = sup_loss(k) - 1/k >= 0 never decreases in k (docs/decisions.md,
    "The minimax pool size by the shared certified search"),
    so sup_loss(k) > J(K) for k > K. The _regret_floor over (K, inf) of K's
    own worst point, and of an anchor, a point of zero regret, bound every
    size above K too (`_beyond`). The first step is a local certificate:
    where `_beyond` holds at g, or else at g + 1, and the floor 1/(g-1) of
    size 1, whose worst point is the p -> 0 limit, prunes (1, g), the best
    size taken is the answer. Elsewhere a branch and bound visits 1 and g
    and goes on: on (a, b) the _regret_floor of a bounds sup_loss(k), and is
    never below 1/(b-1) + J(a) unless a's worst point is the p -> 0 limit
    with J(a) > 0, which no real supremum has; an interval it does not
    prune is split where it is least.
    """
    start = top = win = sup(g)
    best = (win.sup_loss, g)  # ties go to the smaller k
    held = _beyond(top, best, anchor)
    if not held and g < _K_RESOLVABLE:  # the engine's first step past g
        top = sup(g + 1)
        if top.sup_loss < best[0]:
            win, best = top, (top.sup_loss, g + 1)
        held = _beyond(top, best, anchor)
    if held and (1.0 / (g - 1), 2) > best:  # the floor of 1 prunes (1, g)
        return win
    # the closures capture only names bound from here on, as a captured name
    # is a cell, slower to read, in the whole function, the certificate too;
    # least is the best of the sizes the engine has visited
    points, least = {g: start, top.k: top}, (math.inf, 0)
    fetch, zero_regret = sup, anchor

    def visit(k):
        nonlocal least
        if k not in points:  # the certificate's suprema are not taken twice
            points[k] = fetch(k)
        least = min(least, (points[k].sup_loss, k))

    def beyond(k):
        return _beyond(points[k], least, zero_regret)

    def split(a, b):
        # the floor of b would save a supremum on 25 of 25 000 bounds, at a
        # floor in every split (docs/decisions.md, "The minimax pool size by
        # the shared certified search")
        bound, k = _regret_floor(points[a], a + 1, b - 1)
        return k if (bound, a + 1) <= least else None

    _branch_and_bound(visit, beyond, split, (1, g))
    return points[least[1]]


def minimax_group_size(
    U: float = 1.0, method: str = "analytic", *, grid_step: float = 1e-6
) -> MinimaxResult:
    """Pool size minimizing the worst-case regret over (0, min(U, P0)].

    Ties go to the smaller pool size. One or two suprema, at the asymptote
    g = 2/sqrt(U) + 1 of the answer (8 at the least) and at g + 1, certify
    nearly every answer; a branch and bound certifies the rest. Raises
    RuntimeError when no size up to 1e15 is certified, as for bounds U
    below about 4e-30, where g passes 1e15.
    The grid method raises ValueError for a grid_step that sup_loss_grid
    refuses, before shrinking it to U/1e5 for small windows.
    """
    _check_upper_bound(U)
    hi, log_floor, m_lo = _domain(U)
    if method == "analytic":
        sup = partial(_sup_loss, log_floor, m_lo)
    elif method == "grid":
        _check_grid_step(U, grid_step)
        if U / 1e5 == 0.0:  # the step underflows, far below the answered range
            raise _unresolved()
        # one grid for the whole search; small windows keep 1e5 grid points
        p, opt = _grid_base(U, min(grid_step, U / 1e5))
        sup = partial(_grid_sup, p=p, opt=opt)
    else:
        raise ValueError(f"method must be 'analytic' or 'grid', got {method!r}")
    # start at the small-U asymptote g = 2/sqrt(U) + 1, or at 8 where that
    # is smaller, as no answer is below 8; size 1, whose worst point p -> 0
    # bounds the sizes below g by 1/(g-1), is evaluated only where the local
    # certificate fails (docs/decisions.md, "The minimax pool size by the
    # shared certified search"); the oracle size at the domain end has zero
    # regret there, a point both methods evaluate
    g = min(max(round(2.0 / math.sqrt(hi)) + 1, 8), _K_RESOLVABLE)
    pt = _search(sup, g, LossPoint(m_lo, hi, 0.0))
    return MinimaxResult(pt.k, U, pt, method)
