"""Minimax pool size: minimize the worst-case regret over prevalence.

The worst case for a fixed pool size k is searched over (0, min(U, P0)];
nothing is lost by truncating at P0, where individual testing takes over.
The shipped solver is a maximum over the oracle size m. In q = 1-p the
regret is E(k) - min_m E(m) = max_m g_m(q) with g_m(q) = q^m - q^k + 1/k - 1/m,
so its supremum is the largest of the sup_q g_m. Each g_m with m < k rises
up to q_m = (m/k)^(1/(k-m)) and falls after it, so it peaks on the domain at
max(q_m, 1 - min(U, P0)); sizes m >= k stay below the p->0 limit 1/k. A
plain grid search over p mirrors the heuristic procedure and serves as the
independent oracle in tests.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache, partial

import numpy as np

from .core import (
    P0,
    _check_group_size,
    _check_upper_bound,
    _expected_tests_vec,
    _optimal_tests_vec,
    _scan_for_minimum,
    samuels_optimal_k,
)

__all__ = [
    "LossPoint",
    "MinimaxResult",
    "sup_loss_analytic",
    "sup_loss_grid",
    "minimax_group_size",
]


@dataclass(frozen=True)
class LossPoint:
    """Worst-case prevalence and regret for one pool size.

    p_star = 0 encodes the p->0 limit, where the regret tends to 1/k
    (1 for k = 1).
    """

    k: int
    p_star: float
    sup_loss: float


@dataclass(frozen=True)
class MinimaxResult:
    k_minimax: int
    upper_bound: float
    worst_point: LossPoint
    method: str


def sup_loss_analytic(k: int, U: float = 1.0) -> LossPoint:
    """Supremum of the regret of pool size k over p in (0, min(U, P0)].

    One candidate per oracle size m < k: the peak of g_m on the domain,
    compared against the p->0 limit. The oracle size does not increase
    with p, so m runs from max(3, k*(min(U, P0))) only. Ties go to the
    smallest p.
    """
    _check_group_size(k)
    _check_upper_bound(U)
    hi = min(U, P0)
    limit = 1.0 if k == 1 else 1.0 / k
    m = np.arange(max(3, samuels_optimal_k(hi)), k)
    if m.size:
        q = np.maximum((m / k) ** (1.0 / (k - m)), 1.0 - hi)
        vals = q ** m - q ** k + 1.0 / k - 1.0 / m
        best = vals.max()
        if best > limit:
            q_best = q[vals == best].max()  # highest q = lowest p
            return LossPoint(k, 1.0 - float(q_best), float(best))
    return LossPoint(k, 0.0, limit)


@lru_cache(maxsize=1)  # a scan reuses one grid; each can take megabytes
def _grid_base(U: float, step: float):
    hi = min(U, P0)
    n = int(math.floor(hi / step + 1e-12))
    p = np.arange(n + 1) * step
    if p[-1] < hi:
        p = np.append(p, hi)  # the right endpoint is part of the domain
    opt = _optimal_tests_vec(p[1:])
    p.flags.writeable = False
    opt.flags.writeable = False
    return p, opt


def sup_loss_grid(k: int, U: float = 1.0, step: float = 1e-6) -> LossPoint:
    """Grid-search counterpart of sup_loss_analytic (test oracle).

    Evaluates the regret on p in {0, step, 2*step, ...} up to min(U, P0)
    (endpoint included) and returns the first maximizing grid point.
    """
    _check_group_size(k)
    _check_upper_bound(U)
    if not 0.0 < step <= 1e-3:
        raise ValueError(f"step must lie in (0, 1e-3], got {step!r}")
    p, opt = _grid_base(U, step)
    losses = np.empty(p.shape)
    losses[0] = 1.0 if k == 1 else 1.0 / k
    losses[1:] = _expected_tests_vec(k, p[1:]) - opt
    i = int(np.argmax(losses))  # first occurrence: lowest p on ties
    return LossPoint(k, float(p[i]), float(losses[i]))


def minimax_group_size(
    U: float = 1.0,
    method: str = "analytic",
    *,
    grid_step: float = 1e-6,
    patience: int = 10,
    k_cap: int = 100_000,
) -> MinimaxResult:
    """Pool size minimizing the worst-case regret over (0, min(U, P0)].

    Scans k upward and stops after `patience` sizes without a strict
    improvement of the supremum (the worst-case curve is unimodal in k);
    ties in the minimum go to the smaller pool size.
    """
    _check_upper_bound(U)
    if method == "analytic":
        sup = partial(sup_loss_analytic, U=U)
    elif method == "grid":
        step = min(grid_step, U / 1e5)  # small windows keep at least 1e5 grid points
        sup = partial(sup_loss_grid, U=U, step=step)
    else:
        raise ValueError(f"method must be 'analytic' or 'grid', got {method!r}")
    losses = (sup(k).sup_loss for k in itertools.count(1))
    k, _ = _scan_for_minimum(losses, patience, k_cap)
    return MinimaxResult(k, U, sup(k), method)
