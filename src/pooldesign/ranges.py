"""Prevalence intervals on which a fixed pool size is optimal.

Pool sizes k and k+1 cost the same at the breakpoint p_k, the smaller root of
p (1-p)^k = 1/(k(k+1)), whose q = 1-p is the larger root of q^k (1-q) =
1/(k(k+1)). Pool size l >= 3 is optimal exactly on [p_l, p_(l-1)], with
p_2 = P0; k = 2 is never optimal and k = 1 owns everything above P0.
"""

import math
from collections import namedtuple
from functools import lru_cache

from .core import P0, Q0, _check_group_size

_K_RANGED = 10**13  # endpoint error / range width: 1e-3 here, 1e-2 near 1e14

OptimalityRange = namedtuple("OptimalityRange", "k p_low p_high")
OptimalityRange.__doc__ = """\
Closed interval [p_low, p_high] on which pool size k is optimal.

Endpoints are shared with the adjacent pool sizes: at a breakpoint
both neighbors achieve the same cost. Like every record of the package
it is an immutable named tuple, so it unpacks as (k, p_low, p_high) and
compares equal to any tuple that holds the same values.
"""


def delta(k: int, q: float) -> float:
    """Cost gap E(k+1) - E(k) as a function of q = 1-p: q^k(1-q) - 1/(k(k+1))."""
    _check_group_size(k)
    if k < 3:
        raise ValueError(f"delta is defined for k >= 3, got {k}")
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"q must lie in [0, 1], got {q!r}")
    k = int(k)
    # q**k is 0 or 1 well before k leaves the float range, and the integer
    # division stays exact for any k, so neither term can overflow.
    return q ** min(k, 2**64) * (1.0 - q) - 1 / (k * (k + 1))


def _breakpoint(k: int) -> float:
    # Newton on g(y) = y + k log1p(-w e^y), y = log(p/w) ~ 1/k: g is concave
    # and increasing left of its root and g(0) < 0, so each step from y = 0
    # stays left of the root and moves towards it (docs/decisions.md,
    # "Optimality breakpoints by Newton in log p").
    w = 1 / (k * (k + 1))  # integer division: 0.0 for huge k, never overflow
    k = float(min(k, 2**64))  # past 2**64 y < 1e-19 and p = w either way
    y, p = 0.0, w
    while True:
        y_next = y - (y + k * math.log1p(-p)) / (1.0 - k * p / (1.0 - p))
        if not y_next > y:
            return p
        y, p = y_next, w * math.exp(y_next)


def larger_root(k: int) -> float:
    """Larger root of q^k(1-q) = 1/(k(k+1)); the k=2 value is (1/3)^(1/3)."""
    _check_group_size(k)
    if k < 2:
        raise ValueError(f"roots are defined for k >= 2, got {k}")
    return Q0 if k == 2 else 1.0 - _breakpoint(int(k))


@lru_cache(maxsize=4096)  # only the sizes asked for are ever solved
def _range(k: int) -> OptimalityRange:
    """The record of an int 3 <= k <= _K_RANGED, built once."""
    p_high = P0 if k == 3 else _breakpoint(k - 1)
    return OptimalityRange(k, _breakpoint(k), p_high)


def optimality_range(k: int) -> OptimalityRange:
    """Prevalence interval on which pool size k is the oracle choice.

    Raises RuntimeError for k above 10**13, where the range, about 2/k wide
    relative to its ends, nears their rounding error (docs/decisions.md,
    "Optimality breakpoints by Newton in log p").
    """
    if type(k) is int and 3 <= k <= _K_RANGED:
        return _range(k)
    _check_group_size(k)
    if k == 2:
        raise ValueError("pool size 2 is never optimal at any prevalence")
    if k == 1:
        return OptimalityRange(1, P0, 1.0)
    if k > _K_RANGED:
        raise RuntimeError(
            f"pool size {k} has no optimality range resolvable in double precision"
        )
    return _range(int(k))._replace(k=k)  # a numpy k stays the caller's
