"""Prevalence intervals on which a fixed pool size is optimal.

The breakpoints between optimality regions are, in q = 1 - p, the larger
real roots of q^k (1-q) = 1/(k(k+1)). Pool size l >= 3 is optimal exactly
between the roots for l and l-1 (with the k=2 root defined as (1/3)^(1/3));
k = 2 is never optimal and k = 1 owns everything above P0.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache

from .core import P0, Q0, _check_group_size

__all__ = ["OptimalityRange", "delta", "larger_root", "optimality_range"]


class OptimalityRange(namedtuple("OptimalityRange", "k p_low p_high")):
    """Closed interval [p_low, p_high] on which pool size k is optimal.

    Endpoints are shared with the adjacent pool sizes: at a breakpoint
    both neighbors achieve the same cost. Like every record of the package
    it is an immutable named tuple, so it unpacks as (k, p_low, p_high) and
    compares equal to any tuple that holds the same values.
    """

    __slots__ = ()


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


@lru_cache(maxsize=4096)  # only the sizes asked for are ever bisected
def _bisect_larger_root(k: int) -> float:
    # The bracket (k/(k+1), 1) is valid: delta is positive at its interior
    # maximum q = k/(k+1) and negative at 1. Bisect to the last float.
    lo = k / (k + 1)
    hi = 1.0
    while True:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if delta(k, mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return lo if abs(delta(k, lo)) <= abs(delta(k, hi)) else hi


def larger_root(k: int) -> float:
    """Larger root of q^k(1-q) = 1/(k(k+1)); the k=2 value is (1/3)^(1/3)."""
    _check_group_size(k)
    if k < 2:
        raise ValueError(f"roots are defined for k >= 2, got {k}")
    return Q0 if k == 2 else _bisect_larger_root(int(k))


def optimality_range(k: int) -> OptimalityRange:
    """Prevalence interval on which pool size k is the oracle choice.

    Raises RuntimeError when the two breakpoints of k coincide in double
    precision; near 1 the roots step by about 2/k^3 in q against a float
    spacing of 1.1e-16, so this first happens at k = 262440.
    """
    _check_group_size(k)
    if k == 2:
        raise ValueError("pool size 2 is never optimal at any prevalence")
    if k == 1:
        return OptimalityRange(1, P0, 1.0)
    p_low, p_high = 1.0 - larger_root(k), 1.0 - larger_root(k - 1)
    if p_low >= p_high:
        raise RuntimeError(
            f"the breakpoints of pool size {k} are not separated in double "
            f"precision (both near p = {p_high:.6g})"
        )
    return OptimalityRange(k, p_low, p_high)
