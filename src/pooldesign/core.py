"""Exact cost model for Dorfman two-stage pooled testing.

A pool of k specimens costs one test if negative, k+1 tests if positive,
so the expected number of tests per person is E(k,p) = 1 - (1-p)^k + 1/k
for k >= 2 and E(1,p) = 1. The cost-minimizing pool size has a closed-form
characterization (Samuels' rule). The regret of running a fixed pool size
k at prevalence p is E(k,p) minus the cost of the oracle-optimal size, and
its relative efficiency is their ratio. A known-prevalence call needs only
this module, and `ranges` for an optimality range.
"""

import math

# Pooling beats individual testing only for p <= P0 = 1 - (1/3)^(1/3).
Q0 = (1.0 / 3.0) ** (1.0 / 3.0)
P0 = 1.0 - Q0
_K_RESOLVABLE = 10**15  # no solver resolves a larger pool size in double precision

def _check_group_size(k) -> None:
    # int first: the Integral ABC check alone costs about 0.7 us a call,
    # and numbers is imported only for other integer types, such as numpy's
    if isinstance(k, int):
        integral = not isinstance(k, bool)
    else:
        import numbers

        integral = isinstance(k, numbers.Integral)
    if not integral:
        raise ValueError(f"group size must be a positive integer, got {k!r}")
    if k < 1:
        raise ValueError(f"group size must be >= 1, got {k}")


def _check_upper_bound(U: float) -> None:
    if not 0.0 < U <= 1.0:
        raise ValueError(f"upper bound must lie in (0, 1], got {U!r}")


def _check_prevalence(p: float, *, allow_zero: bool) -> None:
    lo_ok = p >= 0.0 if allow_zero else p > 0.0
    if not (lo_ok and p < 1.0):
        lo = "[0, 1)" if allow_zero else "(0, 1)"
        raise ValueError(f"prevalence must lie in {lo}, got {p!r}")


def _times(k: int, x: float) -> float:
    """k * x, also for an int k past the largest double, where Python raises
    OverflowError: from the top 64 bits of k, within an ulp or two, and
    infinite where the product is past the largest double too."""
    try:
        return k * x
    except OverflowError:
        t = k.bit_length() - 64
        y = float(k >> t) * x  # k >> t is within 2**-63 of k / 2**t
        if y == 0.0 or math.frexp(y)[1] + t <= 1024:
            return math.ldexp(y, t)
        return math.copysign(math.inf, y)


# The public functions check each input once, inline by the helpers' own
# comparisons in their order (a helper call costs about 0.2 us), and call a
# helper only to raise its message, or its TypeError for an unorderable p.


def expected_tests(k: int, p: float) -> float:
    """Expected tests per person for pool size k at prevalence p."""
    if type(k) is not int or k < 1:  # a numpy integer passes the helper
        _check_group_size(k)
    if not (p >= 0.0 and p < 1.0):
        _check_prevalence(p, allow_zero=True)
    if k == 1:
        return 1.0
    # 1 - (1-p)^k as -expm1(k*log1p(-p)) keeps full relative precision at small p
    try:  # free in Python 3.11 until it catches
        return 1.0 / k - math.expm1(k * math.log1p(-p))
    except OverflowError:  # k is past the largest double; 1 / k rounds in ints
        return 1 / k - math.expm1(_times(k, math.log1p(-p)))


def samuels_optimal_k(p: float) -> int:
    """Cost-minimizing pool size at a known prevalence p.

    Individual testing (k=1) for p > P0. Otherwise the optimum is
    1 + floor(p^-1/2) or 2 + floor(p^-1/2); the fractional-part test
    resolves most cases and the remaining ones are settled by the sign of
    the cost gap, ties going to the smaller pool. The result is never 2.
    """
    if not (p > 0.0 and p < 1.0):
        _check_prevalence(p, allow_zero=False)
    if p > P0:
        return 1
    w = p ** -0.5
    i = math.floor(w)
    f = w - i
    if f < i / (2 * i + f):
        return i + 1
    # E(i+2) - E(i+1), formed without the cancellation of the two costs
    gap = p * math.exp((i + 1) * math.log1p(-p)) - 1 / ((i + 1) * (i + 2))
    return i + 1 if gap >= 0.0 else i + 2


def optimal_expected_tests(p: float) -> float:
    """Expected tests per person under the oracle-optimal pool size."""
    k = samuels_optimal_k(p)
    return 1.0 if k == 1 else 1.0 / k - math.expm1(k * math.log1p(-p))


def _unresolved() -> RuntimeError:
    """The refusal of a search whose optimum may lie beyond _K_RESOLVABLE."""
    return RuntimeError(
        f"no pool size up to {_K_RESOLVABLE:.0e} is certified optimal; "
        "double precision does not resolve the cost beyond it"
    )


def _branch_and_bound(visit, beyond, split, sizes) -> None:
    """The certified pool-size search of the minimax and Bayes solvers.

    visit(k) evaluates size k and keeps the best so far; beyond(k) tells
    whether every larger size is ruled out; split(lo, hi) is a size in
    (lo, hi) to visit next, or None if a bound rules them all out. The
    sizes are visited, then the last plus 1 and plus 3, and then doubled,
    until beyond holds (RuntimeError at _K_RESOLVABLE): the callers start
    next to the answer. Branch and bound (Land and Doig 1960) certifies the
    rest.
    """
    sizes = list(sizes)
    for k in sizes:
        visit(k)
    top, steps = sizes[-1], iter((1, 2))
    while not beyond(top):
        if top >= _K_RESOLVABLE:
            raise _unresolved()
        top = min(top + next(steps, top), _K_RESOLVABLE)
        visit(top)
        sizes.append(top)
    intervals = list(zip(sizes, sizes[1:]))  # open intervals left to certify
    while intervals:
        lo, hi = intervals.pop()
        if hi - lo > 1 and lo < top and (k := split(lo, hi)) is not None:
            visit(k)
            if beyond(k):
                top = min(top, k)
            intervals += [(k, hi), (lo, k)]


def loss(k: int, p: float) -> float:
    """Regret of pool size k at prevalence p: E(k,p) - E(k*(p),p).

    At p = 0 the value is defined by its limit, 1/k for k >= 2 and 1
    for k = 1, which closes the domain for worst-case searches.
    """
    cost = expected_tests(k, p)  # checks k, then p
    if p == 0.0:
        return cost
    j = samuels_optimal_k(p)
    if k == 1:
        return cost - optimal_expected_tests(p)
    log_q = math.log1p(-p)
    if j == 1:  # E(k) - 1 as 1/k - q^k, which does not cancel the 1
        return type(cost)(1 / k - math.exp(_times(k, log_q)))
    # q^j - q^k + 1/k - 1/j in log q, as minimax._regret_floor forms it: the
    # two costs are near 2 sqrt(p) and differ by only about |k-j| p near k*(p).
    # In Python ints, as a numpy k would overflow j - k and k * j in its width
    m = j - int(k)
    regret = m / (int(k) * j) - math.exp(j * log_q) * math.expm1(_times(-m, log_q))
    return type(cost)(regret)  # a numpy k gives a numpy result, as the cost does


def relative_efficiency(k_design: int, p: float) -> float:
    """Cost of a fixed design relative to the oracle design at prevalence p."""
    return expected_tests(k_design, p) / optimal_expected_tests(p)
