"""Bayesian pool-size selection under truncated beta priors on (0, U].

The prior density is p^(a-1)(1-p)^(b-1) / B(U; a, b) on (0, U], where
B(U; a, b) is the incomplete beta function; (1,1) is the uniform prior and
(1/2, 1/2) the Jeffreys prior, whose normalizer is 2*arcsin(sqrt(U)).

The solver needs no quadrature and no special-function library. With
R_j = E[p(1-p)^j] = B(U; a+1, b+j) / B(U; a, b), the prior-mean cost of pool
size k >= 2 is C(k) = 1/k + S_k with S_k = sum_{j<k} R_j, free of the
cancellation in 1 - E[(1-p)^k]. The recurrence in b of DLMF §8.17(iv) gives
R_{j+1} = ((b+j) R_j + w_j) / (a+b+j+1) with w_j = U^(a+1)(1-U)^(b+j) / B(U; a, b),
again positive terms, so each step costs a few float operations. R_0, w_0
and log B(U; a, b) come from a continued fraction of DLMF 8.17.22 at U, or
at 1-U with the contiguous relation 8.17.20 where that does not cancel.
The same start values at shape b + k give S_k and R_k at any k in O(1),
and `bayes_optimal_k` combines both in a certified search. The independent
oracles, adaptive quadrature in t (p = U*t^2) and the uniform prior's
closed form, live in `oracles`, which no solver imports.
"""

import math
from collections import namedtuple

from .core import _K_RESOLVABLE, _branch_and_bound, _check_upper_bound, _unresolved


class PriorSpec(namedtuple("PriorSpec", "a b upper")):
    """Beta(a, b) prior truncated and renormalized to (0, upper]."""

    __slots__ = ()

    def __new__(cls, a: float, b: float, upper: float = 1.0):
        if not (0.0 < a < math.inf and 0.0 < b < math.inf):
            raise ValueError(
                f"beta shapes must be positive and finite, got a={a!r}, b={b!r}"
            )
        _check_upper_bound(upper)
        return tuple.__new__(cls, (a, b, upper))  # namedtuple's own __new__, inlined

    @classmethod
    def _make(cls, iterable):  # the inherited one, behind _replace, skips __new__
        return cls(*iterable)

    @classmethod
    def uniform(cls, upper: float = 1.0) -> "PriorSpec":
        return cls(1.0, 1.0, upper)

    @classmethod
    def jeffreys(cls, upper: float = 1.0) -> "PriorSpec":
        return cls(0.5, 0.5, upper)


BayesResult = namedtuple("BayesResult", "k_opt expected_tests_at_opt prior")
BayesResult.__doc__ = """\
The pool size k_opt minimizing the prior-mean cost, and that cost."""


# Terms of the continued fraction before it counts as divergent; the
# number needed grows like the square root of the larger beta shape.
_CF_MAX_TERMS = 10_000
_TINY = 1e-300  # stands in for a zero denominator in Lentz's method
_ULP = math.ulp(1.0)
# log Gamma(x) - (x-1/2) log x + x - log(2 pi)/2 = sum_i _STIRLING[i] / x^(2i+1);
# the first omitted term is below 7e-16 for x >= 10.
_STIRLING = (1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188, -691 / 360360)
# The search walks the recurrence over k <= _WALK when the guessed optimum
# is below a quarter of it, else it jumps; the two cross near a guess of
# 30, but lower limits were not faster beyond the noise (docs/decisions.md,
# "The Bayes pool size by a certified search").
_WALK = 320
# Costs within this relative distance of the best are a tie in rounding,
# and ties go to the smaller size
_TIE = 4e-16
# R_k k(k+1) within this of 1 is a tie of C(k) and C(k+1) in rounding
_GAP_RTOL = 1e-14


def _beta_cf(a: float, b: float, x: float, rest: bool = False) -> float:
    """h with B(x; a, b) = x^a (1-x)^b h / a, or with rest its tail t.

    h = 1/(1 + d_1/(1 + d_2/(1 + ...))) is the continued fraction of DLMF
    8.17.22 and t = 1/(1 + d_2/(1 + ...)), so h = 1/(1 + d_1 t) with
    d_1 = -(a+b) x / (a+1), and t = h(a+1, b, x) / h(a, b, x). Modified
    Lentz; fast for x < (a+1)/(a+b+2). There log h = -log1p(d_1 t) keeps
    full relative precision as x -> 0, but 1 + d_1 t cancels just below
    that threshold for a large a, where h = 1/(1 + d_1 t) reaches 1e4.
    Far above it the fraction can stop on a wrong, even negative, h; as
    B(x; a, b) >= x^a min(1, (1-x)^(b-1)) / a, h >= 1, so a smaller h or
    one not finite raises as a fraction that did not converge.
    """
    c = 1.0
    if rest:
        d = 1.0 + (b - 1.0) * x / ((a + 1.0) * (a + 2.0))  # 1 + d_2
    else:
        d = 1.0 - (a + b) * x / (a + 1.0)  # 1 + d_1
    # d > _TINY or d < -_TINY is abs(d) > _TINY, false for nan as well
    d = 1.0 / (d if d > _TINY or d < -_TINY else _TINY)
    h, ab = d, a + b
    # the counters also as floats, fm = m and fn = n: exact, and float-only
    # operations take CPython's fast path where an int operand does not
    fm, fn = 0.0, 1.0 if rest else 0.0
    for m in range(1, _CF_MAX_TERMS + 1):
        fm += 1.0
        fn += 1.0
        a2n = a + 2.0 * fn
        even = fn * (b - fn) * x / ((a2n - 1.0) * a2n)  # d_{2n}
        a2m = a + 2.0 * fm
        odd = -(a + fm) * (ab + fm) * x / (a2m * (a2m + 1.0))
        first, second = (odd, even) if rest else (even, odd)
        d = 1.0 + first * d
        d = 1.0 / (d if d > _TINY or d < -_TINY else _TINY)
        c = 1.0 + first / c
        c = c if c > _TINY or c < -_TINY else _TINY
        h *= c * d
        d = 1.0 + second * d
        d = 1.0 / (d if d > _TINY or d < -_TINY else _TINY)
        c = 1.0 + second / c
        c = c if c > _TINY or c < -_TINY else _TINY
        cd = c * d
        h *= cd
        if -_ULP <= cd - 1.0 <= _ULP:
            if rest or 1.0 <= h < math.inf:
                return h
            raise RuntimeError(
                f"the incomplete-beta continued fraction for ({a}, {b}) at {x} "
                f"did not converge: it stopped after {m} terms on h = {h}, not in [1, inf)"
            )
    raise RuntimeError(
        f"the incomplete-beta continued fraction for ({a}, {b}) at {x} "
        f"did not converge in {_CF_MAX_TERMS} terms"
    )


def _stirling_tail(x: float) -> float:
    y = 1.0 / (x * x)
    s = 0.0
    for c in reversed(_STIRLING):
        s = s * y + c
    return s / x


def _log_beta(a: float, b: float) -> float:
    """log B(a, b); Stirling's series keeps log Gamma(b) - log Gamma(a+b)
    free of cancellation when the larger shape b is large."""
    a, b = min(a, b), max(a, b)
    if b < 10.0:
        return math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
    return (
        math.lgamma(a)
        - (b - 0.5) * math.log1p(a / b)
        - a * math.log(a + b)
        + a
        + _stirling_tail(b)
        - _stirling_tail(a + b)
    )


def _start_values(a: float, b: float, U: float):
    """(R_0, w_0, log B(U; a, b), log h(a, b, U)) of the cost recurrence,
    from the only calls of `_beta_cf`; log h is nan where the complements
    are taken. At U = 1 the log mass, log B(a, b), is None: the start values
    need none, and past shapes of 2.5e305 it overflows.

    Below (a+1)/(a+b+2), one continued fraction at U and its rest t give
    R_0 = U a t / (a+1), with no log B(a, b). Above it, one fraction at 1-U
    gives the mass m, and R_0 = (a - z/m) / (a+b) with z = U^a (1-U)^b /
    B(a, b) (DLMF 8.17.20), while at most half the mass (a tenth, where
    U^a (1-U)^b < e^-5) and nine tenths of the mean lie above U. Else one
    fraction h at U gives R_0 = a (1 - 1/h) / (a+b) by the same relation;
    where h < 2 (a small a + b) that cancels, and h(a+1, b, U) gives R_0.
    """
    if U == 1.0:
        return a / (a + b), 0.0, None, math.nan
    log_p = a * math.log(U) + b * math.log1p(-U)  # log U^a (1-U)^b
    if U < (a + 1.0) / (a + b + 2.0):
        t = _beta_cf(a, b, U, rest=True)
        u = -(a + b) * U / (a + 1.0) * t  # h = 1 / (1 + u)
        log_h = -math.log1p(u)
        log_m = log_p + log_h - math.log(a)
        return U * a * t / (a + 1.0), U * a * (1.0 + u), log_m, log_h
    log_b = _log_beta(a, b)
    z = math.exp(log_p - log_b)  # U^a (1-U)^b / B(a, b)
    tail = z * _beta_cf(b, a, 1.0 - U) / b  # 1 - I_U(a, b)
    # I_U(a+1, b) = 1 - tail - z/a (DLMF 8.17.20) gives R_0; z carries the
    # rounding of log_p, which the fraction at U does not, so past a tenth
    # of the mass above U the complements need log_p >= -5
    if tail + z / a <= 0.9 and tail <= (0.5 if log_p >= -5.0 else 0.1):
        mass = 1.0 - tail
        return (a - z / mass) / (a + b), U * z / mass, math.log(mass) + log_b, math.nan
    h = _beta_cf(a, b, U)
    if h < 2.0:  # 1 - 1/h would cancel
        r0 = U * a * _beta_cf(a + 1.0, b, U) / ((a + 1.0) * h)
    else:
        r0 = a * (1.0 - 1.0 / h) / (a + b)
    return r0, U * a / h, log_p + math.log(h / a), math.log(h)


def _far_bound(s: float, r: float, gap: float) -> float:
    """A lower bound on C(j) for every j > k, given S_k, R_k and the gap
    R_k - R_{k+1}, valid when R_k k^2 >= 1 (docs/decisions.md, "The Bayes
    pool size by a certified search").

    R_j is log-convex in j, so R_j >= R_k (R_{k+1}/R_k)^(j-k) and the cost
    beyond k is at least min(C(k), S_k + R_k^2 / (R_k - R_{k+1})). At small
    U the gap is about U R_k, and formed as a difference it cancels; there
    `beyond` takes it as E[p^2 (1-p)^k] from one continued fraction.
    """
    return s + r * r / gap if gap > 0.0 else -math.inf


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
        log_top = log_phi + a * math.log1p(b / i)  # log A
        if log_top + math.log(a) < 0.0:
            return -(1.0 - a) / a * math.exp((log_top + math.log(a)) / (1.0 - a)) / i
    elif a > 1.0:  # the largest phi on [i, j] is at most phi(i) e^(b/i - b/j)
        log_top = log_phi + b / i - b / j
    else:
        log_top = log_c + math.log(j) + _log_beta(a, b + j)
    # past e^709 the floor lies below -1e292, under any slack - 1: no bound
    top = math.exp(log_top) if log_top < 709.0 else math.inf
    return (1.0 - top) / (i if top > 1.0 else j)


def _search(a: float, b: float, U: float):
    """(k, C(k)) for the smallest k minimizing the prior-mean cost; the
    certificates are in docs/decisions.md, "The Bayes pool size by a
    certified search". Small optima are walked one size at a time, and at
    k = 16, 32, ..., 256 the walk tries the cost floor, which ends nearly
    flat costs. Larger optima are jumped to:
    `visit` evaluates S_k and R_k at any k in O(1), from the start values
    at shape b + k or by one step up from k - 1. A jump visits top - 1,
    top and top + 1 around the second-order estimate top, and a local
    certificate ends most searches there. Else `core._branch_and_bound`
    continues: the far, chord and floor bounds prune (the floor also ends
    a > 1 priors, where k = 1 wins from some size on), and `_settle`
    decides between neighbours whose costs agree to rounding. Only the
    log of the mass B(U; a, b) enters, so a mass that underflows needs no
    refusal."""
    r0, w0, log_m, log_h0 = _start_values(a, b, U)
    log_q = math.log1p(-U) if U < 1.0 else 0.0  # w_j = w_0 (1-U)^j; w_0 = 0 at U = 1
    best_k, best = 1, 1.0  # k = 1 tests everyone once
    guess = r0**-0.5 if r0 > 0.0 else math.inf  # the optimum of 1/k + k R_0
    k, s, r = 1, r0, (b * r0 + w0) / (a + b + 1.0)  # s = S_k, r = R_k
    if guess < _WALK / 4:  # walk the positive-term recurrence
        bar = best - _TIE * best  # a tie in rounding keeps the smaller k
        exp, ab, check = math.exp, a + b, 16
        fk = 1.0  # k as a float, exact, for the float-only fast path
        while True:
            nxt = ((b + fk) * r + w0 * exp(fk * log_q)) / (ab + fk + 1.0)
            if s >= best or (r * fk * fk >= 1.0 and _far_bound(s, r, r - nxt) >= best):
                return best_k, best
            if k >= check:  # at 16, 32, ..., 256 try the floor, as beyond does
                if k >= _WALK:
                    break
                if best > 0.5:
                    if log_m is None:
                        log_m = _log_beta(a, b)
                    if _floor(a, b, -log_m, k + 1, math.inf) >= bar - 1.0:
                        return best_k, best
                check = min(2 * check, _WALK)
            s += r
            r = nxt
            k += 1
            fk += 1.0
            e = 1.0 / fk + s
            if e < bar:
                best_k, best = k, e
                bar = best - _TIE * best
        sizes, top = (k, 2 * k), None  # a long walk gets no local certificate
    else:  # the next term of the small-U asymptote, with E[p^2] = R_0 - R_1
        if guess < _K_RESOLVABLE:  # no guess^2 overflows, and g2 is not nan
            guess += guess * guess * (r0 - r) / (2.0 * r0)
        top = max(2, round(min(guess, _K_RESOLVABLE - 1)))
        sizes = (k, top - 1, top, top + 1)  # one fraction, two steps; top + 1 <= 1e15
    if log_m is None:
        log_m = _log_beta(a, b)
    S, R = {k: s}, {k: r}  # S_k and R_k at the walk's end and at the sizes jumped to

    def step(j, r):  # R_{j+1} from R_j by the recurrence
        return ((b + j) * r + w0 * math.exp(j * log_q)) / (a + b + j + 1.0)

    def visit(k):
        """S_k and R_k in O(1), from the start values at shape b + k or by
        one step up from k - 1."""
        nonlocal best_k, best
        if k in S:  # the walk's end keeps the values of the recurrence
            return
        if k - 1 in S:  # positive terms; the step down would cancel
            S[k], R[k] = S[k - 1] + R[k - 1], step(k - 1, R[k - 1])
        else:
            bk = b + k
            r0k, _, log_m_k, log_hk = _start_values(a, bk, U)
            if U < (a + 1.0) / (a + bk + 2.0):
                # 1 - S_k = B(U; a, b+k) / B(U; a, b) = (1-U)^k h(a, b+k) / h(a, b)
                x = k * log_q + log_hk - log_h0
            else:
                x = (_log_beta(a, bk) if log_m_k is None else log_m_k) - log_m
            R[k] = r0k * math.exp(x)  # R_k = R_0(a, b+k) (1 - S_k)
            S[k] = -math.expm1(x)
        e = 1.0 / k + S[k]
        if e < best - _TIE * best or (e <= best + _TIE * best and k < best_k):
            best_k, best = k, e

    def beyond(k):
        """Whether every size above k is certified to cost at least best."""
        s, r, slack = S[k], R[k], best - _TIE * best
        if s >= slack:
            return True
        if r * k * k >= 1.0:
            nxt = step(k, r)
            if _far_bound(s, r, r - nxt) >= slack:
                return True
            if r - nxt < 1e-6 * r and U < (a + 2.0) / (a + b + k + 3.0):
                # R_k - R_{k+1} = E[p^2 (1-p)^k] = R_k R_0(a+1, b+k)
                if _far_bound(s, r, r * _start_values(a + 1.0, b + k, U)[0]) >= slack:
                    return True
        return best > 0.5 and _floor(a, b, -log_m, k + 1, math.inf) >= slack - 1.0

    def split(lo, hi):
        # S is concave, so on (lo, hi) C(k) >= 1/k + S_lo + (k - lo) slope,
        # a convex bound whose minimum is at k = 1/sqrt(slope)
        slope = (S[hi] - S[lo]) / (hi - lo)
        m = hi - 1 if slope <= 0.0 else min(max(int(slope**-0.5), lo + 1), hi - 1)
        if m + 1 < hi and 1.0 / (m + 1) + slope < 1.0 / m:
            m += 1
        slack = best - _TIE * best
        pruned = 1.0 / m + S[lo] + (m - lo) * slope >= slack or (
            best > 0.5 and _floor(a, b, -log_m, lo + 1, hi - 1) >= slack - 1.0
        )  # the floor helps only where costs are close to 1
        return None if pruned else m

    for j in sizes:
        visit(j)
    # the local certificate of a jump, a proof from its sizes alone: C falls
    # into best_k and not out of it by the gap rule, and the bounds rule out
    # every size not visited, those above top + 1 and those between k = 1
    # and top - 1; `_settle` would keep best_k by the same two gap tests
    j = best_k - 1
    if top is not None and j in R and _falls(R[j], j) and not _falls(R[best_k], best_k):
        if beyond(top + 1) and split(k, top - 1) is None:
            return best_k, best
    _branch_and_bound(visit, beyond, split, sizes)
    if best_k > 1 and best_k in R:  # the gap at j = 1 is not C(2) - C(1)
        best_k = _settle(best_k, visit, R)
        best = 1.0 / best_k + S[best_k]
    return best_k, best


def _falls(r: float, j: int) -> bool:
    """C(j+1) < C(j) beyond rounding, by C(j+1) - C(j) = R_j - 1/(j(j+1))."""
    return r * j * (j + 1.0) < 1.0 - _GAP_RTOL


def _settle(k, visit, R):
    """The local minimum next to k by the sign of C(j+1) - C(j) = R_j -
    1/(j(j+1)), which keeps R_j's full relative precision where the costs
    of neighbours agree to rounding; ties go to the smaller size.

    The first j >= 2 at which C stops falling is found by galloping and
    bisecting, because on nearly flat costs it can lie 1e10 sizes away.
    """

    def down(j):
        visit(j)
        return _falls(R[j], j)

    if down(k):  # the minimum lies above k
        lo, step = k, 1
        while down(hi := min(lo + step, _K_RESOLVABLE)):
            if hi == _K_RESOLVABLE:  # C still falls where doubles stop resolving it
                raise _unresolved()
            lo, step = hi, 2 * step
    else:  # the minimum is k or below it
        hi, step = k, 1
        while hi - step >= 2 and not down(hi - step):
            hi, step = hi - step, 2 * step
        lo = max(hi - step, 1)  # down(lo), or lo = 1, below every compared size
    while hi - lo > 1:  # down(lo) and not down(hi)
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if down(mid) else (lo, mid)
    return hi


def bayes_optimal_k(prior: PriorSpec) -> BayesResult:
    """Pool size minimizing the prior-mean cost; ties go to the smaller k.

    A certified search (docs/decisions.md, "The Bayes pool size by a
    certified search"): small optima come from walking the cost recurrence
    one size at a time, large ones from a few jumps of O(1) each, and every
    other size is ruled out by a bound. Costs that
    agree to rounding are ties. A prior whose mass on (0, upper] underflows
    is answered, as the search takes the mass in logs. Raises RuntimeError
    when no size up to 1e15 is certified, when a continued fraction does
    not converge, or when the shapes are so large that a value of the
    search overflows.
    """
    try:
        return BayesResult(*_search(*prior), prior)
    except RuntimeError as exc:  # a fraction diverged, or no k up to 1e15 is certified
        raise RuntimeError(f"{prior}: {exc}") from None
    except OverflowError as exc:  # logs of huge shapes' terms round past e^709
        raise RuntimeError(
            f"{prior}: the shapes are too large for double precision ({exc})"
        ) from None


def uniform_optimal_k(U: float) -> int:
    """Pool size minimizing the Uniform(0, U] prior-mean cost."""
    return bayes_optimal_k(PriorSpec.uniform(U)).k_opt
