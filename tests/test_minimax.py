"""Tests for the worst-case regret supremum and the minimax pool size."""

import itertools
import math
import random
import time
import tracemalloc
from functools import cache, partial

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from mpmath import iv

from pooldesign import (
    P0,
    LossPoint,
    core,
    larger_root,
    minimax,
    minimax_group_size,
    optimal_expected_tests,
    samuels_optimal_k,
    sup_loss_analytic,
    sup_loss_grid,
)
from pooldesign.minimax import _grid_base

import _exact

# exact worst case for a pool of eight
P_STAR_8 = 1.0 - (3.0 / 8.0) ** 0.2
SUP_8 = (5.0 / 8.0) * (3.0 / 8.0) ** 0.6 - 5.0 / 24.0

LOG_SPACED_U = [float(U) for U in np.logspace(-6, 0, 608)]


class TestAnalyticSupremum:
    def test_small_sizes_peak_at_the_origin(self):
        for k in range(1, 8):
            pt = sup_loss_analytic(k, 1.0)
            assert pt.p_star == 0.0
            assert pt.sup_loss == (1.0 if k == 1 else 1.0 / k)

    def test_pool_of_eight(self):
        pt = sup_loss_analytic(8, 1.0)
        assert pt.p_star == pytest.approx(P_STAR_8, abs=1e-12)
        assert pt.sup_loss == pytest.approx(SUP_8, abs=1e-12)
        assert pt.sup_loss == pytest.approx(437.0 / 3152.0, abs=1e-3)

    def test_pool_of_ten(self):
        pt = sup_loss_analytic(10, 1.0)
        assert pt.p_star == pytest.approx(0.158, abs=5e-4)
        assert pt.sup_loss == pytest.approx(0.184, abs=1e-3)

    def test_unimodal_in_k(self):
        sups = [sup_loss_analytic(k, 1.0).sup_loss for k in range(1, 101)]
        assert all(a > b for a, b in zip(sups[:7], sups[1:8]))
        assert all(a < b for a, b in zip(sups[7:], sups[8:]))

    def test_worst_prevalence_non_increasing(self):
        prev = P_STAR_8
        for k in range(9, 10001):
            p = sup_loss_analytic(k, 1.0).p_star
            assert p <= prev + 1e-15
            prev = p

    def test_support_truncation_loses_nothing(self):
        # the supremum over (0, P0] equals the supremum over all of (0, 1)
        p_full = np.arange(1, 10000) * 1e-4
        sizes = np.arange(2, 201)[:, None]  # k*(p) <= 101 on this grid
        pooled = 1.0 - np.exp(sizes * np.log1p(-p_full)) + 1.0 / sizes
        opt = np.minimum(pooled.min(axis=0), 1.0)  # the oracle cost, by brute force
        for k in range(1, 51):
            cost = 1.0 if k == 1 else pooled[k - 2]
            full = max((cost - opt).max(), 1.0 if k == 1 else 1.0 / k)
            assert sup_loss_analytic(k, 1.0).sup_loss >= full - 1e-6

    @pytest.mark.parametrize("U", [0.0, -0.1, 1.5])
    def test_rejects_bad_bound(self, U):
        with pytest.raises(ValueError):
            sup_loss_analytic(8, U)

    @pytest.mark.parametrize(
        "k, U",
        [(20001, 1e-8), (201, 1e-4), (63245553205, 1e-21), (200000000001, 1e-22)],
    )
    def test_worst_oracle_size_at_m_lo_costs_few_peaks(self, monkeypatch, k, U):
        # the worst m is m_lo here and the peak of m_lo + 1 is clamped, which
        # settles it; a bisection over [m_lo, k-1] took 29, 15 and 69 peaks at
        # the first three, and comparing the clamped peaks took 3, 3, 3 and 73
        calls = []
        real = minimax._peak
        monkeypatch.setattr(
            minimax, "_peak", lambda *args: calls.append(args) or real(*args)
        )
        sup_loss_analytic(k, U)
        assert len(calls) <= 2


def _segment_supremum(k, U, roots):
    """Oracle-segment enumeration of the supremum; roots[j] = larger_root(j+2).

    On the segment where the oracle size is m, the regret is g_m; the
    candidates are its stationary point clamped to the segment and both
    segment ends, compared against the p->0 limit. The candidates are held
    as log q, so the domain end is p = min(U, P0) itself and not the
    rounded q = 1 - p, which is off by up to 5.5e-13 relative in p at 1e-4.
    """
    hi = min(U, P0)
    limit = 1.0 if k == 1 else 1.0 / k
    if k >= 4:
        m = np.arange(3, k)
        seg_lo, seg_hi = roots[: k - 3], roots[1 : k - 2]
        log_floor = math.log1p(-hi)
        keep = np.log(seg_hi) > log_floor
        if keep.any():
            m = m[keep]
            lo = np.maximum(np.log(seg_lo[keep]), log_floor)
            hiq = np.log(seg_hi[keep])
            q_stat = np.log(m / k) / (k - m)
            lq = np.concatenate([np.clip(q_stat, lo, hiq), lo, hiq])
            mm = np.concatenate([m, m, m])
            vals = np.exp(mm * lq) - np.exp(k * lq) + 1.0 / k - 1.0 / mm
            best = vals.max()
            if best > limit:
                return -math.expm1(float(lq[vals == best].max())), float(best)
    return 0.0, limit


K_ORACLE = 2000


@pytest.fixture(scope="module")
def roots():
    return np.array([larger_root(j) for j in range(2, K_ORACLE)])


def _check(oracle, rel, U, ks):
    """sup_loss_analytic(k, U) against the (p_star, sup_loss) of oracle(k, U)."""
    for k in ks:
        want_p, want = oracle(k, U)
        got = sup_loss_analytic(k, U)
        assert got.sup_loss == pytest.approx(want, rel=rel, abs=0), (k, U)
        assert got.p_star == pytest.approx(want_p, rel=0, abs=4.5e-16), (k, U)


class TestAgainstSegmentEnumeration:
    # the max over oracle sizes m must reproduce the per-segment supremum
    @pytest.mark.parametrize("U", [1.0, P0, 0.05, 1e-3, 1e-4, 1e-6])
    def test_fixed_bounds(self, U, roots):
        _check(partial(_segment_supremum, roots=roots), 1e-13, U, range(1, K_ORACLE + 1, 2))

    @pytest.mark.parametrize("m", [3, 4, 8, 20, 64, 150])
    def test_bounds_on_a_breakpoint(self, m, roots):
        U = 1.0 - larger_root(m)
        oracle = partial(_segment_supremum, roots=roots)
        for bound in (math.nextafter(U, 0.0), U, math.nextafter(U, 1.0)):
            _check(oracle, 1e-13, bound, range(1, K_ORACLE + 1, 9))


def _array_supremum(k, U):
    """The supremum as a maximum over every oracle size m at once.

    The former numpy form of sup_loss_analytic: all peaks m = m_lo..k-1 in
    one array, the largest taken by brute force, ties to the highest q.
    """
    hi = min(U, P0)
    limit = 1.0 if k == 1 else 1.0 / k
    m_lo = max(3, samuels_optimal_k(hi))
    if m_lo < k:
        m = np.arange(m_lo, k)
        d = k - m
        log_q = np.maximum(np.log1p(-d / k) / d, math.log1p(-hi))
        vals = np.exp(m * log_q) * -np.expm1(d * log_q) - d / (k * m)
        best = vals.max()
        if best > limit:
            return -math.expm1(float(log_q[vals == best].max())), float(best)
    return 0.0, limit


BREAKPOINT_U = [
    bound
    for m in range(3, 401, 7)
    for U in [1.0 - larger_root(m)]
    for bound in (math.nextafter(U, 0.0), U, math.nextafter(U, 1.0))
]
LARGE_K = sorted({int(k) for k in np.logspace(math.log10(2001), 5, 24)})


def _check_bounds_against_array_form(bounds):
    # each bound gets every 29th k up to 2000, starting at a rotating offset,
    # and a sixth of the log-spaced sizes above it
    for i, U in enumerate(bounds):
        ks = [*range(1 + i % 29, 2001, 29), *LARGE_K[i % 6 :: 6]]
        _check(_array_supremum, 1e-15, U, ks)


class TestAgainstArrayForm:
    # the gallop over m must find the peak the full array finds
    @pytest.mark.parametrize("U", [1.0, P0, 0.05, 1e-3, 1e-6, 1e-9])
    def test_every_size_up_to_2000(self, U):
        _check(_array_supremum, 1e-15, U, range(1, 2001))

    @pytest.mark.parametrize("chunk", range(4))
    def test_log_spaced_bounds(self, chunk):
        _check_bounds_against_array_form([*LOG_SPACED_U, 1e-7, 1e-8, 1e-9][chunk::4])

    @pytest.mark.parametrize("chunk", range(2))
    def test_bounds_on_a_breakpoint(self, chunk):
        _check_bounds_against_array_form(BREAKPOINT_U[chunk::2])


class TestHugePoolSizes:
    @pytest.mark.parametrize("k", [10**6, 10**8, 10**10, 10**12])
    def test_against_mpmath(self, k):
        got = sup_loss_analytic(k, 1.0).sup_loss
        want = _exact.minimax_supremum(k, 1.0, 50)
        assert got == pytest.approx(float(want), rel=1e-13, abs=0)

    def test_largest_resolvable_size(self):
        want = _exact.minimax_supremum(10**15, 1.0, 50)
        assert sup_loss_analytic(10**15, 1.0).sup_loss == pytest.approx(
            float(want), rel=1e-12, abs=0
        )

    def test_numpy_integer_size_does_not_wrap(self):
        # k*m passes 2**63 here
        assert sup_loss_analytic(np.int64(10**15)) == sup_loss_analytic(10**15)

    @pytest.mark.parametrize("k", [10**15 + 1, 2**53, 10**18, 10**400])
    def test_refuses_sizes_beyond_double_precision(self, k):
        with pytest.raises(RuntimeError, match="not resolvable in double precision"):
            sup_loss_analytic(k, 1.0)


class TestUnimodalityLemma:
    # the lemma behind the gallop over m, checked at 50 digits
    def test_unclamped_terms(self):
        # x = t ln(1/t)/(1-t) < 1, and t x e^(-x) increases in t
        with mp.workdps(50):
            ts = [mp.mpf(10) ** -e for e in range(40, 3, -1)]
            ts += [mp.mpf(j) / 1000 for j in range(1, 1000)]
            ts += [1 - mp.mpf(10) ** -e for e in range(4, 21)]
            xs = [t * mp.log(1 / t) / (1 - t) for t in ts]
            assert all(x < 1 for x in xs)
            terms = [t * x * mp.exp(-x) for t, x in zip(ts, xs)]
            assert all(a < b for a, b in zip(terms, terms[1:]))

    @pytest.mark.parametrize("k, U", [(50, 1.0), (400, 0.05), (3000, 1e-4), (3000, 1e-6)])
    def test_envelope_slope(self, k, U):
        # dv/dm = 1/m^2 - c e^(-cm) has the sign of c - x^2 e^(-x), x = cm
        with mp.workdps(50):
            h = mp.mpf(10) ** -20
            peak = partial(_exact.minimax_peak, k, U=U, dps=50)
            for m in (mp.mpf(k) / 100 + 3, mp.mpf(k) / 7, mp.mpf(k) / 2):
                v_plus, v_minus = peak(m + h)[0], peak(m - h)[0]
                c = peak(m)[1]
                slope = 1 / m**2 - c * mp.exp(-c * m)
                assert (v_plus - v_minus) / (2 * h) == pytest.approx(slope, rel=1e-15)
                x = c * m
                assert (slope > 0) == (c > x**2 * mp.exp(-x))

    @settings(max_examples=100, deadline=None)
    @given(k=st.integers(5, 1000), log_U=st.floats(-7.0, 0.0))
    @example(k=400, log_U=-3.0)
    def test_a_clamped_successor_never_rises(self, k, log_U):
        # for m >= m_lo with the peak of m + 1 clamped to the domain end,
        # peak(m+1) - peak(m) = 1/(m(m+1)) - hi (1-hi)^m <= 0
        hi_f = min(10.0**log_U, P0)
        with mp.workdps(50):
            hi = mp.mpf(hi_f)
            for m in range(max(3, samuels_optimal_k(hi_f)), k - 1):
                if mp.log(mp.mpf(m + 1) / k) / (k - m - 1) > mp.log1p(-hi):
                    break  # unclamped, and so is every larger size
                assert hi < mp.mpf(1) / (m + 1), (k, hi_f, m)
                assert _exact.samuels_gap(m, hi_f, 50) >= 0, (k, hi_f, m)

    @pytest.mark.parametrize("U", [1.0, 0.05, 1e-3, 1e-4])
    def test_integer_peaks_rise_then_fall(self, U):
        clamped = 0
        with mp.workdps(50):
            for k in (8, 60, 400):
                ms = range(max(3, samuels_optimal_k(min(U, P0))), k)
                peaks = [_exact.minimax_peak(k, m, U, 50) for m in ms]
                clamped += sum(c == -mp.log1p(-min(U, P0)) for _, c in peaks)
                v = [val for val, _ in peaks]
                top = v.index(max(v)) if v else 0
                assert all(a < b for a, b in zip(v[:top], v[1 : top + 1])), (k, U)
                assert all(a > b for a, b in zip(v[top:], v[top + 1 :])), (k, U)
        assert U == 1.0 or clamped  # small bounds exercise the clamped region


class TestGridSupremum:
    def test_individual_testing(self):
        pt = sup_loss_grid(1, 1.0, 1e-6)
        assert (pt.p_star, pt.sup_loss) == (0.0, 1.0)

    def test_pool_of_nine(self):
        pt = sup_loss_grid(9, 1.0, 1e-6)
        assert pt.p_star == pytest.approx(0.167, abs=5e-4)
        assert pt.sup_loss == pytest.approx(0.162, abs=1e-3)

    def test_agrees_with_analytic_for_eight(self):
        g = sup_loss_grid(8, 1.0, 1e-6)
        a = sup_loss_analytic(8, 1.0)
        assert g.sup_loss == pytest.approx(a.sup_loss, abs=1e-5)
        assert g.p_star == pytest.approx(a.p_star, abs=2e-6)

    @pytest.mark.parametrize(
        "solve",
        [
            partial(sup_loss_grid, 8, 1.0, 4e-7),
            partial(minimax_group_size, 1.0, "grid", grid_step=4e-7),
        ],
        ids=["sup_loss_grid", "minimax_group_size"],
    )
    def test_no_grid_outlives_the_call(self, solve):
        # about 1e6 grid points: 8 MB for each of p and the oracle cost
        tracemalloc.start()
        try:
            solve()
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak > 8e6 and held < 1e6

    @pytest.mark.parametrize("U, step", [(1.0, 1e-6), (1e-3, 1e-8)])
    def test_oracle_cost_is_the_optimal_cost(self, U, step):
        # E* on the grid is min(E(i+1), E(i+2)); it must equal Samuels' rule
        # up to numpy's exp, which is up to an ulp off math.exp
        p, opt = _grid_base(U, step)
        assert p[-1] == min(U, P0)
        for i in [*range(1, len(p), 97), len(p) - 1]:
            want = optimal_expected_tests(float(p[i]))
            assert opt[i - 1] == pytest.approx(want, rel=0, abs=4.5e-16), p[i]

    def test_rejects_bad_step(self):
        for step in (0.0, -1e-6, 1e-2):
            with pytest.raises(ValueError):
                sup_loss_grid(8, 1.0, step)

    @pytest.mark.parametrize("U, step", [(1.0, 1e-12), (1.0, 3e-8), (1e-3, 9e-11)])
    def test_rejects_more_than_1e7_points_without_allocating(self, U, step, monkeypatch):
        monkeypatch.setattr(minimax, "_grid_base", None)  # building a grid fails
        with pytest.raises(ValueError, match="1e7 grid points"):
            sup_loss_grid(8, U, step)


# the draws of 50 bounds log-uniform in [4.1e-30, 6e-29] from random.Random(23)
# on which the local certificate fails, and their answers
FALLBACK_ANSWERS = {
    3: 882987285539248, 7: 829301914133485, 19: 914327919100505,
    31: 880402010067846, 41: 759732246971992, 43: 865332487086779,
    44: 937459132258564, 48: 633699662090858,
}


class TestMinimaxGroupSize:
    def test_unbounded_is_eight(self):
        res = minimax_group_size(1.0)
        assert res.k_minimax == 8
        assert res.worst_point.k == 8
        assert res.worst_point.p_star == pytest.approx(P_STAR_8, abs=1e-12)

    def test_grid_method_agrees(self):
        assert minimax_group_size(1.0, "grid").k_minimax == 8

    @pytest.mark.parametrize(
        "U, k",
        [
            (0.15, 8),
            (0.05, 11),
            (0.01, 21),
            (0.005, 30),
            (0.001, 65),  # grid-verified; one digit off the printed table
            (0.0005, 91),
            (0.0001, 201),
        ],
    )
    def test_bounded_values(self, U, k):
        assert minimax_group_size(U).k_minimax == k

    @pytest.mark.parametrize("e", range(16, 30))
    def test_grid_agrees_at_small_bounds(self, e):
        # 1 - exp(k log1p(-p)) + 1/k cancelled in the grid's costs, which
        # put its answer 13 below at 1e-18 and 5470 above at 1e-20
        a = minimax_group_size(10.0**-e)
        g = minimax_group_size(10.0**-e, "grid")
        assert g.k_minimax == a.k_minimax
        assert g.worst_point.sup_loss == pytest.approx(
            a.worst_point.sup_loss, rel=1e-15, abs=0
        )

    def test_bounded_matches_grid_oracle(self):
        for U in (0.05, 0.001):
            a = minimax_group_size(U)
            g = minimax_group_size(U, "grid")
            assert a.k_minimax == g.k_minimax
            assert a.worst_point.sup_loss == pytest.approx(
                g.worst_point.sup_loss, abs=1e-5
            )

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            minimax_group_size(0.0)
        with pytest.raises(ValueError):
            minimax_group_size(0.5, "newton")

    def test_domain_cap(self):
        # above the pooling threshold the bound stops mattering
        assert (
            minimax_group_size(P0).worst_point.sup_loss
            == minimax_group_size(1.0).worst_point.sup_loss
        )

    @pytest.mark.parametrize("U", [3.9e-30, 1e-300, 1e-320, 5e-324])
    def test_crossing_beyond_the_cap_raises_fast(self, U):
        # the answer would lie above the 1e15 sizes double precision resolves;
        # at 1e-320 and 5e-324 the grid step U/1e5 underflows to 0
        for method in ("analytic", "grid"):
            start = time.process_time()
            with pytest.raises(RuntimeError, match="up to 1e\\+15.*double precision"):
                minimax_group_size(U, method)
            assert time.process_time() - start < 5.0, method

    def test_search_starts_at_the_asymptote(self, monkeypatch):
        # the search starts at 2/sqrt(U) + 1 = 20001, the answer; the floor
        # of 1, 1/20000, rules out every size below it, and the floor of the
        # oracle size at U every size above it, so the local certificate
        # takes the supremum of 20001 alone
        sizes = _count_suprema(monkeypatch)
        assert minimax_group_size(1e-8).k_minimax == 20001
        assert sizes == [20001]

    def test_no_answer_is_below_eight(self):
        # so the search starts at 8 or above: each k <= 7 has a supremum of
        # at least 1/k, its p -> 0 limit, and 8 at most its unbounded one
        assert SUP_8 < 1 / 7
        for U in LOG_SPACED_U[::16] + [P0]:
            assert sup_loss_analytic(8, U).sup_loss <= SUP_8 + 1e-15
            assert all(sup_loss_analytic(k, U).sup_loss >= 1 / 7 for k in range(1, 8))

    @pytest.mark.parametrize("U", [1.0, 0.5, 0.3, 0.25, 0.15])
    def test_large_bounds_stop_at_the_answer(self, monkeypatch, U):
        # no answer is below 8, so the search starts there; the floor of 1,
        # 1/7, rules out (1, 8), and the floor of 8's own worst point over
        # (8, inf) is above its supremum, so the local certificate takes the
        # supremum of 8 alone
        sizes = _count_suprema(monkeypatch)
        assert minimax_group_size(U).k_minimax == 8
        assert sizes == [8]

    @pytest.mark.parametrize("U", [6e-30, 5e-30, 4.1e-30])
    def test_near_the_limit_the_limit_is_not_visited(self, monkeypatch, U):
        # the anchor's floor stays just below the best supremum, within its
        # rounding allowance, and so does the floor of g over (g, inf); the
        # floor of g + 1 over (g + 1, inf) ends the local certificate after
        # the suprema of g and g + 1, far from 1e15
        sizes = _count_suprema(monkeypatch)
        minimax_group_size(U)
        assert len(sizes) == 2 and core._K_RESOLVABLE not in sizes, sizes

    def test_suprema_per_search(self, monkeypatch):
        # the local certificate ends every search here, after the suprema of
        # g or of g and g + 1, and the branch and bound never runs
        sizes = _count_suprema(monkeypatch)
        engine_runs = _count_engine_runs(monkeypatch)
        total = 0
        for U in LOG_SPACED_U:
            sizes.clear()
            minimax_group_size(U)
            assert len(sizes) <= 2, (U, sizes)
            total += len(sizes)
        assert total <= 792
        assert engine_runs == []
        for U in [10.0**-e for e in range(10, 30)]:
            sizes.clear()
            minimax_group_size(U)
            assert len(sizes) <= 2, (U, sizes)

    def test_fallback_takes_no_supremum_twice(self, monkeypatch):
        # below about 6e-29 the local certificate fails on some bounds: at g
        # and at g + 1 the floors over the sizes above stay within their
        # rounding allowance of the best supremum. The branch and bound then
        # runs once, handed the suprema of g and g + 1, and visits 1, g + 3
        # and g + 2
        sizes = _count_suprema(monkeypatch)
        engine_runs = _count_engine_runs(monkeypatch)
        rng = random.Random(23)
        lo, hi = math.log(4.1e-30), math.log(6e-29)
        answers = {}
        for i in range(50):
            U = math.exp(rng.uniform(lo, hi))
            sizes.clear()
            engine_runs.clear()
            k = minimax_group_size(U).k_minimax
            if engine_runs:
                assert engine_runs == [1], U
                assert len(set(sizes)) == len(sizes) == 5, (U, sizes)
                assert 1 in sizes, (U, sizes)
                answers[i] = k
        assert answers == FALLBACK_ANSWERS

    def test_answers_just_below_the_cap(self):
        # 2/sqrt(U) + 1 lies just below 100 000, a cap the search once had
        assert minimax_group_size(4.01e-10).k_minimax == 99876


# T3's minimax column, and the unbounded answer
T3_MINIMAX = {
    1.0: 8, 0.3: 8, 0.15: 8, 0.1: 8, 0.05: 11, 0.01: 21, 0.005: 30,
    0.001: 65, 0.0005: 91, 0.0001: 201,
}


class TestIntervalProofs:
    @pytest.mark.parametrize("U, k", T3_MINIMAX.items())
    def test_t3_minimax_column(self, U, k):
        # every other size's enclosure of its supremum lies above that of k,
        # up to the first size j whose J(j) = sup_loss(j) - 1/j does; J never
        # decreases (docs/decisions.md), so every larger size loses as well.
        # None of it uses the solver's bounds or its floats. At 1e-3 the
        # printed table has 64
        answer = _exact.iv_sup_loss(k, U, 25)
        for j in itertools.count(1):
            sup = _exact.iv_sup_loss(j, U, 25)
            assert j == k or sup.a > answer.b, (j, sup, answer)
            if (sup - iv.mpf(1) / j).a > answer.b:
                break
        assert minimax_group_size(U).k_minimax == k


def _count_suprema(monkeypatch):
    """The list of sizes whose supremum the analytic search evaluates."""
    sizes = []
    real = minimax._sup_loss
    monkeypatch.setattr(
        minimax, "_sup_loss", lambda *args: sizes.append(args[-1]) or real(*args)
    )
    return sizes


def _count_engine_runs(monkeypatch):
    """The list that gains an entry each time the minimax search runs the
    branch and bound of `core`."""
    runs = []
    real = minimax._branch_and_bound
    monkeypatch.setattr(
        minimax, "_branch_and_bound", lambda *args: runs.append(1) or real(*args)
    )
    return runs


def _brute_force_k(sup):
    """First argmin of sup(k).sup_loss over k = 1, ..., K.

    K is the first k >= 2 whose excess sup_loss(k) - 1/k reaches the best
    supremum so far; the excess never decreases in k, so every larger k
    has a larger supremum.
    """
    best = (math.inf, 0)
    for k in itertools.count(1):
        loss = sup(k).sup_loss
        best = min(best, (loss, k))
        if k >= 2 and loss - 1.0 / k >= best[0]:
            return best[1]


# the real suprema always have their answer at the crossing or just below
# it; these made-up curves keep the same two properties but put it far above
# (999) or on a tie (20)
MADE_UP_CURVES = {
    "far-above-the-crossing": (
        lambda k: 1 / k + (0 if k < 10 else 1e-4 if k < 1000 else 1), 999
    ),
    "tie-above-the-crossing": (
        lambda k: 1 / k if k < 10 else 1 / k + 0.008 if k < 20
        else 0.06 if k < 500 else 1.0,
        20,
    ),
    "crossing-at-two": (lambda k: 1 / k + 1e-3 * k, 32),  # the crossing is at 2
}


def _made_up_sup(loss):
    """The suprema of a made-up curve of sup_loss, with no real worst prevalence.

    So p_star = 0: split prunes by the floor 1/(b-1) only, and beyond by
    J(K), as for test_random_curves.
    """
    return lambda k: LossPoint(k, 0.0, 1.0 if k == 1 else loss(k))


class TestSearchAgainstBruteForce:
    @pytest.mark.parametrize("chunk", range(8))
    def test_log_spaced_bounds(self, chunk):
        for U in LOG_SPACED_U[chunk::8]:
            want = _brute_force_k(partial(sup_loss_analytic, U=U))
            assert minimax_group_size(U).k_minimax == want, U

    @pytest.mark.parametrize("m", range(3, 401, 19))
    def test_bounds_on_a_breakpoint(self, m):
        U = 1.0 - larger_root(m)
        for bound in (math.nextafter(U, 0.0), U, math.nextafter(U, 1.0)):
            want = _brute_force_k(partial(sup_loss_analytic, U=bound))
            assert minimax_group_size(bound).k_minimax == want, bound

    @pytest.mark.parametrize("U", [1.0, 0.05, 1e-3])
    def test_grid_method(self, U):
        sup = partial(sup_loss_grid, U=U, step=min(1e-6, U / 1e5))
        assert minimax_group_size(U, "grid").k_minimax == _brute_force_k(sup)

    @pytest.mark.parametrize("loss, k", MADE_UP_CURVES.values(), ids=MADE_UP_CURVES)
    def test_made_up_curves(self, loss, k):
        sup = _made_up_sup(loss)
        assert _brute_force_k(sup) == k
        assert minimax._search(sup, 2).k == k

    @pytest.mark.parametrize("loss, k", MADE_UP_CURVES.values(), ids=MADE_UP_CURVES)
    @settings(max_examples=40, deadline=None)
    @given(g=st.integers(3, 4000))
    def test_local_certificate_on_made_up_curves(self, loss, k, g):
        # the tie at 0.06 on [20, 500) goes to 20; from 500 on that curve is
        # flat at 1 with J below 1, so a search that starts there never
        # rules out the larger sizes, and it refuses
        sup = _made_up_sup(loss)
        if loss(g) == 1.0:
            with pytest.raises(RuntimeError, match="double precision"):
                minimax._search(sup, g)
        else:
            assert minimax._search(sup, g).k == k

    @settings(max_examples=300, deadline=None)
    @given(
        steps=st.lists(
            st.tuples(st.integers(2, 3000), st.floats(1e-7, 0.05)), max_size=6
        ),
        end=st.integers(2, 3000),
        start=st.integers(3, 4000),
        shift=st.one_of(st.none(), st.floats(-1.0, 2.0)),
    )
    # the local certificate at start holds on these: by the jump at
    # start + 1, by the anchor, and by the anchor past a small step
    @example(steps=[], end=41, start=40, shift=None)
    @example(steps=[], end=3000, start=1000, shift=0.0)
    @example(steps=[(2, 1e-7)], end=3000, start=500, shift=0.0)
    def test_random_curves(self, steps, end, start, shift):
        # sup_loss(k) = 1/k + J(k), J a step function >= 0 that never
        # decreases and reaches 1 at end, so the brute force stops. With a
        # shift, J(k) is also at least the regret of k at a prevalence p,
        # less 1/k, which never decreases, so the point of zero regret at p
        # bounds every size as the anchor does. Where the steps allow, the
        # minimum then lies near 2/sqrt(p), which the shift puts within a
        # few sizes of start, where the local certificate can hold
        p = None if shift is None else min(4.0 / max(start - 1 + shift, 1.0) ** 2, P0)

        def sup(k):
            if k == 1:
                return LossPoint(1, 0.0, 1.0)
            jump = sum(d for at, d in steps if at <= k) + (k >= end)
            if p is not None:
                excess = -math.expm1(k * math.log1p(-p)) - optimal_expected_tests(p)
                jump = max(jump, excess)
            return LossPoint(k, 0.0, 1.0 / k + jump)

        losses = sorted(sup(k).sup_loss for k in range(1, end + 1))
        # rounding decides ties (docs/decisions.md), so the minimum must be clear
        assume(losses[1] - losses[0] > 1e-12)
        want = _brute_force_k(sup)
        assert minimax._search(sup, 2).k == want
        # the start changes no answer, with or without an anchor
        anchors = [None] if p is None else [None, LossPoint(samuels_optimal_k(p), p, 0.0)]
        for anchor in anchors:
            assert minimax._search(sup, start, anchor).k == want, anchor

    @settings(max_examples=50, deadline=None)
    @given(end=st.integers(core._K_RESOLVABLE + 2, 10**18))
    def test_a_minimum_past_the_limit_raises(self, end):
        def sup(k):
            return LossPoint(k, 0.0, 1.0 if k == 1 else 1.0 / k + (k >= end))

        with pytest.raises(RuntimeError, match="double precision"):
            minimax._search(sup, 2)


def _check_floor(sup, a, b):
    """The regret floors of a and b on (a, b) are at most every sup_loss
    there, and the floor of a is at least 1/(b-1) + J(a), up to its rounding
    allowance: the search prunes by the floors alone."""
    least = min(sup(k).sup_loss for k in range(a + 1, b))
    for j in (a, b):
        floor, k = minimax._regret_floor(sup(j), a + 1, b - 1)
        assert a < k < b
        assert floor <= least, (j, floor, least)
    # floor(k) - (1/k + J(a)) = q^a - q^k >= 0, with terms below 1 + 1/a
    pt = sup(a)
    floor, _ = minimax._regret_floor(pt, a + 1, b - 1)
    bound = 1.0 / (b - 1) + pt.sup_loss - 1.0 / a
    assert floor >= bound - 5e-15 * (pt.sup_loss + 1.0 + 1.0 / a), (floor, bound)


def _check_anchor_floor(sup, U, k):
    """The regret floor of the oracle size at min(U, P0) over (k, inf) is at
    most every sup_loss on (k, k + 300], and the limit of the floor over
    (k, K] as K grows."""
    hi = min(U, P0)
    anchor = LossPoint(samuels_optimal_k(hi), hi, 0.0)
    floor, _ = minimax._regret_floor(anchor, k + 1, math.inf)
    least = min(sup(j).sup_loss for j in range(k + 1, k + 301))
    assert floor <= least, (k, floor, least)
    # over (k, 1e15] the floor differs by 1e-15 - q^(1e15) and rounding
    far, _ = minimax._regret_floor(anchor, k + 1, 10**15)
    assert floor <= far <= floor + 1e-14, (k, floor, far)


class TestRegretFloor:
    @settings(max_examples=200, deadline=None)
    @given(
        log_U=st.floats(-12.0, 0.0),
        offset=st.integers(-300, 300),
        width=st.integers(2, 300),
    )
    # 22 and 23 share their worst point, so the floor of 22 on (22, 24) is
    # exact; an allowance of 1e-15 of the floor alone left it one ulp high
    @example(log_U=-2.0, offset=1, width=2)
    def test_bounds_every_size_in_the_interval(self, log_U, offset, width):
        U = 10.0**log_U
        a = max(2, minimax_group_size(U).k_minimax + offset)
        _check_floor(partial(sup_loss_analytic, U=U), a, a + width)

    @pytest.mark.parametrize("U", [1.0, 0.05, 1e-3])
    @settings(max_examples=40, deadline=None)
    @given(a=st.integers(2, 200), width=st.integers(2, 300))
    def test_bounds_every_grid_size_in_the_interval(self, U, a, width):
        _check_floor(_grid_sups(U), a, a + width)

    # the oracle size at the domain end has zero regret there, so its floor
    # bounds every size above k, as the search uses it beyond its top
    @settings(max_examples=200, deadline=None)
    @given(log_U=st.floats(-12.0, 0.0), offset=st.integers(-300, 300))
    def test_anchor_bounds_every_larger_size(self, log_U, offset):
        U = 10.0**log_U
        k = max(1, minimax_group_size(U).k_minimax + offset)
        _check_anchor_floor(partial(sup_loss_analytic, U=U), U, k)

    @pytest.mark.parametrize("U", [1.0, 0.05, 1e-3])
    @settings(max_examples=40, deadline=None)
    @given(k=st.integers(1, 200))
    def test_anchor_bounds_every_larger_grid_size(self, U, k):
        _check_anchor_floor(_grid_sups(U), U, k)


@cache
def _grid_sups(U):
    """sup_loss_grid(., U) at the grid method's step, on one grid for every k."""
    p, opt = _grid_base(U, min(1e-6, U / 1e5))
    return cache(partial(minimax._grid_sup, p=p, opt=opt))


class TestSmallBoundAccuracy:
    @pytest.mark.parametrize("U, k", [(1e-8, 20001), (1e-9, 63247), (1e-10, 200001)])
    def test_sizes_around_the_answer_against_mpmath(self, U, k):
        assert minimax_group_size(U).k_minimax == k
        wants = {}
        for j in (k - 1, k, k + 1):
            want_p, wants[j] = map(float, _exact.screened_supremum(j, U, 50))
            got = sup_loss_analytic(j, U)
            assert got.sup_loss == pytest.approx(wants[j], rel=1e-12, abs=0), j
            assert got.p_star == pytest.approx(want_p, rel=1e-12, abs=0), j
        assert min(wants, key=wants.get) == k

    @pytest.mark.parametrize(
        "U, k",
        [(1e-10, 200001), (1e-11, 632457), (1e-12, 2000001), (1e-13, 6324557),
         (1e-14, 20000001)],
    )
    def test_answers_below_the_old_cap(self, U, k):
        assert minimax_group_size(U).k_minimax == k

    @pytest.mark.parametrize(
        "U, k",
        [(1e-21, 63245553205), (5.6234132519034906e-21, 26670428645),
         (1e-19, 6324555322), (1e-22, 200000000001), (10**-22.75, 474274741134),
         (1e-29, 632455532033677), (6e-30, 816496580927727),
         (5e-30, 894427190999917), (4.5e-30, 942809041582065),
         (4.1e-30, 987729596649591)],
    )
    def test_worst_point_near_the_limit_against_mpmath(self, U, k):
        # a bisection over m probed far from the worst m and was off by
        # 2.5e-13, 1.8e-12 and 2.7e-14 at the first three bounds; comparing
        # clamped peaks walked a plateau of float ties at 1e-22; doubling
        # past the start refused the last four, where J(1e15) stays below
        # the best supremum
        pt = minimax_group_size(U).worst_point
        wants = {j: _exact.minimax_supremum(j, U, 80) for j in (k - 1, k, k + 1)}
        assert pt.k == k
        assert pt.sup_loss == pytest.approx(float(wants[k]), rel=1e-15, abs=0)
        assert min(wants, key=wants.get) == k

    def test_offset_from_the_asymptote(self):
        # k ~ 2/sqrt(U) + O(1) (docs/decisions.md), from the smallest bound
        # the search answers, about 4e-30, up to 1e-10
        for U in np.logspace(math.log10(4.1e-30), -10, 80):
            k = minimax_group_size(float(U)).k_minimax
            assert 0.5 < k - 2.0 / math.sqrt(U) < 2.0, U
