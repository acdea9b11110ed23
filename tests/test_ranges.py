"""Tests for the optimality breakpoints and per-size prevalence intervals."""

import numpy as np
import pytest
from scipy import optimize

from pooldesign import P0, Q0, delta, larger_root, optimality_range, samuels_optimal_k
from pooldesign.ranges import _K_RANGED, _range

import _exact

# k(k+1) still a finite double, k(k+1) past it, and k itself past it
HUGE_K = [10**154, 10**200, 2**1100]
HUGE_K_IDS = ["1e154", "1e200", "2^1100"]

# every size to 60, and about 30 log-spaced sizes per decade up to the limit
LARGE_K = sorted({*range(3, 61), *(round(10**e) for e in np.linspace(1.8, 13, 337))})


def _check_against_mpmath(k):
    """Both endpoints of range(k) within 1e-15 relative of 50 digits and
    within 1% of the range's width, and the larger root is 1 - p_low."""
    want_low = _exact.breakpoint_root(k, 50)
    want_high = P0 if k == 3 else _exact.breakpoint_root(k - 1, 50)
    rng = optimality_range(k)
    assert rng.p_low == pytest.approx(float(want_low), rel=1e-15, abs=0), k
    err = max(abs(rng.p_low - want_low), abs(rng.p_high - want_high))
    assert err <= 0.01 * (want_high - want_low), k
    assert larger_root(k) == 1.0 - rng.p_low


class TestDelta:
    def test_at_one(self):
        assert delta(3, 1.0) == pytest.approx(-1.0 / 12.0, abs=1e-15)

    def test_at_interior_maximum(self):
        assert delta(3, 0.75) == pytest.approx(27.0 / 256.0 - 1.0 / 12.0, abs=1e-15)
        assert delta(3, 0.75) > 0.0

    def test_near_the_eighth_root(self):
        assert delta(8, 0.9843) == pytest.approx(0.0, abs=1e-4)

    @pytest.mark.parametrize("args", [(2, 0.5), (3, -0.1), (3, 1.1), (0, 0.5)])
    def test_rejects_bad_inputs(self, args):
        with pytest.raises(ValueError):
            delta(*args)

    @pytest.mark.parametrize("k", HUGE_K, ids=HUGE_K_IDS)
    def test_huge_k_does_not_overflow(self, k):
        gap = 1 / (k * (k + 1))  # 1e-308 at k = 1e154, then 0
        assert delta(k, 1.0) == delta(k, 0.5) == delta(k, 1.0 - 2.0**-53) == -gap

    def test_numpy_integer_k(self):
        k = 4 * 10**9  # k(k+1) overflows int64
        assert delta(np.int64(k), 1.0) == delta(k, 1.0) == -1.0 / (k * (k + 1))


class TestLargerRoot:
    def test_base_case_is_the_cube_root(self):
        assert larger_root(2) == Q0

    def test_printed_examples(self):
        # the 4-decimal reference digits truncate 0.0157726 and 0.0206682
        assert larger_root(8) == pytest.approx(1.0 - 0.0157726, abs=1e-7)
        assert larger_root(7) == pytest.approx(1.0 - 0.0206682, abs=1e-7)

    def test_agrees_with_brentq(self):
        for k in (3, 10, 57, 321):
            want = optimize.brentq(
                lambda q: delta(k, q), k / (k + 1), 1.0, xtol=1e-15, rtol=1e-15
            )
            assert larger_root(k) == pytest.approx(want, abs=1e-13)

    def test_residuals(self):
        for k in range(3, 501):
            assert abs(delta(k, larger_root(k))) <= 1e-12

    def test_strictly_increasing(self):
        roots = np.array([larger_root(k) for k in range(2, 501)])
        assert np.all(np.diff(roots) > 0.0)

    def test_rejects_small_k(self):
        with pytest.raises(ValueError):
            larger_root(1)

    def test_rejects_non_integer_k_after_a_cached_call(self):
        larger_root(8)
        with pytest.raises(ValueError):
            larger_root(8.0)

    def test_cold_root_fills_only_the_requested_size(self):
        # each range is solved on its own; no table of smaller sizes is filled,
        # and the roots themselves are not cached
        _range.cache_clear()
        k = 10**6
        rng = optimality_range(k)
        assert abs(delta(k, 1.0 - rng.p_low)) <= 1e-12
        assert abs(delta(k - 1, 1.0 - rng.p_high)) <= 1e-12
        assert optimality_range(k) is rng
        info = _range.cache_info()
        assert (info.misses, info.hits, info.currsize) == (1, 1, 1)
        assert optimality_range(np.int64(k)) == rng
        assert larger_root(k) == 1.0 - rng.p_low
        info = _range.cache_info()
        assert (info.misses, info.hits, info.currsize) == (1, 2, 1)
        optimality_range(k - 1)
        assert _range.cache_info().currsize == 2

    @pytest.mark.parametrize("k", HUGE_K, ids=HUGE_K_IDS)
    def test_huge_k_rounds_to_one(self, k):
        assert larger_root(k) == 1.0


class TestOptimalityRange:
    def test_pool_of_eight(self):
        rng = optimality_range(8)
        assert rng.p_low == pytest.approx(0.0157726, abs=1e-7)
        assert rng.p_high == pytest.approx(0.0206682, abs=1e-7)

    def test_individual_testing_regime(self):
        rng = optimality_range(1)
        assert (rng.p_low, rng.p_high) == (P0, 1.0)

    def test_two_is_never_optimal(self):
        with pytest.raises(ValueError, match="never optimal"):
            optimality_range(2)

    def test_midpoint_consistency(self):
        sizes = (3, 8, 50, 200, 262440, 10**6, 10**9, 10**12, _K_RANGED - 1, _K_RANGED)
        for k in sizes:
            rng = optimality_range(k)
            assert samuels_optimal_k(0.5 * (rng.p_low + rng.p_high)) == k

    def test_interior_samples_recover_k(self):
        rng_state = np.random.default_rng(7)
        for k in range(3, 201):
            r = optimality_range(k)
            width = r.p_high - r.p_low
            ps = r.p_low + width * (0.01 + 0.98 * rng_state.random(100))
            for p in ps:
                assert samuels_optimal_k(float(p)) == k

    @pytest.mark.parametrize("k", [_K_RANGED + 1, 10**200], ids=["1e13+1", "1e200"])
    def test_unresolvable_range_raises(self, k):
        # the endpoints' rounding error nears the width of the range
        with pytest.raises(RuntimeError, match="resolvable in double precision"):
            optimality_range(k)

    def test_endpoints_against_mpmath(self):
        # measured: at most 3.0e-16 relative, and 1.0e-3 of the width at 1e13
        for k in LARGE_K:
            _check_against_mpmath(k)

    @pytest.mark.parametrize("k", [10**6, 262440], ids=["1e6", "262440"])
    def test_formerly_refused_range_is_answered(self, k):
        # a bisection in q = 1 - p once refused these sizes
        _check_against_mpmath(k)
        rng = optimality_range(k)
        assert samuels_optimal_k(0.5 * (rng.p_low + rng.p_high)) == k

    def test_ranges_tile_without_gaps(self):
        # consecutive sizes share endpoints exactly; k=3 meets the k=1 regime
        assert optimality_range(3).p_high == P0 == optimality_range(1).p_low
        for k in range(3, 200):
            assert optimality_range(k + 1).p_high == optimality_range(k).p_low
