"""Tests for the worst-case regret supremum and the minimax pool size."""

import math

import numpy as np
import pytest

from pooldesign import (
    P0,
    larger_root,
    minimax_group_size,
    sup_loss_analytic,
    sup_loss_grid,
)
from pooldesign.core import _loss_vec
from pooldesign.minimax import _grid_base

# exact worst case for a pool of eight
P_STAR_8 = 1.0 - (3.0 / 8.0) ** 0.2
SUP_8 = (5.0 / 8.0) * (3.0 / 8.0) ** 0.6 - 5.0 / 24.0


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
        for k in range(1, 51):
            full = max(_loss_vec(k, p_full).max(), 1.0 if k == 1 else 1.0 / k)
            assert sup_loss_analytic(k, 1.0).sup_loss >= full - 1e-6

    @pytest.mark.parametrize("U", [0.0, -0.1, 1.5])
    def test_rejects_bad_bound(self, U):
        with pytest.raises(ValueError):
            sup_loss_analytic(8, U)


def _segment_supremum(k, U, roots):
    """Oracle-segment enumeration of the supremum; roots[j] = larger_root(j+2).

    On the segment where the oracle size is m, the regret is g_m; the
    candidates are its stationary point clamped to the segment and both
    segment ends, compared against the p->0 limit.
    """
    hi = min(U, P0)
    limit = 1.0 if k == 1 else 1.0 / k
    if k >= 4:
        m = np.arange(3, k)
        seg_lo, seg_hi = roots[: k - 3], roots[1 : k - 2]
        q_floor = 1.0 - hi
        keep = seg_hi > q_floor
        if keep.any():
            m = m[keep]
            lo = np.maximum(seg_lo[keep], q_floor)
            hiq = seg_hi[keep]
            q_stat = (m / k) ** (1.0 / (k - m))
            qs = np.concatenate([np.clip(q_stat, lo, hiq), lo, hiq])
            mm = np.concatenate([m, m, m])
            vals = qs**mm - qs**k + 1.0 / k - 1.0 / mm
            best = vals.max()
            if best > limit:
                return 1.0 - float(qs[vals == best].max()), float(best)
    return 0.0, limit


K_ORACLE = 2000


@pytest.fixture(scope="module")
def roots():
    return np.array([larger_root(j) for j in range(2, K_ORACLE)])


def _check_against_segments(U, ks, roots):
    for k in ks:
        want_p, want = _segment_supremum(k, U, roots)
        got = sup_loss_analytic(k, U)
        assert got.sup_loss == pytest.approx(want, rel=1e-13, abs=0), (k, U)
        assert got.p_star == pytest.approx(want_p, rel=0, abs=4.5e-16), (k, U)


class TestAgainstSegmentEnumeration:
    # the max over oracle sizes m must reproduce the per-segment supremum
    @pytest.mark.parametrize("U", [1.0, P0, 0.05, 1e-3, 1e-4, 1e-6])
    def test_fixed_bounds(self, U, roots):
        _check_against_segments(U, range(1, K_ORACLE + 1, 2), roots)

    @pytest.mark.parametrize("m", [3, 4, 8, 20, 64, 150])
    def test_bounds_on_a_breakpoint(self, m, roots):
        U = 1.0 - larger_root(m)
        for bound in (math.nextafter(U, 0.0), U, math.nextafter(U, 1.0)):
            _check_against_segments(bound, range(1, K_ORACLE + 1, 9), roots)


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

    def test_grid_cache_holds_one_grid(self):
        # a scan reuses one grid; older grids (megabytes each) are dropped
        for U in (1.0, 0.05, 0.01, 0.001):
            sup_loss_grid(8, U, step=1e-5)
        assert _grid_base.cache_info().currsize <= 1

    def test_rejects_bad_step(self):
        for step in (0.0, -1e-6, 1e-2):
            with pytest.raises(ValueError):
                sup_loss_grid(8, 1.0, step)


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
        with pytest.raises(ValueError):
            minimax_group_size(0.5, patience=0)

    def test_domain_cap(self):
        # above the pooling threshold the bound stops mattering
        assert (
            minimax_group_size(P0).worst_point.sup_loss
            == minimax_group_size(1.0).worst_point.sup_loss
        )
