"""Tests for the Dorfman cost model, Samuels' rule, and the loss function."""

import math
import re

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pooldesign import (
    P0,
    Q0,
    PriorSpec,
    core,
    expected_tests,
    expected_tests_under_prior,
    expected_tests_uniform,
    larger_root,
    loss,
    optimal_expected_tests,
    optimality_range,
    samuels_optimal_k,
    sup_loss_grid,
)

import _exact

# p grid shared by the monotonicity checks
GRID = (np.arange(1, 99001) * 1e-5).tolist()

# the threshold and its neighbours, a mid and a high prevalence, and p so
# small that k*(p) passes every range and float limit
EDGES = [
    P0,
    math.nextafter(P0, 0.0),
    math.nextafter(P0, 1.0),
    0.3,
    0.9,
    1e-12,
    1e-300,
    5e-324,
]
# 2000 seeded log-uniform p in [1e-15, 0.9], and the edges
SITES = [
    *np.exp(np.random.default_rng(20).uniform(math.log(1e-15), math.log(0.9), 2000)).tolist(),
    *EDGES,
]


def brute_force_k(p: float) -> int:
    """Independent oracle: direct argmin of E(k, p) over a safe k window."""
    k_max = 3 + math.ceil(p ** -0.5) + 5
    costs = [(expected_tests(k, p), k) for k in range(1, k_max + 1)]
    return min(costs)[1]


class TestConstants:
    def test_threshold_is_computed_from_the_cube_root(self):
        assert Q0 == pytest.approx((1.0 / 3.0) ** (1.0 / 3.0), abs=0)
        assert P0 + Q0 == pytest.approx(1.0, abs=1e-15)
        assert P0 == pytest.approx(0.3066387256493653, abs=1e-14)


class TestExpectedTests:
    def test_individual_testing_costs_one(self):
        assert expected_tests(1, 0.3) == 1.0
        assert expected_tests(1, 0.0) == 1.0

    def test_pairs_at_half(self):
        assert expected_tests(2, 0.5) == pytest.approx(1.25, abs=1e-15)

    def test_against_high_precision_oracle(self):
        want = float(_exact.expected_tests(8, 0.02, 50))
        assert expected_tests(8, 0.02) == pytest.approx(want, abs=1e-15)
        assert expected_tests(8, 0.02) == pytest.approx(0.274237, abs=5e-7)

    def test_zero_prevalence_limit(self):
        assert expected_tests(5, 0.0) == pytest.approx(0.2, abs=1e-15)

    def test_large_k_stays_accurate(self):
        want = float(_exact.expected_tests(10000, 0.0005, 50))
        assert expected_tests(10000, 0.0005) == pytest.approx(want, rel=1e-13)

    @pytest.mark.parametrize("e", [4, 8, 12, 16, 20, 24])
    def test_small_prevalence_at_the_optimum_against_mpmath(self, e):
        # 1 - exp(k log1p(-p)) cancelled here: off by up to 1.1e-5 relative
        p = 10.0**-e
        k = samuels_optimal_k(p)
        want = float(_exact.expected_tests(k, p, 50))
        assert expected_tests(k, p) == pytest.approx(want, rel=5e-16, abs=0)

    @pytest.mark.parametrize("k", [0, -1, 2.5, True])
    def test_rejects_bad_group_size(self, k):
        with pytest.raises(ValueError):
            expected_tests(k, 0.1)

    @pytest.mark.parametrize("p", [-0.01, 1.0, 1.5])
    def test_rejects_bad_prevalence(self, p):
        with pytest.raises(ValueError):
            expected_tests(4, p)

    def test_monte_carlo_oracle(self):
        # simulate 1e6 pools of size 8; agree within 3 standard errors
        k, p, n = 8, 0.02, 1_000_000
        rng = np.random.default_rng(20260823)
        positive = rng.random((n, k)) < p
        tests = 1 + k * positive.any(axis=1)
        per_person = tests.mean() / k
        se = tests.std(ddof=1) / k / math.sqrt(n)
        assert abs(per_person - expected_tests(k, p)) <= 3 * se


# three public functions that take a pool size, called at size k
SIZED = {
    "expected_tests": lambda k: expected_tests(k, 0.02),
    "larger_root": larger_root,
    "optimality_range": optimality_range,
}


class TestGroupSizeTypes:
    @pytest.mark.parametrize("name", SIZED)
    @pytest.mark.parametrize("k", [np.int32(8), np.int64(8)], ids=["int32", "int64"])
    def test_accepts_numpy_integers(self, name, k):
        assert SIZED[name](k) == SIZED[name](8)

    @pytest.mark.parametrize("name", SIZED)
    @pytest.mark.parametrize("k", [True, 8.0])
    def test_rejects_bool_and_float(self, name, k):
        SIZED[name](8)  # equal to 8.0 and hashed alike, so a cache would serve it
        with pytest.raises(ValueError, match="positive integer"):
            SIZED[name](k)

    @pytest.mark.parametrize("k", [np.int32(8), np.int64(8)], ids=["int32", "int64"])
    def test_range_keeps_a_numpy_size(self, k):
        optimality_range(int(k))  # the cached record holds an int
        assert type(optimality_range(k).k) is type(k)


class TestSamuelsRule:
    @pytest.mark.parametrize(
        "p, k",
        [
            (0.5, 1),
            (0.31, 1),
            (0.25, 3),
            (0.05, 5),
            (0.02, 8),
            (0.01, 11),
            (0.001, 32),
            (0.0001, 101),
        ],
    )
    def test_known_values(self, p, k):
        assert samuels_optimal_k(p) == k

    def test_threshold_itself_pools(self):
        assert samuels_optimal_k(P0) > 1
        assert samuels_optimal_k(math.nextafter(P0, 1.0)) == 1

    @pytest.mark.parametrize("p", [0.0, 1.0, -0.2])
    def test_rejects_bad_prevalence(self, p):
        with pytest.raises(ValueError):
            samuels_optimal_k(p)

    @given(st.floats(min_value=1e-6, max_value=0.999))
    @settings(max_examples=300, deadline=None)
    def test_matches_brute_force(self, p):
        assert samuels_optimal_k(p) == brute_force_k(p)

    def test_small_prevalence_against_mpmath(self):
        # below p ~ 1e-9 the two costs cancel to more than their gap, so only
        # the sign of the gap itself decides the size
        rng = np.random.default_rng(9)
        for p in np.exp(rng.uniform(math.log(1e-26), math.log(1e-6), 400)).tolist():
            i = math.floor(p**-0.5)
            gap = _exact.samuels_gap(i + 1, p, 60)  # E(i+2) - E(i+1)
            assert samuels_optimal_k(p) == (i + 1 if gap >= 0 else i + 2), p

    def test_boundary_fraction_case(self):
        # at p = 0.05 the fractional-part test holds with equality and the
        # rule falls through to the explicit comparison
        w = 0.05 ** -0.5
        i = math.floor(w)
        f = w - i
        assert f == pytest.approx(i / (2 * i + f), abs=1e-12)
        assert samuels_optimal_k(0.05) == 5

    def test_never_two_on_grid(self):
        assert 2 not in {samuels_optimal_k(p) for p in GRID}

    def test_non_increasing_on_grid(self):
        ks = [samuels_optimal_k(p) for p in GRID]
        assert np.all(np.diff(ks) <= 0)


class TestOptimalExpectedTests:
    def test_individual_regime_costs_one(self):
        assert optimal_expected_tests(0.9) == 1.0

    def test_matches_brute_force_minimum(self):
        for p in (0.02, 0.0157):
            want = min(expected_tests(k, p) for k in range(1, 10001))
            assert optimal_expected_tests(p) == pytest.approx(want, abs=1e-12)

    def test_inside_pool_of_eight_range(self):
        # 0.018 sits strictly inside the k=8 optimality interval
        assert optimal_expected_tests(0.018) == pytest.approx(
            expected_tests(8, 0.018), abs=1e-15
        )

    def test_non_decreasing_on_grid(self):
        opt = [optimal_expected_tests(p) for p in GRID]
        assert np.all(np.diff(opt) >= -1e-12)

    def test_vanishes_as_p_drops(self):
        assert optimal_expected_tests(1e-10) < 3e-5

    def test_is_the_cost_of_the_samuels_size(self):
        # exactly, bit for bit: the cost is formed inline, as expected_tests forms it
        for p in SITES:
            assert optimal_expected_tests(p) == expected_tests(samuels_optimal_k(p), p), p


class TestLoss:
    def test_zero_at_the_optimum(self):
        assert loss(samuels_optimal_k(0.05), 0.05) == 0.0

    def test_worst_case_of_eight(self):
        p = 1.0 - (3.0 / 8.0) ** 0.2
        assert loss(8, p) == pytest.approx(0.1386, abs=1e-3)

    def test_limit_at_zero(self):
        assert loss(3, 0.0) == pytest.approx(1.0 / 3.0, abs=1e-15)
        assert loss(1, 0.0) == 1.0

    def test_nonnegative_and_zero_at_optimum_on_grid(self):
        sample = GRID[::91]
        for k in (1, 3, 8, 40):
            assert all(loss(k, p) >= 0.0 for p in sample)
        for p in sample[::40]:
            assert loss(samuels_optimal_k(p), p) <= 1e-15

    @pytest.mark.parametrize("args", [(0, 0.1), (3, 1.0), (3, -0.5)])
    def test_rejects_bad_inputs(self, args):
        with pytest.raises(ValueError):
            loss(*args)

    def test_against_50_digits_without_cancelling(self):
        # E(k) - E(j) with j = k*(p) is (j-k)/(kj) + q^j (1 - q^(k-j)); its
        # error must stay within rounding of these terms, which near k* are
        # about |k-j| p, far below the costs' 2 sqrt(p) that a difference of
        # the two costs loses its precision to (3e-14 to 2e-8 of the terms).
        # The reference is that difference, with 50 digits left after it
        # cancels. Above P0 (j = 1) the regret is 1/k - q^k, whose error must
        # stay within rounding of these two terms.
        rng = np.random.default_rng(22)
        bands = [(P0, 0.9), (1e-4, 0.3), (1e-8, 1e-4), (1e-12, 1e-8), (1e-16, 1e-12)]
        ps = [np.exp(rng.uniform(math.log(lo), math.log(hi), 40)).tolist() for lo, hi in bands]
        for p in [*sum(ps, []), *EDGES, 1e-10, 1e-40]:
            j = samuels_optimal_k(p)
            dps = 50 + math.ceil(-math.log10(p))
            with mp.workdps(dps):
                q = 1 - mp.mpf(p)
                for k in {1, 3, 8, 100, 50000, max(j - 1, 1), j, j + 1, j + 5, 2 * j}:
                    exact = _exact.regret(k, j, p, dps)
                    if k == 1:  # E(1) - E(j) is no near tie
                        scale = 1
                    elif j == 1:
                        scale = mp.mpf(1) / k + q**k
                    else:
                        scale = abs(mp.mpf(j - k) / (k * j)) + q**j * abs(1 - q ** (k - j))
                    assert abs(loss(k, p) - exact) <= 1e-15 * scale, (k, p)
                    # a numpy k, in whose width j - k and k * j would overflow
                    for np_int in (np.int32, np.int64):
                        if k <= np.iinfo(np_int).max:
                            got = loss(np_int(k), p)
                            assert got == loss(k, p), (np_int, k, p)
                            assert type(got) is type(expected_tests(np_int(k), p))


class TestHugeGroupSizes:
    """Sizes past the largest double, which float(k) refuses with OverflowError."""

    HUGE = [2**1024, 10**400]
    DPS = 400  # holds 1 - p at p = 5e-324, where (1-p)^k still matters at k = 2**1024

    @pytest.mark.parametrize("k", HUGE, ids=["2**1024", "10**400"])
    @pytest.mark.parametrize("p", [0.0, 5e-324, 1e-300, 0.5])
    def test_cost_loss_and_efficiency_against_mpmath(self, k, p):
        cost = _exact.expected_tests(k, p, self.DPS)
        assert math.isclose(expected_tests(k, p), float(cost), rel_tol=1e-14)
        if p == 0.0:  # the p -> 0 limit, 1/k; the efficiency has no oracle cost there
            assert math.isclose(loss(k, p), float(cost), rel_tol=1e-14)
            with pytest.raises(ValueError, match=re.escape(OPEN + "0.0")):
                core.relative_efficiency(k, p)
            return
        j = samuels_optimal_k(p)
        regret = _exact.regret(k, j, p, self.DPS)
        assert math.isclose(loss(k, p), float(regret), rel_tol=1e-14)
        ratio = cost / _exact.expected_tests(j, p, self.DPS)
        assert math.isclose(core.relative_efficiency(k, p), float(ratio), rel_tol=1e-14)

    @pytest.mark.parametrize("k", HUGE, ids=["2**1024", "10**400"])
    @pytest.mark.parametrize("U", [5e-324, 1e-300, 0.5, 1.0])
    def test_oracles_against_mpmath(self, k, U):
        uniform = _exact.uniform_cost(k, U, self.DPS)
        assert math.isclose(expected_tests_uniform(k, U), float(uniform), rel_tol=1e-14)
        # the grid's worst point is its first p > 0, the step or U itself
        pt = sup_loss_grid(k, U)
        p = min(U, 1e-6)
        regret = _exact.regret(k, samuels_optimal_k(p), p, self.DPS)
        assert pt.k == k and pt.p_star == p
        assert math.isclose(pt.sup_loss, float(regret), rel_tol=1e-14)
        # at a subnormal U, p = U t^2 takes only the values 0 and
        # 5e-324, so the quadrature misses (1-p)^k: 0.75 against 1.0 at 10**400
        if U >= 1e-300:
            quad = expected_tests_under_prior(k, PriorSpec.uniform(U))
            assert abs(quad - float(uniform)) <= 1e-8


# each function checks its inputs in order, k before p, and a p rejected by
# expected_tests names [0, 1) while a zero reaching the Samuels rule names (0, 1)
OPEN = "prevalence must lie in (0, 1), got "
HALF_OPEN = "prevalence must lie in [0, 1), got "
NOT_INTEGER = "group size must be a positive integer, got "
INVALID = [
    (samuels_optimal_k, (0.0,), OPEN + "0.0"),
    (samuels_optimal_k, (-1.0,), OPEN + "-1.0"),
    (samuels_optimal_k, (1.0,), OPEN + "1.0"),
    (samuels_optimal_k, (math.nan,), OPEN + "nan"),
    (samuels_optimal_k, (math.inf,), OPEN + "inf"),
    (samuels_optimal_k, (True,), OPEN + "True"),
    (optimal_expected_tests, (0.0,), OPEN + "0.0"),
    (optimal_expected_tests, (-3,), OPEN + "-3"),
    (expected_tests, (8, -1.0), HALF_OPEN + "-1.0"),
    (expected_tests, (8, 1.0), HALF_OPEN + "1.0"),
    (expected_tests, (8, math.nan), HALF_OPEN + "nan"),
    (expected_tests, (8.0, 0.02), NOT_INTEGER + "8.0"),
    (expected_tests, (True, 0.02), NOT_INTEGER + "True"),
    (expected_tests, (0, -1.0), "group size must be >= 1, got 0"),
    (expected_tests, (-3, 0.02), "group size must be >= 1, got -3"),
    (loss, (8, -1.0), HALF_OPEN + "-1.0"),
    (loss, (8, math.inf), HALF_OPEN + "inf"),
    (loss, (8.0, 0.0), NOT_INTEGER + "8.0"),
    (optimality_range, (0,), "group size must be >= 1, got 0"),
    (optimality_range, (8.0,), NOT_INTEGER + "8.0"),
    (optimality_range, (2,), "pool size 2 is never optimal at any prevalence"),
    (larger_root, (1,), "roots are defined for k >= 2, got 1"),
]


@pytest.mark.parametrize(
    "fn, args, message", INVALID, ids=[f"{fn.__name__}{args}" for fn, args, _ in INVALID]
)
def test_invalid_input_message(fn, args, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        fn(*args)


class TestBranchAndBound:
    # the shared search of the minimax and Bayes solvers, on made-up callbacks
    @staticmethod
    def _run(beyond, split=lambda lo, hi: None):
        seen = []
        core._branch_and_bound(seen.append, beyond, split, (1, 10))
        return seen

    def test_steps_of_one_and_two_before_doubling(self):
        # the callers start next to the answer, so the search tries top + 1
        # and top + 3 before it doubles
        assert self._run(lambda k: k >= 100) == [1, 10, 11, 13, 26, 52, 104]
        assert self._run(lambda k: k >= 11) == [1, 10, 11]
        assert self._run(lambda k: k >= 12) == [1, 10, 11, 13]

    def test_steps_stop_at_the_limit(self, monkeypatch):
        monkeypatch.setattr(core, "_K_RESOLVABLE", 30)
        assert self._run(lambda k: k >= 30) == [1, 10, 11, 13, 26, 30]
        monkeypatch.setattr(core, "_K_RESOLVABLE", 12)
        with pytest.raises(RuntimeError, match="up to 1e\\+01 .*double precision"):
            self._run(lambda k: False)

    def test_splits_the_intervals_below_the_top(self):
        # split visits the midpoint of every interval below the top
        seen = self._run(lambda k: k >= 13, lambda lo, hi: (lo + hi) // 2)
        assert seen[:4] == [1, 10, 11, 13]
        assert sorted(seen) == list(range(1, 14))
