"""Tests for prior-mean costs and Bayes-optimal pool sizes."""

import itertools
import math
import random
from functools import partial

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special

from pooldesign import (
    PriorSpec,
    QuadratureError,
    bayes,
    bayes_optimal_k,
    expected_tests_under_prior,
    expected_tests_uniform,
    jeffreys_constant,
    uniform_optimal_k,
)

import _exact

U_ROW = [0.0001, 0.0005, 0.001, 0.005, 0.01, 0.05, 0.10, 0.15, 0.30]
# square-root prior optima; the two smallest bounds are verified against a
# 40-digit quadrature oracle and differ from the printed table
K_JEFFREYS = [174, 78, 56, 25, 18, 9, 7, 6, 5]
K_UNIFORM = [142, 64, 45, 21, 15, 7, 5, 5, 4]


class TestPriorSpec:
    def test_classmethods(self):
        assert PriorSpec.uniform(0.3) == PriorSpec(1.0, 1.0, 0.3)
        assert PriorSpec.jeffreys() == PriorSpec(0.5, 0.5, 1.0)

    @pytest.mark.parametrize(
        "a, b, U",
        [
            (0.0, 1.0, 1.0),
            (1.0, -2.0, 1.0),
            (1.0, 1.0, 0.0),
            (1.0, 1.0, 1.5),
            (math.inf, 1.0, 1.0),
            (1.0, math.inf, 1.0),
        ],
    )
    def test_rejects_bad_parameters(self, a, b, U):
        with pytest.raises(ValueError):
            PriorSpec(a, b, U)


class TestJeffreysConstant:
    def test_closed_forms(self):
        assert jeffreys_constant(1.0) == pytest.approx(math.pi, abs=1e-15)
        assert jeffreys_constant(0.5) == pytest.approx(math.pi / 2.0, abs=1e-15)
        assert jeffreys_constant(0.05) == pytest.approx(0.45103, abs=5e-6)

    def test_matches_direct_quadrature(self):
        for U in (0.01, 0.1, 0.5, 1.0):
            want = float(_exact.jeffreys_mass(U, 30))
            assert jeffreys_constant(U) == pytest.approx(want, abs=1e-8)

    def test_rejects_bad_bound(self):
        with pytest.raises(ValueError):
            jeffreys_constant(0.0)


class TestUniformClosedForm:
    def test_individual_testing(self):
        assert expected_tests_uniform(1, 0.3) == 1.0

    def test_pairs_over_the_full_range(self):
        assert expected_tests_uniform(2, 1.0) == pytest.approx(7.0 / 6.0, abs=1e-15)

    def test_argmin_at_five_percent_bound(self):
        assert uniform_optimal_k(0.05) == 7

    def test_full_row_of_optima(self):
        assert [uniform_optimal_k(U) for U in U_ROW] == K_UNIFORM

    @pytest.mark.parametrize("U", [1e-8, 1e-10, 1e-17])
    def test_small_bounds_against_high_precision(self, U):
        # 1 - (1-U)^(k+1) cancels in double precision unless taken via expm1
        k = 10
        want = _exact.uniform_cost(k, U, 50)
        assert expected_tests_uniform(k, U) == pytest.approx(float(want), rel=1e-13)

    @pytest.mark.parametrize("U, k", [(1e-6, 1415), (1e-8, 14143), (1e-10, 141422)])
    def test_uniform_optimum_against_high_precision(self, U, k):
        # the cost there is about 2 sqrt(U), so 1 + 1/k + expm1(...)/(U(k+1))
        # cancelled and was off by 6.4e-14, 7.0e-13 and 5.4e-12 relative
        want = _exact.uniform_cost(k, U, 50)
        assert uniform_optimal_k(U) == k
        assert expected_tests_uniform(k, U) == pytest.approx(float(want), rel=1e-15, abs=0)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            expected_tests_uniform(0, 0.5)
        with pytest.raises(ValueError):
            expected_tests_uniform(3, 0.0)


class TestQuadrature:
    def test_headline_costs(self):
        j1 = PriorSpec.jeffreys()
        assert expected_tests_under_prior(13, j1) == pytest.approx(0.9219, abs=5e-4)
        assert expected_tests_under_prior(8, j1) == pytest.approx(0.9286, abs=5e-4)

    def test_uniform_prior_matches_closed_form(self):
        assert expected_tests_under_prior(5, PriorSpec.uniform(0.3)) == pytest.approx(
            expected_tests_uniform(5, 0.3), abs=1e-10
        )

    def test_closed_form_agreement_across_sizes(self):
        for U in (0.005, 0.05, 0.3, 1.0):
            prior = PriorSpec.uniform(U)
            for k in range(1, 101):
                assert expected_tests_under_prior(k, prior) == pytest.approx(
                    expected_tests_uniform(k, U), abs=1e-10
                )

    def test_b_one_against_high_precision(self):
        # at b = 1 the QAWS weight is t^(2a-1) alone, below U = 1 and at it
        for U in (0.005, 0.3, 1.0):
            got = expected_tests_under_prior(13, PriorSpec(2.5, 1.0, U))
            want = float(_exact.prior_cost(2.5, 1.0, U, 13, 40))
            assert got == pytest.approx(want, rel=1e-14, abs=0)

    def test_density_normalization(self):
        # E(1, p) = 1 for every p; at k = 2 the mean divides by the mass
        for a in (0.5, 1.0, 2.0):
            for b in (0.5, 1.0, 2.0):
                for U in (0.001, 0.05, 0.3, 1.0):
                    assert expected_tests_under_prior(1, PriorSpec(a, b, U)) == 1.0
                    want = float(_exact.prior_cost(a, b, U, 2, 40))
                    got = expected_tests_under_prior(2, PriorSpec(a, b, U))
                    assert got == pytest.approx(want, rel=1e-14, abs=0)

    def test_prior_whose_mass_underflows_is_answered(self):
        # I_U(100, 1) at U = 1e-6 is about 1e-600, 0.0 as a double; the mean
        # and the mass are integrals of one form, so no such number is formed.
        # The solver answers this prior with k = 1005
        want = float(_exact.prior_cost(100.0, 1.0, 1e-6, 1005, 60))
        got = expected_tests_under_prior(1005, PriorSpec(100.0, 1.0, 1e-6))
        assert got == pytest.approx(want, rel=1e-14, abs=0)

    def test_failure_carries_error_estimate(self):
        # b < 1 within 1e-12 of U = 1: q^(b-1) rises to 1e10.8 in the last
        # 1e-12 of t, which the rule cannot bisect so close to t = 1
        with pytest.raises(QuadratureError) as err:
            expected_tests_under_prior(145, PriorSpec(0.5, 0.1, 1.0 - 1e-12))
        assert err.value.error_estimate > 0.0

    # uniform, Jeffreys, Beta(2, 5), Beta(0.2, 30) and Beta(3, 0.4): the
    # quadrature at the solver's own answer, down to the smallest bounds
    # the solvers answer; Beta(0.2, 30) on (0, 4.1e-30) has its optimum
    # past 1e15, which the solver refuses
    REACH = [
        (a, b, U)
        for U in (1e-8, 1e-12, 1e-16, 1e-20, 1e-25, 4.1e-30)
        for a, b in ((1.0, 1.0), (0.5, 0.5), (2.0, 5.0), (0.2, 30.0), (3.0, 0.4))
        if (a, b, U) != (0.2, 30.0, 4.1e-30)
    ]

    @pytest.mark.parametrize("a, b, U", REACH)
    def test_reaches_the_solvers_range(self, a, b, U):
        # 1 - (1-p)^k must keep p where 1 - p rounds to 1, and the
        # tolerance must be relative, as the costs fall to 2.9e-15
        k = bayes_optimal_k(PriorSpec(a, b, U)).k_opt
        want = float(_exact.prior_cost(a, b, U, k, 50))
        got = expected_tests_under_prior(k, PriorSpec(a, b, U))
        assert got == pytest.approx(want, rel=1e-14, abs=0)

    def test_agrees_with_the_solver_over_seeded_priors(self):
        rng = random.Random(32)
        ranges = ((0.05, 20.0), (0.05, 50.0), (1e-12, 1.0))  # of a, b and U
        for _ in range(200):
            prior = PriorSpec(
                *(math.exp(rng.uniform(math.log(lo), math.log(hi))) for lo, hi in ranges)
            )
            res = bayes_optimal_k(prior)
            got = expected_tests_under_prior(res.k_opt, prior)
            assert got == pytest.approx(res.expected_tests_at_opt, rel=1e-13, abs=0), prior

    @pytest.mark.parametrize("a, b", [(0.3, 0.2), (0.1, 0.3), (0.5, 0.1), (0.05, 0.05)])
    def test_singular_weight_at_full_range(self, a, b):
        # at U = 1 and b < 1 the density is singular at p = 1, where 1 - t^2
        # cancels and 1 - p must come from (1-t)(1+t); the rule takes
        # (1-t)^(b-1) as a weight
        prior = PriorSpec(a, b, 1.0)
        for k in (bayes_optimal_k(prior).k_opt, 10**6):
            want = float(_exact.prior_cost(a, b, 1.0, k, 40))
            got = expected_tests_under_prior(k, prior)
            assert got == pytest.approx(want, rel=1e-13, abs=0)

    def test_seeded_priors_at_full_range(self):
        # b in [0.05, 1] at U = 1, where QAGS in theta = asin(sqrt(p)),
        # without the weight, refused 50 of these 200 calls
        rng = random.Random(7)
        for _ in range(200):
            a, b = (
                math.exp(rng.uniform(math.log(lo), math.log(hi)))
                for lo, hi in ((0.05, 20.0), (0.05, 1.0))
            )
            prior = PriorSpec(a, b, 1.0)
            k = bayes_optimal_k(prior).k_opt
            want = float(_exact.prior_cost(a, b, 1.0, k, 40))
            assert expected_tests_under_prior(k, prior) == pytest.approx(want, rel=1e-13, abs=0)

    @pytest.mark.parametrize("e", range(1, 7))
    def test_uniform_prior_near_full_range(self, e):
        # U = 1 - 10^-e at the solver's k, near 2/(1-U): kU is large, and the
        # cost's boundary layer near p = 0 is 1/sqrt(kU) wide in t
        U = 1.0 - 10.0**-e
        k = uniform_optimal_k(U)
        got = expected_tests_under_prior(k, PriorSpec.uniform(U))
        assert got == pytest.approx(expected_tests_uniform(k, U), rel=1e-12, abs=0)

    def test_subnormal_bound(self):
        # E(8, p) rounds to 1/8 at p <= 5e-324, and U^a must not underflow
        assert expected_tests_under_prior(8, PriorSpec.uniform(5e-324)) == pytest.approx(
            0.125, rel=1e-15, abs=0
        )


class TestBayesOptimalK:
    def test_jeffreys_unbounded(self):
        res = bayes_optimal_k(PriorSpec.jeffreys())
        assert res.k_opt == 13
        assert res.expected_tests_at_opt == pytest.approx(0.9219, abs=5e-4)

    def test_uniform_unbounded_prefers_individual_testing(self):
        assert bayes_optimal_k(PriorSpec.uniform()).k_opt == 1

    @pytest.mark.parametrize("U, k", list(zip(U_ROW, K_JEFFREYS)))
    def test_jeffreys_bounded(self, U, k):
        assert bayes_optimal_k(PriorSpec.jeffreys(U)).k_opt == k

    def test_small_bound_against_high_precision_oracle(self):
        # the cost curve is flat near its minimum; confirm the argmin with
        # 40-digit quadrature rather than trusting one library
        U = 0.0005
        cost = partial(_exact.jeffreys_cost, U=U, dps=40)
        assert cost(78) < cost(77)
        assert cost(78) < cost(79)
        assert bayes_optimal_k(PriorSpec.jeffreys(U)).k_opt == 78

    def test_refinement_does_not_change_the_answer(self):
        # the closed-form argmin is also the quadrature argmin over its
        # neighbours
        for U in (0.0001, 0.001, 0.05, 0.3):
            prior = PriorSpec.jeffreys(U)
            k = bayes_optimal_k(prior).k_opt
            cost = {j: expected_tests_under_prior(j, prior) for j in (k - 1, k, k + 1)}
            assert min(cost, key=cost.get) == k

    @pytest.mark.parametrize(
        "prior",
        [
            PriorSpec(0.05, 0.05, 1.0),
            PriorSpec(1e-3, 1.0, 1.0),
            PriorSpec(0.058, 2.57, 1.44e-6),
            PriorSpec.jeffreys(1e-4),
            PriorSpec.jeffreys(1e-6),  # two jumped answers; through lgamma the
            PriorSpec(4.0, 0.6, 2e-6),  # first is off by 1.3e-12
        ],
    )
    def test_cost_at_optimum_against_high_precision_betainc(self, prior):
        # independent of the solver's telescoped sum: the plain ratio
        # 1 + 1/k - B(U; a, b+k) / B(U; a, b) at 50 digits
        res = bayes_optimal_k(prior)
        cost = partial(_exact.prior_cost, *prior, dps=50)
        k = res.k_opt
        assert k > 1
        assert cost(k) < cost(k - 1) and cost(k) <= cost(k + 1)
        want = float(cost(k))
        assert res.expected_tests_at_opt == pytest.approx(want, rel=1e-12, abs=0)

    @pytest.mark.parametrize(
        "U, k, cost", [(0.92, 23, 0.99819), (0.955, 43, 0.99946), (0.99, 198, 0.999975)]
    )
    def test_uniform_near_full_range(self, U, k, cost):
        # a scan that stops after ten sizes without improvement returned 1
        # here: the cost first rises above 1 and dips below it only later
        res = bayes_optimal_k(PriorSpec.uniform(U))
        assert res.k_opt == k
        assert res.expected_tests_at_opt == pytest.approx(cost, abs=5e-6)
        assert res.expected_tests_at_opt == pytest.approx(
            expected_tests_uniform(k, U), rel=1e-12, abs=0
        )
        exact = partial(_exact.uniform_cost, U=U, dps=50)  # at the float U
        with mp.workdps(50):
            # at 0.92 and 0.99, U (k+1) is nearly k, and C(k) and C(k+1)
            # agree to 1e-19: a tie in rounding, which goes to the smaller k
            assert exact(k) < exact(k - 1) < 1
            assert exact(k) < exact(k + 1) + 1e-18

    @pytest.mark.parametrize(
        "a, b, U",
        [
            (1.05, 1.0, 0.9),
            (2.0, 0.5, 0.9),
            (3.0, 0.2, 0.7),
            (5.0, 2.0, 0.6),
            (20.0, 0.05, 0.99),
        ],
    )
    def test_individual_testing_wins(self, a, b, U):
        # a > 1: E[(1-p)^k] decays faster than 1/k, and no pool size beats
        # testing everyone; the cost floor certifies the sizes past the walk
        prior = PriorSpec(a, b, U)
        res = bayes_optimal_k(prior)
        assert (res.k_opt, res.expected_tests_at_opt) == (1, 1.0)
        assert all(cost >= 1.0 for cost in _costs(prior, 1000))
        assert all(_exact.prior_cost(a, b, U, k, 30) >= 1 for k in (10, 100, 1000))

    @pytest.mark.parametrize("U, k", [(1 - 1e-5, 199998), (1 - 1.4e-9, 1)])
    def test_uniform_with_nearly_flat_costs(self, U, k):
        # C(k) - 1 = 1/k - (1 - (1-U)^(k+1)) / (U (k+1)) is within 1e-10 of 0
        # on the whole basin; the cost floor resolves it. Near U = 1 - 1e-9
        # the best pool gains 5e-19, a tie with k = 1 in rounding
        res = bayes_optimal_k(PriorSpec.uniform(U))
        assert res.k_opt == k
        exact = partial(_exact.uniform_cost, U=U, dps=50)
        with mp.workdps(50):
            if k > 1:
                assert exact(k) < exact(k - 1) and exact(k) < exact(k + 1) + 1e-18
                want = float(exact(k))
                assert res.expected_tests_at_opt == pytest.approx(want, rel=1e-12, abs=0)
            else:
                j = round(2 / (1 - U))  # near the optimum, which gains (1-U)^2 / 4
                assert 1 - mp.mpf("1e-18") < exact(j) < 1

    def test_beta_with_nearly_flat_costs(self):
        # a just below 1 at U = 1: E[(1-p)^k] = B(a, 1+k) / B(a, 1) decays
        # like k^-a, so pooling wins only near k = 1e8, and by less than 1e-15
        a = 1 - 1.4e-9
        res = bayes_optimal_k(PriorSpec(a, 1.0, 1.0))
        assert (res.k_opt, res.expected_tests_at_opt) == (1, 1.0)
        with mp.workdps(40):
            for k in (10**6, 10**7, 10**8, 10**9, 10**10):
                assert _exact.prior_cost(a, 1.0, 1.0, k, 40) > 1 - mp.mpf("1e-15")

    def test_nearly_flat_costs_at_high_prevalence(self):
        # C(k) lies 1.9e-14 below C(1), and the sign of R_j j(j+1) - 1
        # decides between neighbours; with the mass good to 3e-16 the search
        # lands on the exact minimum, where a mass off by 1e-13 put it 5 higher
        prior = PriorSpec(0.9408, 0.1226, 0.9998)
        res = bayes_optimal_k(prior)
        k = res.k_opt
        assert k == 3303166168700
        gap = partial(_exact.prior_gap, *prior, dps=60)  # C(j+1) - C(j)
        assert gap(k - 1) < 0 < gap(k)
        want = _exact.prior_cost(*prior, k, 60)
        assert res.expected_tests_at_opt == pytest.approx(float(want), rel=0, abs=1e-15)

    @pytest.mark.parametrize(
        "prior",
        [
            PriorSpec.jeffreys(0.87),
            PriorSpec.jeffreys(0.93),
            PriorSpec.jeffreys(0.97),
            PriorSpec.uniform(0.99),
            PriorSpec(3.05, 0.91, 0.746),
            PriorSpec(4.86, 0.61, 0.921),
        ],
    )
    def test_flat_costs_match_the_exact_recurrence(self, prior):
        # costs near 1 vary slowly in k, so S_K >= best and the far bound
        # end the walk late or never; the cost floor, tried at k = 16, 32,
        # ..., 256, may end it first. A k = 1 answer is scanned up to 10^5
        res = bayes_optimal_k(prior)
        k, cost, stopped = _scan(prior, 10**5)
        assert stopped or k == 1
        assert (res.k_opt, res.expected_tests_at_opt) == (k, cost)

    @pytest.mark.parametrize(
        "prior, k", [(PriorSpec(3.05, 0.91, 0.746), 1), (PriorSpec.uniform(0.99), 198)]
    )
    def test_flat_costs_end_in_the_walk(self, monkeypatch, prior, k):
        # these walked all 320 sizes and then jumped; the floor at k = 16
        # and at k = 256 certifies every larger size
        def jump(*args):
            raise AssertionError("the search left the walk")

        monkeypatch.setattr(bayes, "_branch_and_bound", jump)
        assert bayes_optimal_k(prior).k_opt == k

    @pytest.mark.parametrize(
        "prior, k",
        [
            (PriorSpec.jeffreys(1e-8), 17321),
            (PriorSpec.uniform(1e-8), 14143),
            (PriorSpec.jeffreys(1e-10), 173206),
        ],
    )
    def test_small_bound_asymptote(self, prior, k):
        # C(k) ~ 1/k + k E[p] with E[p] ~ aU/(a+1), so k sqrt(U) tends to
        # sqrt((a+1)/a) (docs/decisions.md); the offset stays O(1)
        a, b, U = prior
        assert bayes_optimal_k(prior).k_opt == k
        assert abs(k - math.sqrt((a + 1) / (a * U))) < 2
        # C(j+1) - C(j) = R_j - 1/(j(j+1)) changes sign at k
        gap = partial(_exact.prior_gap, *prior, dps=40)
        assert gap(k - 1) < 0 < gap(k)

    @pytest.mark.parametrize(
        "prior, k",
        [
            (PriorSpec.jeffreys(1.1e-29), 522232967867092),
            (PriorSpec.jeffreys(8e-30), 612372435695792),
            (PriorSpec.jeffreys(5e-30), 774596669241480),
            (PriorSpec.jeffreys(4.1e-30), 855398922768298),
            (PriorSpec.uniform(5e-30), 632455532033673),
            (PriorSpec.uniform(3e-30), 816496580927723),
        ],
    )
    def test_optimum_near_the_size_limit(self, prior, k):
        # R_{k+1}/R_k rounds to 1 here, so the far bound takes R_k - R_{k+1}
        # from one continued fraction. Near 1e15 the answer is a tie in
        # rounding, not the exact argmin: R_k k(k+1) - 1 is -7e-15 to -1e-14
        # at 80 digits, so the search's tie rule is checked, not a sign
        assert bayes_optimal_k(prior).k_opt == k
        assert abs(_exact.prior_gap(*prior, k, 80) * k * (k + 1)) <= bayes._GAP_RTOL

    def test_matches_the_exact_recurrence(self):
        # seeded priors, walked and jumped, against the recurrence one size
        # at a time, stopped once S_K >= best certifies every larger size;
        # a k = 1 answer is scanned up to 10^6. The second set, a > 1 at
        # high prevalence, is where C(k) >= 1 from some size on, and the
        # cost floor certifies the sizes past the walk
        for seed, shapes, base, min_jumped, min_individual in (
            (11, ((0.05, 20.0), (0.05, 50.0), (1e-6, 1.0)), 0.0, 20, 1),
            (5, ((1e-6, 50.0), (0.01, 50.0), (1e-3, 1.0)), 1.0, 0, 4),
        ):
            rng = random.Random(seed)
            jumped = individual = 0
            for _ in range(120):
                a, b, U = (
                    math.exp(rng.uniform(math.log(lo), math.log(hi)))
                    for lo, hi in shapes
                )
                prior = PriorSpec(base + a, b, U)
                res = bayes_optimal_k(prior)
                k, cost, stopped = _scan(prior, 10**6)
                assert stopped or k == 1, prior
                assert res.k_opt == k, prior
                assert res.expected_tests_at_opt == pytest.approx(cost, rel=1e-12, abs=0)
                jumped += bayes._start_values(*prior)[0] ** -0.5 >= bayes._WALK / 4
                individual += k == 1
            assert jumped >= min_jumped and individual >= min_individual, seed

    def test_continued_fractions_per_search(self, monkeypatch):
        # the jump starts at the second-order small-U estimate top of the
        # optimum and visits top - 1 by one fraction, then top and top + 1 by
        # steps of the recurrence, and most searches end there: the uniform
        # prior at U = 1e-5 takes fractions at shapes b (the start values) and
        # b + 447 for its answer 448
        shapes = []
        real = bayes._beta_cf
        monkeypatch.setattr(
            bayes, "_beta_cf", lambda a, b, x, **kw: shapes.append(b) or real(a, b, x, **kw)
        )
        for prior, k in ((PriorSpec.uniform(1e-5), 448), (PriorSpec.jeffreys(1e-5), 549)):
            shapes.clear()
            assert bayes_optimal_k(prior).k_opt == k
            assert shapes == [prior.b, prior.b + k - 1], shapes
        # at 1e-16 R_{k+1}/R_k rounds to 1; the far bound takes its gap from
        # one fraction, so the search does not double past the answer, which
        # lies two below top
        shapes.clear()
        assert bayes_optimal_k(PriorSpec.jeffreys(1e-16)).k_opt == 173205082
        assert len(shapes) == 5, shapes
        rng = random.Random(11)
        counts = []
        while len(counts) < 200:
            a, b, U = (
                math.exp(rng.uniform(math.log(lo), math.log(hi)))
                for lo, hi in ((0.05, 20.0), (0.05, 50.0), (1e-6, 1.0))
            )
            if bayes._start_values(a, b, U)[0] ** -0.5 < bayes._WALK / 4:
                continue  # walked
            shapes.clear()
            bayes_optimal_k(PriorSpec(a, b, U))
            counts.append(len(shapes))
        assert sum(counts) / len(counts) <= 2.2 and max(counts) <= 3

    def test_neighbour_steps_against_high_precision(self):
        # top and top + 1 come from one step of the recurrence each, not
        # from their own fractions; the answer's cost must keep full
        # precision, and C must fall into k and rise out of it at 60 digits
        rng = random.Random(36)
        jumped = 0
        while jumped < 50:
            a, b, U = (
                math.exp(rng.uniform(math.log(lo), math.log(hi)))
                for lo, hi in ((0.05, 20.0), (0.05, 50.0), (1e-9, 1e-3))
            )
            if bayes._start_values(a, b, U)[0] ** -0.5 < bayes._WALK / 4:
                continue  # walked
            jumped += 1
            res = bayes_optimal_k(PriorSpec(a, b, U))
            k = res.k_opt
            want = float(_exact.prior_cost(a, b, U, k, 60))
            assert res.expected_tests_at_opt == pytest.approx(want, rel=1e-13, abs=0)
            gap = partial(_exact.prior_gap, a, b, U, dps=60)
            assert gap(k - 1) < 0 < gap(k), (a, b, U, k)

    @pytest.mark.parametrize("U", [1e-6, 1e-4, 0.005, 0.05, 0.3])
    def test_uniform_cost_matches_closed_form(self, U):
        res = bayes_optimal_k(PriorSpec.uniform(U))
        assert res.expected_tests_at_opt == pytest.approx(
            expected_tests_uniform(res.k_opt, U), rel=1e-12, abs=0
        )
        assert uniform_optimal_k(U) == res.k_opt


def _threshold(a, b):
    """Where the cost recurrence switches from the continued fraction at U
    to complements at 1 - U."""
    return (a + 1.0) / (a + b + 2.0)


def _recurrence(prior):
    """(k, C(k), S_k) for k = 1, 2, ... by the positive-term recurrence
    R_{j+1} = ((b+j) R_j + w_j) / (a+b+j+1), one size at a time: the exact
    oracle of the certified search."""
    a, b, U = prior
    r, w, *_ = bayes._start_values(a, b, U)
    log_q = math.log1p(-U) if U < 1.0 else 0.0  # w_j = w_0 (1-U)^j; w_0 = 0 at U = 1
    total = r  # S_k = R_0 + ... + R_{k-1}
    yield 1, 1.0, total  # k = 1 tests everyone once
    for j in itertools.count():
        r = ((b + j) * r + w * math.exp(j * log_q)) / (a + b + j + 1.0)
        total += r
        yield j + 2, 1.0 / (j + 2) + total, total


def _costs(prior, n):
    return [cost for _, cost, _ in itertools.islice(_recurrence(prior), n)]


def _scan(prior, cap):
    """The cheapest size by the recurrence, stopped once S_K >= best (every
    larger size then costs more) or at the cap; and whether it stopped."""
    best_k, best = 1, 1.0
    for k, cost, total in _recurrence(prior):
        if cost < best:
            best_k, best = k, cost
        elif total >= best:
            return best_k, best, True
        if k >= cap:
            return best_k, best, False


def _fraction_with_int_counters(a, b, x, rest=False):
    """(h or its rest t, the terms taken) by `bayes._beta_cf`'s modified
    Lentz loop with the term counters m and n kept as ints, the reference
    that the float counters must reproduce bit for bit; it raises the same
    RuntimeError messages and reads the term limit at call time."""
    tiny, ulp = bayes._TINY, bayes._ULP
    c = 1.0
    if rest:
        d = 1.0 + (b - 1.0) * x / ((a + 1.0) * (a + 2.0))
    else:
        d = 1.0 - (a + b) * x / (a + 1.0)
    d = 1.0 / (d if d > tiny or d < -tiny else tiny)
    h, ab = d, a + b
    for m in range(1, bayes._CF_MAX_TERMS + 1):
        n = m + rest
        a2n = a + 2 * n
        even = n * (b - n) * x / ((a2n - 1.0) * a2n)
        a2m = a + 2 * m
        odd = -(a + m) * (ab + m) * x / (a2m * (a2m + 1.0))
        for term in (odd, even) if rest else (even, odd):
            d = 1.0 + term * d
            d = 1.0 / (d if d > tiny or d < -tiny else tiny)
            c = 1.0 + term / c
            c = c if c > tiny or c < -tiny else tiny
            h *= c * d
        if -ulp <= c * d - 1.0 <= ulp:
            if rest or 1.0 <= h < math.inf:
                return h, m
            raise RuntimeError(
                f"the incomplete-beta continued fraction for ({a}, {b}) at {x} "
                f"did not converge: it stopped after {m} terms on h = {h}, not in [1, inf)"
            )
    raise RuntimeError(
        f"the incomplete-beta continued fraction for ({a}, {b}) at {x} "
        f"did not converge in {bayes._CF_MAX_TERMS} terms"
    )


def _log_uniform(lo, hi):
    return st.floats(math.log(lo), math.log(hi)).map(math.exp)


class TestCostRecurrence:
    @pytest.mark.parametrize(
        "a, b, x",
        [
            (0.5, 0.5, 0.25),
            (0.5, 0.5, 0.5),  # at the branch point
            (1e-3, 1.0, 1e-10),
            (1e-3, 1e5, _threshold(1e-3, 1e5)),
            (1e5, 1e-3, 0.999),  # the complement of Beta(1e-3, 1e5) at U = 1e-3
            (2.0, 5.0, _threshold(2.0, 5.0)),
            (5.0, 200.0, 0.02),
            (200.0, 5.0, 0.9),
        ],
    )
    def test_continued_fraction_against_high_precision(self, a, b, x):
        # h, and below the threshold the rest t of the fraction, h(a+1, b) / h(a, b);
        # at 80 digits, as B(0.999; 1e5, 1e-3) is a complement that cancels 49
        with mp.workdps(80):
            h = partial(_exact.beta_cf, b=b, x=x, dps=80)
            want_h, want_t = h(a), h(mp.mpf(a) + 1) / h(a)
        assert bayes._beta_cf(a, b, x) == pytest.approx(float(want_h), rel=1e-12, abs=0)
        if x < _threshold(a, b):
            t = bayes._beta_cf(a, b, x, rest=True)
            assert t == pytest.approx(float(want_t), rel=1e-12, abs=0)

    @pytest.mark.parametrize(
        "a, b, U",
        [
            (0.5, 0.5, 1e-10),
            (0.5, 0.5, 1e-6),
            (0.5, 0.5, 0.5),  # at the branch point
            (0.5, 0.5, 0.999),
            (0.5, 0.5, 1.0),
            (1.0, 1.0, 3.3e-5),
            (1e-3, 1.0, 0.3),
            (1e-3, 1.0, 1.0),
            (1e-3, 1e5, 1e-10),
            (1e-3, 1e5, math.nextafter(_threshold(1e-3, 1e5), 0.0)),
            (1e-3, 1e5, _threshold(1e-3, 1e5)),
            (1e-3, 1e5, 1.5 * _threshold(1e-3, 1e5)),
            (1.0, 1e5, _threshold(1.0, 1e5)),
            (1.0, 1e5, 3.0 * _threshold(1.0, 1e5)),
            (1e-3, 1e-3, 0.75),
            (5.0, 200.0, 1e-3),
            (5.0, 200.0, _threshold(5.0, 200.0)),
            (200.0, 5.0, 0.99),
        ],
    )
    def test_costs_against_high_precision(self, a, b, U):
        # the plain ratio 1 + 1/k - B(U; a, b+k) / B(U; a, b) at 50 digits,
        # independent of the recurrence, out to k = 1e4
        ks = (1, 2, 3, 10, 100, 1000, 10_000)
        got = _costs(PriorSpec(a, b, U), ks[-1])
        for k in ks:
            want = _exact.prior_cost(a, b, U, k, 50)
            assert got[k - 1] == pytest.approx(float(want), rel=1e-12, abs=0), k

    @pytest.mark.parametrize(
        "a, b, U", [(0.5, 0.5, 0.75), (2, 5, 0.6), (1e-3, 1e-3, 0.75), (5, 0.2, 0.9), (200, 5, 0.9)]
    )
    def test_oracle_complement_matches_the_direct_incomplete_beta(self, a, b, U):
        # above U = 1/2 the oracle takes B(a, b) - B(1-U; b, a); where the
        # direct series converges, the two agree to 80 digits but the few the
        # complement cancels (4 at Beta(200, 5))
        got = _exact.incomplete_beta(a, b, U, 80)
        want = _exact.direct_beta(a, b, U, 80)
        assert abs(got - want) < abs(want) * mp.mpf(10) ** -75

    @pytest.mark.parametrize(
        "a, b, U",
        [
            (2.0, 5.0, _threshold(2.0, 5.0)),
            (0.5, 0.5, 0.999),
            # b/a >= 1e4 just above the branch point: the continued fraction
            # at 1 - U is ill-conditioned while much mass lies above U
            (1e-3, 1e5, 1.5 * _threshold(1e-3, 1e5)),
            (1.0, 1e5, 1.1 * _threshold(1.0, 1e5)),
            (10.0, 1e5, 1.1 * _threshold(10.0, 1e5)),
            # tiny b: most mass sits above U, so 1 - tail would cancel
            (20.0, 1.3e-6, 0.955),
            # one fraction at 1 - U, where two more were taken (for the
            # Jeffreys prior 54 and 53 terms at U, far above th)
            (0.5, 0.5, 0.974437),
            (0.073, 83.1, 0.0257),
            (0.12, 125.0, 0.0123),
            # b well below 1 near U = 1: the fractions at U did not converge
            (2.0, 0.1, 1 - 1e-7),
            (2.0, 0.1, 1 - 1e-9),
            (1.0, 0.1, 1 - 1e-10),
            (0.5, 0.1, 1 - 1e-8),
            # 72% of the mean above U: R_0 = (a - z/m)/(a+b) loses a factor
            # 1.4, where fractions at U lost 2.8e-12 and 1.6e-11
            (0.01955870986754625, 0.022652488851751126, 0.9999994753621262),
            # 47% of the mass above U, just above th: z = exp(log z) carries
            # the rounding of log U^a (1-U)^b, near -3300, and complements
            # that use it put w_0 off by 2.2e-12; ratios of fractions at U do not
            (743.329687332686, 22936.07730717988, 0.031460073264173924),
            # more than half the mass above U and h = 1.009: R_0 = a (1 - 1/h)
            # / (a+b) would lose a factor 110 to cancellation (2.0e-11), so
            # the fraction h(a+1, b, U) gives it
            (0.0010864718587794912, 1.2768424623224365e-06, 0.9997557247719426),
        ],
    )
    def test_start_values_against_high_precision(self, a, b, U):
        r0, w0, *_ = bayes._start_values(a, b, U)
        want_r0 = _exact.prior_ratio(a, b, U, 0, 80)
        with mp.workdps(80):
            ma, mb, mU = mp.mpf(a), mp.mpf(b), mp.mpf(U)
            want_w0 = mU ** (ma + 1) * (1 - mU) ** mb / _exact.incomplete_beta(a, b, U, 80)
        assert r0 == pytest.approx(float(want_r0), rel=1e-12, abs=0)
        assert w0 == pytest.approx(float(want_w0), rel=1e-12, abs=0)

    def test_fraction_below_one_is_refused(self):
        # far above the threshold the fraction stops on h = -6.6e14 here;
        # B(x; a, b) >= x^a min(1, (1-x)^(b-1)) / a gives h >= 1 for every x
        with pytest.raises(RuntimeError, match="did not converge: it stopped after"):
            bayes._beta_cf(0.0064, 855.1, 0.446)

    def test_fractions_above_the_threshold_return_no_h_below_one(self):
        # 3000 draws between the threshold and 1 (log-uniform in x / th),
        # of which 365 stop on an h below 1, 364 of them negative
        rng = random.Random(1)
        refused = 0
        for _ in range(3000):
            a, b = (
                math.exp(rng.uniform(math.log(lo), math.log(hi)))
                for lo, hi in ((1e-3, 1e3), (1e-3, 1e4))
            )
            th = _threshold(a, b)
            x = th * math.exp(rng.uniform(0.0, -math.log(th)))
            if not th < x < 1.0:
                continue
            try:
                h = bayes._beta_cf(a, b, x)
            except RuntimeError:
                refused += 1
                continue
            assert 1.0 <= h < math.inf, (a, b, x, h)
        assert refused >= 300

    @pytest.mark.parametrize("limit, long, refused", [(None, 40, 10), (30, 0, 100)])
    def test_float_counters_give_the_floats_of_int_counters(
        self, monkeypatch, limit, long, refused
    ):
        # m and n enter every term as exact floats; on 300 seeded draws, half
        # below the threshold and half between it and 1, h and t are the same
        # floats as with int counters, or the same refusal: h below 1 above
        # the threshold, or, with the term limit cut to 30, no convergence.
        # The complement fraction of Beta(0.101, 124.2) on (0, 0.00963], a
        # design-sweep prior, takes 52 terms
        if limit:
            monkeypatch.setattr(bayes, "_CF_MAX_TERMS", limit)
        rng = random.Random(3)
        cases = [(124.2, 0.101, 1.0 - 0.00963)]
        for i in range(300):
            a = math.exp(rng.uniform(math.log(0.05), math.log(200.0)))
            b = math.exp(rng.uniform(math.log(0.05), math.log(1000.0)))
            th = _threshold(a, b)
            span = (math.log(0.01), 0.0) if i % 2 else (0.0, -math.log(th))
            side = rng.uniform(*span)
            cases.append((a, b, th * math.exp(side)))
        counts = {"long": 0, "refused": 0}
        for (a, b, x), rest in itertools.product(cases, (False, True)):
            try:
                want, terms = _fraction_with_int_counters(a, b, x, rest)
            except RuntimeError as exc:
                with pytest.raises(RuntimeError) as got:
                    bayes._beta_cf(a, b, x, rest=rest)
                assert str(got.value) == str(exc)
                counts["refused"] += 1
            else:
                assert bayes._beta_cf(a, b, x, rest=rest) == want, (a, b, x, rest)
                counts["long"] += terms >= 50
        assert counts["long"] >= long and counts["refused"] >= refused

    @pytest.mark.parametrize(
        "a, b, U", [(0.5, 0.5, 0.974437), (0.073, 83.1, 0.0257), (0.12, 125.0, 0.0123)]
    )
    def test_start_values_above_the_threshold_take_one_fraction(self, monkeypatch, a, b, U):
        # the mass above U, by one fraction at 1 - U, gives R_0 by DLMF
        # 8.17.20; two more fractions were taken, slow ones at U far above th
        shapes = []
        real = bayes._beta_cf
        monkeypatch.setattr(
            bayes, "_beta_cf", lambda *args, **kw: shapes.append(args) or real(*args, **kw)
        )
        bayes._start_values(a, b, U)
        assert shapes == [(b, a, 1.0 - U)]

    @pytest.mark.parametrize("a, b, U", [(0.5, 0.01, 0.9999), (0.5, 0.001, 1 - 1e-6)])
    def test_start_values_where_the_complement_is_refused_take_two_fractions(
        self, monkeypatch, a, b, U
    ):
        # more than half the mass lies above U, so after the fraction at
        # 1 - U the mass comes from the fraction h at U, and with h >= 2
        # R_0 = a (1 - 1/h) / (a+b) by DLMF 8.17.20; a third, slow fraction
        # h(a+1, b, U) was taken
        shapes = []
        real = bayes._beta_cf
        monkeypatch.setattr(
            bayes, "_beta_cf", lambda *args, **kw: shapes.append(args) or real(*args, **kw)
        )
        bayes._start_values(a, b, U)
        assert shapes == [(b, a, 1.0 - U), (a, b, U)]

    def test_walked_prior_below_the_threshold_takes_no_log_beta(self, monkeypatch):
        # below (a+1)/(a+b+2) the log mass is log U^a (1-U)^b + log h - log a,
        # with no log B(a, b); the walk's far bound ends the search
        calls = []
        real = bayes._log_beta
        monkeypatch.setattr(
            bayes, "_log_beta", lambda *args: calls.append(args) or real(*args)
        )
        assert bayes_optimal_k(PriorSpec.jeffreys(1e-3)).k_opt == 56
        assert calls == []

    @settings(max_examples=150, deadline=None)
    @given(
        a=_log_uniform(0.05, 5.0),
        b=_log_uniform(0.5, 200.0),
        U=_log_uniform(1e-6, 1.0),
    )
    def test_argmin_matches_the_scipy_closed_form(self, a, b, U):
        prior = PriorSpec(a, b, min(U, 1.0))
        res = bayes_optimal_k(prior)
        k = res.k_opt
        ks = [j for j in (k - 1, k, k + 1) if j >= 1]
        log_mass = math.log(special.betainc(a, b, prior.upper)) + special.betaln(a, b)

        def want(j):
            if j == 1:
                return 1.0
            tail = special.betainc(a, b + j, prior.upper)
            log_tail = math.log(tail) + special.betaln(a, b + j)
            return 1.0 + 1.0 / j - math.exp(log_tail - log_mass)

        # 1 - B(U; a, b+j) / B(U; a, b) keeps the absolute error of scipy's
        # ratio, about 1e-11 here (1.5e-8 relative at costs near 6e-4)
        assert res.expected_tests_at_opt == pytest.approx(want(k), rel=0, abs=1e-10)
        assert want(k) <= min(want(j) for j in ks if j != k) + 1e-10
        # Only nearly flat priors (a near 1, U near 1) have optima beyond 1e5,
        # up to 1.3e8 here, where the recurrence is not the solver's path: a
        # walk to k would take over a minute and drift by 7e-10
        if k <= 10**5:
            got = _costs(prior, k + 1)
            for j in ks:
                assert got[j - 1] == pytest.approx(want(j), rel=0, abs=1e-10)

    def test_prior_whose_mass_underflows_is_answered(self):
        # Beta(100, 1) puts about U^100 = 1e-600 of its mass on (0, U]: 0.0
        # in doubles, but the search forms only its log
        res = bayes_optimal_k(PriorSpec(100.0, 1.0, 1e-6))
        cost = partial(_exact.prior_cost, 100.0, 1.0, 1e-6, dps=60)
        want = cost(1005)
        assert res.k_opt == 1005
        assert res.expected_tests_at_opt == pytest.approx(float(want), rel=1e-13, abs=0)
        assert want < cost(1004) and want < cost(1006)

    def test_seeded_priors_whose_mass_underflows_are_answered(self):
        # a log U + b log1p(-U) < -800 puts U far below the mean a/(a+b);
        # fixed priors walked (k = 32), jumped (k = 1005) and at k = 1, where
        # the cost floor's phi passes e^709, then seeded ones. Each answer is
        # a local minimum of the 60-digit costs or, near k = 1e12, a tie in
        # rounding
        rng = random.Random(33)
        priors = [(300.0, 0.5, 1e-3), (100.0, 1.0, 1e-6), (1000.0, 70.0, 1 / 3)]
        priors += [(2924.2, 30.9, 0.525), (2375.2, 0.034, 0.690)]  # above U = 1/2
        while len(priors) < 200:
            a, b, U = (
                math.exp(rng.uniform(math.log(lo), math.log(hi)))
                for lo, hi in ((10.0, 3000.0), (0.01, 1000.0), (1e-25, 0.9))
            )
            if a * math.log(U) + b * math.log1p(-U) < -800.0:
                priors.append((a, b, U))
        walked, jumped = set(), set()
        for a, b, U in priors:
            k = bayes_optimal_k(PriorSpec(a, b, U)).k_opt
            walk = bayes._start_values(a, b, U)[0] ** -0.5 < bayes._WALK / 4
            (walked if walk else jumped).add(k)
            cost = partial(_exact.prior_cost, a, b, U, dps=60)
            here = cost(k)
            if here <= cost(k + 1) and (k == 1 or here < cost(k - 1)):
                continue
            assert abs(_exact.prior_gap(a, b, U, k, 60) * k * (k + 1)) <= bayes._GAP_RTOL
        assert {1, 32} <= walked and 1005 in jumped and max(jumped) > 10**12

    @pytest.mark.parametrize("a, j", [(0.5, math.inf), (2.0, math.inf), (0.5, 1e6)])
    def test_floor_past_the_double_range_is_no_bound(self, a, j):
        # with log c = 2000 phi passes e^709: the floor lies below any
        # slack - 1, and is -inf rather than an overflow
        assert bayes._floor(a, 3.0, 2000.0, 10, j) <= -1.0

    def test_unresolvable_optimum_is_refused(self):
        # the optima near sqrt((a+1)/(aU)), 1.7e15 for the Jeffreys prior at
        # 1e-30 and 1.0e15 for the uniform one at 2e-30, lie beyond what
        # doubles resolve
        for prior in (PriorSpec.jeffreys(1e-30), PriorSpec.uniform(2e-30)):
            refusal = rf"a={prior.a}.*no pool size up to 1e\+15"
            with pytest.raises(RuntimeError, match=refusal):
                bayes_optimal_k(prior)

    @pytest.mark.parametrize(
        "a, b",
        [(1e-50, 1e-51), (2.2124659076189647e-177, 2.2222761887293804e-178)],
    )
    def test_cost_falling_at_the_size_limit_is_refused(self, a, b):
        # C(k+1) < C(k) still at k = 1e15, so the settling gallop reaches
        # the limit before it brackets the minimum
        refusal = r"no pool size up to 1e\+15.*double precision"
        with pytest.raises(RuntimeError, match=refusal):
            bayes_optimal_k(PriorSpec(a, b, 1.0))

    @pytest.mark.parametrize(
        "a, b, U, k",
        [
            (2.0, 0.1, 1 - 1e-7, 1),
            (2.0, 0.1, 1 - 1e-9, 1),
            (1.0, 0.1, 1 - 1e-10, 1),
            (0.5, 0.1, 1 - 1e-8, 120),
            # more than half the mass above U: one fraction at 1 - U and one
            # h at U, with R_0 = a (1 - 1/h) / (a+b); from the fractions
            # h(a+1, b, U) / h(a, b, U) the costs were off by 5e-13 to 8.8e-12
            (0.5, 0.01, 1 - 1e-4, 131),
            (0.5, 0.01, 1 - 1e-5, 190),
            (0.5, 0.01, 1 - 1e-6, 259),
            (0.5, 0.001, 1 - 1e-4, 141),
            (0.5, 0.001, 1 - 1e-5, 209),
            (0.5, 0.001, 1 - 1e-6, 290),
        ],
    )
    def test_small_b_near_the_whole_interval_is_answered(self, a, b, U, k):
        # with at most half the mass above U the start values come from one
        # fraction at 1 - U; the fractions at U they took did not converge
        res = bayes_optimal_k(PriorSpec(a, b, U))
        assert res.k_opt == k
        cost = partial(_exact.prior_cost, a, b, U, dps=80)
        if k == 1:  # the mass sits near p = 1, where no pool pays
            assert all(cost(j) > 1 for j in (2, 3, 10, 1000, 10**6))
        else:
            want = cost(k)
            assert want < cost(k - 1) and want < cost(k + 1)
            assert res.expected_tests_at_opt == pytest.approx(float(want), rel=1e-13, abs=0)

    @pytest.mark.parametrize("a, b", [(0.5, 0.01), (0.05, 0.01)])
    def test_small_b_with_most_mass_above_the_bound_is_refused(self, a, b):
        # more than half the mass lies above U, so the start values need one
        # fraction h at U, which needs more than 10 000 terms this close to 1
        with pytest.raises(RuntimeError, match="did not converge"):
            bayes_optimal_k(PriorSpec(a, b, 1 - 1e-7))

    @pytest.mark.parametrize("a, b, U", [(1e18, 5e17, 0.9), (1e300, 1e300, 0.5)])
    def test_shapes_too_large_for_doubles_are_refused(self, a, b, U):
        # logs of terms near a |log U| round by more than e^709 allows
        with pytest.raises(RuntimeError, match="too large for double precision"):
            bayes_optimal_k(PriorSpec(a, b, U))

    @pytest.mark.parametrize("a", [1e300, 1e308])
    def test_huge_shape_on_the_whole_interval_is_answered(self, a):
        # at U = 1 the mass sits at p near 1 and no pool size pays; the
        # search needs log B(a, b) only, by Stirling's series, where
        # log Gamma(a) would overflow near a = 1e308
        res = bayes_optimal_k(PriorSpec(a, 1e5, 1.0))
        assert (res.k_opt, res.expected_tests_at_opt) == (1, 1.0)

    @pytest.mark.parametrize(
        "a, b, k", [(1.7e308, 2.6e305, 1), (1e308, 1e306, 1), (3e305, 1e308, 19), (1e307, 1e308, 4)]
    )
    def test_huge_shapes_on_the_whole_interval_need_no_log_beta(self, a, b, k):
        # log B(a, b) overflows once the smaller shape passes about 2.5e305;
        # at U = 1 the start values need none, and the walk ends without it
        with pytest.raises(OverflowError):
            bayes._log_beta(a, b)
        assert bayes_optimal_k(PriorSpec(a, b, 1.0)).k_opt == k

    def test_divergent_continued_fraction_names_the_prior(self, monkeypatch):
        monkeypatch.setattr(bayes, "_CF_MAX_TERMS", 1)
        with pytest.raises(RuntimeError, match=r"a=2\.0.*did not converge"):
            bayes_optimal_k(PriorSpec(2.0, 5.0, 0.3))
