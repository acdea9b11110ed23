"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see every line. Four
criteria (3, 4, 5 and 7) are expected to fail on a handful of reference
values whose printed digits disagree with independently verified
computations; docs/decisions.md gives the cell-by-cell analysis.
"""

import math
import time

import numpy as np
import pytest

from pooldesign import (
    bayes_optimal_k,
    check_table,
    delta,
    expected_tests,
    expected_tests_under_prior,
    expected_tests_uniform,
    generate_table,
    larger_root,
    minimax_group_size,
    optimal_expected_tests,
    optimality_range,
    samuels_optimal_k,
    sup_loss_analytic,
    sup_loss_grid,
    PriorSpec,
)
from pooldesign.minimax import _grid_base, _grid_sup


def report(n: int, ok: bool, detail: str) -> None:
    print(f"CRITERION {n}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {n}: {detail}"


def test_criterion_1_unbounded_minimax():
    p_exact = 1.0 - (3.0 / 8.0) ** 0.2

    t0 = time.perf_counter()
    analytic = minimax_group_size(1.0, "analytic")
    t_analytic = time.perf_counter() - t0
    t0 = time.perf_counter()
    grid = minimax_group_size(1.0, "grid", grid_step=1e-6)
    t_grid = time.perf_counter() - t0

    checks = [
        analytic.k_minimax == 8,
        grid.k_minimax == 8,
        abs(analytic.worst_point.p_star - p_exact) <= 1e-9,
        abs(grid.worst_point.p_star - p_exact) <= 2e-6,
        abs(analytic.worst_point.sup_loss - 0.1386) <= 1e-3,
        abs(grid.worst_point.sup_loss - 0.1386) <= 1e-3,
        t_analytic < 1.0,
        t_grid < 60.0,
    ]
    report(
        1,
        all(checks),
        f"k**={analytic.k_minimax}/{grid.k_minimax}, "
        f"analytic {t_analytic:.2f}s, grid {t_grid:.1f}s",
    )


def test_criterion_2_worst_case_table():
    exact_ok = True
    for k in range(1, 8):
        pt = sup_loss_analytic(k, 1.0)
        exact_ok &= pt.p_star == 0.0 and pt.sup_loss == (1.0 if k == 1 else 1.0 / k)
    bad = check_table(generate_table("T1"))
    report(
        2,
        exact_ok and not bad,
        f"exact small-k cells {'ok' if exact_ok else 'wrong'}, "
        f"{len(bad)} mismatched printed cells",
    )


def test_criterion_3_efficiency_table():
    bad = check_table(generate_table("T2"))
    detail = "all 18 cells match" if not bad else ", ".join(
        f"{m.row}@p={m.column}: {m.computed:.6f} vs {m.expected}" for m in bad
    )
    report(3, not bad, detail)


def test_criterion_4_bounded_design_table():
    bad = check_table(generate_table("T3"))
    detail = "all 27 cells match" if not bad else ", ".join(
        f"{m.row}@U={m.column}: {m.computed} vs {m.expected}" for m in bad
    )
    report(4, not bad, detail)


def test_criterion_5_bounded_efficiency_tables():
    bad = check_table(generate_table("T4")) + check_table(generate_table("T5"))
    detail = "all cells match" if not bad else ", ".join(
        f"{m.table_id}:{m.row}@{m.column}" for m in bad
    )
    report(5, not bad, detail)


def test_criterion_6_jeffreys_headline():
    res = bayes_optimal_k(PriorSpec.jeffreys())
    e13 = expected_tests_under_prior(13, PriorSpec.jeffreys())
    e8 = expected_tests_under_prior(8, PriorSpec.jeffreys())
    ok = res.k_opt == 13 and abs(e13 - 0.9219) <= 5e-4 and abs(e8 - 0.9286) <= 5e-4
    report(6, ok, f"k={res.k_opt}, E(13)={e13:.5f}, E(8)={e8:.5f}")


def test_criterion_7_optimality_ranges():
    rng = optimality_range(8)
    endpoints_ok = abs(rng.p_low - 0.0157) <= 5e-5 and abs(rng.p_high - 0.0206) <= 5e-5
    roots = [larger_root(k) for k in range(2, 501)]
    monotone_ok = all(a < b for a, b in zip(roots, roots[1:]))
    residual = max(abs(delta(k, larger_root(k))) for k in range(3, 501))
    ok = endpoints_ok and monotone_ok and residual <= 1e-12
    report(
        7,
        ok,
        f"range(8)=[{rng.p_low:.5f}, {rng.p_high:.5f}], "
        f"max residual {residual:.1e}",
    )


def test_criterion_8_oracle_equivalence():
    rng_state = np.random.default_rng(8)
    ps = rng_state.uniform(1e-6, 1.0 - 1e-9, size=1000)
    rule_ok = True
    for p in ps:
        p = float(p)
        k_max = 3 + math.ceil(p ** -0.5) + 5
        brute = min((expected_tests(k, p), k) for k in range(1, k_max + 1))[1]
        rule_ok &= samuels_optimal_k(p) == brute

    sup_dev = p_dev = 0.0
    for U in (1.0, 0.3, 0.05, 0.005):
        # one grid per bound, as sup_loss_grid builds it for each call
        grid = _grid_base(U, 1e-6)
        assert _grid_sup(300, *grid) == sup_loss_grid(300, U, 1e-6)
        for k in range(1, 301):
            a = sup_loss_analytic(k, U)
            g = _grid_sup(k, *grid)
            sup_dev = max(sup_dev, abs(a.sup_loss - g.sup_loss))
            if a.p_star > 0.0:
                p_dev = max(p_dev, abs(a.p_star - g.p_star))
    grids_ok = sup_dev <= 1e-5 and p_dev <= 2e-6

    quad_dev = 0.0
    for U in (0.005, 0.05, 0.3, 1.0):
        prior = PriorSpec.uniform(U)
        for k in range(1, 101):
            quad_dev = max(
                quad_dev,
                abs(expected_tests_under_prior(k, prior) - expected_tests_uniform(k, U)),
            )

    ok = rule_ok and grids_ok and quad_dev <= 1e-10
    report(
        8,
        ok,
        f"rule oracle {'ok' if rule_ok else 'wrong'}, sup dev {sup_dev:.1e}, "
        f"p dev {p_dev:.1e}, quad dev {quad_dev:.1e}",
    )


def test_criterion_9_monotonicity_and_unimodality():
    grid = (np.arange(1, 99001) * 1e-5).tolist()
    ks = [samuels_optimal_k(p) for p in grid]
    opt = [optimal_expected_tests(p) for p in grid]
    k_monotone = bool(np.all(np.diff(ks) <= 0))
    e_monotone = bool(np.all(np.diff(opt) >= -1e-12))
    sups = [sup_loss_analytic(k, 1.0).sup_loss for k in range(1, 101)]
    unimodal = (
        all(a > b for a, b in zip(sups[:7], sups[1:8]))
        and all(a < b for a, b in zip(sups[7:], sups[8:]))
        and min(range(len(sups)), key=sups.__getitem__) == 7
    )
    ok = k_monotone and e_monotone and unimodal
    report(
        9,
        ok,
        f"k* non-increasing {k_monotone}, E* non-decreasing {e_monotone}, "
        f"sup-loss unimodal with minimum at 8 {unimodal}",
    )
