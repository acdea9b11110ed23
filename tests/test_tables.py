"""Tests for relative efficiency and the embedded reference tables."""

import math
import re

import numpy as np
import pytest

from pooldesign import (
    P0,
    check_table,
    expected_tests,
    generate_table,
    optimal_expected_tests,
    relative_efficiency,
    samuels_optimal_k,
)
from pooldesign.efficiency import TABLE_IDS, _cell_matches


class TestRelativeEfficiency:
    def test_minimax_design_at_rare_prevalence(self):
        assert relative_efficiency(8, 0.0001) == pytest.approx(6.305, abs=1e-3)

    def test_jeffreys_design_at_rare_prevalence(self):
        assert relative_efficiency(13, 0.0001) == pytest.approx(3.921, abs=1e-3)

    def test_optimal_design_scores_one(self):
        for p in np.linspace(1e-4, 0.99, 1000):
            p = float(p)
            assert relative_efficiency(samuels_optimal_k(p), p) == 1.0

    def test_never_below_one(self):
        ps = np.linspace(1e-4, 0.99, 1000)
        for k in (1, 5, 8, 13, 30, 100):
            for p in ps[::7]:
                assert relative_efficiency(k, float(p)) >= 1.0 - 1e-12

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            relative_efficiency(0, 0.1)
        with pytest.raises(ValueError):
            relative_efficiency(8, 0.0)

    def test_is_the_ratio_of_the_costs(self):
        # exactly, on 2000 seeded log-uniform p in [1e-15, 0.9] and the edges
        rng = np.random.default_rng(20)
        ps = np.exp(rng.uniform(math.log(1e-15), math.log(0.9), 2000)).tolist()
        ps += [P0, math.nextafter(P0, 0.0), math.nextafter(P0, 1.0), 0.3, 0.9]
        ps += [1e-12, 1e-300, 5e-324]
        for p in ps:
            for k in (1, 3, 8, 13, 100):
                want = expected_tests(k, p) / optimal_expected_tests(p)
                assert relative_efficiency(k, p) == want, (k, p)

    @pytest.mark.parametrize(
        "args, message",
        [
            ((8, -1.0), "prevalence must lie in [0, 1), got -1.0"),
            ((8, 0.0), "prevalence must lie in (0, 1), got 0.0"),
            ((8, 1.0), "prevalence must lie in [0, 1), got 1.0"),
            ((8, math.nan), "prevalence must lie in [0, 1), got nan"),
            ((8.0, 0.0), "group size must be a positive integer, got 8.0"),
            ((True, 0.02), "group size must be a positive integer, got True"),
            ((0, -1.0), "group size must be >= 1, got 0"),
        ],
    )
    def test_invalid_input_message(self, args, message):
        # k before p; the zero prevalence reaches the Samuels rule's check
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            relative_efficiency(*args)


class TestCellMatching:
    def test_exact_integers(self):
        assert _cell_matches(8, 8, None)
        assert not _cell_matches(9, 8, None)

    def test_rounded_and_truncated_prints_both_match(self):
        assert _cell_matches(0.18447, 0.184, 3)  # rounds down
        assert _cell_matches(0.138642, 0.138, 3)  # truncated print
        assert _cell_matches(0.138642, 0.139, 3)  # rounded print
        assert not _cell_matches(0.140, 0.138, 3)


class TestGeneratedTables:
    def test_unknown_id_rejected(self):
        with pytest.raises(ValueError):
            generate_table("T9")

    @pytest.mark.parametrize("table_id", TABLE_IDS)
    def test_shapes_are_consistent(self, table_id):
        report = generate_table(table_id)
        assert report.table_id == table_id
        for _, values in report.rows:
            assert len(values) == len(report.columns)

    def test_worst_case_table_matches(self):
        assert check_table(generate_table("T1")) == []

    def test_efficiency_table_has_one_known_mismatch(self):
        bad = check_table(generate_table("T2"))
        assert [(m.row, m.column) for m in bad] == [("re_jeffreys", "0.25")]
        assert bad[0].computed == pytest.approx(1.15547, abs=1e-4)

    def test_bounded_design_table_has_three_known_mismatches(self):
        bad = check_table(generate_table("T3"))
        assert {(m.row, m.column, m.computed) for m in bad} == {
            ("k_minimax", "0.001", 65),
            ("k_jeffreys", "0.0001", 174),
            ("k_jeffreys", "0.0005", 78),
        }

    def test_first_efficiency_block_tracks_the_design_shift(self):
        bad = check_table(generate_table("T4"))
        cells = {(m.row, m.column) for m in bad}
        assert cells == {
            ("re_minimax", "U=0.005,p=0.001"),
            ("re_jeffreys", "U=0.0005,p=0.0001"),
            ("re_jeffreys", "U=0.0005,p=0.0003"),
            ("re_jeffreys", "U=0.0005,p=0.0005"),
            ("k_jeffreys_design", "U=0.0005,p=0.0001"),
            ("k_jeffreys_design", "U=0.0005,p=0.0003"),
            ("k_jeffreys_design", "U=0.0005,p=0.0005"),
        }

    def test_moderate_prevalence_table_matches(self):
        assert check_table(generate_table("T5")) == []

    def test_design_rows_stay_optimal_at_their_own_prevalence(self):
        report = generate_table("T5")
        rows = dict(report.rows)
        k_opt = rows["k_optimal"]
        for j, col in enumerate(report.columns):
            p = float(col.split("p=")[1])
            assert k_opt[j] == samuels_optimal_k(p)
