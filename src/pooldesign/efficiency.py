"""Regeneration and checking of the reference tables.

Five tables summarize the designs: T1 the worst-case regret per pool size,
T2 the efficiency of the minimax and Jeffreys designs across prevalences,
T3 the recommended sizes per prevalence upper bound, and T4/T5 the
efficiencies of the bounded designs. The efficiencies come from
`core.relative_efficiency`, which lives with the cost model, so that a
known-prevalence call does not load the solvers this module imports. Each
table carries embedded golden values; `check_table` compares a regenerated
table cell by cell, accepting a half-even-rounding or truncation match at
the printed precision, with a 5e-4 absolute fallback.
"""

import math
from collections import namedtuple
from functools import partial

from .bayes import PriorSpec, bayes_optimal_k, uniform_optimal_k
from .core import relative_efficiency, samuels_optimal_k
from .minimax import minimax_group_size, sup_loss_analytic


Mismatch = namedtuple("Mismatch", "table_id row column computed expected")
Mismatch.__doc__ = """A cell whose computed value does not match the golden one."""

TableReport = namedtuple("TableReport", "table_id title columns rows")
TableReport.__doc__ = """\
A regenerated table: its column labels and (row label, values) pairs."""


# -- golden cells ------------------------------------------------------------
# Each cell is (value, decimals); decimals=None means exact (integers and
# the exact 1/k regrets); otherwise the value is the printed rounding.

_EXACT = None

_T1_KS = [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 25, 50, 100, 1000, 10000]
_T2_PS = [0.0001, 0.0005, 0.001, 0.005, 0.01, 0.05, 0.10, 0.25, 0.30]
_T3_US = [0.0001, 0.0005, 0.001, 0.005, 0.01, 0.05, 0.10, 0.15, 0.30]
_T4_BLOCKS = [
    (0.0005, [0.0001, 0.0003, 0.0005]),
    (0.005, [0.001, 0.003, 0.005]),
    (0.05, [0.005, 0.01, 0.05]),
]
_T5_BLOCKS = [
    (0.10, [0.01, 0.05, 0.10]),
    (0.20, [0.10, 0.15, 0.20]),
    (0.30, [0.20, 0.25, 0.30]),
]

GOLDEN: dict[str, dict[str, list[tuple[float, int | None]]]] = {
    "T1": {
        "worst_p": [(0.0, _EXACT)] * 7
        + [
            (0.178, 3),
            (0.167, 3),
            (0.158, 3),
            (0.083, 3),
            (0.049, 3),
            (0.029, 3),
            (0.004, 3),
            (0.0005, 4),
        ],
        "worst_loss": [(1.0 / k, _EXACT) for k in range(1, 8)]
        + [
            (0.138, 3),
            (0.162, 3),
            (0.184, 3),
            (0.382, 3),
            (0.516, 3),
            (0.628, 3),
            (0.858, 3),
            (0.949, 3),
        ],
    },
    "T2": {
        "re_minimax": [
            (6.305, 3),
            (2.900, 3),
            (2.118, 3),
            (1.181, 3),
            (1.034, 3),
            (1.082, 3),
            (1.169, 3),
            (1.124, 3),
            (1.078, 3),
        ],
        "re_jeffreys": [
            (3.921, 3),
            (1.875, 3),
            (1.432, 3),
            (1.007, 3),
            (1.020, 3),
            (1.322, 3),
            (1.385, 3),
            (1.156, 3),
            (1.078, 3),
        ],
    },
    "T3": {
        "k_minimax": [(v, _EXACT) for v in [201, 91, 64, 30, 21, 11, 8, 8, 8]],
        "k_uniform": [(v, _EXACT) for v in [142, 64, 45, 21, 15, 7, 5, 5, 4]],
        "k_jeffreys": [(v, _EXACT) for v in [181, 79, 56, 25, 18, 9, 7, 6, 5]],
    },
    "T4": {
        "re_minimax": [
            (1.0048, 4),
            (1.0994, 4),
            (1.2474, 4),
            (1.0028, 4),
            (1.1055, 4),
            (1.2433, 4),
            (1.0392, 4),
            (1.0, _EXACT),
            (1.2249, 4),
        ],
        "re_uniform": [
            (1.1030, 4),
            (1.0044, 4),
            (1.0596, 4),
            (1.0901, 4),
            (1.0060, 4),
            (1.0606, 4),
            (1.2749, 4),
            (1.0778, 4),
            (1.0429, 4),
        ],
        "re_jeffreys": [
            (1.0289, 4),
            (1.0461, 4),
            (1.1556, 4),
            (1.0310, 4),
            (1.0392, 4),
            (1.1343, 4),
            (1.1159, 4),
            (1.0103, 4),
            (1.1282, 4),
        ],
        "k_optimal": [(v, _EXACT) for v in [101, 58, 45, 32, 19, 15, 15, 11, 5]],
        "k_minimax_design": [(v, _EXACT) for v in [91, 91, 91, 30, 30, 30, 11, 11, 11]],
        "k_uniform_design": [(v, _EXACT) for v in [64, 64, 64, 21, 21, 21, 7, 7, 7]],
        "k_jeffreys_design": [(v, _EXACT) for v in [79, 79, 79, 25, 25, 25, 9, 9, 9]],
    },
    "T5": {
        "re_minimax": [
            (1.0342, 4),
            (1.0830, 4),
            (1.1694, 4),
            (1.1694, 4),
            (1.1853, 4),
            (1.1655, 4),
            (1.1655, 4),
            (1.1244, 4),
            (1.0778, 4),
        ],
        "re_uniform": [
            (1.2732, 4),
            (1.0, _EXACT),
            (1.0263, 4),
            (1.0, _EXACT),
            (1.0122, 4),
            (1.0232, 4),
            (1.0232, 4),
            (1.0243, 4),
            (1.0198, 4),
        ],
        "re_jeffreys": [
            (1.0778, 4),
            (1.0429, 4),
            (1.1190, 4),
            (1.0263, 4),
            (1.0516, 4),
            (1.0621, 4),
            (1.0621, 4),
            (1.0562, 4),
            (1.0420, 4),
        ],
        "k_optimal": [(v, _EXACT) for v in [11, 5, 4, 4, 3, 3, 3, 3, 3]],
        "k_minimax_design": [(8, _EXACT)] * 9,
        "k_uniform_design": [(v, _EXACT) for v in [5, 5, 5, 4, 4, 4, 4, 4, 4]],
        "k_jeffreys_design": [(v, _EXACT) for v in [7, 7, 7, 5, 5, 5, 5, 5, 5]],
    },
}


# -- generation --------------------------------------------------------------


def _table1() -> TableReport:
    points = [sup_loss_analytic(k, 1.0) for k in _T1_KS]
    return TableReport(
        "T1",
        "Worst-case regret per pool size",
        [str(k) for k in _T1_KS],
        [
            ("worst_p", [pt.p_star for pt in points]),
            ("worst_loss", [pt.sup_loss for pt in points]),
        ],
    )


def _designs(U: float) -> dict:
    """The minimax, uniform and Jeffreys pool sizes for prevalences up to U."""
    return {
        "minimax": minimax_group_size(U).k_minimax,
        "uniform": uniform_optimal_k(U),
        "jeffreys": bayes_optimal_k(PriorSpec.jeffreys(U)).k_opt,
    }


def _table2() -> TableReport:
    designs = _designs(1.0)
    del designs["uniform"]  # the reference table has no uniform row
    return TableReport(
        "T2",
        "Relative efficiency of the minimax and Jeffreys designs",
        [f"{p:g}" for p in _T2_PS],
        [
            (f"re_{name}", [relative_efficiency(k, p) for p in _T2_PS])
            for name, k in designs.items()
        ],
    )


def _table3() -> TableReport:
    designs = [_designs(U) for U in _T3_US]
    return TableReport(
        "T3",
        "Recommended pool sizes per prevalence upper bound",
        [f"{U:g}" for U in _T3_US],
        [(f"k_{name}", [d[name] for d in designs]) for name in designs[0]],
    )


def _table45(table_id, blocks) -> TableReport:
    cells = []  # (U, p, the designs for U), one per column
    for U, ps in blocks:
        designs = _designs(U)
        cells += [(U, p, designs) for p in ps]
    names = cells[0][2]
    return TableReport(
        table_id,
        "Relative efficiencies of the bounded designs",
        [f"U={U:g},p={p:g}" for U, p, _ in cells],
        [(f"re_{name}", [relative_efficiency(d[name], p) for _, p, d in cells])
         for name in names]
        + [("k_optimal", [samuels_optimal_k(p) for _, p, _ in cells])]
        + [(f"k_{name}_design", [d[name] for _, _, d in cells]) for name in names],
    )


_GENERATORS = {
    "T1": _table1,
    "T2": _table2,
    "T3": _table3,
    "T4": partial(_table45, "T4", _T4_BLOCKS),
    "T5": partial(_table45, "T5", _T5_BLOCKS),
}
TABLE_IDS = tuple(_GENERATORS)


def generate_table(table_id: str) -> TableReport:
    """Regenerate one of the five reference tables from the solvers."""
    if table_id not in TABLE_IDS:  # not the dict: an unhashable id is unknown too
        raise ValueError(f"unknown table id {table_id!r}; expected one of {TABLE_IDS}")
    return _GENERATORS[table_id]()


def _cell_matches(computed, expected, decimals) -> bool:
    if decimals is None:
        if isinstance(expected, int):
            return computed == expected
        return abs(computed - expected) <= 1e-12
    # the reference values mix half-even rounding with plain truncation
    # at the printed precision, so accept either, then a 5e-4 fallback
    scale = 10.0 ** decimals
    if abs(round(computed, decimals) - expected) <= 1e-9:
        return True
    if abs(math.floor(computed * scale) / scale - expected) <= 1e-9:
        return True
    return abs(computed - expected) <= 5e-4


def check_table(report: TableReport) -> list[Mismatch]:
    """Compare a regenerated table against its golden cells."""
    golden = GOLDEN[report.table_id]
    mismatches = []
    for label, values in report.rows:
        for col, computed, (expected, decimals) in zip(
            report.columns, values, golden[label]
        ):
            if not _cell_matches(computed, expected, decimals):
                mismatches.append(
                    Mismatch(report.table_id, label, col, computed, expected)
                )
    return mismatches
