"""Off-the-clock answer checks against oracles independent of the solvers.

- p known: brute-force argmin of E(k, p) over every k up to three times
  the optimum, and the breakpoint property of optimality ranges (adjacent
  pool sizes cost the same at each endpoint).
- minimax: the grid search `sup_loss_grid` at k-1, k and k+1.
- Bayes: the incomplete-beta closed form of the prior-mean cost,
  E[(1-p)^k] = B(U; a, b+k) / B(U; a, b), at k-1, k and k+1.
- CLI: the JSON record must equal the library answer, which is checked
  by the oracles above; `table --check` must report exactly the pinned
  mismatch cells with the exit code that goes with them.

A QuadratureError is the solvers' documented refusal to answer. It counts
as a failed query, not as a wrong answer.
"""

from __future__ import annotations

import json
import math
import re

import numpy as np
from scipy import special

import pooldesign as pd
from pooldesign.core import P0

# Tolerances, in tests per person unless stated.
SITE_TOL = 1e-13  # brute-force E(k, p) against the library, same formula
TIE_TOL = 1e-12  # cost gap between neighbours at a range endpoint
RE_RTOL = 1e-12  # relative efficiency, relative
BAYES_VALUE_RTOL = 1e-5  # quadrature (quad_tol 1e-10 on the unnormalized mass)
BAYES_ARGMIN_RTOL = 1e-7  # k may sit next to the true minimum by quadrature noise
GRID_POINTS = 2e4  # minimax oracle grid; its error is below 2 (k + 2) step

# Cells where the recomputed reference tables disagree with the printed
# values, as pinned by tests/test_tables.py; T1 and T5 reproduce exactly.
PINNED_MISMATCHES = {
    "T1": set(),
    "T2": {("re_jeffreys", "0.25")},
    "T3": {("k_minimax", "0.001"), ("k_jeffreys", "0.0001"), ("k_jeffreys", "0.0005")},
    "T4": {
        ("re_minimax", "U=0.005,p=0.001"),
        ("re_jeffreys", "U=0.0005,p=0.0001"),
        ("re_jeffreys", "U=0.0005,p=0.0003"),
        ("re_jeffreys", "U=0.0005,p=0.0005"),
        ("k_jeffreys_design", "U=0.0005,p=0.0001"),
        ("k_jeffreys_design", "U=0.0005,p=0.0003"),
        ("k_jeffreys_design", "U=0.0005,p=0.0005"),
    },
    "T5": set(),
}
_MISMATCH_LINE = re.compile(r"^mismatch in (T\d) row=(\S+) col=(\S+):")


class WrongAnswer(Exception):
    """A library answer failed its oracle."""


def _cost(ks, ps):
    """E(k, p) elementwise over broadcast k and p (k = 1 costs 1)."""
    ks = np.asarray(ks, dtype=float)
    e = 1.0 - np.exp(ks * np.log1p(-np.asarray(ps, dtype=float))) + 1.0 / ks
    return np.where(ks == 1.0, 1.0, e)


def wrong_sites(ps, ks, es, rs, res) -> int:
    """Number of sites whose four answers disagree with the oracles."""
    ps, ks, es, res = (np.asarray(x) for x in (ps, ks, es, res))
    ok = _ranges_ok(ps, ks, rs)
    # bands of similar p keep each brute-force table near its own k bound
    for band in np.array_split(np.argsort(ps), max(1, len(ps) // 32)):
        ok[band] &= _brute_force_ok(ps[band], ks[band], es[band], res[band])
    return int((~ok).sum())


def _brute_force_ok(ps, ks, es, res) -> np.ndarray:
    """k*(p), E(k*, p) and E(8, p) / E(k*, p) against brute force.

    The argmin is searched over every k up to 3/sqrt(p) + 3, far beyond the
    optimum near 1/sqrt(p); an argmin on that bound counts as a failure.
    """
    k_max = max(8, int(math.ceil(3.0 / math.sqrt(ps.min()))) + 3)
    table = _cost(np.arange(1, k_max + 1)[None, :], ps[:, None])
    best = table.min(axis=1)
    ok = (ks >= 1) & (ks < k_max) & (table.argmin(axis=1) < k_max - 1)
    at_k = np.take_along_axis(table, np.clip(ks, 1, k_max)[:, None] - 1, axis=1)[:, 0]
    ok &= at_k <= best + SITE_TOL
    ok &= np.abs(es - best) <= SITE_TOL
    return ok & (np.abs(res / (table[:, 7] / best) - 1.0) <= RE_RTOL)


def _ranges_ok(ps, ks, rs) -> np.ndarray:
    """p lies in the range of its optimal k, and neighbours tie at each end."""
    r_k = np.array([r.k for r in rs])
    low = np.array([r.p_low for r in rs])
    high = np.array([r.p_high for r in rs])
    ok = (r_k == ks) & (low <= ps) & (ps <= high)
    single = ks == 1
    ok &= ~single | ((low == P0) & (high == 1.0))
    return ok & (single | _endpoints_tie(np.maximum(ks, 3), low, high))


def _endpoints_tie(ks, p_low, p_high):
    # the upper neighbour of k = 3 is individual testing (k = 2 never wins)
    upper_neighbour = np.where(ks > 3, ks - 1, 1)
    lo_gap = _cost(ks, p_low) - _cost(ks + 1, p_low)
    hi_gap = _cost(ks, p_high) - _cost(upper_neighbour, p_high)
    return (np.abs(lo_gap) <= TIE_TOL) & (np.abs(hi_gap) <= TIE_TOL)


def minimax_ok(U: float, res) -> bool:
    k = res.k_minimax
    step = min(1e-3, min(U, P0) / GRID_POINTS)
    tol = 2.0 * (k + 2) * step
    grid = {j: pd.sup_loss_grid(j, U, step).sup_loss for j in (k - 1, k, k + 1) if j >= 1}
    neighbours = min(v for j, v in grid.items() if j != k)
    return (
        res.upper_bound == U
        and grid[k] <= neighbours + tol
        and abs(grid[k] - res.worst_point.sup_loss) <= tol
    )


def bayes_cost(a: float, b: float, U: float, ks) -> np.ndarray:
    """Prior-mean tests per person, 1 + 1/k - B(U; a, b+k) / B(U; a, b)."""
    ks = np.asarray(ks, dtype=float)
    log_ratio = (
        np.log(special.betainc(a, b + ks, U))
        + special.betaln(a, b + ks)
        - math.log(special.betainc(a, b, U))
        - special.betaln(a, b)
    )
    return np.where(ks == 1.0, 1.0, 1.0 + 1.0 / ks - np.exp(log_ratio))


def bayes_ok(a: float, b: float, U: float, k: int, value: float | None = None) -> bool:
    ks = [j for j in (k - 1, k, k + 1) if j >= 1]
    cost = dict(zip(ks, bayes_cost(a, b, U, ks)))
    neighbours = min(v for j, v in cost.items() if j != k)
    if cost[k] > neighbours * (1.0 + BAYES_ARGMIN_RTOL):
        return False
    return value is None or abs(value - cost[k]) <= BAYES_VALUE_RTOL * cost[k]


def library_ok(query: tuple, answer) -> bool:
    """Check one in-process design-sweep answer."""
    kind = query[0]
    if kind == "minimax":
        return minimax_ok(query[1], answer)
    if kind == "uniform":
        return bayes_ok(1.0, 1.0, query[1], answer)
    if kind == "prior":
        _, a, b, U = query
        return answer.prior == pd.PriorSpec(a, b, U) and bayes_ok(
            a, b, U, answer.k_opt, answer.expected_tests_at_opt
        )
    raise ValueError(f"not a library query: {query!r}")


def expected_cli_record(query: tuple) -> dict:
    """The JSON record the CLI must print, from checked library answers."""
    kind = query[0]
    if kind == "optimal":
        p = query[1]
        k = pd.samuels_optimal_k(p)
        rng = pd.optimality_range(k)
        e = pd.optimal_expected_tests(p)
        if wrong_sites([p], [k], [e], [rng], [pd.relative_efficiency(8, p)]):
            raise WrongAnswer(f"library answer for p={p!r} fails brute force")
        return {"command": "optimal", "p": p, "k_optimal": k, "expected_tests": e,
                "range_low": rng.p_low, "range_high": rng.p_high}
    if kind == "range":
        rng = pd.optimality_range(query[1])
        if not _endpoints_tie(rng.k, rng.p_low, rng.p_high):
            raise WrongAnswer(f"range of k={rng.k} fails the breakpoint check")
        return {"command": "range", "k": rng.k, "p_low": rng.p_low, "p_high": rng.p_high}
    if kind == "minimax":
        U = query[1]
        res = pd.minimax_group_size(U)
        if not minimax_ok(U, res):
            raise WrongAnswer(f"library minimax for U={U!r} fails the grid oracle")
        return {"command": "minimax", "upper_bound": U, "method": "analytic",
                "k_minimax": res.k_minimax, "worst_p": res.worst_point.p_star,
                "worst_loss": res.worst_point.sup_loss}
    if kind == "bayes":
        _, prior, a, b, U = query
        res = pd.bayes_optimal_k(pd.PriorSpec(a, b, U))
        if not bayes_ok(a, b, U, res.k_opt, res.expected_tests_at_opt):
            raise WrongAnswer(f"library Bayes k for {query!r} fails the closed form")
        return {"command": "bayes", "prior": prior, "a": a, "b": b, "upper_bound": U,
                "k_optimal": res.k_opt, "expected_tests": res.expected_tests_at_opt}
    raise ValueError(f"not a record query: {query!r}")


def cli_verdict(query: tuple, proc) -> str:
    """"ok", "refused" or "wrong" for one CLI process.

    "refused" is the documented numerical failure: exit 3 with a JSON error,
    for a query on which the library itself raises QuadratureError.
    """
    if proc is None:  # timed out
        return "wrong"
    if query[0] == "table":
        table = query[1]
        cells = set()
        for line in proc.stderr.splitlines():
            m = _MISMATCH_LINE.match(line)
            if m is None or m.group(1) != table:
                return "wrong"
            cells.add((m.group(2), m.group(3)))
        pinned = PINNED_MISMATCHES[table]
        expected_code = 4 if pinned else 0
        return "ok" if proc.returncode == expected_code and cells == pinned else "wrong"
    try:
        record = json.loads(proc.stdout)
        expected = expected_cli_record(query)
    except (json.JSONDecodeError, WrongAnswer):
        return "wrong"
    except pd.QuadratureError:
        refused = proc.returncode == 3 and set(record) == {"error"}
        return "refused" if refused else "wrong"
    return "ok" if proc.returncode == 0 and record == expected else "wrong"
