"""Seeded query streams and the timed calls of each benchmark workload.

This module imports only the standard library and pooldesign, so a fresh
process that imports it and runs `warm_up` measures pooldesign's own set-up
cost (the set-up children of run.py do exactly that).

Every workload is a closed loop with one client. Its inputs come in blocks;
each block is a stratified sample of the workload's input distribution, so
that two seeds give different inputs with the same mix, and a run's median
and tail do not depend on which seed drew the rare expensive corners.
"""

from __future__ import annotations

import io
import itertools
import math
import os
import random
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from types import SimpleNamespace

import pooldesign as pd

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# Input ranges of the workloads; README.md says why each was chosen.
P_RANGE = (1e-5, 0.3)  # site prevalences and `optimal --p`
CLI_U_RANGE = (1e-3, 1.0)  # `minimax` and `bayes` bounds on the CLI
SWEEP_U_RANGE = (1e-6, 1.0)  # library design sweep
BETA_A_RANGE = (0.05, 5.0)
BETA_B_RANGE = (0.5, 200.0)
RANGE_K = (3, 300)  # `range --k`
TABLES = ("T1", "T2", "T3", "T4", "T5")

SWEEP_GRID = 5  # design-sweep: 25 queries of each of 4 solver kinds per part
SWEEP_CYCLE = 2  # design-sweep block: 2 parts whose draws are stratified together
# site-batch submits its sites in chunks of this many, one timed call each.
# No user states a batch size; the latency metrics are per site (chunk time
# over chunk size), and a chunk is long enough (a few ms) to time well.
SITE_CHUNK = 256
CLI_CYCLE = 5  # cli-shallow strata are drawn per cycle of 5 blocks
CLI_TIMEOUT_S = 120.0
CLI_WARM_ARGV = ["optimal", "--p", "0.01", "--format", "json"]


def _strata(rng: random.Random, n: int, c: int = 1) -> list[list[float]]:
    """c lists of n points in (0, 1); point i of every list lies in stratum i.

    The c points of a stratum fall in distinct sub-strata, so the c lists
    together hold one point in each of n * c strata: a cycle of c blocks
    samples each stratum evenly, not only each block.
    """
    subs = [rng.sample(range(c), c) for _ in range(n)]
    return [[(i + (subs[i][j] + rng.random()) / c) / n for i in range(n)] for j in range(c)]


def _log_scale(u: float, lo: float, hi: float) -> float:
    return math.exp(math.log(lo) + u * (math.log(hi) - math.log(lo)))


def _log_uniform(rng, n, c, lo, hi) -> list[list[float]]:
    return [[_log_scale(u, lo, hi) for u in pts] for pts in _strata(rng, n, c)]


# -- query streams -------------------------------------------------------------
# A query is a tuple whose first item names its kind.


def _cli_cycle(rng: random.Random) -> list[list[tuple]]:
    # one query of each kind per block, stratified across the cycle's blocks
    c = CLI_CYCLE

    def draws(lo, hi):
        return [pts[0] for pts in _log_uniform(rng, 1, c, lo, hi)]

    ps = draws(*P_RANGE)
    ks = [RANGE_K[0] + int(pts[0] * (RANGE_K[1] - RANGE_K[0] + 1)) for pts in _strata(rng, 1, c)]
    us = {kind: draws(*CLI_U_RANGE) for kind in ("mm", "uni", "jef", "beta")}
    a_s = draws(*BETA_A_RANGE)
    b_s = draws(*BETA_B_RANGE)
    tables = list(TABLES)
    rng.shuffle(tables)
    blocks = []
    for i in range(c):
        block = [
            ("optimal", ps[i]),
            ("range", ks[i]),
            ("minimax", us["mm"][i]),
            ("bayes", "uniform", 1.0, 1.0, us["uni"][i]),
            ("bayes", "jeffreys", 0.5, 0.5, us["jef"][i]),
            ("bayes", "beta", a_s[i], b_s[i], us["beta"][i]),
            ("table", tables[i]),
        ]
        rng.shuffle(block)
        blocks.append([("cli", q) for q in block])
    return blocks


def _sweep_block(rng: random.Random) -> list[tuple]:
    # The costly corner (small a and small U) dominates the sweep's mean
    # and tail, so every part holds one beta query in each cell of a
    # g x g grid in (log a, log U), and the cells' draws are stratified
    # across the parts of the block as well.
    g, c = SWEEP_GRID, SWEEP_CYCLE
    n = g * g
    minimax, uniform, jeffreys, b_s = (
        _log_uniform(rng, n, c, *r)
        for r in (SWEEP_U_RANGE, SWEEP_U_RANGE, SWEEP_U_RANGE, BETA_B_RANGE)
    )
    cells = list(itertools.product(range(g), repeat=2))
    a_frac = {cell: _strata(rng, c, 1)[0] for cell in cells}
    u_frac = {cell: _strata(rng, c, 1)[0] for cell in cells}
    for fracs in (*a_frac.values(), *u_frac.values()):
        rng.shuffle(fracs)  # which part gets which sub-stratum
    parts = []
    for j in range(c):
        block = [("minimax", u) for u in minimax[j]]
        block += [("uniform", u) for u in uniform[j]]
        block += [("prior", 0.5, 0.5, u) for u in jeffreys[j]]
        rng.shuffle(b_s[j])
        for (row, col), b in zip(cells, b_s[j]):
            a = _log_scale((row + a_frac[row, col][j]) / g, *BETA_A_RANGE)
            u = _log_scale((col + u_frac[row, col][j]) / g, *SWEEP_U_RANGE)
            block.append(("prior", a, b, u))
        rng.shuffle(block)
        parts += block
    return parts


def blocks(workload: str, seed: int):
    """Endless stream of query blocks for a workload, fixed by the seed."""
    rng = random.Random(f"{workload}:{seed}")
    while True:
        if workload == "cli-shallow":
            yield from _cli_cycle(rng)
        elif workload == "design-sweep":
            yield _sweep_block(rng)
        elif workload == "site-batch":
            yield [("sites", _log_uniform(rng, SITE_CHUNK, 1, *P_RANGE)[0])]
        else:
            raise ValueError(f"unknown workload {workload!r}")


# -- the timed calls -------------------------------------------------------------


def cli_argv(query: tuple) -> list[str]:
    kind = query[0]
    if kind == "optimal":
        args = ["optimal", "--p", repr(query[1])]
    elif kind == "range":
        args = ["range", "--k", str(query[1])]
    elif kind == "minimax":
        args = ["minimax", "--upper-bound", repr(query[1])]
    elif kind == "bayes":
        _, prior, a, b, u = query
        args = ["bayes", "--prior", prior, "--upper-bound", repr(u)]
        if prior == "beta":
            args += ["--a", repr(a), "--b", repr(b)]
    elif kind == "table":
        return ["table", "--table", query[1][1:], "--check"]
    else:
        raise ValueError(f"not a CLI query: {query!r}")
    return args + ["--format", "json"]


def cli_env() -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("POOLDESIGN_CONFIG", None)
    return env


def run_cli(argv: list[str]):
    """One `python -m pooldesign.cli` process; None when it times out."""
    try:
        return subprocess.run(
            [sys.executable, "-m", "pooldesign.cli", *argv],
            cwd=ROOT,
            env=cli_env(),
            capture_output=True,
            text=True,
            timeout=CLI_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return None


def run_cli_main(argv: list[str]) -> SimpleNamespace:
    """`cli.main(argv)` in this process, with its output captured as run_cli's."""
    from pooldesign import cli  # not at the top: set-up children import this module

    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    return SimpleNamespace(returncode=code, stdout=out.getvalue(), stderr=err.getvalue())


def _call(tracer, name, qid, parent, fn, *args, count=1):
    if tracer is None:
        return fn(*args)
    with tracer.span(name, qid, parent, count):
        return fn(*args)


def execute(query: tuple, tracer=None, qid=None, parent=None):
    """Run one query through the public API of the layer it exercises."""
    kind = query[0]
    if kind == "sites":
        ps = query[1]
        n = len(ps)
        ks = _call(tracer, "core.samuels_optimal_k", qid, parent,
                   lambda: [pd.samuels_optimal_k(p) for p in ps], count=n)
        es = _call(tracer, "core.optimal_expected_tests", qid, parent,
                   lambda: [pd.optimal_expected_tests(p) for p in ps], count=n)
        rs = _call(tracer, "ranges.optimality_range", qid, parent,
                   lambda: [pd.optimality_range(k) for k in ks], count=n)
        res = _call(tracer, "efficiency.relative_efficiency", qid, parent,
                    lambda: [pd.relative_efficiency(8, p) for p in ps], count=n)
        return ks, es, rs, res
    if kind == "minimax":
        return _call(tracer, "minimax.minimax_group_size", qid, parent,
                     pd.minimax_group_size, query[1])
    if kind == "uniform":
        return _call(tracer, "bayes.uniform_optimal_k", qid, parent,
                     pd.uniform_optimal_k, query[1])
    if kind == "prior":
        return _call(tracer, "bayes.bayes_optimal_k", qid, parent,
                     pd.bayes_optimal_k, pd.PriorSpec(*query[1:]))
    if kind == "cli":
        return _call(tracer, "cli.subprocess", qid, parent,
                     run_cli, cli_argv(query[1]))
    if kind == "cli-main":
        return _call(tracer, "cli.main", qid, parent,
                     run_cli_main, cli_argv(query[1]))
    raise ValueError(f"unknown query kind {kind!r}")


def warm_up(workload: str) -> None:
    """Fill the caches the timed loop reads, so it times steady-state calls.

    The root table of `ranges` grows to the largest pool size the workload
    reaches: about 2000 for the minimax scan at U = 1e-6, about 320 for the
    optimality range at p = 1e-5.
    """
    if workload == "design-sweep":
        pd.minimax_group_size(SWEEP_U_RANGE[0])
        pd.uniform_optimal_k(1e-3)
        pd.bayes_optimal_k(pd.PriorSpec.jeffreys(1e-3))
        pd.bayes_optimal_k(pd.PriorSpec(2.0, 5.0, 1e-2))
    elif workload == "site-batch":
        for p in (P_RANGE[0], 1e-3, P_RANGE[1]):
            pd.optimality_range(pd.samuels_optimal_k(p))
            pd.optimal_expected_tests(p)
            pd.relative_efficiency(8, p)
    elif workload != "cli-shallow":
        raise ValueError(f"unknown workload {workload!r}")
