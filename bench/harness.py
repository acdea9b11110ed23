"""Runs the workloads, computes the metrics and checks every answer.

`run.py` is the entry point; it puts the checkout's `src/` first on the
import path before this module imports pooldesign.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import oracles
import probes
import speed
import workloads
from spans import Tracer, cpu_seconds

import pooldesign as pd

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

# Set-ups per untraced run, spread evenly through its timed loop so that
# they see the same host as the queries. Their time is not part of the
# loop's `seconds`, so they do not cost queries.
SETUP_REPEATS = 5
# The tail percentile of each workload: the highest of p50, p60, p75, p90,
# p95, p99, p99.5 and p99.9 that keeps at least ten samples beyond it at
# every sample count seen in 30 s runs. It is fixed, so that a faster program,
# which gets more samples, is judged at the same percentile; the record
# gives the samples beyond it.
TAIL_PERCENTILE = {"cli-shallow": 60.0, "design-sweep": 99.0, "site-batch": 99.5}
# The first queries of a workload's stream that its traced run times twice,
# once with spans and once without (whole blocks, see workloads.blocks),
# and the first queries of other workloads it runs to probe their layers.
# cli-shallow's are run in-process through cli.main: against a whole process
# per query, the cost of a few spans would be lost in the noise.
TRACE_QUERIES = {"cli-shallow": 35, "design-sweep": 400, "site-batch": 160}
PROBE_QUERIES = {"cli-shallow": 35, "design-sweep": 100, "site-batch": 16}

WORKLOAD_WHY = {
    "cli-shallow": "one-shot CLI user: a fresh process per query with small solver work, "
    "so interpreter start, import and cli dominate",
    "design-sweep": "analyst sweeping U down to 1e-6 with warm caches: minimax scan, "
    "Bayes quadrature and k-scans do nearly all the work",
    "site-batch": "known-p user over many sites: hot scalar Samuels rule, root-table "
    "reads and relative efficiency",
}
# Bounds: three times or more the quartile spread of ten seeds, except for
# design-sweep's tail and throughput, which a few costly queries set; their
# spreads reached 0.151 and 0.069 (README.md). 0.25 is the largest allowed.
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("latency_p50_ms", "ms", "lower", 0.15),
    ("latency_tail_ms", "ms", "lower", 0.25),
    ("throughput_per_s", "1/s", "higher", 0.15),
    ("peak_rss_mb", "MB", "lower", 0.05),
]
PER_LAYER = [
    ("import.pooldesign_ms", "ms", "lower"),
    ("import.scipy_ms", "ms", "lower"),
    ("import.numpy_ms", "ms", "lower"),
    ("interp.start_ms", "ms", "lower"),
    ("cli.main_ms", "ms", "lower"),
    ("ranges.larger_root_cold_ms.k1e3", "ms", "lower"),
    ("ranges.larger_root_cold_ms.k1e4", "ms", "lower"),
    ("ranges.optimality_range_us", "us", "lower"),
    ("core.samuels_optimal_k_us", "us", "lower"),
    ("core.optimal_expected_tests_us", "us", "lower"),
    ("efficiency.relative_efficiency_us", "us", "lower"),
    ("minimax.minimax_group_size_ms.p50", "ms", "lower"),
    ("minimax.minimax_group_size_ms.sum", "ms", "lower"),
    ("minimax.sup_loss_analytic_us", "us", "lower"),
    ("minimax.answer_k_sum", "count", "lower"),
    ("bayes.bayes_optimal_k_ms", "ms", "lower"),
    ("bayes.uniform_optimal_k_ms", "ms", "lower"),
    ("bayes.expected_tests_under_prior_us", "us", "lower"),
    ("bayes.quadrature_errors", "count", "lower"),
    *[(f"efficiency.generate_table_ms.T{i}", "ms", "lower") for i in range(1, 6)],
    ("efficiency.check_table_ms", "ms", "lower"),
    ("efficiency.mismatch_cells", "count", "lower"),
    ("trace.overhead_pct", "%", "lower"),
]
MANIFEST = {
    "command": ["python3", "bench/run.py"],
    "paths": ["bench"],
    "run_seconds": 30,
    "workloads": [{"name": name, "why": why} for name, why in WORKLOAD_WHY.items()],
    "end_to_end": [
        {"name": n, "unit": u, "better": b, "bound": bound} for n, u, b, bound in END_TO_END
    ],
    "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER],
}
UNITS = {n: u for n, u, *_ in END_TO_END + PER_LAYER}


class SetupError(RuntimeError):
    pass


class Tally:
    """Latencies per unit (site or query) and answer counts of one pass.

    A query that fails, or answers wrongly, is +inf in the latencies and is
    not completed. `wrong` counts the wrong answers among the failures;
    the rest are the solvers' documented refusals (QuadratureError).
    """

    def __init__(self):
        self.lat_ms: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.busy_s = 0.0
        self.failures: list[str] = []

    def add(self, query, seconds: float, answer, error) -> None:
        units, failed, wrong = check(query, answer, error)
        self.count(units, failed, wrong, f"{query!r}: {error or 'wrong answer'}" if failed else "")
        self.busy_s += seconds
        self.lat_ms.append(math.inf if failed else seconds / units * 1e3)

    def count(self, units: int, failed: int, wrong: int, what: str) -> None:
        self.attempted += units
        self.failed += failed
        self.wrong += wrong
        if failed and len(self.failures) < 5:
            self.failures.append(what[:400])

    def merge(self, other: "Tally") -> None:
        self.lat_ms += other.lat_ms
        self.attempted += other.attempted
        self.failed += other.failed
        self.wrong += other.wrong
        self.busy_s += other.busy_s
        self.failures = (self.failures + other.failures)[:5]


def check(query, answer, error) -> tuple[int, int, int]:
    """(units attempted, failed, wrong); a unit is a site or a query."""
    if query[0] == "sites":
        n = len(query[1])
        wrong = n if answer is None else oracles.wrong_sites(query[1], *answer)
        return n, wrong, wrong
    if answer is None:
        refused = isinstance(error, pd.QuadratureError)
        return 1, 1, int(not refused)
    if query[0] in ("cli", "cli-main"):
        verdict = oracles.cli_verdict(query[1], answer)
        return 1, int(verdict != "ok"), int(verdict == "wrong")
    wrong = int(not oracles.library_ok(query, answer))
    return 1, wrong, wrong


def run_query(query, tracer=None, qid=None):
    """Time one query; returns (CPU seconds, answer or None, exception or None)."""
    t0 = cpu_seconds()
    try:
        if tracer is None:
            answer = workloads.execute(query)
        else:
            with tracer.span("query", qid) as sid:
                answer = workloads.execute(query, tracer, qid, sid)
    except Exception as exc:  # a failed query is counted, the loop goes on
        return cpu_seconds() - t0, None, exc
    return cpu_seconds() - t0, answer, None


def at_answer(query, answer, tracer, qid) -> None:
    """Per-call cost of the solver's evaluator at the k it chose (untimed)."""
    if answer is None:
        return
    if query[0] == "minimax":
        with tracer.span("minimax.sup_loss_analytic", qid):
            pd.sup_loss_analytic(answer.k_minimax, query[1])
        tracer.add("minimax.answer_k_sum", answer.k_minimax)
    elif query[0] == "prior":
        with tracer.span("bayes.expected_tests_under_prior", qid):
            pd.expected_tests_under_prior(answer.k_opt, answer.prior)


def setup_once(workload: str) -> float:
    """CPU seconds from a fresh interpreter to a warmed-up workload."""
    t0 = cpu_seconds()
    if workload == "cli-shallow":
        proc = workloads.run_cli(workloads.CLI_WARM_ARGV)
    else:
        code = (
            f"import sys; sys.path.insert(0, {str(BENCH)!r}); "
            f"import workloads; workloads.warm_up({workload!r})"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], cwd=ROOT, env=workloads.cli_env(),
            capture_output=True, text=True, timeout=120,
        )
    seconds = cpu_seconds() - t0
    if proc is None or proc.returncode != 0:
        detail = "timed out" if proc is None else proc.stderr.strip()[-500:]
        raise SetupError(f"set-up of {workload} failed: {detail}")
    return seconds


def traced_queries(workload: str, seed: int, n: int) -> list:
    """The first n queries of a workload; cli-shallow's run through cli.main."""
    stream = itertools.chain.from_iterable(workloads.blocks(workload, seed))
    queries = list(itertools.islice(stream, n))
    if workload == "cli-shallow":
        queries = [("cli-main", q[1]) for q in queries]
    return queries


def measure(workload: str, seed: int, seconds: float) -> tuple[dict, Tally, dict]:
    """Untraced run: a closed loop of queries for `seconds`, with the set-ups
    spread through it. Every query and set-up is timed between two samples of its
    host-speed reference and scaled by it (speed.py)."""
    if hasattr(os, "sched_setaffinity"):  # queries, references and children on one CPU
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    env = workloads.cli_env()
    query_ref = speed.Reference("process" if workload == "cli-shallow" else "scalar", env)
    setup_ref = speed.Reference("process", env)
    setups, setups_raw = [], []

    def set_up() -> float:
        """One set-up between two reference samples; returns its wall seconds."""
        t0 = perf_counter()
        setup_ref.sample()
        setups_raw.append(setup_once(workload))
        setup_ref.sample()
        setups.append(setups_raw[-1] * setup_ref.scale())
        return perf_counter() - t0

    workloads.warm_up(workload)
    tally = Tally()
    raw_busy_s = setup_wall_s = 0.0
    start = perf_counter()
    for block in workloads.blocks(workload, seed):  # whole blocks keep the mix
        elapsed = perf_counter() - start - setup_wall_s
        if elapsed >= seconds:
            break
        if elapsed >= len(setups) * seconds / SETUP_REPEATS:
            setup_wall_s += set_up()
        query_ref.sample()
        for query in block:  # the sample after a query is the next one's before
            cpu_s, answer, error = run_query(query)
            query_ref.sample()
            raw_busy_s += cpu_s
            tally.add(query, cpu_s * query_ref.scale(), answer, error)
    loop_wall_s = perf_counter() - start
    while len(setups) < SETUP_REPEATS:  # blocks longer than seconds / SETUP_REPEATS
        set_up()
    lat = sorted(tally.lat_ms)
    n = len(lat)
    tail_idx = math.ceil(TAIL_PERCENTILE[workload] / 100.0 * n) - 1
    who = resource.RUSAGE_CHILDREN if workload == "cli-shallow" else resource.RUSAGE_SELF
    metrics = {
        "setup_s": statistics.median(setups),
        "latency_p50_ms": statistics.median(lat),
        "latency_tail_ms": lat[tail_idx],
        "throughput_per_s": (tally.attempted - tally.failed) / tally.busy_s,
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0,
    }
    samples = {
        "queries": n,
        "units": tally.attempted,
        "query_cpu_s": raw_busy_s,
        "query_cpu_s_scaled": tally.busy_s,
        "loop_wall_s": loop_wall_s,
        "setup_s_each": setups,
        "setup_s_each_raw": setups_raw,
        "tail_percentile": TAIL_PERCENTILE[workload],
        "tail_samples_beyond": n - 1 - tail_idx,
        "reference": {
            role: {"kind": ref.kind, "nominal_s": speed.NOMINAL_S[ref.kind],
                   "samples": len(ref.samples), "median_s": statistics.median(ref.samples)}
            for role, ref in (("setup", setup_ref), ("query", query_ref))
        },
    }
    return metrics, tally, samples


def traced(workload: str, seed: int) -> tuple[dict, Tally, dict, "Tracer"]:
    """Traced run: a fixed query set timed with and without spans, then probes."""
    tracer = Tracer()
    # T1 fills the root table from k ~ 2000 (the design-sweep warm-up) to
    # 10000; timing the tables first keeps that the same in every traced run.
    workloads.warm_up("design-sweep")
    cells, wrong_tables = probes.tables(tracer)
    workloads.warm_up(workload)
    plain, spanned = Tally(), Tally()
    queries = traced_queries(workload, seed, TRACE_QUERIES[workload])
    for query in queries:  # so that neither timed pass pays for cache fills
        run_query(query)
    for i, query in enumerate(queries):
        for with_spans in ((False, True) if i % 2 == 0 else (True, False)):
            if with_spans:
                result = run_query(query, tracer, i)
                spanned.add(query, *result)
                at_answer(query, result[1], tracer, i)
            else:
                plain.add(query, *run_query(query))
    metrics = {"trace.overhead_pct": 100.0 * (spanned.busy_s / plain.busy_s - 1.0)}
    tally = Tally()
    tally.merge(plain)
    tally.merge(spanned)
    tally.count(len(workloads.TABLES), wrong_tables, wrong_tables, "tables off the pinned cells")
    for other, n_queries in PROBE_QUERIES.items():
        if other == workload:
            continue
        workloads.warm_up(other)
        for j, query in enumerate(traced_queries(other, seed, n_queries)):
            result = run_query(query, tracer, f"{other}-{j}")
            tally.add(query, *result)
            at_answer(query, result[1], tracer, f"{other}-{j}")
    metrics["efficiency.mismatch_cells"] = cells
    metrics.update(probes.import_times(tracer))
    metrics["interp.start_ms"] = probes.interp_start_ms(tracer)
    for k, label in ((1000, "k1e3"), (10000, "k1e4")):
        metrics[f"ranges.larger_root_cold_ms.{label}"] = probes.larger_root_cold_ms(tracer, k)
    metrics.update(layer_metrics(tracer))
    samples = {"trace_queries": len(queries), "spans": len(tracer.spans)}
    return metrics, tally, samples, tracer


def layer_metrics(tracer) -> dict:
    def median_of(name, scale):
        return statistics.median(tracer.durations(name)) * scale

    def mean_of(name, scale):
        seconds, calls = tracer.total(name)
        return seconds / calls * scale

    m = {"cli.main_ms": median_of("cli.main", 1e3)}
    for name in ("ranges.optimality_range", "core.samuels_optimal_k",
                 "core.optimal_expected_tests", "efficiency.relative_efficiency"):
        m[f"{name}_us"] = mean_of(name, 1e6)
    m["minimax.minimax_group_size_ms.p50"] = median_of("minimax.minimax_group_size", 1e3)
    m["minimax.minimax_group_size_ms.sum"] = tracer.total("minimax.minimax_group_size")[0] * 1e3
    m["minimax.sup_loss_analytic_us"] = median_of("minimax.sup_loss_analytic", 1e6)
    m["minimax.answer_k_sum"] = tracer.counters["minimax.answer_k_sum"]
    m["bayes.bayes_optimal_k_ms"] = mean_of("bayes.bayes_optimal_k", 1e3)
    m["bayes.uniform_optimal_k_ms"] = mean_of("bayes.uniform_optimal_k", 1e3)
    m["bayes.expected_tests_under_prior_us"] = median_of("bayes.expected_tests_under_prior", 1e6)
    m["bayes.quadrature_errors"] = tracer.errors("bayes.", "QuadratureError")
    for table in workloads.TABLES:
        m[f"efficiency.generate_table_ms.{table}"] = median_of(f"efficiency.generate_table.{table}", 1e3)
    m["efficiency.check_table_ms"] = tracer.total("efficiency.check_table")[0] * 1e3
    return m


def environment(seed: int) -> dict:
    import numpy
    import scipy

    sha = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        sha = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "pooldesign").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "git_sha": sha,
        "source_sha256": digest.hexdigest(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        "seed": seed,
    }


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    host = environment(seed)  # before measure() pins this process to one CPU
    if trace:
        metrics, tally, samples, tracer = traced(workload, seed)
    else:
        metrics, tally, samples = measure(workload, seed, seconds)
    wanted = [n for n, *_ in (PER_LAYER if trace else END_TO_END)]
    record = {
        "workload": workload,
        "trace": int(trace),
        "seconds": seconds,
        **host,
        "samples": samples,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "wrong": tally.wrong,
        "error_rate": tally.failed / tally.attempted,
        "failures": tally.failures,
        "metrics": {n: {"value": _finite(metrics[n]), "unit": UNITS[n]} for n in wanted},
    }
    OUT.mkdir(exist_ok=True)
    stem = f"{workload}-seed{seed}-trace{int(trace)}"
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if trace:
        tracer.dump(OUT / f"{stem}.spans.jsonl")
    return record


def _finite(x: float) -> float:
    """JSON has no infinity; an infinite latency prints as the largest float."""
    return x if math.isfinite(x) else sys.float_info.max


def emit(record: dict) -> None:
    for name, m in record["metrics"].items():
        print(f"{record['workload']:>13} {name:<40} {m['value']:>14.6g} {m['unit']}")
    print(f"{record['workload']:>13} {'error_rate':<40} {record['error_rate']:>14.6g} 1")
    print(json.dumps(record))
    print(json.dumps({
        "correct": record["wrong"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": record["metrics"],
    }))


def self_check(seconds: float) -> int:
    """Short run of every workload, untraced and traced. `run` emits every
    metric of MANIFEST or raises, so what is left to check is that
    BENCHMARK.json is MANIFEST and that every answer is right."""
    problems = []
    if json.loads((ROOT / "BENCHMARK.json").read_text()) != MANIFEST:
        problems.append("BENCHMARK.json differs from MANIFEST; run --write-manifest")
    for workload in WORKLOAD_WHY:
        for trace in (False, True):
            record = run(workload, 1, seconds, trace)
            emit(record)
            if record["wrong"]:
                problems.append(f"{workload}: {record['wrong']} wrong {record['failures']}")
    for p in problems:
        print(f"self-check: {p}", file=sys.stderr)
    print(f"self-check: {'FAIL' if problems else 'ok'}")
    return 1 if problems else 0
