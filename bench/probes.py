"""Layer probes of the traced run that no workload loop exercises directly.

Interpreter start, imports and cold root-table fills are timed in fresh
processes, with the interpreter and import excluded where the metric says
so; the reference tables are timed in this process.
"""

from __future__ import annotations

import statistics
import subprocess
import sys

import oracles
import workloads

import pooldesign as pd

INTERP_REPEATS = 5


def _python(args: list[str]) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *args],
        cwd=workloads.ROOT,
        env=workloads.cli_env(),
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )


def import_times(tracer) -> dict:
    """`-X importtime` of `import pooldesign`: its cumulative time, and the
    self time summed over every scipy and every numpy module it loads."""
    with tracer.span("probe.importtime"):
        proc = _python(["-X", "importtime", "-c", "import pooldesign"])
    self_us = {"scipy": 0, "numpy": 0}
    total_us = None
    for line in proc.stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        fields = line[len("import time:"):].split("|")
        if not fields[0].strip().isdigit():  # the header line
            continue
        name = fields[2].strip()
        top = name.split(".")[0]
        if top in self_us:
            self_us[top] += int(fields[0])
        if name == "pooldesign":
            total_us = int(fields[1])
    if total_us is None:
        raise RuntimeError("-X importtime did not report pooldesign")
    return {
        "import.pooldesign_ms": total_us / 1e3,
        "import.scipy_ms": self_us["scipy"] / 1e3,
        "import.numpy_ms": self_us["numpy"] / 1e3,
    }


def interp_start_ms(tracer) -> float:
    """Median CPU time of a bare `python -c pass`, the floor of every CLI call."""
    for _ in range(INTERP_REPEATS):
        with tracer.span("probe.interp_start"):
            _python(["-c", "pass"])
    return statistics.median(tracer.durations("probe.interp_start")) * 1e3


def larger_root_cold_ms(tracer, k: int) -> float:
    """`larger_root(k)` in a fresh process, after its import, so the root
    table is filled from empty."""
    code = (
        "import time, pooldesign; t = time.thread_time(); "
        f"pooldesign.larger_root({k}); print(time.thread_time() - t)"
    )
    with tracer.span("probe.larger_root_cold", count=k):
        proc = _python(["-c", code])
    return float(proc.stdout) * 1e3


def tables(tracer) -> tuple[int, int]:
    """Generate and check T1-T5; returns (mismatch cells, tables off the pins)."""
    cells = wrong = 0
    for table in workloads.TABLES:
        with tracer.span(f"efficiency.generate_table.{table}", qid=table):
            report = pd.generate_table(table)
        with tracer.span("efficiency.check_table", qid=table):
            mismatches = pd.check_table(report)
        cells += len(mismatches)
        found = {(m.row, m.column) for m in mismatches}
        wrong += found != oracles.PINNED_MISMATCHES[table]
    return cells, wrong

