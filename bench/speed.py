"""Host-speed references: fixed work timed next to every query.

On a shared host the CPU time of the same work follows what other tenants
run on the same cores. On the 2-CPU host this benchmark was written on, the
site-batch work flipped between two speeds about 1.8x apart every few
seconds, and the share of time in the slow one changed over minutes, so the
median of one 30-40 s run could land in either mode.

So every timed query runs between two samples of a reference: fixed work of
the same kind as the query, which no change to pooldesign can touch. The
query's CPU time is scaled by `nominal / reference`, with the mean of the
two samples as the reference. Both speed up and slow down together, so the
scaled time keeps what the program costs and drops most of what the host
did meanwhile. On that host, over 10 s windows, the scaled site-batch
median varied by 2% where the raw one varied by 23%, and the scaled CLI
median by 3% where the raw one varied by 9%.

- `process`: a fresh `python -c pass`, the interpreter start that every
  CLI call and every set-up pays first. It goes with CLI queries and
  set-ups, which are fresh processes.
- `scalar`: the Samuels rule in plain Python over a fixed grid of p. It goes
  with in-process queries, which are scalar Python calls.

`nominal` is the reference's CPU time on that host in its faster mode, so
scaled times read as that host's CPU times in that mode.
"""

from __future__ import annotations

import math
import subprocess
import sys
from time import thread_time

from spans import cpu_seconds

NOMINAL_S = {"process": 0.047, "scalar": 0.00027}
_GRID = [10.0 ** (-5.0 + 4.5 * i / 255) for i in range(256)]


def _cost(k: int, p: float) -> float:
    return 1.0 if k == 1 else 1.0 - (1.0 - p) ** k + 1.0 / k


def _scalar() -> float:
    t0 = thread_time()
    for p in _GRID:
        i = math.floor(p ** -0.5)
        min((i + 1, i + 2), key=lambda k: _cost(k, p))
    return thread_time() - t0


def _process(env: dict) -> float:
    t0 = cpu_seconds()
    subprocess.run([sys.executable, "-c", "pass"], env=env, capture_output=True,
                   check=True, timeout=60)
    return cpu_seconds() - t0


class Reference:
    """Samples of one kind of reference; `scale` brackets the latest query."""

    def __init__(self, kind: str, env: dict):
        self.kind = kind
        self.samples: list[float] = []
        self._time = _scalar if kind == "scalar" else lambda: _process(env)

    def sample(self) -> None:
        self.samples.append(self._time())

    def scale(self) -> float:
        """nominal / mean of the last two samples (taken before and after)."""
        return NOMINAL_S[self.kind] / ((self.samples[-2] + self.samples[-1]) / 2.0)
