"""Clock and in-memory trace spans for the benchmark's calls into each layer."""

from __future__ import annotations

import json
import resource
from contextlib import contextmanager
from time import perf_counter, thread_time


def cpu_seconds() -> float:
    """CPU time of this thread plus that of every child process reaped so far.

    Queries are timed with this clock, not the wall clock: on a shared host
    the wall time of the same work varies with the CPU time other tenants
    take (steal), while the program's own CPU time does not.
    """
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return thread_time() + children.ru_utime + children.ru_stime


class Tracer:
    """Spans (id, name, parent, query id, start, end, cpu, count, error) and counters.

    `start` and `end` are wall-clock seconds, `cpu` is the span's CPU time
    by `cpu_seconds`, and `count` is the number of calls a span covers, for
    spans that time a chunk of calls to one function. Nothing is written
    until `dump`.
    """

    def __init__(self):
        self.spans: list[dict] = []
        self.counters: dict[str, int] = {}

    @contextmanager
    def span(self, name: str, qid=None, parent=None, count: int = 1):
        rec = {"id": len(self.spans), "name": name, "parent": parent, "qid": qid,
               "start": perf_counter(), "end": None, "cpu": None, "count": count,
               "error": None}
        self.spans.append(rec)
        cpu0 = cpu_seconds()
        try:
            yield rec["id"]
        except Exception as exc:
            rec["error"] = type(exc).__name__
            raise
        finally:
            rec["cpu"] = cpu_seconds() - cpu0
            rec["end"] = perf_counter()

    def add(self, counter: str, n: int) -> None:
        self.counters[counter] = self.counters.get(counter, 0) + n

    def durations(self, name: str) -> list[float]:
        """CPU seconds per call of every span with this name."""
        return [s["cpu"] / s["count"] for s in self.spans if s["name"] == name]

    def total(self, name: str) -> tuple[float, int]:
        """Summed CPU seconds and summed call count of the spans with this name."""
        picked = [s for s in self.spans if s["name"] == name]
        return sum(s["cpu"] for s in picked), sum(s["count"] for s in picked)

    def errors(self, prefix: str, error: str) -> int:
        return sum(
            1 for s in self.spans if s["name"].startswith(prefix) and s["error"] == error
        )

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")
            fh.write(json.dumps({"counters": self.counters}) + "\n")
