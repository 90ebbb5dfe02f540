"""In-memory spans and the small statistics the benchmark reports.

A span records a name, start and end (``perf_counter_ns``), the index of
the span that encloses it, and the job it belongs to.  Spans are held in
a list and written out once, when the worker ends.  The untraced runs use
``NullTracer``, whose ``span`` is a shared no-op context manager, so the
measured code path is the same with tracing on or off.
"""

from __future__ import annotations

import contextlib
import json
import math
import statistics
import time

_NULL_SPAN = contextlib.nullcontext()


class NullTracer:
    job = None

    def span(self, name: str):
        return _NULL_SPAN


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.parents: list[int] = []
        self.jobs: list[object] = []
        self._stack: list[int] = []
        self.job: object = None

    @contextlib.contextmanager
    def span(self, name: str):
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.jobs.append(self.job)
        self.ends.append(0)
        self._stack.append(idx)
        self.starts.append(time.perf_counter_ns())
        try:
            yield idx
        finally:
            self.ends[idx] = time.perf_counter_ns()
            self._stack.pop()

    def self_times_s(self) -> list[float]:
        """Span time minus the time its direct child spans cover.

        Children of one span run one after another on one thread, so the
        covered time is the sum of their durations.
        """
        own = [(e - s) * 1e-9 for s, e in zip(self.starts, self.ends)]
        out = list(own)
        for idx, parent in enumerate(self.parents):
            if parent >= 0:
                out[parent] -= own[idx]
        return out

    def write(self, path: str):
        rows = [{"name": n, "start_ns": s, "end_ns": e, "parent": p, "job": j}
                for n, s, e, p, j in zip(self.names, self.starts, self.ends,
                                         self.parents, self.jobs)]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(rows, fh)


def median(values) -> float:
    return float(statistics.median(values))


TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def percentile(values, pct: float) -> float:
    """Nearest-rank percentile of a nonempty sample."""
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return float(ordered[rank - 1])


def tail(values) -> tuple[float, float]:
    """(value, pct) at the highest percentile with ten samples beyond it."""
    n = len(values)
    for pct in TAIL_PERCENTILES:
        if n * (1.0 - pct / 100.0) >= 10:
            return percentile(values, pct), pct
    return max(values), 100.0
