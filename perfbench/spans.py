"""In-memory spans and counts recorded around calls into the library.

A span is (name, tag, start, end, parent, job).  Spans are only opened
by the benchmark's own code, around each public call it makes, so the
library itself carries no tracing.  Self time is a span's duration
minus the time its direct children cover.
"""

from __future__ import annotations

import contextlib
import math
import time
from collections import defaultdict
from dataclasses import dataclass

JOB_SPAN = "bench.job"


@dataclass(frozen=True)
class Span:
    name: str
    tag: str | None
    start: float
    end: float
    parent: int | None
    job: str


class Tracer:
    """Records spans and counts; write them out with :meth:`to_json`."""

    def __init__(self) -> None:
        self.spans: list[Span | None] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.job = "setup"
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str, tag: str | None = None):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(None)
        self._stack.append(idx)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[idx] = Span(name, tag, start, end, parent, self.job)

    def count(self, name: str, value: float = 1) -> None:
        self.counts[name] += value

    def self_times(self) -> list[float]:
        """Self time of every span, aligned with ``self.spans``."""
        out = [s.end - s.start for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                out[s.parent] -= s.end - s.start
        return out

    def layer_stats(self) -> dict[str, float]:
        """``<name>.{calls,s_total,s_p50,s_p90,s_max}`` per span name.

        Tagged spans add the same stats under ``<name>.<tag>``.  Job
        spans are left out: their self time is the benchmark's own code.
        """
        groups: dict[str, list[float]] = defaultdict(list)
        for s, t in zip(self.spans, self.self_times()):
            if s.name == JOB_SPAN:
                continue
            groups[s.name].append(t)
            if s.tag is not None:
                groups[f"{s.name}.{s.tag}"].append(t)
        out: dict[str, float] = {}
        for name, times in groups.items():
            times.sort()
            out[f"{name}.calls"] = len(times)
            out[f"{name}.s_total"] = math.fsum(times)
            out[f"{name}.s_p50"] = quantile(times, 0.5)
            out[f"{name}.s_p90"] = quantile(times, 0.9)
            out[f"{name}.s_max"] = times[-1]
        out.update(self.counts)
        return out

    def coverage(self) -> float:
        """Share of the job spans' wall time spent in named layer spans."""
        selfs = self.self_times()
        wall = uncovered = 0.0
        for s, t in zip(self.spans, selfs):
            if s.name == JOB_SPAN and s.parent is None:
                wall += s.end - s.start
                uncovered += t
        return 1.0 - uncovered / wall if wall > 0 else 0.0

    def to_json(self) -> dict:
        return {
            "spans": [
                [s.name, s.tag, s.start, s.end, s.parent, s.job]
                for s in self.spans
            ],
            "counts": dict(self.counts),
        }


class NullTracer:
    """Stand-in used for untraced runs: every hook does nothing."""

    def span(self, name: str, tag: str | None = None):
        return contextlib.nullcontext()

    def count(self, name: str, value: float = 1) -> None:
        pass


def quantile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank quantile of an ascending list (0.0 when empty)."""
    if not sorted_values:
        return 0.0
    k = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[k - 1]
