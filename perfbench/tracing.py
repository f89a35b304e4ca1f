"""In-memory spans around the benchmark's calls into the cbs2 layers.

A span has a name, a start, an end, the index of its parent span and a
dict of counts (such as the number of frequencies a sweep evaluated).
Spans are kept in memory and written out when the run ends.  The
untraced runs use NullTracer, which has the same interface and records
nothing, so that traced and untraced runs execute the same calls.
"""

from __future__ import annotations

import time
from contextlib import contextmanager


class NullTracer:
    """Tracer that records nothing; used for the end-to-end runs."""

    enabled = False

    @contextmanager
    def span(self, name: str):
        yield {}


class Tracer:
    """Records nested spans of one thread.

    overhead_s accumulates the time spent inside the tracer's own
    bookkeeping, measured on each span entry and exit, so that the traced
    wall time minus overhead_s estimates the untraced wall time.
    """

    enabled = True

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self.overhead_s = 0.0

    @contextmanager
    def span(self, name: str):
        t_in = time.perf_counter()
        record = {
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "counts": {},
        }
        index = len(self.spans)
        self.spans.append(record)
        self._stack.append(index)
        record["start"] = time.perf_counter()
        self.overhead_s += record["start"] - t_in
        try:
            yield record["counts"]
        finally:
            end = time.perf_counter()
            record["end"] = end
            self._stack.pop()
            self.overhead_s += time.perf_counter() - end


def self_times(spans: list[dict]) -> list[float]:
    """Self time of every span: its duration minus the part of its
    interval that its direct children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append((span["start"], span["end"]))
    out = []
    for index, span in enumerate(spans):
        covered = 0.0
        cursor = span["start"]
        for start, end in sorted(children.get(index, [])):
            start, end = max(start, cursor), min(end, span["end"])
            if end > start:
                covered += end - start
                cursor = end
        out.append(span["end"] - span["start"] - covered)
    return out


def layer_totals(spans: list[dict]) -> dict[str, dict]:
    """Per span name: number of calls, summed self time and summed counts."""
    totals: dict[str, dict] = {}
    for span, self_s in zip(spans, self_times(spans)):
        entry = totals.setdefault(span["name"], {"calls": 0, "self_s": 0.0, "counts": {}})
        entry["calls"] += 1
        entry["self_s"] += self_s
        for key, value in span["counts"].items():
            entry["counts"][key] = entry["counts"].get(key, 0) + value
    return totals
