"""In-memory span recorder for the traced benchmark run.

A span is one timed call into a layer: name, start, end, the index of the
enclosing span, and the id of the operation it belongs to. Spans stay in
memory until the run ends; self time is a span's duration minus the time
covered by its direct children (children run one after another inside
their parent, so their durations add up to the covered part).
"""

from __future__ import annotations

import time
from contextlib import contextmanager


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.op_id: int | None = None
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        record = {
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "parent": self._stack[-1] if self._stack else None,
            "op": self.op_id,
        }
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield record
        finally:
            self._stack.pop()
            record["end"] = time.perf_counter()

    def self_times(self) -> dict[str, tuple[float, int]]:
        """Summed self time in seconds and number of spans, per span name."""
        covered = [0.0] * len(self.spans)
        for s in self.spans:
            if s["parent"] is not None:
                covered[s["parent"]] += s["end"] - s["start"]
        totals: dict[str, tuple[float, int]] = {}
        for s, cov in zip(self.spans, covered):
            seconds, count = totals.get(s["name"], (0.0, 0))
            totals[s["name"]] = (seconds + (s["end"] - s["start"]) - cov, count + 1)
        return totals

    def total(self, name: str) -> float:
        """Summed full duration in seconds of every span with this name."""
        return sum(s["end"] - s["start"] for s in self.spans if s["name"] == name)
