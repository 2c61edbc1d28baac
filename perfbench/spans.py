"""In-memory span and counter recorder for the traced benchmark run.

Spans are recorded by the benchmark itself, around its calls into each
layer's public functions; the program under test is not instrumented.
A span's *self time* is its duration minus the time covered by its child
spans. The benchmark is single-threaded, so children of one span never
overlap and their durations simply add up.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from statistics import median


class Tracer:
    """Collects spans (name, parent, start, end) and per-call counts."""

    def __init__(self):
        self.spans: list[dict] = []
        self.counts: dict[str, list[float]] = {}
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        rec = {
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(rec)
        self._stack.append(len(self.spans) - 1)
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def count(self, name: str, value: float) -> None:
        """Record one sample of a per-call count (median-reduced later)."""
        self.counts.setdefault(name, []).append(float(value))

    def self_times(self, name: str) -> list[float]:
        """Self time of every finished span called ``name``."""
        covered = [0.0] * len(self.spans)
        for rec in self.spans:
            if rec["parent"] is not None and rec["end"] is not None:
                covered[rec["parent"]] += rec["end"] - rec["start"]
        return [
            rec["end"] - rec["start"] - covered[i]
            for i, rec in enumerate(self.spans)
            if rec["name"] == name and rec["end"] is not None
        ]

    def median_self(self, name: str) -> float:
        """Median self time of ``name`` spans; 0 when the layer never ran."""
        times = self.self_times(name)
        return median(times) if times else 0.0

    def median_count(self, name: str) -> float:
        """Median of a count's samples; 0 when it was never recorded."""
        values = self.counts.get(name)
        return median(values) if values else 0.0

    def summary(self) -> dict:
        """Per span name: call count, total and self seconds."""
        out: dict[str, dict] = {}
        for name in dict.fromkeys(rec["name"] for rec in self.spans):
            selfs = self.self_times(name)
            total = sum(
                rec["end"] - rec["start"]
                for rec in self.spans
                if rec["name"] == name and rec["end"] is not None
            )
            out[name] = {"calls": len(selfs), "total_s": total, "self_s": sum(selfs)}
        return out
