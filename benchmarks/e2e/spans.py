"""In-memory spans around the harness's calls into each layer.

A span is ``(name, start, end, parent, op)``: ``parent`` is the index of
the span that was open when it started, ``op`` the operation it belongs
to.  Spans are kept in a list and written once, when the workload ends,
in Chrome trace-event format (open the file in https://ui.perfetto.dev).
Instrumentation *inside* ``src/`` is ROADMAP item 4; until then every
span here wraps a public call made from ``benchmarks/e2e``.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from pathlib import Path
from statistics import median

__all__ = ["Tracer"]


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent, op]
        self._open: list[int] = []
        self.op = -1

    @contextmanager
    def span(self, name: str):
        index = self.add(name, time.perf_counter(), None)
        self._open.append(index)
        try:
            yield index
        finally:
            self._open.pop()
            self.spans[index][2] = time.perf_counter()

    def add(self, name: str, start: float, end: float | None) -> int:
        """Record a span with explicit times (for work that finishes on
        another thread); its parent is the currently open span."""
        parent = self._open[-1] if self._open else None
        self.spans.append([name, start, end, parent, self.op])
        return len(self.spans) - 1

    # -- queries ---------------------------------------------------------------------

    def durations(self, name: str, under: str | None = None) -> list[float]:
        """Durations of every span called ``name`` (whose parent is ``under``)."""
        return [
            end - start
            for span_name, start, end, parent, _ in self.spans
            if span_name == name
            and (under is None or (parent is not None and self.spans[parent][0] == under))
        ]

    def p50(self, name: str, under: str | None = None) -> float:
        return median(self.durations(name, under))

    def children(self, index: int) -> list[list]:
        return [span for span in self.spans if span[3] == index]

    def covered(self, index: int) -> float:
        """The part of the span's interval its child spans cover (as a union)."""
        _, start, end, _, _ = self.spans[index]
        total, cursor = 0.0, start
        for _, lo, hi, _, _ in sorted(self.children(index), key=lambda s: s[1]):
            lo, hi = max(lo, cursor), min(hi, end)
            if hi > lo:
                total += hi - lo
                cursor = hi
        return total

    def self_time(self, index: int) -> float:
        """The span's duration minus the part its child spans cover."""
        _, start, end, _, _ = self.spans[index]
        return (end - start) - self.covered(index)

    def self_times(self) -> dict[str, float]:
        """Total self time per span name, largest first."""
        totals: dict[str, float] = {}
        for index, span in enumerate(self.spans):
            totals[span[0]] = totals.get(span[0], 0.0) + self.self_time(index)
        return dict(sorted(totals.items(), key=lambda item: -item[1]))

    # -- output ----------------------------------------------------------------------

    def write(self, path: Path, workload: str) -> None:
        origin = min((span[1] for span in self.spans), default=0.0)
        events = [
            {
                "name": name,
                "cat": name.rsplit(".", 1)[0],
                "ph": "X",
                "ts": (start - origin) * 1e6,
                "dur": (end - start) * 1e6,
                "pid": 1,
                "tid": 1,
                "args": {"id": index, "parent": parent, "op": op},
            }
            for index, (name, start, end, parent, op) in enumerate(self.spans)
        ]
        meta = {"name": "process_name", "ph": "M", "pid": 1, "args": {"name": workload}}
        path.write_text(json.dumps({"traceEvents": [meta] + events}))
