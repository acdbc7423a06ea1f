"""In-memory spans around the benchmark's calls into each ``dcs`` layer.

A span records its name, start, end, parent span and job id.  Spans live
in a list until the run ends and are then written out as JSON lines.  A
span's self time is its duration minus the time its child spans cover;
since spans nest strictly on one thread, that is the sum of the child
durations.
"""

from __future__ import annotations

import contextlib
import json
import time
from collections import defaultdict
from typing import NamedTuple


class Span(NamedTuple):
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    job: int | None


class Tracer:
    """Records a span per ``span(name)`` block; ``job`` tags new spans."""

    def __init__(self):
        self.spans: list[Span | None] = []
        self._stack: list[int] = []
        self.job: int | None = None

    @contextlib.contextmanager
    def span(self, name: str):
        sid = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[sid] = Span(sid, name, start, end, parent, self.job)

    def self_times(self) -> dict[str, float]:
        """Total self time per span name."""
        covered: dict[int, float] = defaultdict(float)
        for s in self.spans:
            if s.parent is not None:
                covered[s.parent] += s.end - s.start
        totals: dict[str, float] = defaultdict(float)
        for s in self.spans:
            totals[s.name] += (s.end - s.start) - covered[s.id]
        return dict(totals)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(s._asdict()) + "\n")


class NullTracer:
    """Same interface as :class:`Tracer`, recording nothing (timed runs)."""

    job: int | None = None
    _null = contextlib.nullcontext()

    def span(self, name: str):
        return self._null
