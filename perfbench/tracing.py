"""Spans recorded around calls into the library, kept in memory.

A span is opened by the benchmark, never inside the library: its duration is
the call as a caller sees it.  Inside `Tracer.memory()` tracemalloc follows
every allocation and each span also carries the peak of traced memory inside
it.  That costs up to a few times the run time of allocation-heavy Python
loops, so durations are taken from spans recorded outside `memory()`.
"""

from __future__ import annotations

import contextlib
import time
import tracemalloc
from dataclasses import asdict, dataclass, field


@dataclass
class Span:
    span_id: int
    parent: int | None
    run_id: str
    name: str
    attrs: dict
    start: float
    end: float = 0.0
    start_bytes: int = 0
    peak_bytes: int = 0

    @property
    def seconds(self) -> float:
        return self.end - self.start

    @property
    def alloc_peak_bytes(self) -> int:
        """Peak traced memory inside the span above what was live at its start."""
        return self.peak_bytes - self.start_bytes


@dataclass
class Tracer:
    spans: list[Span] = field(default_factory=list)
    _open: list[Span] = field(default_factory=list)

    @contextlib.contextmanager
    def memory(self):
        tracemalloc.start()
        try:
            yield self
        finally:
            tracemalloc.stop()

    @contextlib.contextmanager
    def span(self, run_id: str, name: str, **attrs):
        parent = self._open[-1] if self._open else None
        tracing = tracemalloc.is_tracing()
        current = 0
        if tracing:
            current, peak = tracemalloc.get_traced_memory()
            if parent is not None:
                # resetting the peak below would lose the parent's peak so far
                parent.peak_bytes = max(parent.peak_bytes, peak)
            tracemalloc.reset_peak()
        span = Span(len(self.spans), parent.span_id if parent else None, run_id, name,
                    attrs, time.perf_counter(), start_bytes=current)
        self.spans.append(span)
        self._open.append(span)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._open.pop()
            if tracing:
                span.peak_bytes = max(span.peak_bytes, tracemalloc.get_traced_memory()[1])
                if parent is not None:
                    parent.peak_bytes = max(parent.peak_bytes, span.peak_bytes)

    def run(self, run_id: str) -> list[Span]:
        return [s for s in self.spans if s.run_id == run_id]

    def to_json(self) -> list[dict]:
        return [asdict(s) for s in self.spans]
