"""Spans recorded by the benchmark around its own calls into each layer.

A span is (name, start, end, parent span, request id).  Spans stay in memory
and are written once, at the end of the traced pass.  A layer's self time is
its spans' duration minus the part their direct children cover.  Spans
inside ``src/`` are a later issue; until then the children of a pipeline
execution are synthesised from the stage timings the result itself reports.
"""

from __future__ import annotations

import contextlib
import json
from collections import Counter, defaultdict
from dataclasses import dataclass
from pathlib import Path

from repro.utils.atomic_io import atomic_write_text

from benchmarks.e2e.measure import now


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    request: object = None


class Tracer:
    """Records nested spans; ``enabled=False`` makes every call a no-op so the
    untraced pass runs the very same workload code."""

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.spans: list[Span] = []
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str, request: object = None):
        if not self.enabled:
            yield
            return
        index = len(self.spans)
        self.spans.append(
            Span(name, now(), 0.0, self._open[-1] if self._open else None, request)
        )
        self._open.append(index)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[index].end = now()

    def record(self, name: str, start: float, end: float, request: object = None) -> None:
        """A finished top-level span; concurrent requests cannot share the
        nesting stack, so the closed-loop client reports theirs this way."""
        if self.enabled:
            self.spans.append(Span(name, start, end, None, request))

    def stages(self, statistics) -> None:
        """Synthesise children of the innermost open span from a result's
        ``statistics.stages``: the stages ran back to back from its start."""
        if not self.enabled or not self._open:
            return
        parent = self._open[-1]
        cursor = self.spans[parent].start
        for stage in statistics.stages:
            self.spans.append(
                Span(
                    f"stage.{stage.stage}",
                    cursor,
                    cursor + stage.seconds,
                    parent,
                    self.spans[parent].request,
                )
            )
            cursor += stage.seconds

    def self_seconds(self) -> dict[str, float]:
        """Total self time per span name."""
        covered: dict[int, float] = defaultdict(float)
        for span in self.spans:
            if span.parent is not None:
                covered[span.parent] += span.end - span.start
        totals: dict[str, float] = defaultdict(float)
        for index, span in enumerate(self.spans):
            totals[span.name] += max(0.0, (span.end - span.start) - covered[index])
        return dict(totals)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        origin = self.spans[0].start if self.spans else 0.0
        payload = {
            "self_seconds": self.self_seconds(),
            "counts": Counter(span.name for span in self.spans),
            "spans": [
                [s.name, round(s.start - origin, 6), round(s.end - origin, 6), s.parent, s.request]
                for s in self.spans
            ],
        }
        atomic_write_text(path, json.dumps(payload) + "\n")
