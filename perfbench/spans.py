"""In-memory spans recorded by the benchmark around calls into maxstorm.

A span has a name, start and end on the ``perf_counter`` clock, the span
that caused it and free-form counts.  Spans stay in memory while the run
measures and are written once, as JSON lines, when it ends.  A disabled
tracer hands out one shared inert span, so untraced passes run the same
code path at negligible cost.
"""

from __future__ import annotations

import json
import time
from pathlib import Path


class Span:
    __slots__ = ("id", "parent", "name", "start", "end", "counts")

    def __init__(self, span_id: int, parent: int | None, name: str) -> None:
        self.id = span_id
        self.parent = parent
        self.name = name
        self.start = 0.0
        self.end = 0.0
        self.counts: dict[str, float] = {}

    @property
    def duration(self) -> float:
        return self.end - self.start

    def count(self, key: str, n: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n


class _InertSpan:
    def __enter__(self) -> "_InertSpan":
        return self

    def __exit__(self, *exc) -> None:
        return None

    def count(self, key: str, n: float = 1) -> None:
        return None


_INERT = _InertSpan()


class _Active:
    def __init__(self, tracer: "Tracer", span: Span) -> None:
        self.tracer = tracer
        self.span = span

    def __enter__(self) -> Span:
        self.tracer._stack.append(self.span)
        self.span.start = time.perf_counter()
        return self.span

    def __exit__(self, *exc) -> None:
        self.span.end = time.perf_counter()
        self.tracer._stack.pop()


class Tracer:
    """Span recorder; ``enabled`` is switched per pass by the caller."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.enabled = False
        self.spans: list[Span] = []
        self._stack: list[Span] = []

    def span(self, name: str):
        if not self.enabled:
            return _INERT
        parent = self._stack[-1].id if self._stack else None
        s = Span(len(self.spans), parent, name)
        self.spans.append(s)
        return _Active(self, s)

    def current(self):
        """Innermost open span, or the inert span when none is open."""
        return self._stack[-1] if self._stack else _INERT

    def named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def self_time(self, span: Span) -> float:
        """Duration minus the time covered by direct children."""
        children = sum(s.duration for s in self.spans if s.parent == span.id)
        return span.duration - children

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(
                    json.dumps(
                        {
                            "run": self.run_id,
                            "id": s.id,
                            "parent": s.parent,
                            "name": s.name,
                            "start": s.start,
                            "end": s.end,
                            "self": self.self_time(s),
                            "counts": s.counts,
                        }
                    )
                    + "\n"
                )
