"""In-memory span recorder and summary statistics for the benchmark.

A span is one call the benchmark makes into a ``polarsc`` layer: its name,
start and end (``time.perf_counter`` seconds), the span that was open when
it began, and the run it belongs to (a set-up repetition or a loop unit).
Spans stay in memory while the benchmark runs and are written out once, at
the end.  When the recorder is disabled, ``span()`` returns one shared null
context, so the untraced run pays one attribute test per call.
"""

from __future__ import annotations

import contextlib
import json
import statistics
import time
from dataclasses import dataclass

_NULL = contextlib.nullcontext()


@dataclass
class Span:
    sid: int
    name: str
    start: float
    end: float
    parent: int | None
    run: str

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    def __init__(self):
        self.spans: list[Span] = []
        self.enabled = False
        self.run = "setup"
        self._stack: list[int] = []

    def span(self, name: str):
        return self._open(name) if self.enabled else _NULL

    @contextlib.contextmanager
    def _open(self, name: str):
        parent = self._stack[-1] if self._stack else None
        s = Span(len(self.spans), name, 0.0, 0.0, parent, self.run)
        self.spans.append(s)
        self._stack.append(s.sid)
        s.start = time.perf_counter()
        try:
            yield
        finally:
            s.end = time.perf_counter()
            self._stack.pop()

    def children(self) -> dict[int, list[Span]]:
        out: dict[int, list[Span]] = {}
        for s in self.spans:
            if s.parent is not None:
                out.setdefault(s.parent, []).append(s)
        return out

    def self_times(self) -> list[float]:
        """Each span's duration minus the part of it its children cover."""
        kids = self.children()
        return [s.duration - _coverage(kids.get(s.sid, ())) for s in self.spans]

    def by_name(self, field: str = "duration") -> dict[str, list[float]]:
        values = (self.self_times() if field == "self"
                  else [s.duration for s in self.spans])
        out: dict[str, list[float]] = {}
        for s, v in zip(self.spans, values):
            out.setdefault(s.name, []).append(v)
        return out

    def write(self, path, env: dict):
        selfs = self.self_times()
        with open(path, "w") as fh:
            fh.write(json.dumps({"env": env}) + "\n")
            for s, own in zip(self.spans, selfs):
                fh.write(json.dumps({
                    "id": s.sid, "name": s.name, "start": s.start, "end": s.end,
                    "parent": s.parent, "run": s.run, "self": own,
                }) + "\n")


def _coverage(spans) -> float:
    """Length of the union of the spans' intervals."""
    total = 0.0
    reach = None
    for s in sorted(spans, key=lambda s: s.start):
        if reach is None or s.start >= reach:
            total += s.duration
            reach = s.end
        elif s.end > reach:
            total += s.end - reach
            reach = s.end
    return total


def summary(values) -> dict:
    """Median and sample count, plus the highest of p99 / p90 that has at
    least ten samples beyond it."""
    vals = sorted(values)
    out = {"median": statistics.median(vals), "n": len(vals)}
    for q in (99, 90):
        if len(vals) * (100 - q) >= 1000:
            out[f"p{q}"] = statistics.quantiles(vals, n=100)[q - 1]
            break
    return out
