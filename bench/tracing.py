"""Spans the benchmark records around each of its calls into a library layer.

A span is recorded only while the tracer is enabled.  Disabled, a call
costs one attribute test, which is how the untraced rounds and the
end-to-end runs see the library.  Spans stay in memory and are written out
once when the run ends.
"""

from __future__ import annotations

from collections import Counter
from time import perf_counter


class Tracer:
    """Spans with name, start, end, parent span and request id."""

    def __init__(self) -> None:
        self.enabled = False
        self.spans: list[dict] = []
        self.counts: Counter = Counter()
        self._request: int | None = None
        self._parent: int | None = None

    def call(self, name: str, fn, *args, error_of=None):
        """Run fn(*args) inside a span; ``error_of(result)`` names a failure
        that the call reports through its result instead of raising."""
        if not self.enabled:
            return fn(*args)
        start = perf_counter()
        try:
            result = fn(*args)
        except Exception as exc:
            self._record(name, start, perf_counter(), type(exc).__name__)
            raise
        end = perf_counter()
        self._record(name, start, end, error_of(result) if error_of else None)
        return result

    def begin(self, request: int, name: str) -> None:
        """Open the request span that parents every layer call until end()."""
        if not self.enabled:
            return
        self._request = request
        self._parent = self._record(name, perf_counter(), None, None)

    def end(self, error: str | None) -> None:
        if not self.enabled or self._parent is None:
            return
        span = self.spans[self._parent]
        span["end"] = perf_counter()
        span["error"] = error
        self._request = self._parent = None

    def count(self, measures: dict) -> None:
        if self.enabled:
            self.counts.update(measures)

    def _record(self, name, start, end, error) -> int:
        self.spans.append(
            {
                "id": len(self.spans),
                "name": name,
                "start": start,
                "end": end,
                "parent": self._parent,
                "request": self._request,
                "error": error,
            }
        )
        return len(self.spans) - 1


def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    out = []
    for s in spans:
        covered = 0.0
        reach = s["start"]
        for a, b in sorted(children.get(s["id"], ())):
            a = max(a, reach)
            if b > a:
                covered += b - a
                reach = b
        out.append(s["end"] - s["start"] - covered)
    return out


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def summarize(spans: list[dict]) -> dict:
    """Calls, busy time, self time and errors per layer and per span name."""
    out: dict[str, dict] = {}
    for span, own in zip(spans, self_times(spans)):
        for key in {layer_of(span["name"]), span["name"]}:
            row = out.setdefault(key, {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "errors": 0})
            row["calls"] += 1
            row["busy_s"] += span["end"] - span["start"]
            row["self_s"] += own
            row["errors"] += span["error"] is not None
    return out
