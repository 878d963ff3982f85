"""In-memory spans around calls into the library.

A span is (id, name, start, end, parent, request): times are
`time.perf_counter_ns()` readings, which share one monotonic clock across
the processes of a run, and the layer is the part of the name before the
first dot.  Spans stay in memory until the benchmark writes them out at
exit; a disabled tracer records nothing.
"""
from __future__ import annotations

import json
import time
from contextlib import contextmanager, nullcontext
from pathlib import Path

_NULL = nullcontext()


class Tracer:
    def __init__(self, enabled: bool, origin: str = "main"):
        self.enabled = enabled
        self.origin = origin
        self.spans: list[dict] = []
        self._open: list[str] = []

    def span(self, name: str, request=None):
        return self._record(name, request) if self.enabled else _NULL

    @contextmanager
    def _record(self, name: str, request):
        rec = {"id": f"{self.origin}.{len(self.spans)}", "name": name,
               "start": time.perf_counter_ns(), "end": None,
               "parent": self._open[-1] if self._open else None,
               "request": request}
        self.spans.append(rec)
        self._open.append(rec["id"])
        try:
            yield
        finally:
            rec["end"] = time.perf_counter_ns()
            self._open.pop()

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.spans))


def duration_s(span: dict) -> float:
    return (span["end"] - span["start"]) * 1e-9


def self_times(spans: list[dict]) -> dict[str, float]:
    """Seconds per layer spent in its own spans, not in their children."""
    child = {}
    for s in spans:
        if s["parent"] is not None:
            child[s["parent"]] = child.get(s["parent"], 0.0) + duration_s(s)
    out: dict[str, float] = {}
    for s in spans:
        layer = s["name"].split(".", 1)[0]
        out[layer] = out.get(layer, 0.0) + duration_s(s) - child.get(s["id"], 0.0)
    return out
