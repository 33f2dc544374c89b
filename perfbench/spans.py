"""In-memory spans recorded around the benchmark's own calls into wcons.

A span has a name (``<module>.<function>``), start and end in nanoseconds
of ``time.perf_counter_ns``, the span that encloses it, the op it belongs
to, and free-form attributes such as iteration counts.  Spans stay in
memory and are written as JSON lines when the run ends.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager, nullcontext
from pathlib import Path


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.op: int | None = None
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, **attrs):
        rec = {"id": len(self.spans), "name": name,
               "parent": self._open[-1] if self._open else None,
               "op": self.op, **attrs}
        self.spans.append(rec)
        self._open.append(rec["id"])
        rec["start_ns"] = time.perf_counter_ns()
        try:
            yield rec
        except BaseException as exc:
            rec["error"] = type(exc).__name__
            raise
        finally:
            rec["end_ns"] = time.perf_counter_ns()
            self._open.pop()

    def named(self, name: str) -> list[dict]:
        return [s for s in self.spans if s["name"] == name]

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec, sort_keys=True) + "\n")


class NullTracer:
    """Stands in for a tracer in untraced ops; records nothing."""

    op = None
    _sink: dict = {}

    def span(self, name: str, **attrs):
        return nullcontext(self._sink)


NULL = NullTracer()


def duration_ms(rec: dict) -> float:
    return (rec["end_ns"] - rec["start_ns"]) / 1e6
