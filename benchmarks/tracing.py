"""In-memory spans recorded around calls into tailproc's public functions.

A span has a name, a start, an end, its parent and the id of its root span,
which groups the spans of one operation.  A root span carries a kind: ``op``
for the workload's own operation, ``setup`` for building its inputs, and
``probe`` for a layer the workload never calls, measured on small inputs so
that every layer metric exists on every workload.
"""

from __future__ import annotations

import json
import statistics
import time
from contextlib import contextmanager

KINDS = ("op", "setup", "probe")


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[dict] = []

    @contextmanager
    def span(self, name: str, kind: str | None = None, **attrs):
        parent = self._stack[-1] if self._stack else None
        if parent is None and kind not in KINDS:
            raise ValueError(f"a root span needs a kind in {KINDS}")
        record = {
            "id": len(self.spans), "name": name,
            "parent": parent["id"] if parent else None,
            "root": parent["root"] if parent else len(self.spans),
            "kind": parent["kind"] if parent else kind,
            "start": time.perf_counter(), "end": None, "attrs": attrs,
        }
        self.spans.append(record)
        self._stack.append(record)
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def select(self, name: str) -> list[dict]:
        """Finished spans called ``name`` of the first kind, in KINDS order, that has any."""
        for kind in KINDS:
            found = [s for s in self.spans
                     if s["name"] == name and s["kind"] == kind and s["end"] is not None]
            if found:
                return found
        return []

    def median_ms(self, name: str) -> float:
        spans = self.select(name)
        if not spans:
            raise KeyError(f"no span named {name!r}")
        return 1e3 * statistics.median(s["end"] - s["start"] for s in spans)

    def write(self, path) -> None:
        with open(path, "w") as handle:
            json.dump(self.spans, handle)
            handle.write("\n")
