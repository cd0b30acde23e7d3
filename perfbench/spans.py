"""Span recording for the traced run.

A span is one call the benchmark makes into a pinchlab layer: its name,
start, end, parent span and a few attributes. Spans stay in memory and are
written out once, when the run ends. With tracing off the benchmark uses
``NullRecorder``, whose spans cost one shared no-op context manager.
"""

from __future__ import annotations

import contextlib
import json
import time


class NullRecorder:
    enabled = False
    _null = contextlib.nullcontext()

    def span(self, name: str, **attrs):
        return self._null


class SpanRecorder:
    enabled = True

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        record = {
            "id": len(self.spans),
            "parent": self._open[-1] if self._open else None,
            "name": name,
            "attrs": attrs,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(record)
        self._open.append(record["id"])
        try:
            yield record["attrs"]
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()

    def with_self_times(self) -> list[dict]:
        """Each span with ``self_s``: its duration minus its children's."""
        child_time = [0.0] * len(self.spans)
        for s in self.spans:
            if s["parent"] is not None:
                child_time[s["parent"]] += s["end"] - s["start"]
        return [
            dict(s, dur_s=s["end"] - s["start"], self_s=s["end"] - s["start"] - child_time[s["id"]])
            for s in self.spans
        ]

    def select(self, name: str, **attrs) -> list[dict]:
        return [
            s for s in self.spans
            if s["name"] == name and all(s["attrs"].get(k) == v for k, v in attrs.items())
        ]

    def write(self, path: str) -> None:
        spans = self.with_self_times()
        self_by_name: dict[str, float] = {}
        for s in spans:
            self_by_name[s["name"]] = self_by_name.get(s["name"], 0.0) + s["self_s"]
        with open(path, "w") as fh:
            json.dump({"self_s_by_name": self_by_name, "spans": spans}, fh, indent=1)
            fh.write("\n")
