"""Spans around the benchmark's calls into polyshort, and what is derived from them.

A span is recorded around each call the benchmark makes into one of the
package's layers.  Spans stay in memory until the run ends.  The root span of
an item covers the whole item; its self time is the benchmark's own work
(result checks, digests), because every layer call inside it is a child span.
"""

from __future__ import annotations

import json
from collections import defaultdict
from dataclasses import dataclass
from time import perf_counter

LAYERS = ("geometry", "flows", "spectral", "simulate", "analysis", "io_cli")


@dataclass(frozen=True)
class Span:
    span_id: int
    parent: int | None
    layer: str
    name: str
    item: str
    start: float
    end: float

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Times layer calls while ``enabled``; otherwise only forwards them.

    Both modes go through :meth:`call`, so a traced and an untraced run
    execute the same benchmark code apart from the recording itself.
    """

    def __init__(self):
        self.enabled = False
        self.spans: list[Span] = []
        self._next_id = 0
        self._parent: int | None = None
        self._item = ""

    def _new_id(self) -> int:
        self._next_id += 1
        return self._next_id

    def call(self, layer: str, name: str, fn, *args, **kwargs):
        if not self.enabled:
            return fn(*args, **kwargs)
        span_id = self._new_id()
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.spans.append(
                Span(span_id, self._parent, layer, name, self._item, start, perf_counter())
            )

    def item(self, item: str, fn, *args):
        """Run ``fn(*args)`` as the root span of ``item``."""
        if not self.enabled:
            return fn(*args)
        span_id = self._new_id()
        self._parent, self._item = span_id, item
        start = perf_counter()
        try:
            return fn(*args)
        finally:
            self.spans.append(Span(span_id, None, "item", "item", item, start, perf_counter()))
            self._parent, self._item = None, ""

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in sorted(self.spans, key=lambda s: s.start):
                fh.write(
                    json.dumps(
                        {
                            "id": s.span_id,
                            "parent": s.parent,
                            "layer": s.layer,
                            "name": s.name,
                            "item": s.item,
                            "start": s.start,
                            "end": s.end,
                        }
                    )
                    + "\n"
                )


def group_time(spans) -> dict:
    """Seconds per ``(layer, name)``, per layer (``(layer, "busy")``), and the
    item roots' self time (``("item", "self")``) over ``spans``."""
    out: dict = defaultdict(float)
    child_time: dict = defaultdict(float)
    for s in spans:
        if s.layer == "item":
            continue
        out[(s.layer, s.name)] += s.duration
        out[(s.layer, "busy")] += s.duration
        if s.parent is not None:
            child_time[s.parent] += s.duration
    for s in spans:
        if s.layer == "item":
            out[("item", "self")] += s.duration - child_time[s.span_id]
    return out

