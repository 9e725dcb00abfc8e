"""Span tracing around the public entry points of each layer.

The tracer wraps functions and methods from the outside (nothing in
``src/`` changes) and records one span per call: layer, start, end,
parent span and the request (update) it belongs to.  Spans stay in
memory in flat arrays until the run ends; a layer's self time is the
duration of its spans minus the time covered by their child spans.
"""

from __future__ import annotations

import importlib
import json
import time
from array import array

#: layer -> (module, class or None, entry points)
LAYERS = {
    "xquery": ("repro.core.ufilter", None, ("parse_view_update",)),
    "update_binding": ("repro.core.ufilter", None, ("resolve_update",)),
    "validation": ("repro.core.ufilter", None, ("validate_update",)),
    "star": ("repro.core.ufilter", None, ("star_check",)),
    "datacheck": ("repro.core.datacheck", "DataChecker", ("check_and_translate",)),
    "plan": ("repro.core.translation", None, ("execute_select",)),
    "database": ("repro.rdb.database", "Database", (
        "insert", "delete", "update", "delete_where", "update_where",
        "find_rowids", "select_rowids",
    )),
    "transactions": ("repro.rdb.database", "Database", (
        "begin", "commit", "rollback", "savepoint", "rollback_to",
    )),
    "ivm": ("repro.core.translation", "ProbeCache", ("maintain",)),
    "session": ("repro.core.session", "UpdateSession", ("execute",)),
}


class Tracer:
    def __init__(self) -> None:
        self.names = list(LAYERS)
        self.layer = array("b")
        self.parent = array("l")
        self.request_of = array("l")
        self.start = array("d")
        self.end = array("d")
        self.request = 0
        self._stack: list = []
        self._installed: list = []

    def _wrap(self, layer_id: int, original):
        clock = time.perf_counter
        stack = self._stack

        def traced(*args, **kwargs):
            index = len(self.start)
            self.layer.append(layer_id)
            self.parent.append(stack[-1] if stack else -1)
            self.request_of.append(self.request)
            self.end.append(0.0)
            stack.append(index)
            self.start.append(clock())
            try:
                return original(*args, **kwargs)
            finally:
                self.end[index] = clock()
                stack.pop()

        traced.__wrapped__ = original
        return traced

    def install(self) -> None:
        for layer_id, (layer, (module, cls, names)) in enumerate(LAYERS.items()):
            owner = importlib.import_module(module)
            if cls is not None:
                owner = getattr(owner, cls)
            for name in names:
                original = owner.__dict__[name]
                setattr(owner, name, self._wrap(layer_id, original))
                self._installed.append((owner, name, original))

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._installed):
            setattr(owner, name, original)
        self._installed.clear()

    def self_seconds(self) -> tuple[dict, float]:
        """Per-layer self time, and the time covered by top-level spans."""
        spans = len(self.start)
        covered = [0.0] * spans
        top = 0.0
        for i in range(spans):
            duration = self.end[i] - self.start[i]
            parent = self.parent[i]
            if parent >= 0:
                covered[parent] += duration
            else:
                top += duration
        totals = dict.fromkeys(self.names, 0.0)
        for i in range(spans):
            name = self.names[self.layer[i]]
            totals[name] += self.end[i] - self.start[i] - covered[i]
        return totals, top

    def write(self, path: str) -> None:
        """All spans as JSON lines (times in seconds from the first)."""
        origin = self.start[0] if len(self.start) else 0.0
        with open(path, "w") as handle:
            for i in range(len(self.start)):
                handle.write(json.dumps({
                    "span": i, "layer": self.names[self.layer[i]],
                    "parent": self.parent[i], "request": self.request_of[i],
                    "start": self.start[i] - origin, "end": self.end[i] - origin,
                }) + "\n")
