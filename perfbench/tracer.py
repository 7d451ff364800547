"""Spans recorded from the benchmark's own code, around public calls.

A span has a name, a start, an end and the id of the span that was
open on the same thread when it started (its parent).  Spans stay in
memory until :meth:`Tracer.write` dumps them as JSON at the end of a
run.  Layers below the benchmark's direct calls are reached by
:meth:`Tracer.patch`, which swaps a module attribute for a timing
wrapper and :meth:`Tracer.unpatch` puts the original back, so nothing
is traced while the untimed or untraced passes run.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from contextlib import contextmanager, nullcontext


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    def _stack(self) -> list[dict]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, **attrs):
        stack = self._stack()
        record = {
            "id": next(self._ids),
            "name": name,
            "parent": stack[-1]["id"] if stack else None,
            **attrs,
        }
        stack.append(record)
        record["start"] = time.perf_counter()
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            stack.pop()
            self.spans.append(record)

    def patch(self, module, attr: str, name: str) -> None:
        """Time every call to ``module.attr`` under span ``name``.

        A missing attribute raises ``AttributeError``: the traced run
        fails rather than report 0 for a layer that moved elsewhere.
        """
        original = getattr(module, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            with self.span(name):
                return original(*args, **kwargs)

        self._patches.append((module, attr, original))
        setattr(module, attr, traced)

    def unpatch(self) -> None:
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    def children(self, root: dict) -> list[dict]:
        """Every span recorded below ``root`` (any depth)."""
        below = {root["id"]}
        out = []
        for span in sorted(self.spans, key=lambda s: s["id"]):
            if span["parent"] in below:
                below.add(span["id"])
                out.append(span)
        return out

    @staticmethod
    def self_times(root: dict, spans: list[dict]) -> dict[str, float]:
        """Seconds per span name, each span minus its direct children.

        The root's own self time is returned under ``root["name"]``; the
        values add up to the root's duration exactly.
        """
        child_time: dict[int, float] = {}
        for span in spans:
            child_time[span["parent"]] = (
                child_time.get(span["parent"], 0.0) + span["end"] - span["start"]
            )
        out: dict[str, float] = {}
        for span in [root, *spans]:
            own = span["end"] - span["start"] - child_time.get(span["id"], 0.0)
            out[span["name"]] = out.get(span["name"], 0.0) + own
        return out

    @staticmethod
    def totals(spans: list[dict]) -> dict[str, float]:
        """Inclusive seconds per span name."""
        out: dict[str, float] = {}
        for span in spans:
            out[span["name"]] = out.get(span["name"], 0.0) + span["end"] - span["start"]
        return out

    def write(self, path, meta: dict) -> None:
        with open(path, "w") as fh:
            json.dump({"meta": meta, "spans": self.spans}, fh)


def null_span(name: str, **attrs):
    """The untraced stand-in for :meth:`Tracer.span`."""
    return nullcontext()
