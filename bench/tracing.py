"""Spans and counters recorded from outside the program.

A Tracer keeps spans (name, start, end, parent span, attributes) and
aggregated counters (calls and busy seconds) in memory; ``write`` appends
them as JSON lines when the traced round ends.  ``patched`` swaps a module or class
attribute for a wrapper and restores it, so the program sees the wrapper
exactly where its callers look the function up.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    def __init__(self, phase: str):
        self.phase = phase
        self.spans: list[dict] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.busy: dict[str, float] = defaultdict(float)
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, **attrs):
        rec = {
            "id": len(self.spans),
            "parent": self._open[-1] if self._open else None,
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            **attrs,
        }
        self.spans.append(rec)
        self._open.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._open.pop()

    def counted(self, name: str, fn):
        """fn wrapped so that calls and busy time add to one counter; for
        functions called too often to keep a span per call."""
        calls, busy, clock = self.calls, self.busy, time.perf_counter

        def wrapper(*args, **kwargs):
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                busy[name] += clock() - t0
                calls[name] += 1

        return wrapper

    def total(self, name: str, **match) -> float:
        """Summed duration of the named spans whose attributes match."""
        return sum(
            (s["end"] - s["start"]
             for s in self.spans
             if s["name"] == name and all(s.get(k) == v for k, v in match.items())),
            0.0,
        )

    def write(self, fh) -> None:
        for s in self.spans:
            fh.write(json.dumps({"kind": "span", "phase": self.phase, **s}) + "\n")
        for name in sorted(self.calls):
            fh.write(json.dumps({
                "kind": "count",
                "phase": self.phase,
                "name": name,
                "calls": self.calls[name],
                "busy_s": self.busy[name],
            }) + "\n")


@contextmanager
def patched(replacements):
    """Set each (owner, attribute, value) for the duration of the block."""
    saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in replacements]
    try:
        for owner, attr, value in replacements:
            setattr(owner, attr, value)
        yield
    finally:
        for owner, attr, value in reversed(saved):
            setattr(owner, attr, value)
