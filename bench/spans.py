"""In-memory spans recorded around the calls into each passiveqkd module.

The package imports its functions by name (``from .worstcase import
maximize_ratio``), so a call is only seen if the wrapper replaces the name in
the module that makes the call.  ``Tracer.install`` does exactly that for a
list of (namespace, attribute) sites and ``Tracer.uninstall`` puts the
original functions back, so untraced rounds run the unmodified code.

Spans are recorded on the calling thread only: no wrapped function is called
from the Monte Carlo worker threads.  A span's layer is the module that
defines the function (``keyrate.decoy_rate_untagged`` belongs to
``keyrate``), and its self time is its duration minus the time covered by
its direct children.
"""

from __future__ import annotations

import functools
import json
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    index: int
    parent: int  # -1 for a span opened outside any other span
    name: str
    round: int
    start: float
    end: float = 0.0
    info: dict = field(default_factory=dict)
    child_time: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - self.child_time

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


def span_name(fn) -> str:
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"


class Tracer:
    """Records one span per wrapped call; spans stay in memory until ``dump``."""

    def __init__(self):
        self.spans: list[Span] = []
        self.round = 0
        self._stack: list[Span] = []
        self._saved: list[tuple[object, str, object]] = []

    def wrap(self, fn, note=None):
        """Return ``fn`` wrapped in a span; ``note(args, kwargs, result)``
        may return a dict of facts about the call (work done, outcome)."""
        name = span_name(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            span = Span(len(self.spans), parent.index if parent else -1, name, self.round, 0.0)
            self.spans.append(span)
            self._stack.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
                if parent is not None:
                    parent.child_time += span.duration
            if note is not None:
                span.info = note(args, kwargs, result)
            return result

        return traced

    def install(self, sites):
        """Replace each ``(namespace, attr, note)`` site by its traced version."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        for namespace, attr, note in sites:
            original = getattr(namespace, attr)
            self._saved.append((namespace, attr, original))
            setattr(namespace, attr, self.wrap(original, note))

    def uninstall(self):
        for namespace, attr, original in reversed(self._saved):
            setattr(namespace, attr, original)
        self._saved.clear()

    def dump(self, path) -> None:
        rows = [
            [s.index, s.parent, s.name, s.round, s.start, s.end, s.info]
            for s in self.spans
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {"columns": ["index", "parent", "name", "round", "start", "end", "info"],
                 "spans": rows},
                fh,
            )


class LayerStats:
    """Per-round aggregates over the spans of the traced rounds."""

    def __init__(self, spans: list[Span], rounds: int):
        self.spans = spans
        self.rounds = rounds

    def _named(self, name):
        return [s for s in self.spans if s.name == name]

    def calls(self, name) -> float:
        return len(self._named(name)) / self.rounds

    def busy_s(self, name) -> float:
        return sum(s.duration for s in self._named(name)) / self.rounds

    def us_per_call(self, name) -> float:
        spans = self._named(name)
        return 1e6 * sum(s.duration for s in spans) / len(spans) if spans else 0.0

    def self_ms_per_call(self, name) -> float:
        spans = self._named(name)
        return 1e3 * sum(s.self_time for s in spans) / len(spans) if spans else 0.0

    def layer_busy_s(self, layer) -> float:
        return sum(s.self_time for s in self.spans if s.layer == layer) / self.rounds

    def count_info(self, name, key) -> float:
        return sum(1 for s in self._named(name) if s.info.get(key)) / self.rounds

    def sum_info(self, name, key) -> float:
        return sum(s.info.get(key, 0) for s in self._named(name)) / self.rounds

    def ns_per_unit(self, name, unit_key, **match) -> float:
        spans = [
            s for s in self._named(name)
            if all(s.info.get(k) == v for k, v in match.items())
        ]
        units = sum(s.info.get(unit_key, 0) for s in spans)
        return 1e9 * sum(s.duration for s in spans) / units if units else 0.0
