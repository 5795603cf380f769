"""Spans around the public functions each dirgof layer is entered through.

The tracer replaces module attributes with timing wrappers, so nothing in
the package changes: ``goftest`` reaches the other layers through module
attribute lookups (``locreg.weight_rows``, ``parfit.fit_batch``, ...), and
its own ``node_cache`` and ``statistic_from_residuals`` are module globals
looked up at call time.  Spans are kept in memory; the caller writes them
out when the run ends.
"""

from __future__ import annotations

import functools
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from time import perf_counter


@dataclass
class Span:
    """One call into a layer: name, interval, the span that caused it, the op."""

    name: str
    op: str
    parent: int | None
    start: float = 0.0
    end: float = 0.0
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Installs wrappers on demand and records one span per wrapped call."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._targets = []
        self._saved = []
        self._op = ""

    def target(self, module, attr, name, count=None):
        """Register ``module.attr`` as the entry of layer ``name``.

        ``count(args, kwargs, result)`` returns counts recorded on the span.
        """
        self._targets.append((module, attr, name, count))

    def _wrap(self, orig, name, count):
        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            # fit_batch warm-starts through fit: that call gets no span, so
            # its time stays in fit_batch's self time
            if name == "parfit.fit" and self._stack and self.spans[self._stack[-1]].name == "parfit.fit_batch":
                return orig(*args, **kwargs)
            with self._span(name) as span:
                result = orig(*args, **kwargs)
            if count is not None:
                span.counts = count(args, kwargs, result)
            return result

        return wrapper

    @contextmanager
    def _span(self, name):
        parent = self._stack[-1] if self._stack else None
        span = Span(name=name, op=self._op, parent=parent)
        self.spans.append(span)
        self._stack.append(len(self.spans) - 1)
        span.start = perf_counter()
        try:
            yield span
        finally:
            span.end = perf_counter()
            self._stack.pop()

    def install(self):
        for module, attr, name, count in self._targets:
            orig = getattr(module, attr)
            self._saved.append((module, attr, orig))
            setattr(module, attr, self._wrap(orig, name, count))

    def uninstall(self):
        while self._saved:
            module, attr, orig = self._saved.pop()
            setattr(module, attr, orig)

    @contextmanager
    def op(self, op_id: str):
        """Root span of one operation, with the wrappers installed inside it."""
        self._op = op_id
        self.install()
        try:
            with self._span("op") as span:
                yield span
        finally:
            self.uninstall()
            self._op = ""

    def self_times(self):
        """Per op: {span name: summed self time}, and {count name: summed count}.

        Self time is a span's duration minus the durations of its children;
        spans nest strictly in one thread, so children never overlap.
        """
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                child_time[span.parent] += span.duration
        per_op: dict[str, tuple[dict, dict]] = {}
        for i, span in enumerate(self.spans):
            times, counts = per_op.setdefault(span.op, ({}, {}))
            times[span.name] = times.get(span.name, 0.0) + span.duration - child_time[i]
            for key, value in span.counts.items():
                counts[key] = counts.get(key, 0) + value
        return per_op

    def dump(self) -> list[dict]:
        return [asdict(span) for span in self.spans]
