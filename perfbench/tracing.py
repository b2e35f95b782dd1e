"""Per-layer tracing from outside the program.

The tracer replaces public module attributes (``rb.fit_standard``,
``clifford.compose``, ...) with timing wrappers.  Library code calls these
functions through module globals, so internal calls are caught too.
``uninstall`` puts every original object back.

Two kinds of wrapper:

* a *span* wrapper records one :class:`Span` per call (name, start, end,
  parent span, workload id); it is used at coarse boundaries such as
  ``cli.main`` or ``rb.bootstrap_analysis``;
* a *hot* wrapper, for functions called thousands of times per pass
  (fits, Clifford composition, superoperator builders), only adds to an
  :class:`Aggregate` (count and total time) under the innermost open span.

Independently of the kind, every wrapped function belongs to a *layer*.  A
call counts towards its layer's time and call count only when the nearest
traced caller belongs to another layer, so nested calls inside one layer
are not counted twice.
"""

from __future__ import annotations

import functools
import inspect
import time
from collections.abc import Callable
from dataclasses import dataclass


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    workload: str


@dataclass
class Aggregate:
    """Hot-loop calls of one function under one parent span.

    ``covered_s`` is the part of ``total_s`` spent in calls made directly
    from the parent span (not from inside another traced call); it is the
    time these calls take out of the parent's self time.
    """

    name: str
    parent: int | None
    count: int = 0
    total_s: float = 0.0
    covered_s: float = 0.0


@dataclass(frozen=True)
class Wrap:
    """One attribute to wrap: ``getattr(owner, attr)`` becomes traced.

    ``count(arguments, result, duration)`` returns counter increments; it
    gets the call's arguments by parameter name, defaults filled in, and is
    only called when the wrapped call returns normally.  With
    ``full_output`` the function is called with ``full_output=True`` (as
    scipy's ``curve_fit`` accepts), the caller gets the first two return
    values as usual and ``count`` sees the whole tuple.
    """

    owner: object
    attr: str
    name: str
    layer: str
    hot: bool = False
    count: Callable[[dict, object, float], dict] | None = None
    full_output: bool = False


@dataclass(frozen=True)
class _Frame:
    layer: str
    span_id: int | None


def _union_length(intervals, lo: float, hi: float) -> float:
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans, aggregates=()) -> dict:
    """Self time of every span: its duration minus what its children cover.

    Children are the spans whose ``parent`` is the span (their intervals are
    merged, so overlapping children count once) and the aggregated hot calls
    made directly from it.
    """
    children: dict[int, list] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    hot: dict[int, float] = {}
    for a in aggregates:
        if a.parent is not None:
            hot[a.parent] = hot.get(a.parent, 0.0) + a.covered_s
    return {s.id: (s.end - s.start)
            - _union_length(children.get(s.id, ()), s.start, s.end)
            - hot.get(s.id, 0.0)
            for s in spans}


class Tracer:
    """Wraps module attributes, records spans and counters, and restores.

    Use as a context manager; attributes named by a :class:`Wrap` that do
    not exist (a later version of the program may have removed them) are
    skipped and listed in ``missing``, as are counters that raise.  The
    worker returns ``missing`` and ``run.py`` fails a run where it is not
    empty.
    """

    def __init__(self, workload: str, wraps, clock=time.perf_counter):
        self.workload = workload
        self.clock = clock
        self.spans: list[Span] = []
        self.aggregates: dict[tuple, Aggregate] = {}
        self.calls: dict[str, int] = {}
        self.time_s: dict[str, float] = {}
        self.layer_s: dict[str, float] = {}
        self.layer_calls: dict[str, int] = {}
        self.counters: dict[str, float] = {}
        self.missing: list[str] = []
        self._wraps = tuple(wraps)
        self._stack: list[_Frame] = []
        self._saved: list[tuple] = []

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        for w in self._wraps:
            raw = vars(w.owner).get(w.attr) if isinstance(w.owner, type) \
                else getattr(w.owner, w.attr, None)
            if raw is None:
                self.missing.append(w.name)
                continue
            self._saved.append((w.owner, w.attr, raw))
            if isinstance(raw, classmethod):
                replacement = classmethod(self._wrap(raw.__func__, w))
            elif isinstance(raw, staticmethod):
                replacement = staticmethod(self._wrap(raw.__func__, w))
            else:
                replacement = self._wrap(raw, w)
            setattr(w.owner, w.attr, replacement)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- recording ---------------------------------------------------------

    def _wrap(self, fn, w: Wrap):
        signature = inspect.signature(fn) if w.count is not None else None

        def traced(*args, **kwargs):
            return self._call(fn, w, signature, args, kwargs)

        return functools.update_wrapper(traced, fn)

    def _current_span(self) -> int | None:
        for frame in reversed(self._stack):
            if frame.span_id is not None:
                return frame.span_id
        return None

    def _call(self, fn, w: Wrap, signature, args, kwargs):
        parent = self._stack[-1] if self._stack else None
        parent_span = self._current_span()
        span_id = None if w.hot else len(self.spans)
        if span_id is not None:
            # reserve the slot so ids follow call order
            self.spans.append(None)
        frame = _Frame(w.layer, span_id)
        self._stack.append(frame)
        counted, ok = None, False
        start = self.clock()
        try:
            if w.full_output:
                counted = fn(*args, full_output=True, **kwargs)
                result = counted[:2]
            else:
                result = counted = fn(*args, **kwargs)
            ok = True
            return result
        finally:
            end = self.clock()
            self._stack.pop()
            duration = end - start
            self.calls[w.name] = self.calls.get(w.name, 0) + 1
            self.time_s[w.name] = self.time_s.get(w.name, 0.0) + duration
            if parent is None or parent.layer != w.layer:
                self.layer_s[w.layer] = self.layer_s.get(w.layer, 0.0) + duration
                self.layer_calls[w.layer] = self.layer_calls.get(w.layer, 0) + 1
            if span_id is not None:
                self.spans[span_id] = Span(span_id, w.name, start, end,
                                           parent_span, self.workload)
            else:
                key = (parent_span, w.name)
                agg = self.aggregates.get(key)
                if agg is None:
                    agg = self.aggregates[key] = Aggregate(w.name, parent_span)
                agg.count += 1
                agg.total_s += duration
                if parent is None or parent.span_id is not None:
                    agg.covered_s += duration
            if ok and signature is not None:
                self._count(w, signature, args, kwargs, counted, duration)

    def _count(self, w: Wrap, signature, args, kwargs, result, duration) -> None:
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        try:
            increments = w.count(bound.arguments, result, duration)
        except (AttributeError, KeyError, TypeError, IndexError, ValueError) as exc:
            # the program changed the shape of what this counter reads
            note = f"{w.name} counter: {type(exc).__name__}: {exc}"
            if note not in self.missing:
                self.missing.append(note)
            return
        for key, value in increments.items():
            self.counters[key] = self.counters.get(key, 0.0) + float(value)

    # -- summaries ---------------------------------------------------------

    def self_time_by_name(self) -> dict:
        """Summed self time of the spans of each name."""
        out: dict[str, float] = {}
        selfs = self_times(self.spans, self.aggregates.values())
        for s in self.spans:
            out[s.name] = out.get(s.name, 0.0) + selfs[s.id]
        return out

    def to_dict(self) -> dict:
        """Everything recorded, for the trace file written after the run."""
        return {
            "workload": self.workload,
            "missing": list(self.missing),
            "spans": [vars(s) for s in self.spans],
            "aggregates": [vars(a) for a in self.aggregates.values()],
            "calls": dict(self.calls),
            "time_s": dict(self.time_s),
            "layer_s": dict(self.layer_s),
            "layer_calls": dict(self.layer_calls),
            "counters": dict(self.counters),
        }
