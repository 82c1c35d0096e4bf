"""In-memory span tracer for the traced benchmark run, and its arithmetic.

The traced run replaces module attributes of ``edit_mbr`` with wrappers that
record one span per call (name, start, end, parent).  Parents come from a
per-thread stack; a span opened on a worker thread whose stack is empty gets
the innermost span open on the tracer's own thread as its parent, which is
the ``combine_corpus`` call that handed the work out.  Spans stay in memory
and are written out when the traced call returns.

A span's self time is its duration minus the part of its interval that its
child spans cover, counting overlapping children (two worker threads) once.
"""

from __future__ import annotations

import contextlib
import itertools
import threading
import time
from collections import defaultdict
from collections.abc import Callable, Iterable
from typing import NamedTuple


class Span(NamedTuple):
    id: int
    parent: int | None
    name: str
    start: float
    end: float


class _ThreadLog:
    __slots__ = ("stack", "spans", "counts")

    def __init__(self) -> None:
        self.stack: list[int] = []
        self.spans: list[Span] = []
        self.counts: dict[str, float] = defaultdict(float)


class Tracer:
    """Records spans and counters from any number of threads."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._logs: list[_ThreadLog] = []
        self._ids = itertools.count()
        self._home = self._log()

    def _log(self) -> _ThreadLog:
        log = getattr(self._local, "log", None)
        if log is None:
            log = _ThreadLog()
            self._local.log = log
            with self._lock:
                self._logs.append(log)
        return log

    def span(self, name: str, fn: Callable, observe: Callable | None = None) -> Callable:
        """Wrap ``fn`` so each call records a span named ``name``.

        ``observe(counts, args, result)`` runs after the span closes and may
        add to the calling thread's counters."""
        ids, home, log_of = self._ids, self._home, self._log
        clock = time.perf_counter

        def traced(*args, **kwargs):
            log = log_of()
            stack = log.stack
            if stack:
                parent = stack[-1]
            else:
                parent = home.stack[-1] if log is not home and home.stack else None
            span_id = next(ids)
            stack.append(span_id)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                log.spans.append(Span(span_id, parent, name, start, end))
            if observe is not None:
                observe(log.counts, args, result)
            return result

        return traced

    def count(self, name: str, fn: Callable) -> Callable:
        """Wrap ``fn`` so each call adds one to counter ``name.calls`` (no span)."""
        key = name + ".calls"
        log_of = self._log

        def counted(*args, **kwargs):
            log_of().counts[key] += 1
            return fn(*args, **kwargs)

        return counted

    def spans(self) -> list[Span]:
        with self._lock:
            return sorted(itertools.chain.from_iterable(log.spans for log in self._logs))

    def counts(self) -> dict[str, float]:
        total: dict[str, float] = defaultdict(float)
        with self._lock:
            for log in self._logs:
                for key, value in log.counts.items():
                    total[key] += value
        return dict(total)


@contextlib.contextmanager
def patched(replacements: Iterable[tuple[object, str, Callable]]):
    """Set ``module.attr = value`` for each triple; restore the originals on exit."""
    saved = []
    try:
        for module, attr, value in replacements:
            saved.append((module, attr, getattr(module, attr)))
            setattr(module, attr, value)
        yield
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def covered_length(intervals: Iterable[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals if b > lo and a < hi)
    total = 0.0
    run_start = run_end = None
    for a, b in clipped:
        if run_end is None or a > run_end:
            if run_end is not None:
                total += run_end - run_start
            run_start, run_end = a, b
        elif b > run_end:
            run_end = b
    if run_end is not None:
        total += run_end - run_start
    return total


def self_times(spans: Iterable[Span]) -> dict[int, float]:
    """Span id -> duration minus the part covered by its children."""
    spans = list(spans)
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    return {
        span.id: (span.end - span.start)
        - covered_length(children.get(span.id, ()), span.start, span.end)
        for span in spans
    }


def layer_totals(spans: Iterable[Span]) -> dict[str, dict[str, float]]:
    """Per span name: number of calls, summed inclusive seconds, summed self seconds."""
    spans = list(spans)
    own = self_times(spans)
    totals: dict[str, dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "s": 0.0, "self_s": 0.0}
    )
    for span in spans:
        entry = totals[span.name]
        entry["calls"] += 1
        entry["s"] += span.end - span.start
        entry["self_s"] += own[span.id]
    return dict(totals)
