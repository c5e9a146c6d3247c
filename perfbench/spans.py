"""In-memory wall-clock spans and the arithmetic the report is built on.

A span has a name, a start and end (``perf_counter_ns``), the span that
caused it (its parent on the same thread) and a request id shared by
every span of one request. Spans stay in memory until the run ends.

Hot leaf functions (one call per row: LA kernels, tensor constructors,
byte-size helpers) would swamp the span list, so they are *leaf timers*:
they add their duration to a per-name total and to the enclosing span's
``leaf_ns``, which is subtracted from that span's self time exactly like
a child span. Leaf timers never nest: a leaf called inside a leaf runs
untimed.

This module also holds the two rules the report relies on: self time
(:func:`self_ns`) and the tail percentile (:func:`tail_percentile`).
"""

from __future__ import annotations

import functools
import itertools
import math
import re
import threading
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

_now = time.perf_counter_ns
_INHERITED = object()

METRIC_NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")
METRIC_UNIT = re.compile(r"^[A-Za-z0-9_/%.\-]{1,16}$")


def valid_metric_name(name: str) -> bool:
    """Names start with a letter or digit and use at most 64 letters,
    digits, ``_``, ``.`` and ``-``."""
    return bool(METRIC_NAME.match(name))


def valid_unit(unit: str) -> bool:
    return bool(METRIC_UNIT.match(unit))


class Span:
    __slots__ = ("name", "start", "end", "parent", "request", "leaf_ns", "counts")

    def __init__(self, name: str, start: int, parent: Optional["Span"], request: int):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.request = request
        #: time spent in leaf timers directly under this span
        self.leaf_ns = 0
        #: subtree-inclusive counters recorded at leaf boundaries
        self.counts: Optional[Dict[str, int]] = None

    @property
    def duration_ns(self) -> int:
        return self.end - self.start


def union_ns(intervals: Sequence[Tuple[int, int]], lo: int, hi: int) -> int:
    """Total length of the union of ``intervals`` clipped to [lo, hi]."""
    covered = 0
    cursor = lo
    for start, end in sorted(intervals):
        start = max(start, cursor)
        end = min(end, hi)
        if end > start:
            covered += end - start
            cursor = end
    return covered


def self_ns(span: Span, children: Sequence[Span]) -> int:
    """A span's duration minus the part of it its child spans cover,
    minus the leaf time recorded directly under it."""
    covered = union_ns([(c.start, c.end) for c in children], span.start, span.end)
    return max(0, span.duration_ns - covered - span.leaf_ns)


def tail_percentile(count: int, min_beyond: int = 10) -> Optional[float]:
    """The highest of the standard percentiles (50, 90, 99, 99.9) that
    leaves at least ``min_beyond`` samples beyond it; None when even the
    median does not."""
    best = None
    for tenths in (500, 900, 990, 999):  # integer arithmetic: no rounding
        if count * (1000 - tenths) >= min_beyond * 1000:
            best = tenths / 10
    return best


def percentile(values: Sequence[float], pct: float) -> float:
    """Linear-interpolated percentile of ``values`` (need not be sorted)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    rank = (len(ordered) - 1) * pct / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def geomean(values: Sequence[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


class Tracer:
    """Collects spans per thread and leaf totals; installs and removes
    the wrappers that produce them."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._requests = itertools.count(1)
        self._restore: List[Tuple[object, str, object]] = []
        self.reset()

    def reset(self) -> None:
        """Forget everything recorded; the wrappers stay installed."""
        with self._lock:
            self.spans: List[Span] = []
            #: name -> [calls, total ns, extra units]
            self.leaves: Dict[str, List[int]] = {}
            self.counters: Dict[str, int] = {}
            #: name -> recorded values (summed exactly by the summary)
            self.values: Dict[str, List[float]] = {}

    # -- recording ---------------------------------------------------------

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str) -> Span:
        stack = self._stack()
        parent = stack[-1] if stack else None
        request = parent.request if parent else next(self._requests)
        span = Span(name, _now(), parent, request)
        stack.append(span)
        return span

    def end(self, span: Span) -> None:
        span.end = _now()
        stack = self._stack()
        stack.pop()
        with self._lock:
            self.spans.append(span)

    def count(self, name: str, amount: int = 1) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + amount

    def record(self, name: str, value: float) -> None:
        with self._lock:
            self.values.setdefault(name, []).append(value)

    # -- wrapping ----------------------------------------------------------

    def _install(self, owner, attr: str, wrapper) -> None:
        # an inherited method is restored by deleting the override
        own = vars(owner).get(attr, _INHERITED) if isinstance(owner, type) else getattr(owner, attr)
        self._restore.append((owner, attr, own))
        setattr(owner, attr, wrapper)

    def wrap_span(
        self, owner, attr: str, name: str, on_result: Optional[Callable] = None
    ) -> None:
        """Record a span around every call of ``owner.attr``;
        ``on_result(result)`` sees each return value after the span
        closed (to read counts off it)."""
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            span = tracer.begin(name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.end(span)
            if on_result is not None:
                on_result(result)
            return result

        self._install(owner, attr, wrapper)

    def wrap_leaf(
        self,
        owner,
        attr: str,
        name: str,
        units: Optional[Callable] = None,
        span_count: Optional[str] = None,
    ) -> None:
        """Time every call of ``owner.attr`` as a leaf. ``units(args,
        result)`` adds a work count (rows, say) to the leaf's total;
        ``span_count`` also adds it to every open span's counters."""
        original = getattr(owner, attr)
        tracer = self
        local = self._local

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if getattr(local, "in_leaf", False):
                return original(*args, **kwargs)
            local.in_leaf = True
            start = _now()
            try:
                result = original(*args, **kwargs)
            finally:
                elapsed = _now() - start
                local.in_leaf = False
            extra = units(args, result) if units is not None else 0
            stack = tracer._stack()
            if stack:
                stack[-1].leaf_ns += elapsed
                if span_count is not None:
                    for span in stack:
                        if span.counts is None:
                            span.counts = {}
                        span.counts[span_count] = span.counts.get(span_count, 0) + extra
            with tracer._lock:
                total = tracer.leaves.setdefault(name, [0, 0, 0])
                total[0] += 1
                total[1] += elapsed
                total[2] += extra
            return result

        self._install(owner, attr, wrapper)

    def wrap_counter(self, owner, attr: str, name: str) -> None:
        """Count calls of ``owner.attr`` without timing them."""
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            tracer.count(name)
            return original(*args, **kwargs)

        self._install(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            if original is _INHERITED:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    # -- summaries ---------------------------------------------------------

    def summary(self) -> Dict[str, Dict[str, float]]:
        """Per span name: calls, total ms, self ms, and subtree counters
        summed over its spans. Per leaf name: calls, ms and units."""
        children: Dict[int, List[Span]] = {}
        for span in self.spans:
            if span.parent is not None:
                children.setdefault(id(span.parent), []).append(span)
        out: Dict[str, Dict[str, float]] = {}
        for span in self.spans:
            entry = out.setdefault(
                span.name, {"calls": 0, "total_ms": 0.0, "self_ms": 0.0}
            )
            entry["calls"] += 1
            entry["total_ms"] += span.duration_ns / 1e6
            entry["self_ms"] += self_ns(span, children.get(id(span), ())) / 1e6
            for key, value in (span.counts or {}).items():
                entry[key] = entry.get(key, 0) + value
        for name, (calls, total, units) in self.leaves.items():
            out["leaf:" + name] = {
                "calls": calls,
                "total_ms": total / 1e6,
                "self_ms": total / 1e6,
                "units": units,
            }
        for name, value in self.counters.items():
            out["count:" + name] = {"calls": value}
        for name, values in self.values.items():
            # fsum: exact, so the order threads recorded in cannot matter
            out["sum:" + name] = {"value": math.fsum(values)}
        return out
