"""The instrumentation core: counters, gauges, histograms, spans.

Two implementations share one duck-typed interface:

* :class:`Recorder` — records everything, in memory, with wall times
  relative to its construction instant;
* :class:`NullRecorder` — records nothing.  :data:`NULL_RECORDER` is
  the process-wide no-op singleton; instrumented call sites either
  hold a reference to it (every method is a no-op) or guard richer
  work behind ``if recorder.enabled:`` — a single attribute check, so
  the disabled path stays within its overhead budget (DESIGN.md §10).

Naming convention: dotted lower-case metric names with the subsystem
first (``cache.route.hits``, ``op.select.items``,
``planner.plans_costed``).  Labels are folded into the name rather
than carried separately — the exposition layer does not need more,
and flat dict lookups keep the enabled path cheap too.

Spans form a tree (``parent_id``) and carry free-form ``attrs``; they
are closed in context-manager ``__exit__`` and appended to
:attr:`Recorder.spans` at close, so the list is ordered by completion
time.  :meth:`Recorder.span_totals` aggregates them by name — the
per-phase planner timings the benchmarks and ``repro.obs summarize``
report.

A :class:`Recorder` is the one trace model: a run records into it, a
worker cell ships it, and a run log loads back into it
(:func:`~repro.obs.load_jsonl`), so every exporter reads one shape.
"""

from __future__ import annotations

import bisect
import time
from typing import Any, Dict, List, Optional

__all__ = [
    "Histogram",
    "NULL_RECORDER",
    "NullRecorder",
    "Recorder",
    "Span",
]

#: Geometric bucket ladder shared by every histogram: wide enough for
#: seconds-scale latencies down to sub-microsecond operator batches.
HISTOGRAM_BUCKETS = tuple(10.0**e for e in range(-7, 3))


class Histogram:
    """Fixed-bucket histogram with count/sum/min/max."""

    __slots__ = ("count", "total", "min", "max", "buckets")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = float("-inf")
        self.buckets = [0] * (len(HISTOGRAM_BUCKETS) + 1)

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        self.buckets[bisect.bisect_left(HISTOGRAM_BUCKETS, value)] += 1

    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Estimate the ``q``-quantile (0..1) from the bucket counts.

        Linear interpolation inside the winning bucket, clamped to the
        observed min/max so the estimate never leaves the data's actual
        range (the geometric ladder's bucket edges can be orders of
        magnitude away from the observations within).
        """
        if self.count == 0:
            return 0.0
        rank = q * self.count
        cumulative = 0
        for index, bucket_count in enumerate(self.buckets):
            if not bucket_count:
                continue
            if cumulative + bucket_count >= rank:
                lo = HISTOGRAM_BUCKETS[index - 1] if index > 0 else 0.0
                hi = (
                    HISTOGRAM_BUCKETS[index]
                    if index < len(HISTOGRAM_BUCKETS)
                    else self.max
                )
                fraction = (rank - cumulative) / bucket_count
                estimate = lo + (hi - lo) * fraction
                return min(max(estimate, self.min), self.max)
            cumulative += bucket_count
        return self.max

    def copy(self) -> "Histogram":
        """An independent snapshot (lock-free: bucket list copied whole)."""
        clone = Histogram()
        clone.count = self.count
        clone.total = self.total
        clone.min = self.min
        clone.max = self.max
        clone.buckets = list(self.buckets)
        return clone

    def merge(self, other: "Histogram") -> None:
        """Fold another histogram's observations into this one."""
        self.count += other.count
        self.total += other.total
        if other.count:
            if other.min < self.min:
                self.min = other.min
            if other.max > self.max:
                self.max = other.max
        for index, bucket_count in enumerate(other.buckets):
            self.buckets[index] += bucket_count

    def to_dict(self) -> Dict[str, Any]:
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.min if self.count else 0.0,
            "max": self.max if self.count else 0.0,
            "mean": self.mean(),
            "p50": self.quantile(0.50),
            "p95": self.quantile(0.95),
            "p99": self.quantile(0.99),
            "buckets": list(self.buckets),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "Histogram":
        hist = cls()
        hist.count = data["count"]
        hist.total = data["sum"]
        if hist.count:
            hist.min = data["min"]
            hist.max = data["max"]
        hist.buckets = list(data["buckets"])
        return hist


class Span:
    """One timed phase of a control-plane operation.

    A context manager handed out by :meth:`Recorder.span`; attributes
    added via :meth:`set` end up in the exported record.  Times are
    seconds relative to the owning recorder's construction.
    """

    __slots__ = ("span_id", "parent_id", "name", "start_s", "end_s", "attrs", "_recorder")

    def __init__(
        self,
        recorder: "Recorder",
        span_id: int,
        parent_id: Optional[int],
        name: str,
        attrs: Dict[str, Any],
    ) -> None:
        self._recorder = recorder
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.start_s = recorder.now()
        self.end_s: Optional[float] = None
        self.attrs = attrs

    def set(self, **attrs: Any) -> None:
        """Attach (or overwrite) attributes on the open span."""
        self.attrs.update(attrs)

    @property
    def duration_s(self) -> float:
        return (self.end_s if self.end_s is not None else self._recorder.now()) - self.start_s

    # -- context manager -----------------------------------------------
    def __enter__(self) -> "Span":
        return self

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> bool:
        if exc_type is not None:
            self.attrs.setdefault("error", f"{exc_type.__name__}: {exc}")
        self._recorder._close_span(self)
        return False

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Span {self.name!r} id={self.span_id} parent={self.parent_id}>"

    def to_dict(self) -> Dict[str, Any]:
        return {
            "id": self.span_id,
            "parent": self.parent_id,
            "name": self.name,
            "t0": self.start_s,
            "t1": self.end_s,
            "attrs": self.attrs,
        }

    @classmethod
    def from_dict(cls, recorder: "Recorder", data: Dict[str, Any]) -> "Span":
        """Rehydrate a completed span record of a run log
        (:func:`~repro.obs.load_jsonl`)."""
        span = cls.__new__(cls)
        span._recorder = recorder
        span.span_id = data["id"]
        span.parent_id = data["parent"]
        span.name = data["name"]
        span.start_s = data["t0"]
        span.end_s = data["t1"]
        span.attrs = dict(data.get("attrs") or {})
        return span


class _NullSpan:
    """The span :data:`NULL_RECORDER` hands out: does nothing."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> bool:
        return False

    def set(self, **attrs: Any) -> None:
        return None


_NULL_SPAN = _NullSpan()


class NullRecorder:
    """No-op recorder: every method returns immediately.

    Shared process-wide as :data:`NULL_RECORDER`; hot paths check
    :attr:`enabled` once and skip their instrumentation entirely.
    """

    __slots__ = ()

    enabled = False

    def now(self) -> float:
        return 0.0

    def inc(self, name: str, value: float = 1) -> None:
        return None

    def set_gauge(self, name: str, value: float) -> None:
        return None

    def observe(self, name: str, value: float) -> None:
        return None

    def event(self, name: str, **fields: Any) -> None:
        return None

    def span(self, name: str, **attrs: Any) -> _NullSpan:
        return _NULL_SPAN

    def add_epoch(self, snapshot: Any) -> None:
        return None


NULL_RECORDER = NullRecorder()


class Recorder:
    """In-memory sink for one system's (or one run's) instrumentation.

    Owned per :class:`~repro.sharing.system.StreamGlobe` (or per
    directly constructed executor), never shared between systems —
    benchmark baselines must not pollute each other's series, exactly
    like the :class:`~repro.matching.MatchMemo` ownership rule.
    """

    enabled = True

    def __init__(self, origin: Optional["Recorder"] = None) -> None:
        """``origin`` pins this recorder to another recorder's timeline:
        ``now()`` and ``created_unix`` agree with it, so spans recorded
        here (e.g. inside a forked worker cell — ``perf_counter`` is
        CLOCK_MONOTONIC, shared across fork on Linux) land on the same
        axis when trace segments are merged back."""
        if origin is not None:
            self.created_unix = origin.created_unix
            self._t0 = origin._t0
        else:
            self.created_unix = time.time()
            self._t0 = time.perf_counter()
        self.counters: Dict[str, float] = {}
        self.gauges: Dict[str, float] = {}
        self.histograms: Dict[str, Histogram] = {}
        #: Completed spans, in completion order.
        self.spans: List[Span] = []
        #: Structured events: ``{"t": ..., "name": ..., "fields": {...}}``.
        self.events: List[Dict[str, Any]] = []
        #: Data-plane time series (:class:`~repro.obs.EpochSnapshot`).
        self.epochs: List[Any] = []
        #: The header of the run log this recorder was loaded from
        #: (:func:`~repro.obs.load_jsonl`); empty on a live recorder.
        self.meta: Dict[str, Any] = {}
        self._open: List[Span] = []
        self._next_span_id = 1

    # ------------------------------------------------------------------
    def now(self) -> float:
        """Seconds since this recorder was created (wall clock)."""
        return time.perf_counter() - self._t0

    # -- scalar instruments --------------------------------------------
    def inc(self, name: str, value: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + value

    def set_gauge(self, name: str, value: float) -> None:
        self.gauges[name] = value

    def observe(self, name: str, value: float) -> None:
        hist = self.histograms.get(name)
        if hist is None:
            hist = Histogram()
            self.histograms[name] = hist
        hist.observe(value)

    # -- structured events ---------------------------------------------
    def event(self, name: str, **fields: Any) -> None:
        self.events.append({"t": self.now(), "name": name, "fields": fields})

    def add_epoch(self, snapshot: Any) -> None:
        snapshot.wall_s = self.now()
        self.epochs.append(snapshot)

    # -- spans ----------------------------------------------------------
    def span(self, name: str, **attrs: Any) -> Span:
        parent_id = self._open[-1].span_id if self._open else None
        span = Span(self, self._next_span_id, parent_id, name, attrs)
        self._next_span_id += 1
        self._open.append(span)
        return span

    def _close_span(self, span: Span) -> None:
        span.end_s = self.now()
        # Close out-of-order defensively (an exception may unwind
        # several spans at once): drop the span and everything opened
        # after it from the open stack.
        if span in self._open:
            index = self._open.index(span)
            del self._open[index:]
        self.spans.append(span)

    def snapshot(self) -> "Recorder":
        """A consistent point-in-time copy for concurrent readers.

        Built from whole-dict/list copies (atomic under the GIL), so a
        serving thread can render ``/metrics`` while the run loop keeps
        appending — no locks on the hot path.  Histograms are deep-
        copied (their bucket lists mutate in place); spans, events and
        epochs are shared references to already-immutable records.
        """
        clone = Recorder(origin=self)
        clone.counters = dict(self.counters)
        clone.gauges = dict(self.gauges)
        clone.histograms = {
            name: hist.copy() for name, hist in dict(self.histograms).items()
        }
        clone.spans = list(self.spans)
        clone.events = list(self.events)
        clone.epochs = list(self.epochs)
        return clone

    def span_totals(self) -> Dict[str, Dict[str, float]]:
        """Completed spans aggregated by name: count, total and max
        seconds."""
        totals: Dict[str, Dict[str, float]] = {}
        for span in self.spans:
            if span.end_s is None:
                continue
            entry = totals.setdefault(
                span.name, {"count": 0, "total_s": 0.0, "max_s": 0.0}
            )
            duration = span.end_s - span.start_s
            entry["count"] += 1
            entry["total_s"] += duration
            if duration > entry["max_s"]:
                entry["max_s"] = duration
        return totals
