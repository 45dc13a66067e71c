"""Abstract interpretation over the deployed stream network (flow pass).

The plan verifier (P1xx) checks *point* invariants on a finished
deployment; this pass *derives* facts about it.  Per installed stream it
computes :class:`FlowFacts` — an interval-valued abstraction of the
stream's runtime behaviour — by propagating facts from the original
source streams through every compensation pipeline in topological
(parent-before-child) order.

Abstract domain
---------------

``FlowFacts`` is the product of three components:

* ``frequency`` — an :class:`Interval` of emissions per virtual second;
* ``item_size`` — an :class:`Interval` of serialized bytes per item;
* ``burst`` — an additive, duration-independent count slack.

The concretisation is: over any run of virtual duration ``D``, the
stream produces between ``⌊frequency.lo · D⌋ − burst`` and
``frequency.hi · D + burst`` items (see :meth:`FlowFacts.count_bounds`),
each serialized within ``item_size``.  The hypothesis property test in
``tests/test_prop_flow_soundness.py`` checks this containment against
measured :meth:`~repro.engine.executor.StreamSimulator.stream_counts`.

Transformers
------------

The abstract transformers mirror the cost model's point estimators
(:func:`repro.costmodel.estimate_stream_rate`) but are *conservative*
where the estimators use averages:

* a source stream's mean frequency ``f`` widens to
  ``[f / SOURCE_RATE_SLACK, f · SOURCE_RATE_SLACK]`` — the photon
  generator jitters inter-arrival gaps by ±40% around ``1/f``, so a
  slack factor of 2 soundly covers any jitter ≤ 100%;
* a selection keeps ``[0, hi]`` (selectivity is an average, the true
  pass rate may be anything below 1);
* a count window of step µ emits at most one item per µ arrivals;
* a time-based (diff) window's emission count is *not* bounded by its
  input count — one arriving item can complete many windows — so it is
  bounded through the reference element instead: the reference advances
  at most ``max_increment`` per raw arrival (the sampled maximum, widened
  by :data:`INCREMENT_SLACK`), and each µ of reference span completes at
  most one window;
* a UDF has unknown semantics: its output facts are ⊤ (``[0, ∞)``).

Diagnostics (F4xx)
------------------

* ``F400`` (warning) — an original stream has no statistics catalog
  entry, so no facts can be derived for it or its descendants;
* ``F401`` (error) — the cost model's committed rate for a stream lies
  *outside* the interval derived from its actual parent lineage: the
  content the planner priced is inconsistent with how the stream is
  really derived (unsound rate estimate);
* ``F402`` (warning) — a dead stream: installed and committing
  resources in the usage ledger, but never delivered to a query nor
  tapped by a live descendant (liveness via
  :func:`repro.sharing.deregister.live_stream_ids`).  A warning, not an
  error: administrative streams installed through
  :meth:`StreamGlobe.install_derived_stream` are legitimately dead
  until a query attaches or a deregistration sweep collects them;
* ``F403`` (warning) — missed sharing: a stream recomputes its pipeline
  from the raw source although a matching derived stream
  (:func:`repro.matching.match_stream_properties`) of another query was
  available on a node of its route.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..costmodel import (
    AGGREGATE_ITEM_SIZE,
    StatisticsCatalog,
    StreamStatistics,
    estimate_stream_rate,
)
from ..engine.executor import topological_streams
from ..matching import match_stream_properties
from ..obs import NULL_RECORDER
from ..properties import (
    AggregationSpec,
    OperatorSpec,
    ReAggregationSpec,
    WindowContentsSpec,
    WindowSpec,
)
from ..sharing.deregister import live_stream_ids
from ..sharing.plan import Deployment, InstalledStream
from ..diagnostics import AnalysisReport, Diagnostic

__all__ = [
    "FlowFacts",
    "INCREMENT_SLACK",
    "Interval",
    "SIZE_SLACK",
    "SOURCE_RATE_SLACK",
    "analyze_flow",
    "derive_stream_facts",
]

INF = float("inf")

#: Widening factor on a source's catalog mean frequency.  The photon
#: generator draws inter-arrival gaps uniformly from ``(1 ± 0.4)/f``
#: (clamped ≥ ``0.01/f``), so a factor of 2 covers any jitter ≤ 100%.
SOURCE_RATE_SLACK = 2.0

#: Widening factor on average serialized sizes (item sizes vary with
#: optional elements; aggregate wire sizes are "within a few bytes").
SIZE_SLACK = 2.0

#: Widening factor on the *sampled* maximum reference increment — the
#: true maximum of a 400-item sample of a uniform jitter distribution
#: sits below the distribution's supremum.
INCREMENT_SLACK = 2.0

#: Relative tolerance when checking a committed point estimate against
#: a derived interval (floating-point noise only).
_ESTIMATE_TOLERANCE = 1e-6

#: Wire envelope of a window-contents batch, widened from the cost
#: model's ``2 × 8`` bytes.
_BATCH_ENVELOPE = 32.0


@dataclass(frozen=True)
class Interval:
    """A closed non-negative interval ``[lo, hi]``; ``hi`` may be ∞."""

    lo: float
    hi: float

    def __post_init__(self) -> None:
        if self.lo < 0 or math.isnan(self.lo) or math.isnan(self.hi):
            raise ValueError(f"invalid interval bounds [{self.lo}, {self.hi}]")
        if self.hi < self.lo:
            raise ValueError(f"empty interval [{self.lo}, {self.hi}]")

    @staticmethod
    def top() -> "Interval":
        """The ⊤ element: no information, ``[0, ∞)``."""
        return Interval(0.0, INF)

    def contains(self, value: float, rel_tol: float = _ESTIMATE_TOLERANCE) -> bool:
        """Whether ``value`` lies inside, up to relative tolerance."""
        low = self.lo * (1.0 - rel_tol)
        high = self.hi if math.isinf(self.hi) else self.hi * (1.0 + rel_tol)
        return low <= value <= high

    def scale(self, factor: float) -> "Interval":
        if factor < 0:
            raise ValueError("intervals are non-negative; factor must be ≥ 0")
        return Interval(self.lo * factor, self.hi * factor)

    def hull(self, other: "Interval") -> "Interval":
        return Interval(min(self.lo, other.lo), max(self.hi, other.hi))

    def __str__(self) -> str:
        hi = "inf" if math.isinf(self.hi) else f"{self.hi:.6g}"
        return f"[{self.lo:.6g}, {hi}]"


@dataclass(frozen=True)
class FlowFacts:
    """Interval facts about one installed stream."""

    frequency: Interval  # emissions per virtual second
    item_size: Interval  # serialized bytes per item
    burst: float  # additive, duration-independent count slack

    def count_bounds(self, duration: float) -> Tuple[float, float]:
        """Sound bounds on the item count over ``duration`` seconds."""
        if duration < 0:
            raise ValueError("duration must be ≥ 0")
        low = max(0.0, math.floor(self.frequency.lo * duration) - self.burst)
        if math.isinf(self.frequency.hi):
            return low, INF
        return low, self.frequency.hi * duration + self.burst

    def __str__(self) -> str:
        return (
            f"freq {self.frequency} items/s · size {self.item_size} B"
            f" · burst {self.burst:g}"
        )


# ----------------------------------------------------------------------
# Fact derivation
# ----------------------------------------------------------------------
def derive_stream_facts(
    deployment: Deployment, catalog: StatisticsCatalog
) -> Dict[str, FlowFacts]:
    """Propagate facts source → descendants over the stream forest.

    Streams whose original source has no catalog statistics get no
    entry (and neither do their descendants) — :func:`analyze_flow`
    reports those as ``F400``.
    """
    facts: Dict[str, FlowFacts] = {}
    for stream in topological_streams(deployment):
        if stream.is_original:
            if stream.content.stream in catalog:
                stats = catalog.for_stream(stream.content.stream)
                facts[stream.stream_id] = _source_facts(stats)
            continue
        if stream.parent_id is None:  # pragma: no cover - invalid plans
            continue
        parent = facts.get(stream.parent_id)
        if parent is None:
            continue
        stats = (
            catalog.for_stream(stream.content.stream)
            if stream.content.stream in catalog
            else None
        )
        current = parent
        for spec in stream.pipeline:
            current = _transform(spec, current, stats)
        facts[stream.stream_id] = current
    return facts


def _source_facts(stats: StreamStatistics) -> FlowFacts:
    frequency = Interval(
        stats.frequency / SOURCE_RATE_SLACK, stats.frequency * SOURCE_RATE_SLACK
    )
    item_size = Interval(
        stats.avg_item_size / SIZE_SLACK, stats.avg_item_size * SIZE_SLACK
    )
    # The pump emits at least one item for any positive horizon.
    return FlowFacts(frequency=frequency, item_size=item_size, burst=1.0)


def _transform(
    spec: OperatorSpec, facts: FlowFacts, stats: Optional[StreamStatistics]
) -> FlowFacts:
    """The abstract transformer of one compensation-pipeline stage."""
    if spec.kind == "selection":
        return FlowFacts(
            frequency=Interval(0.0, facts.frequency.hi),
            item_size=facts.item_size,
            burst=facts.burst,
        )
    if spec.kind == "projection":
        # Pruning a serialized tree never grows it.
        return FlowFacts(
            frequency=facts.frequency,
            item_size=Interval(0.0, facts.item_size.hi),
            burst=facts.burst,
        )
    if spec.kind == "aggregation":
        assert isinstance(spec, AggregationSpec)
        frequency, burst = _window_output(spec.window, facts, stats)
        if spec.is_filtered:
            frequency = Interval(0.0, frequency.hi)
        return FlowFacts(
            frequency=frequency,
            item_size=_aggregate_size(spec.function),
            burst=burst,
        )
    if spec.kind == "window":
        assert isinstance(spec, WindowContentsSpec)
        frequency, burst = _window_output(spec.window, facts, stats)
        if spec.window.kind == "count":
            size = Interval(
                0.0, float(spec.window.size) * facts.item_size.hi + _BATCH_ENVELOPE
            )
        else:
            # A diff window may hold arbitrarily many items.
            size = Interval(0.0, INF)
        return FlowFacts(frequency=frequency, item_size=size, burst=burst)
    if spec.kind == "reaggregation":
        assert isinstance(spec, ReAggregationSpec)
        # One emission per µ'/µ arriving reused aggregates.
        stride = max(1.0, float(spec.new.window.step / spec.reused.window.step))
        frequency = Interval(0.0, facts.frequency.hi / stride)
        return FlowFacts(
            frequency=frequency,
            item_size=_aggregate_size(spec.new.function),
            burst=facts.burst + 1.0,
        )
    if spec.kind == "restructure":
        # Per-item structural rewrite: counts unchanged, size unknown.
        return FlowFacts(
            frequency=facts.frequency,
            item_size=Interval.top(),
            burst=facts.burst,
        )
    # Unknown operators (UDFs included): no information survives.
    return FlowFacts(
        frequency=Interval.top(), item_size=Interval.top(), burst=facts.burst
    )


def _window_output(
    window: WindowSpec, facts: FlowFacts, stats: Optional[StreamStatistics]
) -> Tuple[Interval, float]:
    """Frequency interval and burst slack of a windowing stage."""
    step = float(window.step)
    if window.kind == "count":
        # One emission per µ arrivals, plus the first-window offset.
        frequency = Interval(0.0, facts.frequency.hi / step)
        burst = facts.burst / min(1.0, step) + 1.0
        return frequency, burst
    # Time-based window: bounded through the reference element.  The
    # reference is a value of the *raw* stream, so its span over any
    # period is bounded by the raw arrival count times the maximum
    # per-item increment — a bound that survives upstream selections
    # (a subsequence spans no more than the full sequence).
    assert window.reference is not None
    max_increment = (
        stats.max_increment(window.reference) if stats is not None else None
    )
    if stats is None or max_increment is None or max_increment <= 0:
        return Interval.top(), facts.burst + 1.0
    advance = max_increment * INCREMENT_SLACK
    raw_high = stats.frequency * SOURCE_RATE_SLACK
    frequency = Interval(0.0, raw_high * advance / step)
    # One partial window at the origin plus the raw pump's burst item.
    burst = facts.burst + advance / step + 1.0
    return frequency, burst


def _aggregate_size(function: str) -> Interval:
    wire = AGGREGATE_ITEM_SIZE[function]
    return Interval(wire / SIZE_SLACK, wire * SIZE_SLACK)


# ----------------------------------------------------------------------
# The pass
# ----------------------------------------------------------------------
def analyze_flow(
    deployment: Deployment,
    catalog: StatisticsCatalog,
    title: str = "flow analysis",
    recorder: object = None,
) -> AnalysisReport:
    """Run the flow pass and report F4xx diagnostics."""
    rec = recorder if recorder is not None else NULL_RECORDER
    with rec.span(  # type: ignore[attr-defined]
        "analysis.flow", streams=len(deployment.streams)
    ):
        return _analyze_flow(deployment, catalog, title)


def _analyze_flow(
    deployment: Deployment, catalog: StatisticsCatalog, title: str
) -> AnalysisReport:
    report = AnalysisReport(title=title)
    facts = derive_stream_facts(deployment, catalog)

    # F400 — underivable streams (missing catalog statistics).
    missing = sorted(
        {
            stream.content.stream
            for stream in deployment.streams.values()
            if stream.is_original and stream.content.stream not in catalog
        }
    )
    for name in missing:
        report.add(
            "F400",
            f"stream {name!r}",
            "original stream has no statistics catalog entry; no flow "
            "facts can be derived for it or its descendants",
            hint="register the source through StreamGlobe.register_stream "
            "so a sample is measured",
            severity="warning",
        )

    # F401 — committed estimates outside the derived interval.
    for stream_id in sorted(facts):
        stream = deployment.streams[stream_id]
        derived = facts[stream_id]
        committed = estimate_stream_rate(stream.content, catalog)
        if not derived.frequency.contains(committed.frequency):
            report.add(
                "F401",
                f"stream {stream_id}",
                f"committed frequency {committed.frequency:.6g} items/s lies "
                f"outside the interval {derived.frequency} derived from its "
                "parent lineage",
                hint="the stream's content disagrees with its derivation: "
                "the planner priced a different pipeline than the one "
                "installed",
            )
        if not derived.item_size.contains(committed.size):
            report.add(
                "F401",
                f"stream {stream_id}",
                f"committed item size {committed.size:.6g} B lies outside "
                f"the interval {derived.item_size} derived from its parent "
                "lineage",
                hint="the stream's content disagrees with its derivation: "
                "the planner priced a different pipeline than the one "
                "installed",
            )

    # F402 — dead streams still committing resources.
    live = live_stream_ids(deployment)
    for stream_id in sorted(deployment.streams):
        if stream_id in live:
            continue
        stream = deployment.streams[stream_id]
        report.add(
            "F402",
            f"stream {stream_id}",
            "dead stream: derived but never delivered to a query nor "
            "tapped by a live descendant; its route "
            f"{' → '.join(stream.route)} still commits usage-ledger "
            "resources",
            hint="the next deregistration sweep will garbage-collect it "
            "(repro.sharing.deregister); attach a query if it is meant "
            "to stay",
            severity="warning",
        )

    # F403 — provably subsumable but unshared plans.
    report.extend(_missed_sharing(deployment))
    return report


def _missed_sharing(deployment: Deployment) -> List[Diagnostic]:
    """F403: streams that recompute from raw despite a matching stream.

    Only streams tapping the *original* directly are considered — a
    stream already deriving from a shared intermediate is reusing.  The
    candidate must belong to another query, carry operators (otherwise
    there is nothing to save), be available on the recomputing stream's
    origin node, and match per Algorithm 2.
    """
    diagnostics: List[Diagnostic] = []
    streams = deployment.streams
    for stream_id in sorted(streams):
        stream = streams[stream_id]
        if stream.is_original or not stream.pipeline:
            continue
        parent = streams.get(stream.parent_id) if stream.parent_id else None
        if parent is None or not parent.is_original:
            continue
        for other_id in sorted(streams):
            other = streams[other_id]
            if (
                other_id == stream_id
                or other.is_original
                or not other.content.operators
                or other.query == stream.query
                or stream.origin_node not in other.route
                or _related(streams, stream, other)
            ):
                continue
            if match_stream_properties(other.content, stream.content):
                diagnostics.append(
                    Diagnostic(
                        "F403",
                        f"stream {stream_id}",
                        f"recomputes {len(stream.pipeline)} operator(s) from "
                        f"the raw stream although matching stream {other_id} "
                        f"(query {other.query!r}) was available at "
                        f"{stream.origin_node}",
                        hint="the plan is subsumable: rewriting it to tap "
                        f"{other_id} would share the operator work",
                        severity="warning",
                    )
                )
                break  # one witness per stream is enough
    return diagnostics


def _related(
    streams: Dict[str, InstalledStream],
    first: InstalledStream,
    second: InstalledStream,
) -> bool:
    """Whether one stream is an ancestor of the other."""
    return _is_ancestor(streams, first, second) or _is_ancestor(
        streams, second, first
    )


def _is_ancestor(
    streams: Dict[str, InstalledStream],
    ancestor: InstalledStream,
    descendant: InstalledStream,
) -> bool:
    cursor: Optional[str] = descendant.parent_id
    while cursor is not None:
        if cursor == ancestor.stream_id:
            return True
        node = streams.get(cursor)
        cursor = node.parent_id if node is not None else None
    return False
