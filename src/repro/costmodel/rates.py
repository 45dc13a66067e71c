"""The rate rules of Section 3.2: one table, keyed by operator kind.

Every plan decision rests on ``size(p)`` and ``freq(p)``.  A
:class:`RateRule` says what one operator kind makes of its input, twice:
as a **point** (the average size and frequency the cost model commits)
and as an **interval** (:class:`FlowFacts`, the sound bound the flow pass
derives), each from the input and the statistics of the stream's
original source; DESIGN.md §11 tabulates both sides.  Three readers use
:data:`RATE_RULES`:

* :func:`estimate_stream_rate` folds the point rules over a content's
  operators, from the source's catalog means;
* :meth:`repro.sharing.planner.Planner.stream_effects` charges each
  compensation stage at the frequency its predecessor's rule yields;
* :func:`repro.analysis.flow.derive_stream_facts` folds the interval
  rules along an installed stream's real lineage, from
  :func:`source_facts`.

Analyzer and widening contents are canonical (σ, π, ω or σ, Φ) and
selectivities are at most 1, so the fold gives the by-kind formulas of
Section 3.2 float for float.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Any, Callable, Dict, NamedTuple, Optional, Tuple

from ..predicates import ZERO
from ..properties import (
    AggregationSpec,
    ReAggregationSpec,
    StreamProperties,
    UdfSpec,
    WindowContentsSpec,
    WindowSpec,
)
from .descriptions import DEFAULT_DESCRIPTIONS
from .statistics import MIN_SELECTIVITY, StatisticsCatalog, StreamStatistics

INF = float("inf")

#: Approximate wire sizes (bytes) of one aggregate result item.  ``avg``
#: aggregates travel as (sum, count) pairs (Section 3.3); the engine's
#: wire format matches these within a few bytes.
AGGREGATE_ITEM_SIZE = {
    "min": 24.0,
    "max": 24.0,
    "sum": 26.0,
    "count": 22.0,
    "avg": 46.0,  # <agg><sum>…</sum><count>…</count></agg>
}

#: Wire envelope of a window-contents batch: ``<window> … </window>``.
WINDOW_ENVELOPE = 2 * 8.0

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


@dataclass(frozen=True)
class StreamRate:
    """Average item size (bytes) and frequency (items per second)."""

    size: float
    frequency: float

    @property
    def bits_per_second(self) -> float:
        return self.size * 8.0 * self.frequency


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


class RateRule(NamedTuple):
    """What one operator kind makes of its input (Section 3.2).

    ``frequency(spec, f, stats)`` and ``size(spec, s, f, stats)`` map the
    input point ``(s, f)`` to the output point; ``interval(spec, facts,
    stats)`` maps the input facts to the output facts (``stats`` is
    ``None`` when the source has no catalog entry).
    """

    frequency: Callable[[Any, float, StreamStatistics], float]
    size: Callable[[Any, float, float, StreamStatistics], float]
    interval: Callable[[Any, FlowFacts, Optional[StreamStatistics]], FlowFacts]


def estimate_stream_rate(
    properties: StreamProperties, catalog: StatisticsCatalog
) -> StreamRate:
    """``size(p)`` and ``freq(p)`` of a (possibly derived) stream: the
    point rules folded over its operators from the source's mean."""
    stats = catalog.for_stream(properties.stream)
    size, frequency = stats.avg_item_size, stats.frequency
    for op in properties.operators:
        rule = RATE_RULES[op.kind]
        size, frequency = (
            rule.size(op, size, frequency, stats), rule.frequency(op, frequency, stats)
        )
    return StreamRate(size=size, frequency=frequency)


def source_facts(stats: StreamStatistics) -> FlowFacts:
    """An original stream's catalog means, widened; the pump emits at
    least one item for any positive horizon."""
    frequency, size = stats.frequency, stats.avg_item_size
    return FlowFacts(
        Interval(frequency / SOURCE_RATE_SLACK, frequency * SOURCE_RATE_SLACK),
        Interval(size / SIZE_SLACK, size * SIZE_SLACK),
        burst=1.0,
    )


# ----------------------------------------------------------------------
# The rules
# ----------------------------------------------------------------------
_Stats = Optional[StreamStatistics]


def _window_update_frequency(
    window: WindowSpec, stats: StreamStatistics, input_frequency: float
) -> float:
    """Average window updates per second.

    Item-based: the input frequency divided by the step size µ.
    Time-based: µ divided by the average reference-element increment
    gives the items per update; dividing the *raw* input frequency by it
    yields the update rate (the reference element advances with the raw
    stream regardless of selections).
    """
    if window.kind == "count":
        return input_frequency / float(window.step)
    assert window.reference is not None
    increment = stats.avg_increment(window.reference)
    if increment is None or increment <= 0:
        # Degenerate reference element: fall back to one update per step
        # worth of items, mirroring the item-based rule.
        return input_frequency / float(window.step)
    items_per_update = float(window.step) / increment
    if items_per_update <= 0:
        return input_frequency
    return stats.frequency / items_per_update


def _window_facts(window: WindowSpec, facts: FlowFacts, stats: _Stats) -> Tuple[Interval, float]:
    """Frequency interval and burst slack of a windowing stage."""
    step = float(window.step)
    if window.kind == "count":
        # One emission per µ arrivals, plus the first-window offset.
        return Interval(0.0, facts.frequency.hi / step), facts.burst / min(1.0, step) + 1.0
    # Time-based window: one arriving item can complete many windows, so
    # it is bounded through the reference element instead.  The
    # reference is a value of the *raw* stream, so its span over any
    # period is bounded by the raw arrival count times the maximum
    # per-item increment — a bound that survives upstream selections
    # (a subsequence spans no more than the full sequence).
    assert window.reference is not None
    max_increment = stats.max_increment(window.reference) if stats is not None else None
    if stats is None or max_increment is None or max_increment <= 0:
        return Interval.top(), facts.burst + 1.0
    advance = max_increment * INCREMENT_SLACK
    raw_high = stats.frequency * SOURCE_RATE_SLACK
    # One partial window at the origin plus the raw pump's burst item.
    return Interval(0.0, raw_high * advance / step), facts.burst + advance / step + 1.0


def _wire_size(function: str) -> Interval:
    wire = AGGREGATE_ITEM_SIZE[function]
    return Interval(wire / SIZE_SLACK, wire * SIZE_SLACK)


def _aggregation_frequency(
    spec: AggregationSpec, frequency: float, stats: StreamStatistics
) -> float:
    frequency = _window_update_frequency(spec.window, stats, frequency)
    if spec.is_filtered:
        frequency *= _result_filter_selectivity(spec, stats)
    return frequency


def _aggregation_facts(spec: AggregationSpec, facts: FlowFacts, stats: _Stats) -> FlowFacts:
    frequency, burst = _window_facts(spec.window, facts, stats)
    if spec.is_filtered:
        frequency = Interval(0.0, frequency.hi)
    return FlowFacts(frequency, _wire_size(spec.function), burst)


def _result_filter_selectivity(
    aggregation: AggregationSpec, stats: StreamStatistics
) -> float:
    """Fraction of aggregate values passing the result filter.

    Approximated with the *aggregated element's* value distribution —
    for windowed means over stationary streams the aggregate
    concentrates around the element mean, so its range is a usable
    stand-in when no aggregate-level statistics exist.
    """
    value_range = stats.value_range(aggregation.aggregated_path)
    if value_range is None:
        return 0.5
    low, high = value_range
    if high <= low:
        return 1.0
    closure = aggregation.result_filter.closure()
    lower: Optional[float] = None
    upper: Optional[float] = None
    for (source, target), bound in closure.items():
        if target == ZERO:
            upper = float(bound.value) if upper is None else min(upper, float(bound.value))
        elif source == ZERO:
            candidate = -float(bound.value)
            lower = candidate if lower is None else max(lower, candidate)
    effective_low = low if lower is None else max(low, lower)
    effective_high = high if upper is None else min(high, upper)
    fraction = (effective_high - effective_low) / (high - low)
    return max(MIN_SELECTIVITY, min(1.0, fraction))


def _contents_size(
    spec: WindowContentsSpec, size: float, frequency: float, stats: StreamStatistics
) -> float:
    """Batch size = items per window × item size (Section 3.2)."""
    window = spec.window
    if window.kind == "count":
        items_per_window = float(window.size)
    else:
        assert window.reference is not None
        increment = stats.avg_increment(window.reference)
        raw_per_window = (
            float(window.size) / increment if increment and increment > 0 else float(window.size)
        )
        # Selections thin out the items inside the window.
        survival = frequency / stats.frequency if stats.frequency else 1.0
        items_per_window = raw_per_window * survival
    return items_per_window * size + WINDOW_ENVELOPE


def _contents_facts(spec: WindowContentsSpec, facts: FlowFacts, stats: _Stats) -> FlowFacts:
    frequency, burst = _window_facts(spec.window, facts, stats)
    if spec.window.kind == "count":
        envelope = WINDOW_ENVELOPE * SIZE_SLACK
        size = Interval(0.0, float(spec.window.size) * facts.item_size.hi + envelope)
    else:
        size = Interval.top()  # a diff window may hold arbitrarily many items
    return FlowFacts(frequency, size, burst)


def _stride(spec: ReAggregationSpec) -> float:
    """Reused partials arriving per emission: ``µ'/µ``."""
    return max(1.0, float(spec.new.window.step / spec.reused.window.step))


def _udf_frequency(spec: UdfSpec, frequency: float, stats: StreamStatistics) -> float:
    description = DEFAULT_DESCRIPTIONS.lookup(spec.name)
    return frequency if description is None else frequency * description.selectivity


def _udf_size(spec: UdfSpec, size: float, frequency: float, stats: StreamStatistics) -> float:
    description = DEFAULT_DESCRIPTIONS.lookup(spec.name)
    return size if description is None else size * description.size_factor


#: The rule of every operator kind (:data:`repro.properties.OperatorSpec`).
RATE_RULES: Dict[str, RateRule] = {
    # The selectivity is an average over the source: the point thins the
    # source rate (never above the input), the interval's floor is 0.
    "selection": RateRule(
        lambda spec, f, stats: min(f, stats.frequency * stats.selectivity(spec.graph)),
        lambda spec, size, f, stats: size,
        lambda spec, facts, stats: replace(facts, frequency=Interval(0.0, facts.frequency.hi)),
    ),
    # The point is measured over the sample; pruning never grows a tree.
    "projection": RateRule(
        lambda spec, f, stats: f,
        lambda spec, size, f, stats: stats.projected_size(spec.output_elements),
        lambda spec, facts, stats: replace(facts, item_size=Interval(0.0, facts.item_size.hi)),
    ),
    "window": RateRule(
        lambda spec, f, stats: _window_update_frequency(spec.window, stats, f),
        _contents_size,
        _contents_facts,
    ),
    "aggregation": RateRule(
        _aggregation_frequency,
        lambda spec, size, f, stats: AGGREGATE_ITEM_SIZE[spec.function],
        _aggregation_facts,
    ),
    # One emission per µ'/µ arriving partial aggregates.
    "reaggregation": RateRule(
        lambda spec, f, stats: f / _stride(spec),
        lambda spec, size, f, stats: AGGREGATE_ITEM_SIZE[spec.new.function],
        lambda spec, facts, stats: FlowFacts(
            Interval(0.0, facts.frequency.hi / _stride(spec)),
            _wire_size(spec.new.function),
            facts.burst + 1.0,
        ),
    ),
    # A per-item structural rewrite: counts unchanged, size unknown.
    "restructure": RateRule(
        lambda spec, f, stats: f,
        lambda spec, size, f, stats: size,
        lambda spec, facts, stats: replace(facts, item_size=Interval.top()),
    ),
    # A declared description scales the point; it is an expectation,
    # not a bound, so the interval is ⊤.
    "udf": RateRule(
        _udf_frequency,
        _udf_size,
        lambda spec, facts, stats: FlowFacts(Interval.top(), Interval.top(), facts.burst),
    ),
}
