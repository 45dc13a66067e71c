"""The cost model ``C`` (Section 3.2).

Three layers:

* :func:`estimate_stream_rate` — ``size(p)`` and ``freq(p)`` of the
  stream described by a :class:`~repro.properties.model.StreamProperties`
  (paper formulas for selection/projection/aggregation/window queries);
* :class:`NetworkUsage` — the current bandwidth/load commitments of the
  network, yielding the available fractions ``a_b(e)`` and ``a_l(v)``;
* :class:`CostModel` — the weighted cost function with the exponential
  overload penalty, plus the hard overload test used by admission
  control in the rejection experiment.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from ..network.topology import Link, Network
from ..predicates import ZERO
from ..properties import (
    AggregationSpec,
    StreamProperties,
    WindowContentsSpec,
    WindowSpec,
)
from .descriptions import DEFAULT_DESCRIPTIONS
from .statistics import MIN_SELECTIVITY, StatisticsCatalog, StreamStatistics

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


@dataclass(frozen=True)
class StreamRate:
    """Average item size (bytes) and frequency (items per second)."""

    size: float
    frequency: float

    @property
    def bits_per_second(self) -> float:
        return self.size * 8.0 * self.frequency


def estimate_stream_rate(
    properties: StreamProperties, catalog: StatisticsCatalog
) -> StreamRate:
    """``size(p)`` and ``freq(p)`` for a (possibly derived) stream.

    Follows Section 3.2 exactly:

    * selections scale the frequency by their selectivity and leave the
      item size unchanged;
    * projections shrink the item size
      (``size(p) = size(s) − Σ_{n∉Π} occ(n)·size(n)``, realized as a
      measured projection over the catalog sample) and leave the
      frequency unchanged;
    * aggregations replace the item by an aggregate value whose size is
      independent of the input, at the window's update frequency;
    * window-contents queries emit one batch of the (selected,
      projected) items per window update.
    """
    stats = catalog.for_stream(properties.stream)
    size = stats.avg_item_size
    frequency = stats.frequency

    selection = properties.selection
    if selection is not None:
        frequency *= stats.selectivity(selection.graph)

    projection = properties.projection
    if projection is not None:
        size = stats.projected_size(projection.output_elements)

    aggregation = properties.aggregation
    if aggregation is not None:
        return _aggregate_rate(aggregation, stats, frequency)

    window_op = properties.operator_of_kind("window")
    if isinstance(window_op, WindowContentsSpec):
        return _window_contents_rate(window_op, stats, size, frequency)

    # User-defined operators: apply declared descriptions when present;
    # unknown UDFs are conservatively rate-neutral (see
    # repro.costmodel.descriptions).
    for op in properties.operators:
        if op.kind != "udf":
            continue
        description = DEFAULT_DESCRIPTIONS.lookup(getattr(op, "name", ""))
        if description is not None:
            frequency *= description.selectivity
            size *= description.size_factor

    return StreamRate(size=size, frequency=frequency)


def _window_update_frequency(
    window: WindowSpec, stats: StreamStatistics, input_frequency: float
) -> float:
    """Average window updates per second (the ``freq(p)`` rules).

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


def _aggregate_rate(
    aggregation: AggregationSpec, stats: StreamStatistics, input_frequency: float
) -> StreamRate:
    size = AGGREGATE_ITEM_SIZE[aggregation.function]
    frequency = _window_update_frequency(aggregation.window, stats, input_frequency)
    if aggregation.is_filtered:
        frequency *= _result_filter_selectivity(aggregation, stats)
    return StreamRate(size=size, frequency=frequency)


def _window_contents_rate(
    window_op: WindowContentsSpec,
    stats: StreamStatistics,
    item_size: float,
    input_frequency: float,
) -> StreamRate:
    """Batch size = items per window × item size (Section 3.2)."""
    window = window_op.window
    if window.kind == "count":
        items_per_window = float(window.size)
    else:
        assert window.reference is not None
        increment = stats.avg_increment(window.reference)
        raw_per_window = (
            float(window.size) / increment if increment and increment > 0 else float(window.size)
        )
        # Selections thin out the items inside the window.
        survival = input_frequency / stats.frequency if stats.frequency else 1.0
        items_per_window = raw_per_window * survival
    window_envelope = 2 * 8.0  # <window> … </window>
    size = items_per_window * item_size + window_envelope
    frequency = _window_update_frequency(window, stats, input_frequency)
    return StreamRate(size=size, frequency=frequency)


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


# ----------------------------------------------------------------------
# Network usage bookkeeping
# ----------------------------------------------------------------------
#: Register/deregister round-trips release commitments by float
#: subtraction; the residues they leave (positive *or* negative) are
#: many orders of magnitude below any real commitment (which is at
#: least one item per second through one operator).  Totals within this
#: tolerance of zero are clamped to exactly 0.0 so churn cannot
#: accumulate dust that the static verifier's P13x invariants would
#: misread as stale or negative commitments.
RESIDUE_TOLERANCE = 1e-6


def _clamp_residue(total: float) -> float:
    return 0.0 if -RESIDUE_TOLERANCE < total < RESIDUE_TOLERANCE else total


class NetworkUsage:
    """Committed bandwidth per link and computational load per peer.

    Tracks absolute quantities (bits/s, work units/s); the relative
    ``u_b``/``u_l`` and available ``a_b``/``a_l`` fractions of the cost
    function are derived against the topology's capacities.
    """

    def __init__(self, net: Network) -> None:
        self._net = net
        self._link_bits: Dict[Tuple[str, str], float] = {}
        self._peer_work: Dict[str, float] = {}

    # -- commitments ----------------------------------------------------
    def add_link_traffic(self, link: Link, bits_per_second: float) -> None:
        self._link_bits[link.ends] = _clamp_residue(
            self._link_bits.get(link.ends, 0.0) + bits_per_second
        )

    def add_peer_work(self, peer: str, work_per_second: float) -> None:
        self._peer_work[peer] = _clamp_residue(
            self._peer_work.get(peer, 0.0) + work_per_second
        )

    # -- fractions ------------------------------------------------------
    def link_traffic(self, link: Link) -> float:
        return self._link_bits.get(link.ends, 0.0)

    def peer_work(self, peer: str) -> float:
        return self._peer_work.get(peer, 0.0)

    def used_bandwidth_fraction(self, link: Link) -> float:
        return self.link_traffic(link) / link.bandwidth

    def used_load_fraction(self, peer: str) -> float:
        capacity = self._net.super_peer(peer).capacity
        return self.peer_work(peer) / capacity

    def available_bandwidth_fraction(self, link: Link) -> float:
        """``a_b(e)`` — clamped at zero when already overcommitted."""
        return max(0.0, 1.0 - self.used_bandwidth_fraction(link))

    def available_load_fraction(self, peer: str) -> float:
        """``a_l(v)``."""
        return max(0.0, 1.0 - self.used_load_fraction(peer))

    def copy(self) -> "NetworkUsage":
        clone = NetworkUsage(self._net)
        clone._link_bits = dict(self._link_bits)
        clone._peer_work = dict(self._peer_work)
        return clone


@dataclass
class PlanEffects:
    """The additional commitments a candidate evaluation plan causes.

    ``link_bits``: added stream traffic per affected connection (``P_e``
    aggregated to bits/s); ``peer_work``: added operator load per
    affected peer (``O_v`` aggregated to work units/s).
    """

    link_bits: Dict[Link, float] = field(default_factory=dict)
    peer_work: Dict[str, float] = field(default_factory=dict)

    def add_link(self, link: Link, bits_per_second: float) -> None:
        self.link_bits[link] = self.link_bits.get(link, 0.0) + bits_per_second

    def add_peer(self, peer: str, work_per_second: float) -> None:
        self.peer_work[peer] = self.peer_work.get(peer, 0.0) + work_per_second

    def merge(self, other: "PlanEffects", sign: float = 1.0) -> None:
        """Add ``other`` (``sign=-1.0``: subtract it)."""
        for link, bits in other.link_bits.items():
            self.add_link(link, sign * bits)
        for peer, work in other.peer_work.items():
            self.add_peer(peer, sign * work)


class CostModel:
    """The cost function ``C(P)`` with weighting factor γ.

    ``γ ∈ [0, 1]`` balances network traffic (γ) against peer load
    (1 − γ); overload beyond the available fractions incurs the paper's
    exponential penalty ``max(0, u − a) · e^(u − a)``.
    """

    def __init__(self, net: Network, gamma: float = 0.5) -> None:
        if not 0.0 <= gamma <= 1.0:
            raise ValueError("gamma must lie in [0, 1]")
        self._net = net
        self.gamma = gamma

    def peer_capacity(self, peer: str) -> float:
        """Work units/s the named super-peer can sustain."""
        return self._net.super_peer(peer).capacity

    def plan_cost(self, effects: PlanEffects, usage: NetworkUsage) -> float:
        """``C(P)`` of a candidate plan against the current usage.

        The search prices every variant it examines, so this reads the
        ledger's dicts directly; ``a_b``/``a_l`` are the float
        expressions of :meth:`NetworkUsage.available_bandwidth_fraction`
        and :meth:`~NetworkUsage.available_load_fraction`
        (``max(0.0, …)`` maps a NaN to 0).
        """
        link_bits = usage._link_bits
        traffic_cost = 0.0
        for link, bits in effects.link_bits.items():
            bandwidth = link.bandwidth
            u_b = bits / bandwidth
            a_b = max(0.0, 1.0 - link_bits.get(link.ends, 0.0) / bandwidth)
            traffic_cost += u_b + _overload_penalty(u_b, a_b)
        peer_work = usage._peer_work
        super_peer = self._net.super_peer
        load_cost = 0.0
        for peer, work in effects.peer_work.items():
            capacity = super_peer(peer).capacity
            u_l = work / capacity
            a_l = max(0.0, 1.0 - peer_work.get(peer, 0.0) / capacity)
            load_cost += u_l + _overload_penalty(u_l, a_l)
        return self.gamma * traffic_cost + (1.0 - self.gamma) * load_cost

    def overloads(self, effects: PlanEffects, usage: NetworkUsage) -> bool:
        """Hard overload test for admission control (Section 4).

        ``True`` when the plan would push any connection or peer past
        its available capacity.
        """
        for link, bits in effects.link_bits.items():
            if bits / link.bandwidth > usage.available_bandwidth_fraction(link) + 1e-12:
                return True
        for peer, work in effects.peer_work.items():
            capacity = self._net.super_peer(peer).capacity
            if work / capacity > usage.available_load_fraction(peer) + 1e-12:
                return True
        return False


def _overload_penalty(used: float, available: float) -> float:
    """``max(0, u − a) · e^(u − a)`` — zero while within capacity."""
    over = used - available
    if over <= 0.0:
        return 0.0
    return over * math.exp(over)
