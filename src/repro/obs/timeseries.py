"""Per-epoch data-plane time series.

The executor splits a traced run into epochs (fixed sampling
boundaries plus every fault and recovery boundary) and emits one
:class:`EpochSnapshot` per epoch: the *delta* of every Fig. 6/7
counter over that slice of stream time, plus queue-depth telemetry
and per-operator item counts.  A snapshot therefore answers the
questions the end-of-run totals cannot — *when* load spiked during a
churn epoch, which links carried the detour traffic, and how long the
recovery transient lasted.

Snapshots carry both raw deltas (bits, work units, item counts) and
the derived per-epoch rates the paper plots (CPU %, kbps), computed
against the epoch's stream-time width — so exported logs are
plottable without re-loading the topology.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, Optional

if TYPE_CHECKING:  # pragma: no cover - avoid a cycle with repro.engine
    from ..engine.metrics import RunMetrics
    from ..network.topology import Network

__all__ = ["EpochSnapshot", "snapshot_delta"]


@dataclass
class EpochSnapshot:
    """One epoch of the executed deployment's measured time series.

    All dictionaries hold *deltas* over ``[t_start, t_end)`` in stream
    time; ``wall_s`` is stamped by the recorder when the snapshot is
    emitted (wall-clock seconds since the recorder's creation), which
    lets exporters place epochs on the same timeline as spans.
    """

    index: int
    t_start: float
    t_end: float
    #: Work units added per super-peer this epoch.
    peer_work: Dict[str, float] = field(default_factory=dict)
    #: Derived: average CPU load in % of capacity over this epoch.
    peer_cpu_percent: Dict[str, float] = field(default_factory=dict)
    #: Bits added per link ("A-B" keys) this epoch.
    link_bits: Dict[str, float] = field(default_factory=dict)
    #: Derived: average link traffic in kbit/s over this epoch.
    link_kbps: Dict[str, float] = field(default_factory=dict)
    #: Items consumed per operator kind (billed inputs) this epoch.
    operator_inputs: Dict[str, int] = field(default_factory=dict)
    items_generated: int = 0
    items_delivered: int = 0
    items_lost: int = 0
    rerouted_traffic_bits: float = 0.0
    faults_applied: int = 0
    #: In-flight items at the epoch boundary (queue depth) and the
    #: peak reached inside the epoch.
    inflight_items: int = 0
    inflight_peak: int = 0
    wall_s: float = 0.0

    @property
    def duration(self) -> float:
        return self.t_end - self.t_start

    def total_cpu_percent(self) -> float:
        return sum(self.peer_cpu_percent.values())

    def total_kbps(self) -> float:
        return sum(self.link_kbps.values())

    def to_dict(self) -> Dict[str, Any]:
        return {
            "index": self.index,
            "t_start": self.t_start,
            "t_end": self.t_end,
            "wall_s": self.wall_s,
            "peer_work": self.peer_work,
            "peer_cpu_percent": self.peer_cpu_percent,
            "link_bits": self.link_bits,
            "link_kbps": self.link_kbps,
            "operator_inputs": self.operator_inputs,
            "items_generated": self.items_generated,
            "items_delivered": self.items_delivered,
            "items_lost": self.items_lost,
            "rerouted_traffic_bits": self.rerouted_traffic_bits,
            "faults_applied": self.faults_applied,
            "inflight_items": self.inflight_items,
            "inflight_peak": self.inflight_peak,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "EpochSnapshot":
        known = {name for name in cls.__dataclass_fields__}
        return cls(**{key: value for key, value in data.items() if key in known})


def _num_delta(
    current: Dict[Any, float], previous: Optional[Dict[Any, float]]
) -> Dict[Any, float]:
    if not previous:
        return dict(current)
    return {
        key: value - previous.get(key, 0)
        for key, value in current.items()
        if value != previous.get(key, 0)
    }


def snapshot_delta(
    index: int,
    t_start: float,
    t_end: float,
    current: "RunMetrics",
    previous: Optional["RunMetrics"],
    net: "Network",
    operator_inputs: Dict[str, int],
    previous_operator_inputs: Optional[Dict[str, int]] = None,
    inflight_items: int = 0,
    inflight_peak: int = 0,
) -> EpochSnapshot:
    """Build one epoch's snapshot from two cumulative metric states.

    ``current`` and ``previous`` are the executor's accounting replays
    at the epoch's end and start (``previous=None`` for the first
    epoch); ``net`` supplies peer capacities for the derived CPU
    series — removed peers are still resolvable through the topology's
    removed-entity stash, so epochs spanning a crash keep their series
    complete.
    """
    width = max(t_end - t_start, 1e-9)
    peer_work = _num_delta(current.peer_work, previous.peer_work if previous else None)
    link_bits_raw = _num_delta(
        current.link_bits, previous.link_bits if previous else None
    )
    peer_cpu: Dict[str, float] = {}
    for peer, work in peer_work.items():
        capacity = net.super_peer(peer, include_removed=True).capacity
        peer_cpu[peer] = work / width / capacity * 100.0
    link_bits = {f"{a}-{b}": bits for (a, b), bits in link_bits_raw.items()}
    link_kbps = {name: bits / width / 1000.0 for name, bits in link_bits.items()}
    prev_ops = previous_operator_inputs or {}
    return EpochSnapshot(
        index=index,
        t_start=t_start,
        t_end=t_end,
        peer_work=peer_work,
        peer_cpu_percent=peer_cpu,
        link_bits=link_bits,
        link_kbps=link_kbps,
        operator_inputs={
            kind: count - prev_ops.get(kind, 0)
            for kind, count in operator_inputs.items()
            if count != prev_ops.get(kind, 0)
        },
        items_generated=sum(current.items_generated.values())
        - (sum(previous.items_generated.values()) if previous else 0),
        items_delivered=sum(current.items_delivered.values())
        - (sum(previous.items_delivered.values()) if previous else 0),
        items_lost=current.items_lost - (previous.items_lost if previous else 0),
        rerouted_traffic_bits=current.rerouted_traffic_bits
        - (previous.rerouted_traffic_bits if previous else 0.0),
        faults_applied=current.faults_applied
        - (previous.faults_applied if previous else 0),
        inflight_items=inflight_items,
        inflight_peak=inflight_peak,
    )
