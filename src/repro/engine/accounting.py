"""Metrics replay: turn accumulated executor counters into RunMetrics.

The streaming executor never accounts during the hot pump loop — its
cells accumulate plain integer counters (items produced, bytes
produced, per-stage billed inputs) and the control loop *replays* them
into a :class:`~repro.engine.metrics.RunMetrics` on demand
(:meth:`~repro.engine.executor.StreamSimulator._merge`).  This module
is that replay; a run over one cell and a run over many go through it
alike: equal counters in, equal floating-point accumulation order
through, byte-identical metrics out.

The replay order is part of the contract (floating-point addition does
not commute):

1. streams retired by plan repair, in retirement order;
2. live streams, parents before children (Kahn order);
3. subscription post-processing, in query registration order.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from ..costmodel import base_load
from ..network.topology import Network
from .metrics import RunMetrics

if TYPE_CHECKING:  # avoid a runtime cycle with repro.sharing
    from ..sharing.plan import InstalledStream, RegisteredQuery

__all__ = [
    "DeliveryCounters",
    "RetiredSnapshot",
    "StreamCounters",
    "replay_metrics",
]

#: ``(operator kind, udf name, billed input count)`` per pipeline stage.
StageCount = Tuple[str, Optional[str], int]


class StreamCounters:
    """The accumulated counters of one live stream."""

    __slots__ = (
        "produced_count",
        "produced_bytes",
        "duplicate_base",
        "stage_counts",
        "repair_added",
    )

    def __init__(
        self,
        produced_count: int = 0,
        produced_bytes: int = 0,
        duplicate_base: int = 0,
        stage_counts: Sequence[StageCount] = (),
        repair_added: bool = False,
    ) -> None:
        self.produced_count = produced_count
        self.produced_bytes = produced_bytes
        #: Parent items produced before this node attached (mid-run
        #: attachments duplicate only post-attach parent items).
        self.duplicate_base = duplicate_base
        self.stage_counts = list(stage_counts)
        #: Created by plan repair — its traffic is re-routing overhead.
        self.repair_added = repair_added


class RetiredSnapshot:
    """Accounting snapshot of a stream node retired by plan repair.

    Shared-prefix stages keep accumulating for surviving siblings after
    a retirement, so the retired stream's stage input counts must be
    pinned at the moment it detaches.
    """

    __slots__ = (
        "stream",
        "produced_count",
        "produced_bytes",
        "duplicate_count",
        "stage_counts",
        "repair_added",
    )

    def __init__(
        self,
        stream: "InstalledStream",
        produced_count: int,
        produced_bytes: int,
        duplicate_count: int,
        stage_counts: List[StageCount],
        repair_added: bool,
    ) -> None:
        self.stream = stream
        self.produced_count = produced_count
        self.produced_bytes = produced_bytes
        self.duplicate_count = duplicate_count
        self.stage_counts = stage_counts
        self.repair_added = repair_added


class DeliveryCounters:
    """The accumulated counters of one subscription's delivery step.

    ``record`` is the query's *accounting* record: the registration the
    delivery object was last attached under (repairs swap it; parked
    subscriptions keep their pre-fault record so their pre-fault work
    still bills at the right subscriber).
    """

    __slots__ = ("record", "multi", "inputs", "results")

    def __init__(
        self, record: "RegisteredQuery", multi: bool, inputs: int, results: int
    ) -> None:
        self.record = record
        self.multi = multi
        #: Multi-input: total buffered items over all inputs.  Single:
        #: items fed to the restructurer (per delivered entry).
        self.inputs = inputs
        self.results = results


def replay_metrics(
    net: Network,
    duration: float,
    order: Sequence["InstalledStream"],
    counters: Dict[str, StreamCounters],
    retired: Sequence[RetiredSnapshot],
    deliveries: Sequence[DeliveryCounters],
    faults_applied: int = 0,
    items_lost: int = 0,
    items_lost_by_query: Optional[Dict[str, int]] = None,
    recovery_time_s: float = 0.0,
    queries_repaired: int = 0,
    queries_lost: int = 0,
    migrations_applied: int = 0,
) -> RunMetrics:
    """Replay accumulated counters into :class:`RunMetrics`.

    The accumulation order matches the materializing reference
    executor (``tests/oracle_materializing.py``) exactly, so fault-free
    runs produce floating-point-identical metrics — and a sharded run,
    whose merged cell counters are replayed through this same function,
    matches the sequential run bit for bit.

    Peer and link lookups include removed topology entities, since
    retired routes may cross a crashed peer.
    """
    metrics = RunMetrics(duration=duration)
    for snapshot in retired:
        _account_retired(net, snapshot, metrics)
    for stream in order:
        state = counters[stream.stream_id]
        peer = net.super_peer(stream.origin_node, include_removed=True)
        if stream.is_original:
            metrics.count_generated(stream.stream_id, state.produced_count)
            ingest = base_load("ingest") * peer.pindex
            metrics.add_peer_work(stream.origin_node, ingest * state.produced_count)
        else:
            assert stream.parent_id is not None
            parent_count = (
                counters[stream.parent_id].produced_count - state.duplicate_base
            )
            duplicate = base_load("duplicate") * peer.pindex
            metrics.add_peer_work(stream.origin_node, duplicate * parent_count)
            for kind, udf_name, inputs in state.stage_counts:
                work = base_load(kind, udf_name) * peer.pindex * inputs
                metrics.add_peer_work(stream.origin_node, work)
        _account_transport(
            net,
            stream,
            state.produced_count,
            state.produced_bytes,
            state.repair_added,
            metrics,
        )
    for delivery in deliveries:
        record = delivery.record
        peer = net.super_peer(record.subscriber_node, include_removed=True)
        work_per_item = base_load("restructure") * peer.pindex
        if delivery.multi:
            metrics.add_peer_work(
                record.subscriber_node, work_per_item * delivery.inputs
            )
            metrics.count_delivery(record.name, delivery.results)
            continue
        for _ in record.delivered:
            metrics.add_peer_work(
                record.subscriber_node, work_per_item * delivery.inputs
            )
            metrics.count_delivery(record.name, delivery.results)
    metrics.faults_applied = faults_applied
    metrics.items_lost = items_lost
    # Sorted so the insertion order is identical no matter which
    # executor (or cell merge order) accumulated the dict.
    metrics.items_lost_by_query = {
        name: lost
        for name, lost in sorted((items_lost_by_query or {}).items())
        if lost
    }
    metrics.recovery_time_s = recovery_time_s
    metrics.queries_repaired = queries_repaired
    metrics.queries_lost = queries_lost
    metrics.migrations_applied = migrations_applied
    return metrics


def _account_retired(
    net: Network, retired: RetiredSnapshot, metrics: RunMetrics
) -> None:
    stream = retired.stream
    peer = net.super_peer(stream.origin_node, include_removed=True)
    if stream.is_original:
        metrics.count_generated(stream.stream_id, retired.produced_count)
        ingest = base_load("ingest") * peer.pindex
        metrics.add_peer_work(stream.origin_node, ingest * retired.produced_count)
    else:
        duplicate = base_load("duplicate") * peer.pindex
        metrics.add_peer_work(
            stream.origin_node, duplicate * retired.duplicate_count
        )
        for kind, udf_name, inputs in retired.stage_counts:
            work = base_load(kind, udf_name) * peer.pindex * inputs
            metrics.add_peer_work(stream.origin_node, work)
    _account_transport(
        net,
        stream,
        retired.produced_count,
        retired.produced_bytes,
        retired.repair_added,
        metrics,
    )


def _account_transport(
    net: Network,
    stream: "InstalledStream",
    produced_count: int,
    produced_bytes: int,
    repair_added: bool,
    metrics: RunMetrics,
) -> None:
    hops = stream.links()
    if not hops or not produced_count:
        return
    total_bits = float(produced_bytes * 8)
    for a, b in hops:
        metrics.add_link_bits(net.link(a, b, include_removed=True), total_bits)
    # Forwarding work: the sender side of every hop touches each item.
    for sender, _ in hops:
        sender_peer = net.super_peer(sender, include_removed=True)
        work = base_load("transfer") * sender_peer.pindex * produced_count
        metrics.add_peer_work(sender, work)
    if repair_added:
        metrics.rerouted_traffic_bits += total_bits * len(hops)
