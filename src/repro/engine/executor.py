"""The measured stream execution: pump generated items through every
installed stream of a :class:`~repro.sharing.plan.Deployment` and count
real serialized bytes per link and real operator work per peer.

This is the reproduction's stand-in for the paper's blade cluster (see
DESIGN.md): the figures' CPU-load and network-traffic series are
*measurements* of this simulation, while the optimizer only ever sees
the cost model's estimates — exactly the estimate/measure split of the
original system.

Two executors are provided:

* :class:`StreamSimulator` — the production executor: a single-pass,
  generator-driven streaming engine.  Source items are pumped through
  the deployment DAG depth-first in small batches, so peak memory is
  O(window state + one batch) instead of O(all items × all streams);
  items are size-frozen at ingest (relays charge bytes without
  re-walking subtrees) and sibling pipelines with a common operator
  prefix are evaluated once (:mod:`repro.engine.fanout`).
* :class:`MaterializingSimulator` — the original per-stream
  materializing executor, kept as the correctness oracle: the golden
  equivalence test pins that both produce identical
  :class:`~repro.engine.metrics.RunMetrics` on every built-in scenario.

End-of-stream: neither executor flushes pipelines.  Subscriptions are
continuous queries over unbounded streams; a run's ``duration`` is a
measurement horizon, not an end-of-stream marker, so partially filled
windows stay open exactly as they would in the live system (DESIGN.md
§7).  :meth:`Pipeline.flush` remains available for explicit drains.

Churn: :class:`StreamSimulator` optionally executes a
:class:`~repro.faults.FaultSchedule`.  The run is split into epochs at
the scheduled fault times (plus each fault's recovery completion);
between epochs the fault mutates the topology, the supplied ``repair``
callback rebuilds the deployment, and the executor *reconciles* its
running plan with the repaired one — retiring removed streams (their
counters are snapshotted for accounting), attaching repair-created
streams with fresh operator state (recovery restarts window state,
DESIGN.md §8), and re-wiring subscriptions whose delivery chain was
rebuilt.  Unaffected streams keep their operator state and their
delivery continuity, so their output is identical to a fault-free run.
"""

from __future__ import annotations

import heapq
import math
import sys
from collections import deque
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Protocol,
    Sequence,
    Tuple,
)

from ..costmodel import base_load
from ..network.topology import Network
from ..xmlkit import Element

if TYPE_CHECKING:  # avoid a runtime cycle with repro.sharing
    from ..faults.schedule import FaultSchedule
    from ..obs.slo import QuerySLO
    from ..sharing.plan import Deployment, InstalledStream, RegisteredQuery
from ..obs.recorder import NULL_RECORDER
from ..obs.timeseries import snapshot_delta
from .accounting import (
    DeliveryCounters,
    RetiredSnapshot,
    StreamCounters,
    replay_metrics,
)
from .columnar import (
    Batch,
    ColumnBatch,
    DeliveryKernel,
    batch_bytes,
    columnar_mode,
    columnar_stats,
    encode_ingest,
)
from .fanout import PrefixStage, PrefixTree, _Gauge, group_pipelines
from .metrics import RunMetrics
from .pipeline import Pipeline
from .restructure import Restructurer


class ItemGenerator(Protocol):
    """Anything that produces stream items on a virtual clock."""

    @property
    def clock(self) -> float: ...

    def next_item(self) -> Element: ...


class ExecutionError(Exception):
    """Raised for deployments the executor cannot run."""


# ----------------------------------------------------------------------
# Shared machinery
# ----------------------------------------------------------------------
def topological_streams(deployment: "Deployment") -> List["InstalledStream"]:
    """Parents before children (original streams first), via Kahn's
    algorithm specialized to the single-parent stream forest: every
    stream is enqueued exactly once, when its parent is placed — O(n)
    instead of the former O(n²) fixpoint loop."""
    streams = deployment.streams
    children: Dict[str, List["InstalledStream"]] = {}
    queue: deque = deque()
    for stream in streams.values():
        if stream.parent_id is None:
            queue.append(stream)
        else:
            children.setdefault(stream.parent_id, []).append(stream)
    ordered: List["InstalledStream"] = []
    placed: set = set()
    while queue:
        stream = queue.popleft()
        ordered.append(stream)
        placed.add(stream.stream_id)
        queue.extend(children.get(stream.stream_id, ()))
    if len(ordered) != len(streams):
        cycle = ", ".join(
            s.stream_id for s in streams.values() if s.stream_id not in placed
        )
        raise ExecutionError(f"stream dependency cycle: {cycle}")
    return ordered


def interleave_round_robin(
    per_stream: Sequence[Tuple[str, Sequence[Element]]],
) -> Iterator[Tuple[str, Element]]:
    """Deterministic round-robin interleave of several delivered streams.

    Yields ``(input_stream, item)``: round ``r`` visits every stream
    that still has an ``r``-th item, in the given stream order —
    uneven-length streams simply drop out of later rounds.
    """
    active = [
        (input_stream, iter(delivered)) for input_stream, delivered in per_stream
    ]
    while active:
        survivors: List[Tuple[str, Iterator[Element]]] = []
        for input_stream, iterator in active:
            try:
                item = next(iterator)
            except StopIteration:
                continue
            survivors.append((input_stream, iterator))
            yield input_stream, item
        active = survivors


# ----------------------------------------------------------------------
# Streaming executor internals
# ----------------------------------------------------------------------
class _SingleDelivery:
    """Incremental post-processing of a single-input subscription."""

    __slots__ = ("record", "restructurer", "inputs", "results", "capture", "_kernel")

    def __init__(
        self,
        record: "RegisteredQuery",
        capture: Optional[Callable[[str, Element], None]] = None,
    ) -> None:
        self.record = record
        self.restructurer = Restructurer(record.analyzed)
        self.inputs = 0
        self.results = 0
        self.capture = capture
        #: Lazily built column count kernel (capture-free feeds only).
        self._kernel: Optional[DeliveryKernel] = None

    def feed(self, batch: Batch) -> None:
        self.inputs += len(batch)
        build = self.restructurer.build
        capture = self.capture
        if isinstance(batch, ColumnBatch):
            if capture is None:
                # Count-only delivery: the kernel counts restructured
                # results per shape without building the trees; it
                # vouches for exactness or returns None (then decode
                # and take the per-item path below).
                kernel = self._kernel
                if kernel is None:
                    kernel = self._kernel = DeliveryKernel(self.restructurer)
                count = kernel.count(batch)
                if count is not None:
                    self.results += count
                    return
            batch = batch.decode()
        if capture is None:
            for item in batch:
                self.results += len(build(item))
            return
        name = self.record.name
        for item in batch:
            out = build(item)
            self.results += len(out)
            for produced in out:
                capture(name, produced)


class _MultiDelivery:
    """Buffered post-processing of a multi-input subscription.

    The round-robin interleave pairs the ``r``-th items of every input,
    which is only known once all inputs finished — so multi-input
    subscriptions are the one place the streaming executor buffers
    whole streams (delivered, post-compensation items only; bounded by
    the subscription's own delivery rate, not the source rate).
    """

    __slots__ = ("record", "buffers", "gauge", "results", "total_inputs", "capture")

    def __init__(
        self,
        record: "RegisteredQuery",
        gauge: _Gauge,
        capture: Optional[Callable[[str, Element], None]] = None,
    ) -> None:
        self.record = record
        self.buffers: List[List[Element]] = [[] for _ in record.delivered]
        self.gauge = gauge
        self.results = 0
        self.total_inputs = 0
        self.capture = capture

    def feed(self, index: int, batch: Batch) -> None:
        if isinstance(batch, ColumnBatch):
            # Combination interleaves whole buffered streams item by
            # item — a genuine tree boundary.
            batch = batch.decode()
        self.buffers[index].extend(batch)
        self.gauge.add(len(batch))

    def finish(self) -> None:
        from .combine import LatestValueCombiner

        self.total_inputs = sum(len(buffered) for buffered in self.buffers)
        combiner = LatestValueCombiner(self.record.analyzed)
        per_stream = [
            (input_stream, self.buffers[index])
            for index, (input_stream, _) in enumerate(self.record.delivered)
        ]
        name = self.record.name
        for input_stream, item in interleave_round_robin(per_stream):
            out = combiner.push(input_stream, item)
            self.results += len(out)
            if self.capture is not None:
                for produced in out:
                    self.capture(name, produced)
        self.gauge.sub(self.total_inputs)


class _StreamNode:
    """Per-stream runtime state of the streaming executor."""

    __slots__ = (
        "stream",
        "produced_count",
        "produced_bytes",
        "has_hops",
        "relay_children",
        "trie_groups",
        "stage_path",
        "deliveries",
        "duplicate_base",
        "repair_added",
    )

    def __init__(self, stream: "InstalledStream") -> None:
        self.stream = stream
        self.produced_count = 0
        self.produced_bytes = 0
        self.has_hops = len(stream.route) > 1
        #: Children with an empty pipeline: they forward items verbatim.
        self.relay_children: List["_StreamNode"] = []
        #: Non-relay children merged into shared-prefix tries.
        self.trie_groups: List[Tuple[object, PrefixTree, dict]] = []
        #: This stream's own stage path inside its parent's trie.
        self.stage_path: List[PrefixStage] = []
        #: Subscription consumers fed with this stream's items.
        self.deliveries: List[Callable[[Batch], None]] = []
        #: Parent items produced before this node attached (mid-run
        #: attachments duplicate only post-attach parent items).
        self.duplicate_base = 0
        #: Created by plan repair — its traffic is re-routing overhead.
        self.repair_added = False


class _Gate:
    """Recovery gate on a repaired subscription's delivery feeds.

    While closed (re-registration still in progress in stream time),
    arriving items are dropped and counted as lost.
    """

    __slots__ = ("open", "open_at", "lost")

    def __init__(self, open_at: float) -> None:
        self.open = False
        self.open_at = open_at
        self.lost = 0


#: Retired-node accounting snapshots now live in ``repro.engine
#: .accounting`` so the sharded executor can ship them between
#: processes; the old private name stays as an alias.
_RetiredNode = RetiredSnapshot


def _prune_stages(stages: List[PrefixStage]) -> None:
    """Drop trie stages that feed no terminal stream and no child."""
    for stage in list(stages):
        _prune_stages(stage.children)
        if not stage.children and not stage.streams:
            stages.remove(stage)


class StreamSimulator:
    """Execute a deployment for a span of virtual time (single pass).

    Parameters
    ----------
    net:
        The super-peer topology (capacities, performance indices).
    deployment:
        The installed streams and registered queries to execute.
    generators:
        One :class:`ItemGenerator` per *original* stream id.
    duration:
        Virtual seconds of stream input to generate.
    max_items_per_source:
        Safety cap on generated items per source.
    batch_size:
        Items generated per pump through the DAG; bounds peak memory
        together with open window state.
    schedule:
        Optional :class:`~repro.faults.FaultSchedule`.  Events due
        before ``duration`` are applied at their stream times; later
        events never fire.  Topology and deployment mutations persist
        after the run.
    repair:
        Callback invoked after each applied fault, typically
        ``PlanRepairer.repair`` — called as ``repair(context=...)`` and
        returning a :class:`~repro.sharing.repair.RepairReport`.
        Without it the topology mutates but the deployment keeps
        running its pre-fault plan (for what-if measurements only).
    capture:
        Optional ``(query_name, result_item)`` hook observing every
        restructured result delivered to a subscriber — the golden
        fault-equivalence tests compare these item-for-item.
    recorder:
        Optional :class:`~repro.obs.Recorder`.  When enabled, the run
        is split into epochs (``epoch_samples`` fixed boundaries plus
        every fault/recovery boundary) and one
        :class:`~repro.obs.EpochSnapshot` per epoch is emitted, along
        with per-operator latency histograms and item counters.  The
        default is the shared no-op recorder: every instrumentation
        site then costs a single attribute or ``None`` check
        (DESIGN.md §10).
    epoch_samples:
        Number of evenly spaced time-series sampling boundaries a
        traced run is split into (faults add their own boundaries).
    rebalancer:
        Optional :class:`~repro.sharing.rebalance.Rebalancer`.  When
        given, the run always takes the epoch path and the rebalancer
        observes every mid-run epoch snapshot; when it migrates plans
        (tearing down and re-registering subscriptions working on a
        sustained-hot super-peer), the executor reconciles the running
        pipelines against the rewritten deployment exactly like churn
        repair — but with an already *open* delivery gate, since the
        epoch boundary is quiescent and the rewrite is make-before-
        break (``migration_downtime_epochs`` stays 0 and no items are
        lost; the conservation tests pin both).

    After :meth:`run`, ``peak_live_items`` holds the maximum number of
    stream items the executor held in flight at any moment — bounded by
    ``batch_size`` × DAG depth (plus multi-input delivery buffers),
    independent of ``duration``.
    """

    def __init__(
        self,
        net: Network,
        deployment: "Deployment",
        generators: Dict[str, ItemGenerator],
        duration: float,
        max_items_per_source: Optional[int] = None,
        batch_size: int = 64,
        schedule: Optional["FaultSchedule"] = None,
        repair: Optional[Callable[..., object]] = None,
        capture: Optional[Callable[[str, Element], None]] = None,
        recorder: Optional[object] = None,
        epoch_samples: int = 8,
        rebalancer: Optional[object] = None,
    ) -> None:
        if duration <= 0:
            raise ExecutionError("duration must be positive")
        if batch_size <= 0:
            raise ExecutionError("batch size must be positive")
        self.net = net
        self.deployment = deployment
        self.generators = generators
        self.duration = duration
        self.max_items = max_items_per_source
        self.batch_size = batch_size
        self.schedule = schedule
        self.repair = repair
        self.capture = capture
        self.recorder = recorder if recorder is not None else NULL_RECORDER
        self.epoch_samples = epoch_samples
        self.rebalancer = rebalancer
        self.peak_live_items = 0
        #: Most recent per-query SLO records (refreshed at every epoch
        #: boundary and at run end — the live ``/slo.json`` source).
        self.last_query_slos: List["QuerySLO"] = []
        #: ``REPRO_COLUMNAR`` resolved once per simulator (forked cell
        #: runtimes inherit the environment, so shards agree).
        self._columnar_mode = columnar_mode()

    # ------------------------------------------------------------------
    def run(self) -> RunMetrics:
        order = self._topological_streams()
        self._feeds: Dict[str, List[Tuple[str, Callable]]] = {}
        nodes, singles, multis = self._build_plan(order)
        gauge = _Gauge()
        for delivery in multis.values():
            delivery.gauge = gauge  # buffered items count as in-flight
        self._gauge = gauge
        #: All deliveries in registration order — the accounting order,
        #: stable across repairs (queries re-registered by a repair keep
        #: their delivery object, and with it their position and their
        #: accumulated counters).
        self._deliveries: Dict[str, object] = {
            record.name: singles.get(record.name) or multis[record.name]
            for record in self.deployment.queries.values()
        }
        self._retired: List[_RetiredNode] = []
        self._gates: List[_Gate] = []
        self._sources = [s.stream_id for s in order if s.is_original]
        self._produced = {stream_id: 0 for stream_id in self._sources}
        self._faults_applied = 0
        self._source_items_lost = 0
        self._recovery_time_s = 0.0
        self._queries_repaired = 0
        self._migrations_applied = 0
        self._migration_downtime_epochs = 0
        self._migration_gates: List[_Gate] = []
        self._query_lost: Dict[str, int] = {}
        self._query_migrations: Dict[str, int] = {}
        self._backpressure_epochs = 0

        recorder = self.recorder
        self._epoch_index = 0
        self._epoch_start = 0.0
        self._last_metrics: Optional[RunMetrics] = None
        self._last_operator_totals: Optional[Dict[str, int]] = None
        self._op_timer = self._make_op_timer() if recorder.enabled else None
        columnar_base = columnar_stats() if recorder.enabled else None

        if self.schedule or recorder.enabled or self.rebalancer is not None:
            # Traced runs always take the epoch path: sources advance in
            # interleaved time slices so snapshots cut across the whole
            # deployment.  Per-stream results are unchanged — sources
            # are independent DAG roots, operators are deterministic,
            # and multi-input combination runs over the full buffers at
            # finish() — so metrics match the untraced single-pass run.
            # Rebalanced runs take it too: the drift detector consumes
            # the same epoch snapshots a traced run records.
            self._run_epochs(gauge)
        else:
            for stream in order:
                if stream.is_original:
                    self._pump_source(nodes[stream.stream_id], gauge, self.duration)
        for delivery in multis.values():
            delivery.finish()

        self.peak_live_items = gauge.peak
        metrics = self._account(self._topological_streams(), nodes)
        self.last_query_slos = self.query_slos()
        if recorder.enabled:
            # The final epoch is emitted after finish(): multi-input
            # subscriptions only restructure (and bill) their buffered
            # items there, so snapshotting at the duration boundary
            # would miss that work.
            self._emit_epoch(self.duration, metrics)
            recorder.set_gauge("exec.peak_live_items", gauge.peak)
            recorder.inc("exec.runs")
            for slo in self.last_query_slos:
                recorder.event("query.slo", **slo.to_dict())
            for peer, work in sorted(metrics.peer_work.items()):
                recorder.set_gauge(f"peer.work.{peer}", work)
            for (a, b), bits in sorted(metrics.link_bits.items()):
                recorder.set_gauge(f"link.bits.{a}-{b}", bits)
            if columnar_base is not None:
                # Process-wide counters: report this run's delta only.
                for key, value in columnar_stats().items():
                    delta = value - columnar_base[key]
                    if delta:
                        recorder.inc(f"columnar.{key}", delta)
        return metrics

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def stream_counts(self) -> Dict[str, int]:
        """Items produced per stream id over the last :meth:`run`.

        Streams retired mid-run by plan repair contribute their pinned
        counts; a repaired stream reinstalled under the same id sums
        both segments.  This is the measured ground truth the flow
        analyzer's interval bounds are checked against
        (``tests/test_prop_flow_soundness.py``).
        """
        if not hasattr(self, "_nodes"):
            raise ExecutionError("stream_counts() requires a completed run()")
        counts: Dict[str, int] = {}
        for retired in self._retired:
            stream_id = retired.stream.stream_id
            counts[stream_id] = counts.get(stream_id, 0) + retired.produced_count
        for stream_id, node in self._nodes.items():
            counts[stream_id] = counts.get(stream_id, 0) + node.produced_count
        return counts

    # ------------------------------------------------------------------
    # Fault-scheduled execution
    # ------------------------------------------------------------------
    def _run_epochs(self, gauge: _Gauge) -> None:
        """Pump sources epoch by epoch, applying faults at boundaries.

        Boundaries are the scheduled fault times plus each repair's
        recovery completion (when its gated deliveries reopen); a
        traced run adds ``epoch_samples`` evenly spaced sampling
        boundaries and emits one time-series snapshot per epoch —
        *before* the boundary's faults apply, so churn transients land
        in the following epochs.
        """
        events = (
            [e for e in self.schedule.events() if e.time < self.duration]
            if self.schedule
            else []
        )
        recorder = self.recorder
        observing = recorder.enabled or self.rebalancer is not None
        samples: List[float] = []
        if observing and self.epoch_samples > 0:
            step = self.duration / self.epoch_samples
            samples = [step * k for k in range(1, self.epoch_samples)]
        sample_index = 0
        opens: List[Tuple[float, int, _Gate]] = []
        sequence = 0
        index = 0
        while True:
            next_fault = events[index].time if index < len(events) else math.inf
            next_open = opens[0][0] if opens else math.inf
            next_sample = (
                samples[sample_index] if sample_index < len(samples) else math.inf
            )
            boundary = min(next_fault, next_open, next_sample, self.duration)
            self._pump_all_until(boundary, gauge)
            if boundary >= self.duration:
                break
            while sample_index < len(samples) and samples[sample_index] <= boundary:
                sample_index += 1
            snapshot = self._emit_epoch(boundary) if observing else None
            # Recovery completions first: a fault striking the instant a
            # previous recovery ends sees the recovered subscriptions.
            while opens and opens[0][0] <= boundary:
                heapq.heappop(opens)[2].open = True
            while index < len(events) and events[index].time <= boundary:
                event = events[index]
                index += 1
                gate = self._apply_fault(event)
                if gate is not None and gate.open_at < self.duration:
                    heapq.heappush(opens, (gate.open_at, sequence, gate))
                    sequence += 1
            # The rebalancer observes after the boundary's faults: a
            # migration then adapts the post-repair plan instead of
            # rewriting one a coincident fault immediately tears up.
            if self.rebalancer is not None and snapshot is not None:
                self._migration_downtime_epochs += sum(
                    1 for g in self._migration_gates if not g.open
                )
                self._apply_migration(snapshot)

    def _pump_all_until(self, until: float, gauge: _Gauge) -> None:
        for stream_id in self._sources:
            node = self._nodes.get(stream_id)
            if node is not None:
                self._pump_source(node, gauge, until)
            else:
                # Source's home super-peer is down: the thin-peer keeps
                # producing, the items are lost at ingest.
                self._drain_source(stream_id, until)

    def _apply_fault(self, event) -> Optional[_Gate]:
        """Mutate the topology, repair the plan, reconcile the executor.

        Returns the recovery gate when it still needs to be opened at a
        later boundary, else ``None``.
        """
        event.apply(self.net)
        self._faults_applied += 1
        recorder = self.recorder
        if recorder.enabled:
            recorder.event(
                "fault.applied", stream_time=event.time, fault=event.describe()
            )
            recorder.inc("exec.faults_applied")
        report = (
            self.repair(context=event.describe()) if self.repair is not None else None
        )
        recovery_s = 0.0
        if report is not None:
            recovery_s = report.recovery_time_ms() / 1000.0
            self._queries_repaired += len(report.repaired_queries)
        self._recovery_time_s += min(recovery_s, self.duration - event.time)
        gate = _Gate(open_at=event.time + recovery_s)
        gate.open = recovery_s <= 0.0
        self._gates.append(gate)
        self._reconcile(gate)
        return None if gate.open else gate

    def _apply_migration(self, snapshot) -> None:
        """Offer one epoch snapshot to the rebalancer; apply its moves.

        A migration rewrites the deployment control-plane-side (tear
        down + re-register, verified pre-flight); the executor then
        reconciles its running pipelines against the rewritten plan
        through the same diff churn repair uses.  The delivery gate is
        created *open*: the boundary is quiescent (everything pumped up
        to it was delivered), the rewrite is instantaneous in stream
        time, so nothing is dropped — migration is make-before-break,
        unlike fault recovery where the old plan is already dead.
        """
        report = self.rebalancer.observe_epoch(snapshot)
        if report is None:
            return
        self._migrations_applied += 1
        for name in getattr(report, "moved_queries", ()):
            self._query_migrations[name] = self._query_migrations.get(name, 0) + 1
        recorder = self.recorder
        if recorder.enabled:
            recorder.inc("exec.migrations_applied")
        gate = _Gate(open_at=snapshot.t_end)
        gate.open = True
        self._gates.append(gate)
        self._migration_gates.append(gate)
        self._reconcile(gate)

    # ------------------------------------------------------------------
    # Plan construction
    # ------------------------------------------------------------------
    def _topological_streams(self) -> List["InstalledStream"]:
        return topological_streams(self.deployment)

    def _build_plan(
        self, order: List["InstalledStream"]
    ) -> Tuple[
        Dict[str, _StreamNode],
        Dict[str, _SingleDelivery],
        Dict[str, _MultiDelivery],
    ]:
        nodes = {stream.stream_id: _StreamNode(stream) for stream in order}

        # Wire children to parents; merge non-relay siblings into tries.
        derived: Dict[str, List["InstalledStream"]] = {}
        for stream in order:
            if stream.parent_id is None:
                continue
            if stream.pipeline:
                derived.setdefault(stream.parent_id, []).append(stream)
            else:
                nodes[stream.parent_id].relay_children.append(nodes[stream.stream_id])
        for parent_id, children in derived.items():
            parent_node = nodes[parent_id]
            parent_node.trie_groups = group_pipelines(
                [
                    (child.stream_id, child.content.item_path, child.pipeline)
                    for child in children
                ]
            )
            for _, _, stage_paths in parent_node.trie_groups:
                for stream_id, stage_path in stage_paths.items():
                    nodes[stream_id].stage_path = stage_path

        # Subscription consumers.
        self._nodes = nodes
        singles: Dict[str, _SingleDelivery] = {}
        multis: Dict[str, _MultiDelivery] = {}
        for record in self.deployment.queries.values():
            if len(record.delivered) > 1:
                delivery: object = _MultiDelivery(record, _Gauge(), self.capture)
                multis[record.name] = delivery
            else:
                delivery = _SingleDelivery(record, self.capture)
                singles[record.name] = delivery
            self._attach_feeds(record.name, delivery)
        return nodes, singles, multis

    @staticmethod
    def _multi_feeder(
        delivery: _MultiDelivery, index: int
    ) -> Callable[[Batch], None]:
        def feed(batch: Batch) -> None:
            delivery.feed(index, batch)

        return feed

    def _gated(
        self, name: str, gate: _Gate, feed: Callable[[Batch], None]
    ) -> Callable[[Batch], None]:
        query_lost = self._query_lost

        def gated_feed(batch: Batch) -> None:
            if gate.open:
                feed(batch)
            else:
                gate.lost += len(batch)
                query_lost[name] = query_lost.get(name, 0) + len(batch)

        return gated_feed

    def _attach_feeds(
        self, name: str, delivery: object, gated_by: Optional[_Gate] = None
    ) -> None:
        """Wire a subscription's feeds onto its delivered stream nodes."""
        entries = self._feeds.setdefault(name, [])
        record = delivery.record  # type: ignore[attr-defined]
        if isinstance(delivery, _MultiDelivery):
            feeds = [
                self._multi_feeder(delivery, index)
                for index in range(len(record.delivered))
            ]
        else:
            feeds = [delivery.feed]  # type: ignore[attr-defined]
        for feed, (_, stream_id) in zip(feeds, record.delivered):
            if stream_id not in self._nodes:
                continue
            if gated_by is not None:
                feed = self._gated(name, gated_by, feed)
            self._nodes[stream_id].deliveries.append(feed)
            entries.append((stream_id, feed))

    def _remove_feeds(self, name: str) -> None:
        for stream_id, feed in self._feeds.pop(name, []):
            node = self._nodes.get(stream_id)
            if node is None:
                continue  # the node itself was retired
            try:
                node.deliveries.remove(feed)
            except ValueError:
                pass

    # ------------------------------------------------------------------
    # Plan reconciliation after a repair
    # ------------------------------------------------------------------
    def _reconcile(self, gate: _Gate) -> None:
        """Diff the executor's running plan against the repaired one.

        Streams no longer installed (or replaced by a same-id fresh
        installation) are retired: their counters are snapshotted, they
        detach from their parent's relay list or shared-prefix trie
        (surviving siblings keep their stages and operator state), and
        orphaned stages are pruned.  Repair-created streams attach with
        fresh operator state — recovery restarts windows rather than
        migrating them — and with ``duplicate_base`` pinned so only
        post-attach parent items are billed as duplication work.
        """
        deployment = self.deployment
        nodes = self._nodes

        stale = {
            stream_id: node
            for stream_id, node in nodes.items()
            if deployment.streams.get(stream_id) is not node.stream
        }
        for node in stale.values():
            self._retired.append(self._snapshot(node))
        for node in stale.values():
            self._detach(node)
        for stream_id in stale:
            del nodes[stream_id]

        added = [
            stream
            for stream in topological_streams(deployment)
            if stream.stream_id not in nodes
        ]
        pipelined: Dict[str, List["InstalledStream"]] = {}
        for stream in added:
            node = _StreamNode(stream)
            node.repair_added = True
            nodes[stream.stream_id] = node
            if stream.parent_id is None:
                continue  # re-installed original (its home rejoined)
            parent_node = nodes[stream.parent_id]
            node.duplicate_base = parent_node.produced_count
            if stream.pipeline:
                pipelined.setdefault(stream.parent_id, []).append(stream)
            else:
                parent_node.relay_children.append(node)
        # Repair-created pipelines share prefixes among themselves (all
        # start with fresh state at the same instant) but never join a
        # surviving trie: that would hand them a sibling's pre-fault
        # window state, which recovery must restart.
        for parent_id, children in pipelined.items():
            parent_node = nodes[parent_id]
            groups = group_pipelines(
                [
                    (child.stream_id, child.content.item_path, child.pipeline)
                    for child in children
                ]
            )
            parent_node.trie_groups = parent_node.trie_groups + groups
            for _, _, stage_paths in groups:
                for stream_id, stage_path in stage_paths.items():
                    nodes[stream_id].stage_path = stage_path

        # Re-wire subscriptions the repair touched; silence the ones it
        # had to park (their delivery objects stay for accounting).
        for name, delivery in self._deliveries.items():
            record = deployment.queries.get(name)
            if record is None:
                self._remove_feeds(name)
                continue
            if delivery.record is record:  # type: ignore[attr-defined]
                continue  # untouched by this repair
            self._remove_feeds(name)
            delivery.record = record  # type: ignore[attr-defined]
            self._attach_feeds(name, delivery, gated_by=gate)

    def _snapshot(self, node: _StreamNode) -> _RetiredNode:
        stream = node.stream
        parent_node = (
            self._nodes.get(stream.parent_id) if stream.parent_id is not None else None
        )
        duplicate_count = (
            parent_node.produced_count - node.duplicate_base
            if parent_node is not None
            else 0
        )
        return _RetiredNode(
            stream=stream,
            produced_count=node.produced_count,
            produced_bytes=node.produced_bytes,
            duplicate_count=duplicate_count,
            stage_counts=[
                (
                    stage.operator.kind,
                    getattr(getattr(stage.operator, "spec", None), "name", None),
                    stage.input_count,
                )
                for stage in node.stage_path
            ],
            repair_added=node.repair_added,
        )

    def _detach(self, node: _StreamNode) -> None:
        stream = node.stream
        if stream.parent_id is None:
            return
        parent = self._nodes.get(stream.parent_id)
        if parent is None:
            return  # parent retired in the same pass; nothing to unlink
        if node in parent.relay_children:
            parent.relay_children.remove(node)
            return
        for _, trie, stage_paths in parent.trie_groups:
            stage_path = stage_paths.pop(stream.stream_id, None)
            if stage_path is None:
                continue
            terminal = stage_path[-1]
            if stream.stream_id in terminal.streams:
                terminal.streams.remove(stream.stream_id)
            _prune_stages(trie.roots)
            break
        parent.trie_groups = [
            group for group in parent.trie_groups if group[1].roots
        ]

    # ------------------------------------------------------------------
    # Streaming execution
    # ------------------------------------------------------------------
    def _pump_source(self, node: _StreamNode, gauge: _Gauge, until: float) -> None:
        stream = node.stream
        generator = self.generators.get(stream.stream_id)
        if generator is None:
            raise ExecutionError(
                f"no generator for original stream {stream.stream_id!r}"
            )
        produced = self._produced[stream.stream_id]
        batch_size = self.batch_size
        limit = sys.maxsize if self.max_items is None else self.max_items
        mode = self._columnar_mode
        next_item = generator.next_item
        clock = generator.clock
        while clock < until and produced < limit:
            batch: List[Element] = []
            append = batch.append
            for _ in range(min(batch_size, limit - produced)):
                # Pins what the generator left unfrozen (DESIGN.md §7:
                # a wrapper may restructure an item up to here).
                append(next_item().freeze())
                clock = generator.clock
                if clock >= until:
                    break
            produced += len(batch)
            self._pump(node, encode_ingest(batch, mode), gauge)
        self._produced[stream.stream_id] = produced

    def _drain_source(self, stream_id: str, until: float) -> None:
        """Advance a down source's generator, counting its items lost."""
        generator = self.generators.get(stream_id)
        if generator is None:
            return
        produced = self._produced[stream_id]
        while generator.clock < until and (
            self.max_items is None or produced < self.max_items
        ):
            generator.next_item()
            produced += 1
            self._source_items_lost += 1
        self._produced[stream_id] = produced

    def _pump(self, node: _StreamNode, batch: Batch, gauge: _Gauge) -> None:
        """Consume one batch of ``node``'s items: account, deliver, fan out."""
        gauge.add(len(batch))
        node.produced_count += len(batch)
        if node.has_hops:
            node.produced_bytes += batch_bytes(batch)
        for feed in node.deliveries:
            feed(batch)
        for relay in node.relay_children:
            self._pump(relay, batch, gauge)
        for _, trie, _ in node.trie_groups:
            trie.evaluate(batch, self._emit, gauge, self._op_timer)
        gauge.sub(len(batch))

    def _emit(self, stream_id: str, out: Batch) -> None:
        self._pump(self._nodes[stream_id], out, self._gauge)

    # ------------------------------------------------------------------
    # Observability (traced runs only; see DESIGN.md §10)
    # ------------------------------------------------------------------
    def _make_op_timer(self) -> Callable[[PrefixStage, int, float], None]:
        """Build the per-stage timer handed to the shared-prefix tries.

        The timer records wall-clock latency only.  ``op.*.items``
        counters are billed from :meth:`_operator_totals` deltas at
        epoch boundaries instead: timer-side counts bill a shared trie
        stage once per *evaluation*, which depends on how sibling
        pipelines land in shard cells — billed totals are partition-
        invariant, so the sharded executor's merged counters pin equal
        to this executor's (DESIGN.md §15).
        """
        recorder = self.recorder

        def op_timer(stage: PrefixStage, inputs: int, seconds: float) -> None:
            name = getattr(stage.spec, "name", None) or stage.operator.kind
            recorder.observe(f"op.{name}.batch_s", seconds)

        return op_timer

    def _operator_totals(self) -> Dict[str, int]:
        """Cumulative billed inputs per operator name (live + retired).

        Follows the accounting convention: a shared trie stage is billed
        once per stream whose pipeline runs through it, so the totals
        stay comparable with the cost model's per-stream charges.
        """
        totals: Dict[str, int] = {}
        for retired in self._retired:
            for kind, udf_name, inputs in retired.stage_counts:
                name = udf_name or kind
                totals[name] = totals.get(name, 0) + inputs
        for node in self._nodes.values():
            for stage in node.stage_path:
                name = getattr(stage.spec, "name", None) or stage.operator.kind
                totals[name] = totals.get(name, 0) + stage.input_count
        return totals

    def _emit_epoch(
        self, t_end: float, metrics: Optional[RunMetrics] = None
    ):
        """Snapshot the delta since the previous epoch boundary.

        ``metrics`` is the cumulative accounting replay at ``t_end``
        (recomputed here when not supplied) — :meth:`_account` is a pure
        replay of accumulated counters, so calling it mid-run observes
        without perturbing the execution.  Returns the snapshot (also
        handed to the recorder, a no-op when tracing is off — untraced
        rebalanced runs still need it for the drift detector), or
        ``None`` at a coincident boundary.
        """
        if t_end <= self._epoch_start and self._epoch_index > 0:
            return None  # coincident boundaries: nothing elapsed
        if metrics is None:
            metrics = self._account(self._topological_streams(), self._nodes)
        totals = self._operator_totals()
        if self.recorder.enabled:
            previous = self._last_operator_totals or {}
            for name, count in totals.items():
                delta = count - previous.get(name, 0)
                if delta:
                    self.recorder.inc(f"op.{name}.items", delta)
        snapshot = snapshot_delta(
            self._epoch_index,
            self._epoch_start,
            t_end,
            metrics,
            self._last_metrics,
            self.net,
            totals,
            self._last_operator_totals,
            inflight_items=self._gauge.current,
            inflight_peak=self._gauge.take_window_peak(),
        )
        self.recorder.add_epoch(snapshot)
        if snapshot.inflight_peak > self.batch_size:
            self._backpressure_epochs += 1
        self._epoch_index += 1
        self._epoch_start = t_end
        self._last_metrics = metrics
        self._last_operator_totals = totals
        self.last_query_slos = self.query_slos()
        return snapshot

    # ------------------------------------------------------------------
    # Per-query SLO accounting (DESIGN.md §15)
    # ------------------------------------------------------------------
    def query_slos(self) -> List["QuerySLO"]:
        """One :class:`~repro.obs.slo.QuerySLO` per registered query.

        Pure reads of accumulated counters, so it is safe to call
        mid-run (the live ``/slo.json`` endpoint does).  The sequential
        executor delivers inside the producing pump, so ``epoch_lag``
        and the derived delivery latency are 0; the sharded executor
        overrides both from the certified plan.
        """
        from ..obs.slo import QuerySLO

        slos: List[QuerySLO] = []
        for name, delivery in self._deliveries.items():
            if isinstance(delivery, _MultiDelivery):
                inputs, results = delivery.total_inputs, delivery.results
            else:
                inputs = delivery.inputs  # type: ignore[attr-defined]
                results = delivery.results  # type: ignore[attr-defined]
            slos.append(
                QuerySLO(
                    query=name,
                    shard=0,
                    epoch_lag=0,
                    delivery_latency_s=0.0,
                    delivered_inputs=inputs,
                    delivered_results=results,
                    items_lost=self._query_lost.get(name, 0),
                    migrations=self._query_migrations.get(name, 0),
                    backpressure_epochs=self._backpressure_epochs,
                    queue_peak=self._gauge.peak,
                    parked=name not in self.deployment.queries,
                )
            )
        return slos

    # ------------------------------------------------------------------
    # Metrics replay
    # ------------------------------------------------------------------
    @staticmethod
    def _stage_counts(node: _StreamNode) -> List[Tuple[str, Optional[str], int]]:
        return [
            (
                stage.operator.kind,
                getattr(getattr(stage.operator, "spec", None), "name", None),
                stage.input_count,
            )
            for stage in node.stage_path
        ]

    def _stream_counters(
        self, nodes: Dict[str, _StreamNode]
    ) -> Dict[str, StreamCounters]:
        return {
            stream_id: StreamCounters(
                produced_count=node.produced_count,
                produced_bytes=node.produced_bytes,
                duplicate_base=node.duplicate_base,
                stage_counts=self._stage_counts(node),
                repair_added=node.repair_added,
            )
            for stream_id, node in nodes.items()
        }

    def _delivery_counters(self) -> List[DeliveryCounters]:
        # Built from the delivery registry, not ``deployment.queries``:
        # the registry keeps registration order across repairs and still
        # holds subscriptions that ended the run torn down (their
        # pre-fault deliveries were real work and must be counted).
        out: List[DeliveryCounters] = []
        for delivery in self._deliveries.values():
            if isinstance(delivery, _MultiDelivery):
                out.append(
                    DeliveryCounters(
                        delivery.record, True, delivery.total_inputs, delivery.results
                    )
                )
            else:
                out.append(
                    DeliveryCounters(
                        delivery.record,  # type: ignore[attr-defined]
                        False,
                        delivery.inputs,  # type: ignore[attr-defined]
                        delivery.results,  # type: ignore[attr-defined]
                    )
                )
        return out

    def _account(
        self, order: List["InstalledStream"], nodes: Dict[str, _StreamNode]
    ) -> RunMetrics:
        """Replay the accumulated counters into :class:`RunMetrics` via
        :func:`repro.engine.accounting.replay_metrics` — the shared
        replay whose accumulation order matches the materializing
        executor exactly, so fault-free runs produce floating-point-
        identical metrics (and the sharded executor, feeding merged
        counters through the same function, matches this one)."""
        return replay_metrics(
            self.net,
            self.duration,
            order,
            self._stream_counters(nodes),
            self._retired,
            self._delivery_counters(),
            faults_applied=self._faults_applied,
            items_lost=self._source_items_lost
            + sum(gate.lost for gate in self._gates),
            items_lost_by_query=self._query_lost,
            recovery_time_s=self._recovery_time_s,
            queries_repaired=self._queries_repaired,
            queries_lost=sum(
                1 for name in self._deliveries if name not in self.deployment.queries
            ),
            migrations_applied=self._migrations_applied,
            migration_downtime_epochs=self._migration_downtime_epochs,
        )


# ----------------------------------------------------------------------
# The materializing oracle
# ----------------------------------------------------------------------
class MaterializingSimulator:
    """The seed executor: materialize every stream's full item list.

    Kept as the correctness oracle for :class:`StreamSimulator` — it
    evaluates every derived stream with its own private pipeline over
    the parent's fully materialized item list, exactly as the original
    implementation did.  Peak memory is O(all items × all streams);
    ``peak_live_items`` reports the total number of materialized items
    for comparison in the micro benchmark.
    """

    def __init__(
        self,
        net: Network,
        deployment: "Deployment",
        generators: Dict[str, ItemGenerator],
        duration: float,
        max_items_per_source: Optional[int] = None,
        recorder: Optional[object] = None,
    ) -> None:
        if duration <= 0:
            raise ExecutionError("duration must be positive")
        self.net = net
        self.deployment = deployment
        self.generators = generators
        self.duration = duration
        self.max_items = max_items_per_source
        self.recorder = recorder if recorder is not None else NULL_RECORDER
        self.peak_live_items = 0

    # ------------------------------------------------------------------
    def run(self) -> RunMetrics:
        metrics = RunMetrics(duration=self.duration)
        items: Dict[str, List[Element]] = {}

        for stream in self._topological_streams():
            if stream.is_original:
                items[stream.stream_id] = self._generate(stream, metrics)
            else:
                items[stream.stream_id] = self._derive(stream, items, metrics)
            self._account_transport(stream, items[stream.stream_id], metrics)

        self.peak_live_items = sum(len(produced) for produced in items.values())
        self._postprocess(items, metrics)
        return metrics

    # ------------------------------------------------------------------
    # Stream production
    # ------------------------------------------------------------------
    def _topological_streams(self) -> List["InstalledStream"]:
        return topological_streams(self.deployment)

    def _generate(self, stream: "InstalledStream", metrics: RunMetrics) -> List[Element]:
        generator = self.generators.get(stream.stream_id)
        if generator is None:
            raise ExecutionError(f"no generator for original stream {stream.stream_id!r}")
        produced: List[Element] = []
        peer = self.net.super_peer(stream.origin_node)
        ingest = base_load("ingest") * peer.pindex
        while generator.clock < self.duration:
            if self.max_items is not None and len(produced) >= self.max_items:
                break
            produced.append(generator.next_item())
        metrics.count_generated(stream.stream_id, len(produced))
        metrics.add_peer_work(stream.origin_node, ingest * len(produced))
        return produced

    def _derive(
        self,
        stream: "InstalledStream",
        items: Dict[str, List[Element]],
        metrics: RunMetrics,
    ) -> List[Element]:
        assert stream.parent_id is not None
        parent_items = items[stream.parent_id]
        peer = self.net.super_peer(stream.origin_node)

        # Tapping an existing stream duplicates it at the tap node.
        duplicate = base_load("duplicate") * peer.pindex
        metrics.add_peer_work(stream.origin_node, duplicate * len(parent_items))

        if not stream.pipeline:
            return parent_items  # pure relay: content unchanged

        pipeline = Pipeline.from_specs(stream.pipeline, stream.content.item_path)
        recorder = self.recorder
        timer = None
        if recorder.enabled:

            def timer(operator, inputs, seconds):
                name = (
                    getattr(getattr(operator, "spec", None), "name", None)
                    or operator.kind
                )
                recorder.observe(f"op.{name}.batch_s", seconds)
                recorder.inc(f"op.{name}.items", inputs)

        out: List[Element] = []
        for item in parent_items:
            out.extend(pipeline.process_batch((item,), timer))
        for operator, inputs in zip(pipeline.operators, pipeline.input_counts):
            udf_name = getattr(getattr(operator, "spec", None), "name", None)
            work = base_load(operator.kind, udf_name) * peer.pindex * inputs
            metrics.add_peer_work(stream.origin_node, work)
        return out

    # ------------------------------------------------------------------
    # Transport and delivery
    # ------------------------------------------------------------------
    def _account_transport(
        self, stream: "InstalledStream", produced: List[Element], metrics: RunMetrics
    ) -> None:
        hops = stream.links()
        if not hops or not produced:
            return
        bits_per_item = [item.serialized_size() * 8 for item in produced]
        total_bits = float(sum(bits_per_item))
        for a, b in hops:
            metrics.add_link_bits(self.net.link(a, b), total_bits)
        # Forwarding work: the sender side of every hop touches each item.
        for sender, _ in hops:
            peer = self.net.super_peer(sender)
            work = base_load("transfer") * peer.pindex * len(produced)
            metrics.add_peer_work(sender, work)

    def _postprocess(self, items: Dict[str, List[Element]], metrics: RunMetrics) -> None:
        """Run each subscription's restructuring at its super-peer."""
        for record in self.deployment.queries.values():
            peer = self.net.super_peer(record.subscriber_node)
            work_per_item = base_load("restructure") * peer.pindex
            if len(record.delivered) > 1:
                self._postprocess_multi(record, items, metrics, work_per_item)
                continue
            restructurer = Restructurer(record.analyzed)
            for _, stream_id in record.delivered:
                delivered = items.get(stream_id, [])
                metrics.add_peer_work(
                    record.subscriber_node, work_per_item * len(delivered)
                )
                results = 0
                for item in delivered:
                    results += len(restructurer.build(item))
                metrics.count_delivery(record.name, results)

    def _postprocess_multi(
        self,
        record: "RegisteredQuery",
        items: Dict[str, List[Element]],
        metrics: RunMetrics,
        work_per_item: float,
    ) -> None:
        """Multi-input combination: latest-value semantics over a
        deterministic round-robin interleaving of the delivered streams
        (see :class:`repro.engine.combine.LatestValueCombiner`)."""
        from .combine import LatestValueCombiner

        combiner = LatestValueCombiner(record.analyzed)
        per_stream = [
            (input_stream, items.get(stream_id, []))
            for input_stream, stream_id in record.delivered
        ]
        total_inputs = sum(len(delivered) for _, delivered in per_stream)
        metrics.add_peer_work(record.subscriber_node, work_per_item * total_inputs)
        results = 0
        for input_stream, item in interleave_round_robin(per_stream):
            results += len(combiner.push(input_stream, item))
        metrics.count_delivery(record.name, results)
