"""The measured stream execution: pump generated items through every
installed stream of a :class:`~repro.sharing.plan.Deployment` and count
real serialized bytes per link and real operator work per peer.

This is the reproduction's stand-in for the paper's blade cluster (see
DESIGN.md): the figures' CPU-load and network-traffic series are
*measurements* of this simulation, while the optimizer only ever sees
the cost model's estimates — exactly the estimate/measure split of the
original system.

There is one executor core, in two parts (DESIGN.md §7):

* :class:`Cell` — the data plane of a slice of the deployed stream
  DAG: a single-pass, generator-driven streaming engine.  Source items
  are pumped depth-first in small batches, so peak memory is O(window
  state + one batch) instead of O(all items × all streams); items are
  size-frozen at ingest (relays charge bytes without re-walking
  subtrees) and sibling pipelines with a common operator prefix are
  evaluated once (:mod:`repro.engine.fanout`).  A cell only
  accumulates integer counters; it knows no topology, fault schedule,
  repairer or rebalancer.
* :class:`StreamSimulator` — the control loop over N ≥ 1 cells:
  boundaries, faults and repair, migrations, the plan diff the cells
  reconcile against, and the merge of their counters into
  :class:`~repro.engine.metrics.RunMetrics`.  A sequential run is this
  loop over one cell that spans the whole deployment;
  :class:`~repro.engine.parallel.ShardedSimulator` runs the same loop
  over several cells and adds only what more than one cell needs.

End-of-stream: a run does not flush pipelines.  Subscriptions are
continuous queries over unbounded streams; a run's ``duration`` is a
measurement horizon, not an end-of-stream marker, so partially filled
windows stay open exactly as they would in the live system (DESIGN.md
§7).  :meth:`Pipeline.flush` remains available for explicit drains.

Churn: the loop optionally executes a
:class:`~repro.faults.FaultSchedule`.  The run is split into epochs at
the scheduled fault times (plus each fault's recovery completion);
between epochs the fault mutates the topology, the supplied ``repair``
callback rebuilds the deployment, and the cells *reconcile* their
running plan with the repaired one — retiring removed streams (their
counters are snapshotted for accounting), attaching repair-created
streams with fresh operator state (recovery restarts window state,
DESIGN.md §8), and re-wiring subscriptions whose delivery chain was
rebuilt.  Unaffected streams keep their operator state and their
delivery continuity, so their output is identical to a fault-free run.
"""

from __future__ import annotations

import dataclasses
import heapq
import math
import sys
from collections import deque
from functools import partial
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Protocol,
    Sequence,
    Set,
    Tuple,
)

from ..network.topology import Network
from ..xmlkit import Element

if TYPE_CHECKING:  # avoid a runtime cycle with repro.sharing
    from ..faults.schedule import FaultSchedule
    from ..obs.slo import QuerySLO
    from ..sharing.plan import Deployment, InstalledStream, RegisteredQuery
from ..obs.recorder import NULL_RECORDER
from ..obs.timeseries import EpochSnapshot, snapshot_delta
from .accounting import (
    DeliveryCounters,
    RetiredSnapshot,
    StageCount,
    StreamCounters,
    replay_metrics,
)
from .columnar import (
    Batch,
    DeliveryKernel,
    batch_bytes,
    columnar_stats,
    encode_ingest,
)
from .fanout import PrefixStage, PrefixTree, _Gauge, group_pipelines
from .metrics import RunMetrics
from .restructure import Restructurer

#: Items a source draws per pump through the DAG (``batch_size``'s
#: default).  One measured constant, not a per-plan rule: a sweep over
#: 64 / 256 / 512 / 1024 puts 512 at or within noise of the best on
#: every sharebench workload (DESIGN.md §7).  Batch boundaries are
#: invisible to every output.
SOURCE_BATCH = 512

#: Evenly spaced time-series sampling boundaries a traced or rebalanced
#: run is split into (faults add their own boundaries).
EPOCH_SAMPLES = 8


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
# Cell internals
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
        #: Count kernel of capture-free feeds.
        self._kernel = DeliveryKernel(self.restructurer)

    def feed(
        self, batch: Batch, members: Optional[Sequence["_SingleDelivery"]] = None
    ) -> None:
        """Restructure one batch.  A closure program feeds one delivery
        of each group — count-only deliveries of the closure that
        restructure alike, ``members``, this one among them — and what
        it counts is credited to every member; any other feed credits
        this delivery alone."""
        inputs = len(batch)
        build = self.restructurer.build
        capture = self.capture
        if capture is None:
            # Count-only delivery: the kernel counts restructured
            # results per shape without building the trees; it vouches
            # for exactness or returns None (then build per item).
            count = self._kernel.count(batch)
            if count is None:
                count = sum(len(build(item)) for item in batch.decode())
            for member in members or (self,):
                member.inputs += inputs
                member.results += count
            return
        self.inputs += inputs
        name = self.record.name
        for item in batch.decode():
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
        # Combination interleaves whole buffered streams item by item —
        # a genuine tree boundary.
        self.buffers[index].extend(batch.decode())
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
        "countable",
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
        #: Consumers fed with this stream's items one by one, in
        #: attachment order: capturing, gated and multi-input
        #: subscription feeds, the export feed.
        self.deliveries: List[Callable[[Batch], None]] = []
        #: Ungated count-only single-input subscriptions: only their
        #: counters are observable, so the closure program groups them.
        self.countable: List[_SingleDelivery] = []
        #: Parent items produced before this node attached (mid-run
        #: attachments duplicate only post-attach parent items).
        self.duplicate_base = 0
        #: Created by plan repair — its traffic is re-routing overhead.
        self.repair_added = False


class _ClosureProgram:
    """What one batch costs a relay closure — a stream that is fed
    batches (an original, a proxy, a pipelined stream) and the relays
    below it, which all see the *same* batch object — flattened from
    its nodes in pump order (a node's feeds, its relays depth first,
    its tries).

    Shared per batch: one length, one byte size for every member with
    hops, one restructured count per delivery group.  Not shared: every
    member bills its own ``produced_count`` / ``produced_bytes`` and
    every subscription its own ``inputs`` / ``results``.
    """

    __slots__ = ("members", "hopped", "groups", "steps")

    def __init__(self, root: _StreamNode) -> None:
        self.members: List[_StreamNode] = []
        #: The members that ship their items (``has_hops``).
        self.hopped: List[_StreamNode] = []
        #: ``(depth, feed, trie)`` in pump order: a member's one-by-one
        #: feed to call or trie to evaluate, with the batch held in
        #: flight once per relay level above it (``depth`` times) as
        #: the stream by stream descent held it — or neither, where the
        #: descent went deeper than the next step's level (the
        #: in-flight peak saw that).
        self.steps: List[
            Tuple[int, Optional[Callable[[Batch], None]], Optional[PrefixTree]]
        ] = []
        grouped: Dict[object, List[_SingleDelivery]] = {}
        entered = self._visit(root, 1, 0, grouped)
        if entered:
            self.steps.append((entered, None, None))
        #: Per delivery group — the closure's countable deliveries that
        #: restructure alike: the feed of one member, and the members.
        self.groups = [
            (members[0].feed, tuple(members)) for members in grouped.values()
        ]

    def _visit(
        self,
        node: _StreamNode,
        depth: int,
        entered: int,
        grouped: Dict[object, List[_SingleDelivery]],
    ) -> int:
        """Add ``node`` at relay level ``depth`` and the relays below
        it; ``entered`` is the deepest level entered since the last
        step (returned as it stands afterwards)."""
        self.members.append(node)
        if node.has_hops:
            self.hopped.append(node)
        entered = max(entered, depth)
        for delivery in node.countable:
            grouped.setdefault(delivery.restructurer.signature, []).append(delivery)
        for feed in node.deliveries:
            entered = self._step(depth, entered, feed, None)
        for relay in node.relay_children:
            entered = self._visit(relay, depth + 1, entered, grouped)
        for _, trie, _ in node.trie_groups:
            entered = self._step(depth, entered, None, trie)
        return entered

    def _step(
        self,
        depth: int,
        entered: int,
        feed: Optional[Callable[[Batch], None]],
        trie: Optional[PrefixTree],
    ) -> int:
        if entered > depth:
            self.steps.append((entered, None, None))
        self.steps.append((depth, feed, trie))
        return 0


class _Gate:
    """Recovery gate on a repaired subscription's delivery feeds.

    While closed (re-registration still in progress in stream time),
    arriving items are dropped and counted as lost.
    """

    __slots__ = ("open", "lost")

    def __init__(self, is_open: bool) -> None:
        self.open = is_open
        self.lost = 0


def _prune_stages(stages: List[PrefixStage]) -> None:
    """Drop trie stages that feed no terminal stream and no child."""
    for stage in list(stages):
        _prune_stages(stage.children)
        if not stage.children and not stage.streams:
            stages.remove(stage)


def _stage_counts(node: _StreamNode) -> List[StageCount]:
    return [
        (
            stage.operator.kind,
            getattr(getattr(stage.operator, "spec", None), "name", None),
            stage.input_count,
        )
        for stage in node.stage_path
    ]


def _strip_parent(stream: "InstalledStream") -> "InstalledStream":
    """A proxy copy of ``stream``: same id/route/content, no parent.

    Proxy nodes are local DAG roots fed only by the exchange — keeping
    the parent link would double-feed them wherever the parent happens
    to be co-resident.
    """
    return dataclasses.replace(stream, parent_id=None)


#: One exchanged unit: ``(stream_id, batch)`` in producer emission
#: order.
Exchanged = Tuple[str, Batch]

#: What a cell hands over after a step, per destination cell: a header
#: ``(stream_id, rows, bytes)`` per batch, and the batches.
Outbox = Dict[int, Tuple[List[Tuple[str, int, int]], List[Exchanged]]]


# ----------------------------------------------------------------------
# The cell: the data plane of one slice of the deployment
# ----------------------------------------------------------------------
class Cell:
    """The running plan of one slice of the deployed stream DAG.

    A cell owns everything data-plane — stream nodes and their
    shared-prefix tries, the source pump, subscription deliveries and
    their recovery gates — and accumulates plain integer counters.  It
    starts empty: the control loop installs the plan, and later every
    repair, as a *diff* (:meth:`apply_reconcile`), advances the cell
    with :meth:`step` and reads the counters back as :meth:`state`
    snapshots, which it merges and replays into metrics.  A cell knows
    no topology, fault schedule, repairer or rebalancer.

    A stream whose parent or subscriber lives in another cell is
    present there as a *proxy*: a local root that is fed the batches
    of :meth:`step`'s ``inbound`` instead of a generator's, and whose
    counters belong to the owning cell.  The owner in turn parks every
    batch of such a stream in the outbox of the cells that asked — one
    more feed beside the stream's deliveries.  A cell that spans the
    whole deployment has neither.
    """

    def __init__(
        self,
        generators: Dict[str, ItemGenerator],
        max_items_per_source: Optional[int],
        batch_size: int,
        capture: Optional[Callable[[str, Element], None]] = None,
        recorder: Any = NULL_RECORDER,
    ) -> None:
        self.generators = generators
        self.max_items = max_items_per_source
        self.batch_size = batch_size
        self.capture = capture
        #: Operator batches time into per-operator latency histograms
        #: (traced runs only; see :func:`_make_op_timer`).
        self._op_timer = _make_op_timer(recorder) if recorder.enabled else None
        self._gauge = _Gauge()
        self._nodes: Dict[str, _StreamNode] = {}
        #: What a batch entering a stream runs, per closure root (a
        #: relay is a member of its root's program); derived from the
        #: nodes and their feeds by :meth:`apply_reconcile`.
        self._programs: Dict[str, _ClosureProgram] = {}
        self._proxies: Set[str] = set()
        #: Exported stream id → the cells consuming it.
        self._exports: Dict[str, Tuple[int, ...]] = {}
        self._outbox: Dict[int, List[Exchanged]] = {}
        #: All deliveries in registration order — the accounting order,
        #: stable across repairs (queries re-registered by a repair keep
        #: their delivery object, and with it their position and their
        #: accumulated counters).
        self._deliveries: Dict[str, Any] = {}
        #: Per subscription: the node lists its feeds sit in.
        self._feeds: Dict[str, List[Tuple[list, Any]]] = {}
        self._retired: List[RetiredSnapshot] = []
        self._gates: Dict[int, _Gate] = {}
        #: Original streams pumped here → items drawn from the generator
        #: so far (a source whose home is down stays listed: its
        #: generator keeps running and the items are lost).
        self._produced: Dict[str, int] = {}
        self._source_items_lost = 0
        self._query_lost: Dict[str, int] = {}
        #: How much pumping the plan costs — batches drawn from the
        #: sources, closure programs run, delivery groups counted.
        #: They describe the execution, not its output (a partition
        #: into cells adds proxies and cuts batches at its barriers).
        self.source_batches = 0
        self.pump_steps = 0
        self.delivery_counts = 0

    # ------------------------------------------------------------------
    # Plan installation and reconciliation
    # ------------------------------------------------------------------
    def apply_reconcile(self, diff: Dict[str, Any]) -> None:
        """Apply this cell's part of a plan diff
        (:meth:`StreamSimulator._install`).

        Streams no longer installed (or replaced by a same-id fresh
        installation) are retired: their counters are snapshotted —
        *before* any detach, so a retired child still reads its parent's
        count for ``duplicate_count`` — they detach from their parent's
        relay list or shared-prefix trie (surviving siblings keep their
        stages and operator state), and orphaned stages are pruned.
        Added streams arrive parent-before-child with fresh operator
        state — recovery restarts windows rather than migrating them —
        and with ``duplicate_base`` pinned so only post-attach parent
        items are billed as duplication work; a proxy starts at the
        producing cell's count, which makes that pin the same on any
        partition.  The first diff of a run (``repair`` false) is the
        plan itself.  Feeds and nodes change nowhere else, so the
        closure programs :meth:`_pump` runs are rebuilt at the end.
        """
        nodes = self._nodes
        stale_ids = set(diff["stale"])
        stale = [stream_id for stream_id in nodes if stream_id in stale_ids]
        for stream_id in stale:
            if stream_id not in self._proxies:
                self._retired.append(self._snapshot(nodes[stream_id]))
        for stream_id in stale:
            self._detach(nodes[stream_id])
        for stream_id in stale:
            del nodes[stream_id]
            self._proxies.discard(stream_id)
            self._exports.pop(stream_id, None)

        pipelined: Dict[str, List["InstalledStream"]] = {}
        for stream, is_proxy, base_count in diff["add"]:
            stream_id = stream.stream_id
            node = nodes[stream_id] = _StreamNode(stream)
            if is_proxy:
                node.produced_count = base_count
                node.has_hops = False  # the owning cell counts its bytes
                self._proxies.add(stream_id)
                continue
            node.repair_added = diff["repair"]
            if stream.parent_id is None:
                # An original stream; one re-installed because its home
                # rejoined resumes where the drain left its generator.
                self._produced.setdefault(stream_id, 0)
                continue
            parent_node = nodes[stream.parent_id]
            node.duplicate_base = parent_node.produced_count
            if stream.pipeline:
                pipelined.setdefault(stream.parent_id, []).append(stream)
            else:
                parent_node.relay_children.append(node)
        # Pipelines added together share prefixes among themselves (all
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

        for stream_id, consumers in diff["exports"].items():
            if stream_id not in self._exports:
                nodes[stream_id].deliveries.append(partial(self._export, stream_id))
            self._exports[stream_id] = consumers

        # Re-wire subscriptions the repair touched, behind its gate;
        # silence the ones it had to park (their delivery objects stay
        # for accounting).
        gate = None
        if diff["gate"] is not None:
            gate_id, is_open = diff["gate"]
            gate = self._gates[gate_id] = _Gate(is_open)
        for name in diff["park"]:
            self._remove_feeds(name)
        for name, record in diff["rewire"]:
            delivery = self._deliveries.get(name)
            if delivery is None:
                if len(record.delivered) > 1:
                    # Buffered items count as in-flight.
                    delivery = _MultiDelivery(record, self._gauge, self.capture)
                else:
                    delivery = _SingleDelivery(record, self.capture)
                self._deliveries[name] = delivery
            else:
                self._remove_feeds(name)
                delivery.record = record
            self._attach_feeds(name, delivery, gate)

        self._programs = {
            stream_id: _ClosureProgram(node)
            for stream_id, node in nodes.items()
            if node.stream.parent_id is None or node.stream.pipeline
        }

    def open_gate(self, gate_id: int) -> None:
        self._gates[gate_id].open = True

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
        self, name: str, delivery: Any, gated_by: Optional[_Gate] = None
    ) -> None:
        """Wire a subscription's feeds onto its delivered stream nodes."""
        entries = self._feeds.setdefault(name, [])
        record = delivery.record
        countable = False
        if isinstance(delivery, _MultiDelivery):
            feeds = [
                self._multi_feeder(delivery, index)
                for index in range(len(record.delivered))
            ]
        else:
            feeds = [delivery.feed]
            countable = gated_by is None and delivery.capture is None
        for feed, (_, stream_id) in zip(feeds, record.delivered):
            node = self._nodes.get(stream_id)
            if node is None:
                continue
            if countable:
                consumers, feed = node.countable, delivery
            else:
                consumers = node.deliveries
                if gated_by is not None:
                    feed = self._gated(name, gated_by, feed)
            consumers.append(feed)
            entries.append((consumers, feed))

    def _remove_feeds(self, name: str) -> None:
        # A retired node's list is simply no longer pumped.
        for consumers, feed in self._feeds.pop(name, []):
            consumers.remove(feed)

    def _snapshot(self, node: _StreamNode) -> RetiredSnapshot:
        stream = node.stream
        parent_node = (
            self._nodes.get(stream.parent_id) if stream.parent_id is not None else None
        )
        duplicate_count = (
            parent_node.produced_count - node.duplicate_base
            if parent_node is not None
            else 0
        )
        return RetiredSnapshot(
            stream=stream,
            produced_count=node.produced_count,
            produced_bytes=node.produced_bytes,
            duplicate_count=duplicate_count,
            stage_counts=_stage_counts(node),
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
    def step(self, until: float, inbound: Sequence[Exchanged] = ()) -> Outbox:
        """Deliver ``inbound`` proxy batches, pump own sources to
        stream time ``until``, and hand back what that exported, each
        destination's batches beside their headers.

        ``until`` at or before the sources' clocks makes this an
        exchange-only round — the drain-to-quiescence primitive."""
        programs = self._programs
        for stream_id, batch in inbound:
            program = programs.get(stream_id)
            if program is not None:
                self._pump(program, batch)
        for stream_id in self._produced:
            if stream_id in programs:
                self._pump_source(stream_id, until)
            else:
                # Source's home super-peer is down: the thin-peer keeps
                # producing, the items are lost at ingest.
                self._drain_source(stream_id, until)
        outbox: Outbox = {
            dst: (
                [(sid, len(batch), batch_bytes(batch)) for sid, batch in batches],
                batches,
            )
            for dst, batches in self._outbox.items()
        }
        self._outbox = {}
        return outbox

    def _pump_source(self, stream_id: str, until: float) -> None:
        generator = self.generators.get(stream_id)
        if generator is None:
            raise ExecutionError(f"no generator for original stream {stream_id!r}")
        program = self._programs[stream_id]
        produced = self._produced[stream_id]
        batch_size = self.batch_size
        limit = sys.maxsize if self.max_items is None else self.max_items
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
            self.source_batches += 1
            self._pump(program, encode_ingest(batch))
        self._produced[stream_id] = produced

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

    def _pump(self, program: _ClosureProgram, batch: Batch) -> None:
        """Consume one batch of a closure root's items: account,
        deliver, fan out — for the whole closure at once."""
        count = len(batch)
        if not count:
            return  # nothing to account, deliver or fan out below
        self.pump_steps += 1
        for member in program.members:
            member.produced_count += count
        if program.hopped:
            size = batch_bytes(batch)
            for member in program.hopped:
                member.produced_bytes += size
        self.delivery_counts += len(program.groups)
        for feed, members in program.groups:
            feed(batch, members)
        gauge = self._gauge
        for depth, feed, trie in program.steps:
            held = count * depth
            gauge.add(held)
            if feed is not None:
                feed(batch)
            elif trie is not None:
                trie.evaluate(batch, self._emit, gauge, self._op_timer)
            gauge.sub(held)

    def _emit(self, stream_id: str, out: Batch) -> None:
        self._pump(self._programs[stream_id], out)

    def _export(self, stream_id: str, batch: Batch) -> None:
        """The feed of a stream other cells consume."""
        parked = batch.detached()
        for consumer in self._exports[stream_id]:
            self._outbox.setdefault(consumer, []).append((stream_id, parked))

    # ------------------------------------------------------------------
    # Counters out
    # ------------------------------------------------------------------
    def counters(self) -> Dict[str, int]:
        """Items produced per *owned* stream (proxies mirror a foreign
        count and are excluded)."""
        return {
            stream_id: node.produced_count
            for stream_id, node in self._nodes.items()
            if stream_id not in self._proxies
        }

    def state(self) -> Dict[str, Any]:
        """This cell's accumulated accounting counters, as plain data.

        Pure reads (but for the in-flight window peak, which restarts),
        so observing mid-run does not perturb the execution."""
        counters: Dict[str, StreamCounters] = {}
        #: Cumulative billed inputs per operator name (live + retired).
        #: A shared trie stage is billed once per stream whose pipeline
        #: runs through it, so the totals stay comparable with the cost
        #: model's per-stream charges — and do not depend on how
        #: sibling pipelines land in cells.
        totals: Dict[str, int] = {}
        for stream_id, node in self._nodes.items():
            if stream_id not in self._proxies:
                counters[stream_id] = StreamCounters(
                    node.produced_count,
                    node.produced_bytes,
                    node.duplicate_base,
                    _stage_counts(node),
                    node.repair_added,
                )
        for counted in (*self._retired, *counters.values()):
            for kind, udf_name, inputs in counted.stage_counts:
                name = udf_name or kind
                totals[name] = totals.get(name, 0) + inputs
        deliveries: Dict[str, Tuple[bool, int, int]] = {}
        for name, delivery in self._deliveries.items():
            if isinstance(delivery, _MultiDelivery):
                deliveries[name] = (True, delivery.total_inputs, delivery.results)
            else:
                deliveries[name] = (False, delivery.inputs, delivery.results)
        gauge = self._gauge
        return {
            "counters": counters,
            "retired": list(self._retired),
            "deliveries": deliveries,
            "items_lost": self._source_items_lost
            + sum(gate.lost for gate in self._gates.values()),
            "query_lost": dict(self._query_lost),
            "operator_totals": totals,
            "inflight": gauge.current,
            "window_peak": gauge.take_window_peak(),
            "peak": gauge.peak,
            "exec": {
                "source_batches": self.source_batches,
                "pump_steps": self.pump_steps,
                "delivery_counts": self.delivery_counts,
            },
        }

    def finish(self) -> Dict[str, Any]:
        """Run the multi-input combinations over their full buffers —
        only now are all inputs known — and report the final state."""
        for delivery in self._deliveries.values():
            if isinstance(delivery, _MultiDelivery):
                delivery.finish()
        return self.state()


def _make_op_timer(recorder: Any) -> Callable[[PrefixStage, int, float], None]:
    """Build the per-stage timer handed to the shared-prefix tries.

    The timer records wall-clock latency only.  ``op.*.items`` counters
    are billed by the control loop from the cells' operator totals at
    epoch boundaries instead: timer-side counts bill a shared trie
    stage once per *evaluation*, which depends on how sibling pipelines
    land in cells — billed totals are partition-invariant, so a run's
    counters are the same over one cell or many (DESIGN.md §12).
    """

    def op_timer(stage: PrefixStage, inputs: int, seconds: float) -> None:
        name = getattr(stage.spec, "name", None) or stage.operator.kind
        recorder.observe(f"op.{name}.batch_s", seconds)

    return op_timer


class _LocalCell:
    """A cell in this process, behind the submit/result protocol the
    loop speaks to cells anywhere (a forked one answers later; see
    :mod:`repro.engine.parallel`)."""

    __slots__ = ("cell", "_reply")

    def __init__(self, cell: Any) -> None:
        self.cell = cell
        self._reply: Any = None

    def submit(self, op: str, *args: Any) -> None:
        self._reply = getattr(self.cell, op)(*args)

    def result(self) -> Any:
        reply, self._reply = self._reply, None
        return reply

    def close(self) -> None:
        return None


# ----------------------------------------------------------------------
# The control loop
# ----------------------------------------------------------------------
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
        Items generated per pump through the DAG (default
        :data:`SOURCE_BATCH`); bounds peak memory together with open
        window state.
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
        is split into epochs (:data:`EPOCH_SAMPLES` fixed boundaries plus
        every fault/recovery boundary) and one
        :class:`~repro.obs.EpochSnapshot` per epoch is emitted, along
        with per-operator latency histograms and item counters.  The
        default is the shared no-op recorder: every instrumentation
        site then costs a single attribute or ``None`` check
        (DESIGN.md §10).
    rebalancer:
        Optional :class:`~repro.sharing.rebalance.Rebalancer`.  When
        given, the run is sampled like a traced one and the rebalancer
        observes every mid-run epoch snapshot; when it migrates plans
        (tearing down and re-registering subscriptions working on a
        sustained-hot super-peer), the cells reconcile their running
        pipelines against the rewritten deployment exactly like churn
        repair — but with an already *open* delivery gate, since the
        epoch boundary is quiescent and the rewrite is make-before-
        break (no items are lost; the conservation tests pin it).

    A run is one control loop over its cells (DESIGN.md §7): it
    installs the plan, advances the cells from boundary to boundary,
    applies faults and migrations between them, ships the cells the
    plan diff, and merges their counters into metrics.  This class runs
    it over one :class:`Cell` that spans the whole deployment, records
    straight into ``recorder`` and calls ``capture`` in pump order; the
    ``_build`` / ``_place`` / ``_advance`` / ``_finish`` hooks are
    where :class:`~repro.engine.parallel.ShardedSimulator`
    adds what several cells need.

    After :meth:`run`, ``peak_live_items`` holds the maximum number of
    stream items a cell held in flight at any moment — bounded by
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
        batch_size: int = SOURCE_BATCH,
        schedule: Optional["FaultSchedule"] = None,
        repair: Optional[Callable[..., Any]] = None,
        capture: Optional[Callable[[str, Element], None]] = None,
        recorder: Optional[Any] = None,
        rebalancer: Optional[Any] = None,
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
        self.recorder: Any = recorder if recorder is not None else NULL_RECORDER
        self.rebalancer: Any = rebalancer
        self.mode_used = "sequential"
        self.workers_used = 1
        #: Exchange epochs of the run, and how many of them each query's
        #: deliveries lag behind production: one cell exchanges nothing,
        #: so nothing lags.
        self.exchange_epochs = 1
        self.query_lags: Dict[str, int] = {}
        self.peak_live_items = 0
        #: What pumping the plan cost, summed over the cells
        #: (``source_batches``, ``pump_steps``, ``delivery_counts``;
        #: see :class:`Cell`) — mirrored as ``exec.*`` into a live
        #: recorder.  Like ``columnar.*`` they describe the execution,
        #: not its output: no identity comparison reads them.
        self.exec_counts: Dict[str, int] = {}
        #: Most recent per-query SLO records (refreshed at every
        #: observed boundary and at run end — the live ``/slo.json``
        #: source).
        self.last_query_slos: List["QuerySLO"] = []
        self._final_states: Optional[Sequence[Dict[str, Any]]] = None

    # ------------------------------------------------------------------
    def run(self) -> RunMetrics:
        recorder = self.recorder
        self._cells: List[Any] = []
        #: What the cells run, kept here to diff the deployment against:
        #: the streams (in the order a cell holds its nodes, so the
        #: retire order is known without asking), each one's owning
        #: cell, the cells holding it (owned or as a proxy) and the
        #: cells consuming it through the exchange.
        self._mirror: Dict[str, "InstalledStream"] = {}
        self._owner: Dict[str, int] = {}
        self._consumers: Dict[str, Set[int]] = {}
        #: Super-peer → cell; a node no one placed is in cell 0.
        self._node_cell: Dict[str, int] = {}
        #: Retirement sequence as ``(stream_id, owner_cell)`` — the
        #: global accounting order the merge re-establishes.
        self._retired_order: List[Tuple[str, int]] = []
        #: Each query's accounting record (registration order) and host.
        self._records: Dict[str, "RegisteredQuery"] = {}
        self._query_cell: Dict[str, int] = {}
        self._next_gate_id = 0
        self._faults_applied = 0
        self._recovery_time_s = 0.0
        self._queries_repaired = 0
        self._migrations_applied = 0
        self._query_migrations: Dict[str, int] = {}
        self._epoch_index = 0
        self._epoch_start = 0.0
        self._last_metrics: Optional[RunMetrics] = None
        self._last_operator_totals: Optional[Dict[str, int]] = None
        columnar_base = columnar_stats()

        try:
            self._build()
            self._cell_has: List[Set[str]] = [set() for _ in self._cells]
            #: Epochs (per cell) whose in-flight window peak exceeded
            #: the batch size — the SLO backpressure-exposure signal.
            self._backpressure = [0] * len(self._cells)
            self._install({}, None)
            self._run_epochs()
            states = self._ask("finish")
        finally:
            for cell in self._cells:
                cell.close()

        metrics = self._merge(states)
        self.peak_live_items = max(state["peak"] for state in states)
        self._final_states = states
        self.last_query_slos = self._build_slos(states)
        if recorder.enabled:
            # The final epoch is emitted after finish(): multi-input
            # subscriptions only restructure (and bill) their buffered
            # items there, so snapshotting at the duration boundary
            # would miss that work.
            self._observe(self.duration, states, metrics)
        self._finish(states)
        if recorder.enabled:
            recorder.set_gauge("exec.peak_live_items", self.peak_live_items)
            recorder.inc("exec.runs")
            for slo in self.last_query_slos:
                recorder.event("query.slo", **slo.to_dict())
            for peer, work in sorted(metrics.peer_work.items()):
                recorder.set_gauge(f"peer.work.{peer}", work)
            for (a, b), bits in sorted(metrics.link_bits.items()):
                recorder.set_gauge(f"link.bits.{a}-{b}", bits)
            # Process-wide counters: report this run's delta only
            # (what forked cells dispatched stays in their processes).
            for key, value in columnar_stats().items():
                delta = value - columnar_base[key]
                if delta:
                    recorder.inc(f"columnar.{key}", delta)
            for key, value in self.exec_counts.items():
                recorder.inc(f"exec.{key}", value)
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
        if self._final_states is None:
            raise ExecutionError("stream_counts() requires a completed run()")
        counts: Dict[str, int] = {}
        for state in self._final_states:
            for retired in state["retired"]:
                stream_id = retired.stream.stream_id
                counts[stream_id] = counts.get(stream_id, 0) + retired.produced_count
            for stream_id, live in state["counters"].items():
                counts[stream_id] = counts.get(stream_id, 0) + live.produced_count
        return counts

    # ------------------------------------------------------------------
    # Hooks: what a run over one cell does; ShardedSimulator overrides
    # them with what several cells need
    # ------------------------------------------------------------------
    def _build(self) -> None:
        """Create the (empty) cells of this run.  One cell spans the
        whole deployment, records straight into the run's recorder and
        hands results to ``capture`` in pump order."""
        self._cells = [
            _LocalCell(
                Cell(
                    self.generators,
                    self.max_items,
                    self.batch_size,
                    self.capture,
                    self.recorder,
                )
            )
        ]

    def _place(self) -> None:
        """Give the super-peers of the repaired deployment a cell in
        ``_node_cell``.  One cell hosts them all."""

    def _advance(self, until: float, quiescent: bool) -> None:
        """Bring every cell to stream time ``until``; ``quiescent``
        asks that nothing stay in flight between cells.  One cell is
        pumped, and holds nothing back between pumps."""
        self._ask("step", until)

    def _finish(self, states: Sequence[Dict[str, Any]]) -> None:
        """Collect what the cells kept to themselves until the end.
        One cell in this process kept nothing."""

    # ------------------------------------------------------------------
    # The loop
    # ------------------------------------------------------------------
    def _ask(self, op: str, *args: Any, each: Optional[Sequence[Any]] = None) -> List[Any]:
        """Run one operation on every cell at once; replies in cell
        order.  ``each`` holds one more argument per cell."""
        for index, cell in enumerate(self._cells):
            if each is None:
                cell.submit(op, *args)
            else:
                cell.submit(op, *args, each[index])
        return [cell.result() for cell in self._cells]

    def _run_epochs(self) -> None:
        """Advance the cells boundary by boundary.

        Boundaries are the scheduled fault times plus each repair's
        recovery completion (when its gated deliveries reopen); a
        traced or rebalanced run adds :data:`EPOCH_SAMPLES` evenly spaced
        sampling boundaries and takes one time-series snapshot per
        epoch — *before* the boundary's faults apply, so churn
        transients land in the following epochs.  Such a run therefore
        advances its sources in interleaved time slices; per-stream
        results are unchanged — sources are independent DAG roots,
        operators are deterministic, and multi-input combination runs
        over the full buffers at the end — so metrics match the
        unobserved single-pass run.
        """
        duration = self.duration
        events = (
            [e for e in self.schedule.events() if e.time < duration]
            if self.schedule
            else []
        )
        rebalancer = self.rebalancer
        observing = self.recorder.enabled or rebalancer is not None
        samples: List[float] = []
        if observing:
            step = duration / EPOCH_SAMPLES
            samples = [step * k for k in range(1, EPOCH_SAMPLES)]
        sample_index = 0
        opens: List[Tuple[float, int]] = []  # (open_at, gate_id)
        index = 0
        while True:
            next_fault = events[index].time if index < len(events) else math.inf
            next_open = opens[0][0] if opens else math.inf
            next_sample = (
                samples[sample_index] if sample_index < len(samples) else math.inf
            )
            boundary = min(next_fault, next_open, next_sample, duration)
            # Faults and gate openings strike a drained plan; the
            # rebalancer needs quiescence at every boundary it sees, so
            # its snapshots are the same over one cell or many.
            self._advance(
                boundary,
                boundary >= duration
                or boundary in (next_fault, next_open)
                or rebalancer is not None,
            )
            if boundary >= duration:
                break
            while sample_index < len(samples) and samples[sample_index] <= boundary:
                sample_index += 1
            snapshot = (
                self._observe(boundary, self._ask("state")) if observing else None
            )
            # Recovery completions first: a fault striking the instant a
            # previous recovery ends sees the recovered subscriptions.
            while opens and opens[0][0] <= boundary:
                self._ask("open_gate", heapq.heappop(opens)[1])
            while index < len(events) and events[index].time <= boundary:
                event = events[index]
                index += 1
                gate = self._apply_fault(event)
                if gate is not None and gate[0] < duration:
                    heapq.heappush(opens, gate)
            # The rebalancer observes after the boundary's faults: a
            # migration then adapts the post-repair plan instead of
            # rewriting one a coincident fault immediately tears up.
            if rebalancer is not None and snapshot is not None:
                self._apply_migration(snapshot)

    def _apply_fault(self, event: Any) -> Optional[Tuple[float, int]]:
        """Mutate the topology, repair the plan, reconcile the cells.

        Returns ``(open_at, gate_id)`` when the recovery gate still
        needs to be opened at a later boundary, else ``None``.
        """
        event.apply(self.net)
        self._faults_applied += 1
        what = event.describe()
        self.recorder.event("fault.applied", stream_time=event.time, fault=what)
        self.recorder.inc("exec.faults_applied")
        report = self.repair(context=what) if self.repair is not None else None
        recovery_s = 0.0
        if report is not None:
            recovery_s = report.recovery_time_ms() / 1000.0
            self._queries_repaired += len(report.repaired_queries)
        self._recovery_time_s += min(recovery_s, self.duration - event.time)
        gate_id = self._reconcile(recovery_s <= 0.0)
        return None if recovery_s <= 0.0 else (event.time + recovery_s, gate_id)

    def _apply_migration(self, snapshot: "EpochSnapshot") -> None:
        """Offer one epoch snapshot to the rebalancer; apply its moves.

        A migration rewrites the deployment control-plane-side (tear
        down + re-register, verified pre-flight); the cells then
        reconcile their running pipelines against the rewritten plan
        through the same diff churn repair uses.  The delivery gate is
        created *open*: the boundary is quiescent (everything pumped up
        to it was delivered), the rewrite is instantaneous in stream
        time, so nothing is dropped — migration is make-before-break,
        unlike fault recovery where the old plan is already dead.  No
        epoch therefore ever sees a migration's gate closed.
        """
        report = self.rebalancer.observe_epoch(snapshot)
        if report is None:
            return
        self._migrations_applied += 1
        for name in report.moved_queries:
            self._query_migrations[name] = self._query_migrations.get(name, 0) + 1
        self.recorder.inc("exec.migrations_applied")
        self._reconcile(True)

    # ------------------------------------------------------------------
    # Plan installation and reconciliation
    # ------------------------------------------------------------------
    def _reconcile(self, gate_open: bool) -> int:
        """Bring the (drained) cells in line with the repaired
        deployment; returns the id of the gate the re-wired
        subscriptions deliver behind."""
        counters: Dict[str, int] = {}
        for counts in self._ask("counters"):
            counters.update(counts)
        self._place()
        gate_id = self._next_gate_id
        self._next_gate_id += 1
        self._install(counters, (gate_id, gate_open))
        return gate_id

    def _install(
        self, counters: Dict[str, int], gate: Optional[Tuple[int, bool]]
    ) -> None:
        """Diff the deployment against the mirror of what the cells run
        and ship every cell its part (:meth:`Cell.apply_reconcile`).

        Against the empty mirror of a starting run (``gate`` is
        ``None``) the diff is the plan itself.  ``counters`` holds the
        items each stream has produced, for the proxies a repair
        creates.
        """
        deployment = self.deployment
        mirror = self._mirror
        cell_has = self._cell_has
        cells = range(len(self._cells))

        stale = [
            stream_id
            for stream_id, stream in mirror.items()
            if deployment.streams.get(stream_id) is not stream
        ]
        for stream_id in stale:
            self._retired_order.append((stream_id, self._owner.pop(stream_id)))
            del mirror[stream_id]
            self._consumers.pop(stream_id, None)
            for has in cell_has:
                has.discard(stream_id)

        adds: List[List[Tuple["InstalledStream", bool, int]]] = [[] for _ in cells]
        export_changed: Set[str] = set()
        #: Streams (re)installed this round: their owner nodes restart
        #: at produced_count 0, so proxies must NOT inherit the retired
        #: predecessor's count from the pre-reconcile gather.
        fresh: Set[str] = set()

        def need(cell: int, stream_id: str) -> None:
            """``cell`` consumes ``stream_id``: as a proxy if foreign."""
            if stream_id in cell_has[cell]:
                return
            base = 0 if stream_id in fresh else counters.get(stream_id, 0)
            adds[cell].append((_strip_parent(mirror[stream_id]), True, base))
            cell_has[cell].add(stream_id)
            self._consumers.setdefault(stream_id, set()).add(cell)
            export_changed.add(stream_id)

        for stream in topological_streams(deployment):
            stream_id = stream.stream_id
            if stream_id in mirror:
                continue
            owner = self._node_cell.setdefault(stream.origin_node, 0)
            mirror[stream_id] = stream
            self._owner[stream_id] = owner
            if stream.parent_id is not None:
                need(owner, stream.parent_id)
            adds[owner].append((stream, False, 0))
            cell_has[owner].add(stream_id)
            fresh.add(stream_id)

        park: List[str] = []
        rewires: List[List[Tuple[str, "RegisteredQuery"]]] = [[] for _ in cells]
        records = self._records
        for name in [*records, *(n for n in deployment.queries if n not in records)]:
            current = deployment.queries.get(name)
            if current is None:
                park.append(name)  # torn down; its record stays for accounting
                continue
            if records.get(name) is current:
                continue  # untouched by this repair
            if name not in records:
                self._query_cell[name] = self._node_cell.get(
                    current.subscriber_node, 0
                )
            records[name] = current
            host = self._query_cell[name]
            for _, delivered_id in current.delivered:
                if delivered_id in mirror:
                    need(host, delivered_id)
            rewires[host].append((name, current))

        self._ask(
            "apply_reconcile",
            each=[
                {
                    "repair": gate is not None,
                    "stale": stale,
                    "add": adds[cell],
                    "exports": {
                        stream_id: tuple(sorted(self._consumers[stream_id]))
                        for stream_id in export_changed
                        if self._owner.get(stream_id) == cell
                    },
                    "gate": gate,
                    "park": park,
                    "rewire": rewires[cell],
                }
                for cell in cells
            ],
        )

    # ------------------------------------------------------------------
    # Merge: the cells' counters, replayed in the one accounting order
    # ------------------------------------------------------------------
    def _merge(self, states: Sequence[Dict[str, Any]]) -> RunMetrics:
        """Replay the cells' accumulated counters into
        :class:`RunMetrics` via :func:`repro.engine.accounting
        .replay_metrics`, in the one accounting order — retired streams
        in retirement order, live streams parents first, deliveries in
        registration order — so equal counters give floating-point-
        identical metrics over one cell or many.  A pure replay:
        calling it mid-run observes without perturbing the execution.
        """
        counters: Dict[str, StreamCounters] = {}
        lost_by_query: Dict[str, int] = {}
        exec_counts: Dict[str, int] = {}
        for state in states:
            counters.update(state["counters"])
            lost_by_query.update(state["query_lost"])
            for key, value in state["exec"].items():
                exec_counts[key] = exec_counts.get(key, 0) + value
        self.exec_counts = exec_counts
        # A cell retires its streams in the mirror's order, so each
        # cell's list is the global sequence restricted to that cell.
        pending = [iter(state["retired"]) for state in states]
        retired: List[RetiredSnapshot] = []
        for stream_id, cell in self._retired_order:
            snapshot = next(pending[cell], None)
            if snapshot is None or snapshot.stream.stream_id != stream_id:
                raise ExecutionError(
                    f"merge mismatch: no retired snapshot for {stream_id!r} "
                    f"from cell {cell}"
                )
            retired.append(snapshot)
        if any(next(rest, None) is not None for rest in pending):
            raise ExecutionError("merge mismatch: unconsumed retired snapshots")
        # From the registry, not ``deployment.queries``: it keeps
        # registration order across repairs and still holds
        # subscriptions that ended the run torn down (their pre-fault
        # deliveries were real work and must be counted).
        deliveries = [
            DeliveryCounters(record, *states[self._query_cell[name]]["deliveries"][name])
            for name, record in self._records.items()
        ]
        return replay_metrics(
            self.net,
            self.duration,
            topological_streams(self.deployment),
            counters,
            retired,
            deliveries,
            faults_applied=self._faults_applied,
            items_lost=sum(state["items_lost"] for state in states),
            items_lost_by_query=lost_by_query,
            recovery_time_s=self._recovery_time_s,
            queries_repaired=self._queries_repaired,
            queries_lost=sum(
                1 for name in self._records if name not in self.deployment.queries
            ),
            migrations_applied=self._migrations_applied,
        )

    # ------------------------------------------------------------------
    # Observability (DESIGN.md §10, §12)
    # ------------------------------------------------------------------
    def _observe(
        self,
        t_end: float,
        states: Sequence[Dict[str, Any]],
        metrics: Optional[RunMetrics] = None,
    ) -> Optional["EpochSnapshot"]:
        """Snapshot the delta since the previous observed boundary.

        ``metrics`` is the merged replay at ``t_end`` (computed here
        when not supplied).  Returns the whole-deployment snapshot —
        what the rebalancer's drift detector reads and a traced run
        records, over one cell or many — or ``None`` at a coincident
        boundary.
        Over drained cells every counter-derived field is the same on
        any partition; only ``inflight_peak`` is the maximum over cells
        that peak at different instants.  A sampling boundary of a
        multi-cell run is not drained: there ``items_delivered`` may lag
        production by the certified ``epoch_lag``.
        """
        if t_end <= self._epoch_start and self._epoch_index > 0:
            return None  # coincident boundaries: nothing elapsed
        if metrics is None:
            metrics = self._merge(states)
        totals: Dict[str, int] = {}
        for state in states:
            for name, inputs in state["operator_totals"].items():
                totals[name] = totals.get(name, 0) + inputs
        recorder = self.recorder
        if recorder.enabled:
            previous = self._last_operator_totals or {}
            for name, count in totals.items():
                delta = count - previous.get(name, 0)
                if delta:
                    recorder.inc(f"op.{name}.items", delta)
        snapshot = snapshot_delta(
            self._epoch_index,
            self._epoch_start,
            t_end,
            metrics,
            self._last_metrics,
            self.net,
            totals,
            self._last_operator_totals,
            inflight_items=sum(state["inflight"] for state in states),
            inflight_peak=max(state["window_peak"] for state in states),
        )
        if recorder.enabled:
            recorder.add_epoch(snapshot)
        for cell, state in enumerate(states):
            if state["window_peak"] > self.batch_size:
                self._backpressure[cell] += 1
        self._epoch_index += 1
        self._epoch_start = t_end
        self._last_metrics = metrics
        self._last_operator_totals = totals
        self.last_query_slos = self._build_slos(states)
        return snapshot

    def _build_slos(self, states: Sequence[Dict[str, Any]]) -> List["QuerySLO"]:
        """One :class:`~repro.obs.slo.QuerySLO` per registered query,
        from the cells' latest states (DESIGN.md §12).

        ``delivery_latency_s`` converts the certified epoch lag into
        worst-case stream time: a cut-crossing item produced right
        after an exchange barrier waits ``epoch_lag`` full exchange
        epochs before its delivery step sees it.
        """
        from ..obs.slo import QuerySLO

        epoch_width = self.duration / self.exchange_epochs
        slos: List[QuerySLO] = []
        for name in self._records:
            host = self._query_cell[name]
            state = states[host]
            _, inputs, results = state["deliveries"][name]
            lag = self.query_lags.get(name, 0)
            slos.append(
                QuerySLO(
                    query=name,
                    shard=host,
                    epoch_lag=lag,
                    delivery_latency_s=lag * epoch_width,
                    delivered_inputs=inputs,
                    delivered_results=results,
                    items_lost=state["query_lost"].get(name, 0),
                    migrations=self._query_migrations.get(name, 0),
                    backpressure_epochs=self._backpressure[host],
                    queue_peak=state["peak"],
                    parked=name not in self.deployment.queries,
                )
            )
        return slos
