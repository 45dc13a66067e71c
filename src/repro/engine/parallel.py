"""The sharded data plane: run a certified :class:`ShardPlan` on
multiple cores with epoch-synchronized cut-edge exchange.

:class:`ShardedSimulator` partitions the deployed operator DAG by the
certified shard plan (``StreamGlobe.shard_plan()``, PR 6), packs the
finest certified shards into *cells* — one per worker — and runs each
cell's slice of the DAG in its own ``multiprocessing`` worker (forked;
an in-process fallback covers single-cell plans, unpicklable payloads
and single-core hosts).  Streams whose parent or subscriber lives in a
foreign cell get a *proxy* node in the consuming cell, fed exclusively
by serialized item batches exchanged at epoch barriers — the runtime
realization of the plan's cut edges, honoring the certified
``epoch_lag`` (a batch crossing ``k`` cuts is delivered ``k`` exchange
epochs after production).  A worker pickles each per-destination
outbox once into a ``bytes`` *frame* beside a header list
``(stream_id, rows, bytes)``; the parent accounts from the headers and
forwards the frame untouched, so only the consuming cell ever
unpickles it — into column batches, never trees (DESIGN.md §12, §14).

Determinism argument (DESIGN.md §12) in brief: every engine operator
is a per-item push over its own stream's FIFO, multi-input
subscriptions buffer per input until ``finish()``, and all counters
are integers — so totals depend only on per-stream input *sequences*,
never on cross-stream interleaving or batch segmentation.  The merge
then replays the per-cell integer counters through
:func:`repro.engine.accounting.replay_metrics` in the exact sequential
accounting order (retired first, then Kahn order, then registration
order), so the resulting :class:`RunMetrics` is byte-identical to the
sequential executor — including under fault schedules, where faults
apply only at *drained* barriers (no in-flight exchange) and the plan
is re-certified and re-partitioned on every ``Network.version`` bump.
"""

from __future__ import annotations

import dataclasses
import heapq
import math
import multiprocessing
import operator
import os
import pickle
import socket
import struct
import traceback
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from ..network.topology import Network
from ..obs.merge import SegmentShipper, SegmentStore
from ..obs.recorder import NULL_RECORDER, Recorder
from ..obs.timeseries import snapshot_delta
from ..xmlkit import Element
from .accounting import DeliveryCounters, RetiredSnapshot, StreamCounters, replay_metrics
from .columnar import Batch as EngineBatch
from .columnar import ColumnBatch, batch_bytes, columnar_mode
from .executor import (
    ExecutionError,
    ItemGenerator,
    StreamSimulator,
    _Gate,
    _MultiDelivery,
    _StreamNode,
    topological_streams,
)
from .fanout import _Gauge, group_pipelines
from .metrics import RunMetrics

if TYPE_CHECKING:  # avoid runtime cycles with repro.sharing / repro.analysis
    from ..analysis.shards import RuntimePartition, ShardPlan
    from ..faults.schedule import FaultSchedule
    from ..obs.slo import QuerySLO
    from ..sharing.plan import Deployment, InstalledStream, RegisteredQuery

__all__ = ["ShardedSimulator"]

#: One exchanged unit: ``(stream_id, items)`` in producer emission
#: order; the payload is a plain item list (irregular batches) or a
#: :class:`~repro.engine.columnar.ColumnBatch`, which pickles as its
#: surviving text columns and arrives as a column batch.
Batch = Tuple[str, EngineBatch]

#: Per destination cell: a header ``(stream_id, rows, bytes)`` per batch,
#: and the batches — a list (inline cells) or that list pickled once
#: into a ``bytes`` frame (workers) only the consuming cell unpickles.
Outbox = Dict[int, Tuple[List[Tuple[str, int, int]], Any]]

#: Seconds a worker may stay silent at a barrier before the parent
#: declares it hung, and seconds a stopped worker gets to exit before
#: it is killed (every result was received by then, so a kill is safe).
BARRIER_DEADLINE_S = 600.0
_JOIN_S = 1.0


def _strip_parent(stream: "InstalledStream") -> "InstalledStream":
    """A proxy copy of ``stream``: same id/route/content, no parent.

    Proxy nodes are local DAG roots fed only by the exchange — keeping
    the parent link would double-feed them wherever the parent happens
    to be co-resident.
    """
    return dataclasses.replace(stream, parent_id=None)


class _SliceDeployment:
    """The duck-typed deployment slice a cell runtime executes.

    Only the two attributes the inherited plan builder reads."""

    __slots__ = ("streams", "queries")

    def __init__(
        self,
        streams: Dict[str, "InstalledStream"],
        queries: Dict[str, "RegisteredQuery"],
    ) -> None:
        self.streams = streams
        self.queries = queries


# ----------------------------------------------------------------------
# Cell runtime: one worker's slice of the DAG
# ----------------------------------------------------------------------
class _CellRuntime(StreamSimulator):
    """One cell's pump loop: the sequential executor minus accounting.

    Reuses the parent class's plan builder, pump, reconcile helpers and
    source draining verbatim; overrides construction (no net, no
    recorder, no schedule — the parent process owns all of those) and
    :meth:`_pump` (to copy exported batches into the per-consumer
    outbox).  All accounting state stays as plain integer counters,
    shipped to the parent as :meth:`state` snapshots and replayed there.
    """

    # pylint: disable=super-init-not-called
    def __init__(
        self,
        cell: int,
        streams: Sequence["InstalledStream"],
        proxies: Set[str],
        exports: Dict[str, Tuple[int, ...]],
        queries: Dict[str, "RegisteredQuery"],
        generators: Dict[str, ItemGenerator],
        duration: float,
        max_items_per_source: Optional[int],
        batch_size: int,
        capture_results: bool,
        recorder: Any = NULL_RECORDER,
    ) -> None:
        self.cell = cell
        self.net = None  # type: ignore[assignment]  # accounting is parent-side
        self.deployment = _SliceDeployment(  # type: ignore[assignment]
            {stream.stream_id: stream for stream in streams}, dict(queries)
        )
        self.generators = generators
        self.duration = duration
        self.max_items = max_items_per_source
        self.batch_size = batch_size
        self.schedule = None
        self.repair = None
        #: Traced runs hand each cell a live recorder pinned to the
        #: parent's timeline; its state ships back as trace segments
        #: (:mod:`repro.obs.merge`).  Untraced cells keep the no-op
        #: singleton and record nothing.
        self.recorder = recorder
        self.epoch_samples = 0
        self.peak_live_items = 0
        #: Operator batches time into per-operator latency histograms
        #: (histogram only — item counts are billed parent-side from
        #: the partition-invariant operator totals, DESIGN.md §15).
        self._op_timer = self._make_op_timer() if recorder.enabled else None
        self._shipper = (
            SegmentShipper(recorder, cell) if recorder.enabled else None
        )
        # Workers re-resolve REPRO_COLUMNAR from their (inherited)
        # environment, so every cell agrees with the parent's mode.
        self._columnar_mode = columnar_mode()

        self._proxies = set(proxies)
        self._exports: Dict[str, Tuple[int, ...]] = dict(exports)
        self._outbox: Dict[int, List[Batch]] = {}
        self._captured: Dict[str, List[Element]] = {}
        self.capture = self._capture_hook if capture_results else None

        self._feeds: Dict[str, List[Tuple[str, Callable]]] = {}
        nodes, singles, multis = self._build_plan(list(streams))
        gauge = _Gauge()
        for delivery in multis.values():
            delivery.gauge = gauge
        self._gauge = gauge
        self._deliveries: Dict[str, object] = {
            record.name: singles.get(record.name) or multis[record.name]
            for record in queries.values()
        }
        self._retired: List[RetiredSnapshot] = []
        self._gates: List[_Gate] = []
        self._cell_gates: Dict[int, _Gate] = {}
        self._sources = [
            stream.stream_id
            for stream in streams
            if stream.is_original and stream.stream_id not in self._proxies
        ]
        self._produced = {stream_id: 0 for stream_id in self._sources}
        self._faults_applied = 0
        self._source_items_lost = 0
        self._recovery_time_s = 0.0
        self._queries_repaired = 0
        #: Recovery-gate drops by hosted query (the inherited
        #: :meth:`StreamSimulator._gated` wrapper fills it in).
        self._query_lost: Dict[str, int] = {}

    def _capture_hook(self, name: str, item: Element) -> None:
        self._captured.setdefault(name, []).append(item)

    # ------------------------------------------------------------------
    # Pump override: copy cut-edge traffic into the outbox
    # ------------------------------------------------------------------
    def _pump(self, node: _StreamNode, batch: EngineBatch, gauge: _Gauge) -> None:
        consumers = self._exports.get(node.stream.stream_id)
        if consumers and len(batch):  # an empty batch is a no-op downstream
            parked = batch.detached() if isinstance(batch, ColumnBatch) else batch
            for consumer in consumers:
                self._outbox.setdefault(consumer, []).append(
                    (node.stream.stream_id, parked)
                )
        super()._pump(node, batch, gauge)

    # ------------------------------------------------------------------
    # Worker protocol
    # ------------------------------------------------------------------
    def step(
        self, until: float, inbound: Sequence[Batch], want_state: bool
    ) -> Tuple[Outbox, Optional[Dict[str, Any]]]:
        """Deliver ``inbound`` proxy batches, pump own sources to
        ``until``, and hand back the outbox accumulated while doing so,
        each destination's batches beside their headers.

        ``until`` at or before the sources' clocks makes this an
        exchange-only round — the drain-to-quiescence primitive."""
        recorder = self.recorder
        if not recorder.enabled:
            return self._step(until, inbound, want_state)
        with recorder.span(
            "cell.step", until=until, inbound_batches=len(inbound)
        ):
            return self._step(until, inbound, want_state)

    def _step(
        self, until: float, inbound: Sequence[Batch], want_state: bool
    ) -> Tuple[Outbox, Optional[Dict[str, Any]]]:
        gauge = self._gauge
        nodes = self._nodes
        for stream_id, batch in inbound:
            node = nodes.get(stream_id)
            if node is not None:
                self._pump(node, batch, gauge)
        self._pump_all_until(until, gauge)
        outbox: Outbox = {
            dst: (
                [(sid, len(batch), batch_bytes(batch)) for sid, batch in batches],
                batches,
            )
            for dst, batches in self._outbox.items()
        }
        self._outbox = {}
        return outbox, (self.state() if want_state else None)

    def handle(self, msg: Tuple[Any, ...]) -> Any:
        """Execute one protocol message; both backends dispatch here."""
        op = msg[0]
        if op == "step":
            return self.step(msg[1], msg[2], msg[3])
        if op == "state":
            return self.state()
        if op == "counters":
            return self.counters()
        if op == "finish":
            return self.finish_cell()
        if op == "open_gate":
            self.open_gate(msg[1])
        elif op == "reconcile":
            self.apply_reconcile(msg[1])
        else:
            raise ExecutionError(f"unknown worker op {op!r}")
        return None

    def open_gate(self, gate_id: int) -> None:
        self._cell_gates[gate_id].open = True

    def counters(self) -> Dict[str, int]:
        """Items produced per *owned* stream (proxies mirror a foreign
        count and are excluded)."""
        return {
            stream_id: node.produced_count
            for stream_id, node in self._nodes.items()
            if stream_id not in self._proxies
        }

    def state(self) -> Dict[str, Any]:
        """This cell's accumulated accounting counters, as plain data."""
        counters = {
            stream_id: (
                node.produced_count,
                node.produced_bytes,
                node.duplicate_base,
                self._stage_counts(node),
                node.repair_added,
            )
            for stream_id, node in self._nodes.items()
            if stream_id not in self._proxies
        }
        deliveries: Dict[str, Tuple[bool, int, int]] = {}
        for name, delivery in self._deliveries.items():
            if isinstance(delivery, _MultiDelivery):
                deliveries[name] = (True, delivery.total_inputs, delivery.results)
            else:
                deliveries[name] = (
                    False,
                    delivery.inputs,  # type: ignore[attr-defined]
                    delivery.results,  # type: ignore[attr-defined]
                )
        state = {
            "counters": counters,
            "retired": list(self._retired),
            "deliveries": deliveries,
            "gate_lost": {
                gate_id: gate.lost for gate_id, gate in self._cell_gates.items()
            },
            "query_lost": dict(self._query_lost),
            "source_lost": self._source_items_lost,
            "operator_totals": self._operator_totals(),
            "inflight": self._gauge.current,
            "window_peak": self._gauge.take_window_peak(),
            "peak": self._gauge.peak,
        }
        if self._shipper is not None:
            # The trace cut happens last, so everything the barrier's
            # own work recorded ships with this very state message.
            state["trace"] = self._shipper.take()
        return state

    def finish_cell(self) -> Dict[str, Any]:
        recorder = self.recorder
        if recorder.enabled:
            with recorder.span("cell.finish"):
                self._finish_deliveries()
        else:
            self._finish_deliveries()
        self.peak_live_items = self._gauge.peak
        state = self.state()
        state["captured"] = self._captured
        return state

    def _finish_deliveries(self) -> None:
        for delivery in self._deliveries.values():
            if isinstance(delivery, _MultiDelivery):
                delivery.finish()

    # ------------------------------------------------------------------
    # Reconcile: apply the parent's plan diff to this cell
    # ------------------------------------------------------------------
    def apply_reconcile(self, msg: Dict[str, Any]) -> None:
        """Mirror :meth:`StreamSimulator._reconcile` on this cell's
        slice, from the parent's pre-computed diff.

        Stale nodes retire in this cell's node order (owned ones are
        snapshotted *before* any detach, so a retired child still reads
        its proxy parent's post-drain count for ``duplicate_count``);
        adds arrive parent-before-child with proxies carrying the
        producing cell's post-drain ``base_count``, reproducing the
        sequential ``duplicate_base`` pin exactly.
        """
        recorder = self.recorder
        if recorder.enabled:
            with recorder.span(
                "cell.reconcile",
                stale=len(msg["stale"]),
                add=len(msg["add"]),
                rewire=len(msg["rewire"]),
            ):
                self._apply_reconcile(msg)
        else:
            self._apply_reconcile(msg)

    def _apply_reconcile(self, msg: Dict[str, Any]) -> None:
        nodes = self._nodes
        stale_set = set(msg["stale"])
        stale = [stream_id for stream_id in nodes if stream_id in stale_set]
        for stream_id in stale:
            if stream_id not in self._proxies:
                self._retired.append(self._snapshot(nodes[stream_id]))
        for stream_id in stale:
            self._detach(nodes[stream_id])
        for stream_id in stale:
            del nodes[stream_id]
            self._proxies.discard(stream_id)
            self._exports.pop(stream_id, None)
            self.deployment.streams.pop(stream_id, None)

        pipelined: Dict[str, List["InstalledStream"]] = {}
        for stream, is_proxy, base_count in msg["add"]:
            node = _StreamNode(stream)
            nodes[stream.stream_id] = node
            self.deployment.streams[stream.stream_id] = stream
            if is_proxy:
                node.produced_count = base_count
                self._proxies.add(stream.stream_id)
                continue
            node.repair_added = True
            if stream.parent_id is None:
                continue  # re-installed original (its home rejoined)
            parent_node = nodes[stream.parent_id]
            node.duplicate_base = parent_node.produced_count
            if stream.pipeline:
                pipelined.setdefault(stream.parent_id, []).append(stream)
            else:
                parent_node.relay_children.append(node)
        # Like the sequential reconcile: repair-created pipelines share
        # prefixes among themselves but never join a surviving trie.
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

        self._exports.update(msg["exports"])
        for gate_id, is_open in msg["gates"]:
            gate = _Gate(open_at=0.0)
            gate.open = is_open
            self._gates.append(gate)
            self._cell_gates[gate_id] = gate
        for name in msg["park"]:
            self._remove_feeds(name)
        for name, record, gate_id in msg["rewire"]:
            delivery = self._deliveries.get(name)
            if delivery is None:
                continue  # query hosted in another cell
            self._remove_feeds(name)
            delivery.record = record  # type: ignore[attr-defined]
            self._attach_feeds(name, delivery, gated_by=self._cell_gates[gate_id])


# ----------------------------------------------------------------------
# Worker backends
# ----------------------------------------------------------------------
def _error_payload(exc: BaseException) -> Dict[str, str]:
    """A worker crash as structured data, so the parent can both raise
    a readable :class:`ExecutionError` and record a machine-parseable
    ``cell.error`` trace event (instead of a string-only traceback)."""
    return {
        "exc_type": type(exc).__name__,
        "message": str(exc),
        "traceback": traceback.format_exc(),
    }


def _worker_main(conn: Any, runtime: _CellRuntime) -> None:
    """The forked worker loop: execute protocol messages until stopped.

    Inbound frames are unpickled here (and nowhere else); each
    destination's outbox is pickled once into the frame the parent
    forwards as it is."""
    try:
        while True:
            try:
                msg = conn.recv()
            except EOFError:
                break
            except BaseException as exc:  # noqa: BLE001 - bad payload
                # A complete message arrived but failed to unpickle;
                # answer it with the error so the parent can report the
                # cause instead of a bare "worker died".
                conn.send(("error", _error_payload(exc)))
                continue
            if msg[0] == "stop":
                break
            try:
                if msg[0] == "step":
                    inbound = [
                        batch for frame in msg[2] for batch in pickle.loads(frame)
                    ]
                    outbox, state = runtime.step(msg[1], inbound, msg[3])
                    payload: Any = (
                        {
                            dst: (headers, pickle.dumps(batches, pickle.HIGHEST_PROTOCOL))
                            for dst, (headers, batches) in outbox.items()
                        },
                        state,
                    )
                else:
                    payload = runtime.handle(msg)
                conn.send(("ok", payload))
            except BaseException as exc:  # noqa: BLE001 - ship to parent
                conn.send(("error", _error_payload(exc)))
    except (EOFError, OSError):
        pass  # the parent went away: nobody left to report to
    finally:
        conn.close()


class _InlineCell:
    """In-process backend: executes each message synchronously."""

    __slots__ = ("runtime", "_result")

    def __init__(self, runtime: _CellRuntime) -> None:
        self.runtime = runtime
        self._result: Any = None

    def submit(self, msg: Tuple[Any, ...]) -> None:
        if msg[0] == "step":
            inbound = [batch for batches in msg[2] for batch in batches]
            msg = ("step", msg[1], inbound, msg[3])
        self._result = self.runtime.handle(msg)

    def result(self) -> Any:
        result, self._result = self._result, None
        return result

    def close(self) -> None:
        return None


class _ProcessCell:
    """Forked-process backend: one worker per cell, message-pipe driven.

    Under the fork start method the runtime (generators, compiled
    pipelines, UDF closures) is inherited by memory copy — only the
    protocol messages (exchange frames, counter states, reconcile
    diffs) are ever pickled.

    The parent never waits on a worker without bound: its end of the
    pipe (a Unix socket) carries a kernel receive timeout, so the
    blocking ``recv`` of :meth:`result` itself gives up after
    :data:`BARRIER_DEADLINE_S` without a byte from the worker.
    """

    __slots__ = ("_conn", "_proc", "_shard", "_recorder")

    def __init__(
        self,
        ctx: Any,
        runtime: _CellRuntime,
        shard: int = 0,
        recorder: Any = NULL_RECORDER,
    ) -> None:
        self._shard = shard
        self._recorder = recorder
        self._conn, child = ctx.Pipe()
        timeval = struct.pack(
            "ll", int(BARRIER_DEADLINE_S), int(BARRIER_DEADLINE_S % 1 * 1e6)
        )
        with socket.socket(fileno=os.dup(self._conn.fileno())) as sock:
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVTIMEO, timeval)
        self._proc = ctx.Process(
            target=_worker_main, args=(child, runtime), daemon=True
        )
        self._proc.start()
        child.close()

    def submit(self, msg: Tuple[Any, ...]) -> None:
        self._conn.send(msg)

    def result(self) -> Any:
        try:
            status, payload = self._conn.recv()
        except (EOFError, OSError) as exc:
            hung = isinstance(exc, BlockingIOError)  # the receive timeout
            self._proc.kill()
            message = (
                f"parallel worker hung (cell {self._shard} sent nothing for "
                f"{BARRIER_DEADLINE_S:g} s)"
                if hung
                else f"parallel worker died (cell {self._shard})"
            )
            if self._recorder.enabled:
                self._recorder.event(
                    "cell.error",
                    shard=self._shard,
                    exc_type="WorkerHung" if hung else "WorkerDied",
                    message=message,
                    traceback="",
                )
            raise ExecutionError(message) from exc
        if status == "error":
            if self._recorder.enabled:
                self._recorder.event("cell.error", shard=self._shard, **payload)
            raise ExecutionError(
                "parallel worker failed: {exc_type}: {message}\n"
                "{traceback}".format(**payload)
            )
        return payload

    def close(self) -> None:
        """Stop the worker, or kill it: a healthy worker idles in
        ``recv`` and exits at once, one that does not (hung, or blocked
        sending a reply nobody will read after a sibling failed) has
        nothing left the parent needs."""
        try:
            self._conn.send(("stop",))
        except (OSError, ValueError):
            pass
        self._proc.join(timeout=_JOIN_S)
        if self._proc.is_alive():
            self._proc.kill()
            self._proc.join()
        self._conn.close()


# ----------------------------------------------------------------------
# The sharded executor
# ----------------------------------------------------------------------
class ShardedSimulator:
    """Execute a deployment across shard-plan cells, merging to the
    sequential executor's exact :class:`RunMetrics`.

    Parameters mirror :class:`StreamSimulator` plus:

    plan:
        The certified :class:`~repro.analysis.ShardPlan` to partition
        by.  Uncertified plans (or ≤1 resulting cell) delegate to the
        sequential executor.
    workers:
        Worker-cell budget; the certified shards are packed into at
        most this many cells (:func:`partition_for_workers`).
    replan:
        Zero-argument callback returning a fresh certified plan after
        a topology change — ``lambda: system.shard_plan()``.  Defaults
        to re-running :func:`~repro.analysis.certify_shards` on the
        (repaired) deployment.
    mode:
        ``"process"`` (forked workers), ``"inline"`` (in-process cell
        loop — same partitioning, exchange and merge, no concurrency),
        or ``"auto"``: process when fork is available, the payload
        pickles and the host has >1 core, else inline.
    exchange_epochs:
        Number of evenly spaced exchange barriers; cut-edge batches
        produced in one exchange epoch are delivered at its end (the
        certified ``epoch_lag`` contract).  Fault and recovery
        boundaries always add their own (drained) barriers.
    rebalancer:
        Optional :class:`~repro.sharing.rebalance.Rebalancer`.  When
        set, every sampling boundary becomes a *drained* barrier, the
        per-cell counters are merged and replayed into one global
        epoch snapshot (identical to the sequential executor's — the
        drained counters replay byte-for-byte), and the snapshot is
        offered to the rebalancer after the boundary's faults.  A
        migration reconciles every cell through the same diff churn
        repair uses, with an *open* delivery gate — make-before-break
        at a quiescent barrier — and re-certifies the shard plan.

    After :meth:`run`:

    * ``peak_live_items_per_shard`` — per-cell in-flight peaks (their
      max, not their sum, is ``peak_live_items``: cells peak at
      different epochs, so the sum overstates peak memory);
    * ``exchange_batches/items/bytes`` and ``exchange_pairs`` — the
      cut-edge traffic volume;
    * ``mode_used``, ``workers_used``, ``partition_conflicts``.
    """

    def __init__(
        self,
        net: Network,
        deployment: "Deployment",
        generators: Dict[str, ItemGenerator],
        duration: float,
        plan: "ShardPlan",
        workers: int,
        max_items_per_source: Optional[int] = None,
        batch_size: int = 64,
        schedule: Optional["FaultSchedule"] = None,
        repair: Optional[Callable[..., object]] = None,
        replan: Optional[Callable[[], "ShardPlan"]] = None,
        capture: Optional[Callable[[str, Element], None]] = None,
        recorder: Optional[object] = None,
        epoch_samples: int = 8,
        exchange_epochs: int = 8,
        mode: str = "auto",
        rebalancer: Optional[object] = None,
    ) -> None:
        if duration <= 0:
            raise ExecutionError("duration must be positive")
        if workers < 1:
            raise ExecutionError("workers must be >= 1")
        if mode not in ("auto", "inline", "process"):
            raise ExecutionError(f"unknown parallel mode {mode!r}")
        self.net = net
        self.deployment = deployment
        self.generators = generators
        self.duration = duration
        self.plan = plan
        self.workers = workers
        self.max_items = max_items_per_source
        self.batch_size = batch_size
        self.schedule = schedule
        self.repair = repair
        self.replan = replan
        self.capture = capture
        self.recorder = recorder if recorder is not None else NULL_RECORDER
        self.epoch_samples = epoch_samples
        self.exchange_epochs = max(1, exchange_epochs)
        self.mode = mode
        self.rebalancer = rebalancer

        self.mode_used = "sequential"
        self.workers_used = 1
        self.partition_conflicts = 0
        self.peak_live_items = 0
        self.peak_live_items_per_shard: Dict[int, int] = {0: 0}
        self.exchange_batches = 0
        self.exchange_items = 0
        self.exchange_bytes = 0
        self.exchange_pairs: Dict[Tuple[int, int], int] = {}
        self.query_lags: Dict[str, int] = {}
        #: Latest per-query SLO records (refreshed at every observed
        #: barrier; the live ``/slo.json`` endpoint reads this without
        #: a worker round-trip).
        self.last_query_slos: List["QuerySLO"] = []
        self._query_migrations: Dict[str, int] = {}

    # ------------------------------------------------------------------
    def run(self) -> RunMetrics:
        partition = self._partition()
        if partition is None or partition.cell_count <= 1:
            return self._run_sequential()
        self.query_lags = partition.query_lags(self.deployment)
        self._build(partition)
        backend = self._resolve_mode()
        self.mode_used = backend
        self.workers_used = partition.cell_count
        if backend == "process":
            ctx = multiprocessing.get_context("fork")
            self._cells: List[Any] = [
                _ProcessCell(ctx, runtime, shard=index, recorder=self.recorder)
                for index, runtime in enumerate(self._runtimes)
            ]
        else:
            self._cells = [_InlineCell(runtime) for runtime in self._runtimes]
        try:
            return self._run_cells()
        finally:
            for cell in self._cells:
                cell.close()

    # ------------------------------------------------------------------
    # Fallbacks and mode resolution
    # ------------------------------------------------------------------
    def _partition(self) -> Optional["RuntimePartition"]:
        if not self.plan.certified or self.workers <= 1:
            return None
        from ..analysis.shards import partition_for_workers

        return partition_for_workers(self.plan, self.deployment, self.workers)

    def _run_sequential(self) -> RunMetrics:
        simulator = StreamSimulator(
            self.net,
            self.deployment,
            self.generators,
            self.duration,
            max_items_per_source=self.max_items,
            batch_size=self.batch_size,
            schedule=self.schedule,
            repair=self.repair,
            capture=self.capture,
            recorder=self.recorder,
            epoch_samples=self.epoch_samples,
            rebalancer=self.rebalancer,
        )
        metrics = simulator.run()
        self.mode_used = "sequential"
        self.workers_used = 1
        self.peak_live_items = simulator.peak_live_items
        self.peak_live_items_per_shard = {0: simulator.peak_live_items}
        self.last_query_slos = simulator.last_query_slos
        return metrics

    def _resolve_mode(self) -> str:
        if self.mode == "inline":
            return "inline"
        fork_ok = "fork" in multiprocessing.get_all_start_methods()
        if self.mode == "process":
            if not fork_ok:
                raise ExecutionError(
                    "process mode requires the fork start method"
                )
            if not self._payload_pickles():
                raise ExecutionError(
                    "process mode requires picklable streams/queries/items"
                )
            return "process"
        # auto
        if not fork_ok or (os.cpu_count() or 1) <= 1:
            return "inline"
        return "process" if self._payload_pickles() else "inline"

    def _payload_pickles(self) -> bool:
        """Probe the IPC payload types: reconcile diffs and retired
        snapshots carry stream and query records.  The records are
        frozen, so the verdict is memoised on the deployment for as
        long as it holds these very records."""
        deployment = self.deployment
        records = (*deployment.streams.values(), *deployment.queries.values())
        memo = deployment.pickle_probe
        if (
            memo is not None
            and len(memo[0]) == len(records)
            and all(map(operator.is_, memo[0], records))
        ):
            return memo[1]
        try:
            pickle.dumps(records)
            verdict = True
        except Exception:  # noqa: BLE001 - any failure means fall back
            verdict = False
        deployment.pickle_probe = (records, verdict)
        return verdict

    # ------------------------------------------------------------------
    # Build: slice the deployment into cells
    # ------------------------------------------------------------------
    def _build(self, partition: "RuntimePartition") -> None:
        order = topological_streams(self.deployment)
        ncells = partition.cell_count
        node_cell = partition.as_mapping()
        #: Live node → cell map, extended as repairs add nodes.
        self._node_cell = dict(node_cell)
        #: Sticky history so re-installed nodes return to their cell.
        self._cell_history = dict(node_cell)
        self._ncells = ncells
        #: Sequential-executor mirror: same insertion order as its
        #: nodes dict, so the retire order matches exactly.
        self._mirror: Dict[str, "InstalledStream"] = {
            stream.stream_id: stream for stream in order
        }
        self._owner: Dict[str, int] = {
            stream.stream_id: self._node_cell.get(stream.origin_node, 0)
            for stream in order
        }
        #: Retirement sequence as ``(stream_id, owner_cell)`` — the
        #: global accounting order the merge re-establishes.
        self._retired_order: List[Tuple[str, int]] = []
        self._records: Dict[str, "RegisteredQuery"] = dict(
            self.deployment.queries
        )
        self._query_cell = {
            name: self._node_cell.get(record.subscriber_node, 0)
            for name, record in self._records.items()
        }

        cell_streams: List[List["InstalledStream"]] = [[] for _ in range(ncells)]
        cell_proxies: List[Set[str]] = [set() for _ in range(ncells)]
        self._cell_has: List[Set[str]] = [set() for _ in range(ncells)]
        #: sid → consumer cells needing its items via the exchange.
        self._consumers: Dict[str, Set[int]] = {}

        def ensure_proxy(cell: int, stream_id: str) -> None:
            if stream_id in self._cell_has[cell]:
                return
            stream = self._mirror[stream_id]
            cell_streams[cell].append(_strip_parent(stream))
            cell_proxies[cell].add(stream_id)
            self._cell_has[cell].add(stream_id)
            self._consumers.setdefault(stream_id, set()).add(cell)

        for stream in order:
            owner = self._owner[stream.stream_id]
            if stream.parent_id is not None and (
                self._owner[stream.parent_id] != owner
            ):
                ensure_proxy(owner, stream.parent_id)
            cell_streams[owner].append(stream)
            self._cell_has[owner].add(stream.stream_id)
        cell_queries: List[Dict[str, "RegisteredQuery"]] = [
            {} for _ in range(ncells)
        ]
        for name, record in self._records.items():
            host = self._query_cell[name]
            for _, delivered_id in record.delivered:
                if delivered_id in self._mirror and (
                    delivered_id not in self._cell_has[host]
                ):
                    ensure_proxy(host, delivered_id)
            cell_queries[host][name] = record

        cell_exports: List[Dict[str, Tuple[int, ...]]] = [
            {} for _ in range(ncells)
        ]
        for stream_id, consumers in self._consumers.items():
            cell_exports[self._owner[stream_id]][stream_id] = tuple(
                sorted(consumers)
            )

        self._runtimes = [
            _CellRuntime(
                cell=index,
                streams=cell_streams[index],
                proxies=cell_proxies[index],
                exports=cell_exports[index],
                queries=cell_queries[index],
                generators=self.generators,
                duration=self.duration,
                max_items_per_source=self.max_items,
                batch_size=self.batch_size,
                capture_results=self.capture is not None,
                # Cell recorders are built pre-fork, pinned to the
                # parent's timeline so shipped span times merge onto
                # one axis without adjustment.
                recorder=(
                    Recorder(origin=self.recorder)
                    if self.recorder.enabled
                    else NULL_RECORDER
                ),
            )
            for index in range(ncells)
        ]

    # ------------------------------------------------------------------
    # Barrier loop
    # ------------------------------------------------------------------
    def _run_cells(self) -> RunMetrics:
        duration = self.duration
        recorder = self.recorder
        rebalancer = self.rebalancer
        events = (
            [e for e in self.schedule.events() if e.time < duration]
            if self.schedule
            else []
        )
        observing = recorder.enabled or rebalancer is not None
        samples: List[float] = []
        if observing and self.epoch_samples > 0:
            step = duration / self.epoch_samples
            samples = [step * k for k in range(1, self.epoch_samples)]
        exchange_step = duration / self.exchange_epochs
        exchanges = [exchange_step * k for k in range(1, self.exchange_epochs)]

        self._faults_applied = 0
        self._recovery_time_s = 0.0
        self._queries_repaired = 0
        self._migrations_applied = 0
        self._query_migrations = {}
        #: Epochs (per cell) whose in-flight window peak exceeded the
        #: batch size — the SLO backpressure-exposure signal.
        self._cell_backpressure = [0] * self._ncells
        #: Cumulative operator totals already billed to ``op.*.items``.
        self._billed_totals: Optional[Dict[str, int]] = None
        self._flow_seq = 0
        self._trace_store = (
            SegmentStore(self._ncells) if recorder.enabled else None
        )
        #: Migration gates open at creation (the barrier is quiescent,
        #: make-before-break), so no observed epoch ever counts one
        #: closed — the counter mirrors the sequential executor's.
        self._migration_downtime_epochs = 0
        self._next_gate_id = 0
        #: Global traced-epoch trackers feeding the rebalancer the same
        #: snapshot sequence the sequential executor emits.
        self._epoch_index = 0
        self._epoch_start = 0.0
        self._last_metrics: Optional[RunMetrics] = None
        self._last_totals: Optional[Dict[str, int]] = None
        #: Per-cell traced-epoch trackers.
        self._cell_epoch_index = [0] * self._ncells
        self._cell_epoch_start = [0.0] * self._ncells
        self._cell_last_metrics: List[Optional[RunMetrics]] = [
            None
        ] * self._ncells
        self._cell_last_totals: List[Optional[Dict[str, int]]] = [
            None
        ] * self._ncells

        pending: Dict[int, List[Any]] = {}
        opens: List[Tuple[float, int, int]] = []  # (open_at, seq, gate_id)
        sequence = 0
        event_index = 0
        sample_index = 0
        exchange_index = 0
        while True:
            next_fault = (
                events[event_index].time if event_index < len(events) else math.inf
            )
            next_open = opens[0][0] if opens else math.inf
            next_sample = (
                samples[sample_index] if sample_index < len(samples) else math.inf
            )
            next_exchange = (
                exchanges[exchange_index]
                if exchange_index < len(exchanges)
                else math.inf
            )
            boundary = min(
                next_fault, next_open, next_sample, next_exchange, duration
            )
            sampled = boundary == next_sample
            drain = (
                boundary >= duration
                or boundary == next_fault
                or boundary == next_open
                # The rebalancer needs quiescence at every observed
                # boundary: drained counters replay to the sequential
                # executor's exact metrics, so the drift detector sees
                # byte-identical snapshots on either data plane.
                or (sampled and rebalancer is not None)
            )
            pending = self._step_all(boundary, pending)
            if drain:
                while pending:
                    pending = self._step_all(boundary, pending)
            if boundary >= duration:
                break
            observed = (
                sampled or boundary == next_fault or boundary == next_open
            )
            while sample_index < len(samples) and samples[sample_index] <= boundary:
                sample_index += 1
            while (
                exchange_index < len(exchanges)
                and exchanges[exchange_index] <= boundary
            ):
                exchange_index += 1
            snapshot = None
            if observing and (drain or sampled):
                states = self._gather(("state",))
                if recorder.enabled:
                    self._absorb_traces(states)
                    self._bill_operator_items(states)
                    self._emit_cell_epochs(boundary, states)
                self.last_query_slos = self._build_slos(states)
                # Pure exchange boundaries have no sequential analogue,
                # so the global epoch series skips them — the detector
                # must see the exact sequence the sequential run emits.
                if rebalancer is not None and observed:
                    snapshot = self._emit_global_epoch(boundary, states)
            # Recovery completions first, then faults — mirroring the
            # sequential boundary order exactly.
            while opens and opens[0][0] <= boundary:
                gate_id = heapq.heappop(opens)[2]
                self._broadcast(("open_gate", gate_id))
            while event_index < len(events) and events[event_index].time <= boundary:
                event = events[event_index]
                event_index += 1
                gate = self._apply_fault(event)
                if gate is not None and gate[1] < duration:
                    heapq.heappush(opens, (gate[1], sequence, gate[0]))
                    sequence += 1
            # The rebalancer observes after the boundary's faults, as in
            # the sequential executor: a migration adapts the
            # post-repair plan instead of one a fault just tore up.
            if rebalancer is not None and snapshot is not None:
                self._apply_migration(snapshot)

        states = self._gather(("finish",))
        metrics = self._merge(states)
        self._replay_capture(states)
        self.peak_live_items_per_shard = {
            cell: state["peak"] for cell, state in enumerate(states)
        }
        self.peak_live_items = max(
            self.peak_live_items_per_shard.values(), default=0
        )
        self.last_query_slos = self._build_slos(states)
        if recorder.enabled:
            self._absorb_traces(states)
            self._bill_operator_items(states)
            self._emit_final_epochs(states)
            # One deterministic fold of every cell's shipped trace —
            # after this, the parent RunLog carries the whole plane.
            self._trace_store.merge_into(recorder)
            for slo in self.last_query_slos:
                recorder.event("query.slo", **slo.to_dict())
            for peer, work in sorted(metrics.peer_work.items()):
                recorder.set_gauge(f"peer.work.{peer}", work)
            for (a, b), bits in sorted(metrics.link_bits.items()):
                recorder.set_gauge(f"link.bits.{a}-{b}", bits)
        return metrics

    def _broadcast(self, msg: Tuple[Any, ...]) -> None:
        for cell in self._cells:
            cell.submit(msg)
        for cell in self._cells:
            cell.result()

    def _gather(self, msg: Tuple[Any, ...]) -> List[Any]:
        for cell in self._cells:
            cell.submit(msg)
        return [cell.result() for cell in self._cells]

    def _step_all(
        self, until: float, pending: Dict[int, List[Any]]
    ) -> Dict[int, List[Any]]:
        """One synchronized round: every cell pumps to ``until`` with
        its pending inbound, and the outboxes are redistributed in
        canonical order (ascending producer cell, emission order) —
        becoming the next round's inbound.  The parent is a
        pass-through: it counts from the headers and forwards each
        cell's batches (a worker's frame) as it received them."""
        for index, cell in enumerate(self._cells):
            cell.submit(("step", until, pending.get(index, []), False))
        outboxes = [cell.result()[0] for cell in self._cells]
        recorder = self.recorder
        merged: Dict[int, List[Any]] = {}
        for src, outbox in enumerate(outboxes):
            for dst in sorted(outbox):
                headers, batches = outbox[dst]
                merged.setdefault(dst, []).append(batches)
                self.exchange_batches += len(headers)
                pair = (src, dst)
                moved = 0
                for _, rows, size in headers:
                    moved += rows
                    self.exchange_bytes += size
                self.exchange_items += moved
                self.exchange_pairs[pair] = (
                    self.exchange_pairs.get(pair, 0) + moved
                )
                if recorder.enabled:
                    # One flow per (src, dst) redistribution: the
                    # Chrome-trace exporter renders it as an s/f arrow
                    # between the two cells' lanes, visualizing the
                    # cut-edge hand-off (delivery next round — the
                    # certified epoch_lag in action).
                    self._flow_seq += 1
                    recorder.event(
                        "exchange.flow",
                        flow=self._flow_seq,
                        src=src,
                        dst=dst,
                        until=until,
                        batches=len(headers),
                        items=moved,
                    )
        return merged

    # ------------------------------------------------------------------
    # Faults: parent-side apply + cell reconcile
    # ------------------------------------------------------------------
    def _apply_fault(self, event: Any) -> Optional[Tuple[int, float]]:
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
            recovery_s = report.recovery_time_ms() / 1000.0  # type: ignore[attr-defined]
            self._queries_repaired += len(report.repaired_queries)  # type: ignore[attr-defined]
        self._recovery_time_s += min(recovery_s, self.duration - event.time)
        gate_id = self._next_gate_id
        self._next_gate_id += 1
        gate_open = recovery_s <= 0.0
        self._reconcile_cells(gate_id, gate_open)
        return None if gate_open else (gate_id, event.time + recovery_s)

    def _apply_migration(self, snapshot: Any) -> None:
        """Offer one global epoch snapshot to the rebalancer and apply
        its moves across all cells.

        The control plane rewrites the deployment (tear down +
        re-register, verified pre-flight); every cell then reconciles
        against the rewritten plan through the same diff churn repair
        ships, and :meth:`_assign_cells` re-certifies the shard plan
        for the migrated topology.  The delivery gate is *open*: the
        barrier is drained, so the rewrite is make-before-break and
        nothing is lost or duplicated.
        """
        report = self.rebalancer.observe_epoch(snapshot)  # type: ignore[attr-defined]
        if report is None:
            return
        self._migrations_applied += 1
        for name in getattr(report, "moved_queries", None) or ():
            self._query_migrations[name] = (
                self._query_migrations.get(name, 0) + 1
            )
        if self.recorder.enabled:
            self.recorder.inc("exec.migrations_applied")
        gate_id = self._next_gate_id
        self._next_gate_id += 1
        self._reconcile_cells(gate_id, gate_open=True)

    def _fresh_plan(self) -> Optional["ShardPlan"]:
        if self.replan is not None:
            return self.replan()
        from ..analysis.shards import certify_shards

        plan, _ = certify_shards(self.deployment)
        return plan

    def _assign_cells(self) -> None:
        """Re-validate the shard plan against the mutated topology and
        map any newly appearing super-peers to cells.

        Sticky first (a rejoined node returns to its old cell), then
        deterministic least-loaded.  If the fresh certificate would
        *split* nodes currently co-resident in one cell that is only a
        coarsening — always safe; the conflict case (a certified shard
        spanning two cells, i.e. the new plan demands a *merge* across
        our cell boundary, or no certificate at all) is counted in
        ``partition_conflicts`` and the run keeps its partition.  That
        is safe on either backend, which move the same batches through
        the same exchange: every engine operator is per-item
        deterministic over per-stream FIFOs and the exchange hands
        over each stream's batches unsplit and in order.
        """
        plan = self._fresh_plan()
        loads = [0] * self._ncells
        for cell in self._owner.values():
            loads[cell] += 1
        known_nodes = set(self._node_cell)
        shards = plan.shards if plan is not None else ()
        for shard in sorted(shards, key=lambda s: s.shard_id):
            for node in shard.nodes:
                if node in known_nodes:
                    continue
                sticky = self._cell_history.get(node)
                if sticky is None:
                    sticky = min(
                        range(self._ncells), key=lambda index: (loads[index], index)
                    )
                self._node_cell[node] = sticky
                self._cell_history[node] = sticky
                known_nodes.add(node)
                loads[sticky] += 1
        conflict = False
        if plan is None or not plan.certified:
            conflict = True
        else:
            for shard in shards:
                spanned = {
                    self._node_cell[node]
                    for node in shard.nodes
                    if node in self._node_cell
                }
                if len(spanned) > 1:
                    conflict = True
                    break
        if conflict:
            self.partition_conflicts += 1
            if self.recorder.enabled:
                self.recorder.inc("exec.partition_conflicts")

    def _reconcile_cells(self, gate_id: int, gate_open: bool) -> None:
        """Diff the repaired deployment against the mirror and ship the
        per-cell reconcile messages (all cells are drained)."""
        counters: Dict[str, int] = {}
        for counts in self._gather(("counters",)):
            counters.update(counts)
        self._assign_cells()
        deployment = self.deployment
        mirror = self._mirror

        stale = [
            stream_id
            for stream_id, stream in mirror.items()
            if deployment.streams.get(stream_id) is not stream
        ]
        for stream_id in stale:
            self._retired_order.append((stream_id, self._owner.pop(stream_id)))
            del mirror[stream_id]
            self._consumers.pop(stream_id, None)
            for has in self._cell_has:
                has.discard(stream_id)

        adds: List[List[Tuple["InstalledStream", bool, int]]] = [
            [] for _ in range(self._ncells)
        ]
        export_changed: Set[str] = set()
        #: Streams (re)installed this round: their owner nodes restart
        #: at produced_count 0, so proxies must NOT inherit the retired
        #: predecessor's count from the pre-reconcile gather.
        fresh: Set[str] = set()

        def ensure_proxy(cell: int, stream_id: str) -> None:
            if stream_id in self._cell_has[cell]:
                return
            stream = mirror[stream_id]
            base = 0 if stream_id in fresh else counters.get(stream_id, 0)
            adds[cell].append((_strip_parent(stream), True, base))
            self._cell_has[cell].add(stream_id)
            self._consumers.setdefault(stream_id, set()).add(cell)
            export_changed.add(stream_id)

        for stream in topological_streams(deployment):
            stream_id = stream.stream_id
            if stream_id in mirror:
                continue
            owner = self._node_cell.get(stream.origin_node)
            if owner is None:
                owner = self._cell_history.get(stream.origin_node, 0)
                self._node_cell[stream.origin_node] = owner
                self._cell_history[stream.origin_node] = owner
            mirror[stream_id] = stream
            self._owner[stream_id] = owner
            if stream.parent_id is not None and (
                self._owner[stream.parent_id] != owner
            ):
                ensure_proxy(owner, stream.parent_id)
            adds[owner].append((stream, False, 0))
            self._cell_has[owner].add(stream_id)
            fresh.add(stream_id)

        park: List[str] = []
        rewires: List[List[Tuple[str, "RegisteredQuery", int]]] = [
            [] for _ in range(self._ncells)
        ]
        for name, record in self._records.items():
            current = deployment.queries.get(name)
            if current is None:
                park.append(name)
                continue
            if current is record:
                continue
            self._records[name] = current
            host = self._query_cell[name]
            for _, delivered_id in current.delivered:
                if delivered_id in mirror and (
                    delivered_id not in self._cell_has[host]
                ):
                    ensure_proxy(host, delivered_id)
            rewires[host].append((name, current, gate_id))

        for index, cell in enumerate(self._cells):
            exports = {
                stream_id: tuple(sorted(self._consumers[stream_id]))
                for stream_id in export_changed
                if self._owner.get(stream_id) == index
            }
            cell.submit(
                (
                    "reconcile",
                    {
                        "stale": stale,
                        "add": adds[index],
                        "exports": exports,
                        "gates": [(gate_id, gate_open)],
                        "park": park,
                        "rewire": rewires[index],
                    },
                )
            )
        for cell in self._cells:
            cell.result()

    # ------------------------------------------------------------------
    # Merge: replay per-cell counters in the sequential order
    # ------------------------------------------------------------------
    def _merged_counters(
        self, states: Sequence[Dict[str, Any]]
    ) -> Dict[str, StreamCounters]:
        merged: Dict[str, StreamCounters] = {}
        for state in states:
            for stream_id, packed in state["counters"].items():
                produced_count, produced_bytes, duplicate_base, stages, added = packed
                merged[stream_id] = StreamCounters(
                    produced_count=produced_count,
                    produced_bytes=produced_bytes,
                    duplicate_base=duplicate_base,
                    stage_counts=stages,
                    repair_added=added,
                )
        return merged

    def _ordered_retired(
        self, states: Sequence[Dict[str, Any]]
    ) -> List[RetiredSnapshot]:
        pools: Dict[Tuple[int, str], List[RetiredSnapshot]] = {}
        for cell, state in enumerate(states):
            for snapshot in state["retired"]:
                pools.setdefault((cell, snapshot.stream.stream_id), []).append(
                    snapshot
                )
        ordered: List[RetiredSnapshot] = []
        for stream_id, cell in self._retired_order:
            pool = pools.get((cell, stream_id))
            if not pool:
                raise ExecutionError(
                    f"merge mismatch: no retired snapshot for {stream_id!r} "
                    f"from cell {cell}"
                )
            ordered.append(pool.pop(0))
        if any(pool for pool in pools.values()):
            raise ExecutionError("merge mismatch: unconsumed retired snapshots")
        return ordered

    def _merged_deliveries(
        self, states: Sequence[Dict[str, Any]]
    ) -> List[DeliveryCounters]:
        out: List[DeliveryCounters] = []
        for name, record in self._records.items():
            host = self._query_cell[name]
            multi, inputs, results = states[host]["deliveries"][name]
            out.append(DeliveryCounters(record, multi, inputs, results))
        return out

    def _items_lost(self, states: Sequence[Dict[str, Any]]) -> int:
        return sum(state["source_lost"] for state in states) + sum(
            lost
            for state in states
            for lost in state["gate_lost"].values()
        )

    def _query_lost_merged(self, states: Sequence[Dict[str, Any]]) -> Dict[str, int]:
        merged: Dict[str, int] = {}
        for state in states:
            for name, lost in state.get("query_lost", {}).items():
                merged[name] = merged.get(name, 0) + lost
        return merged

    def _merge(self, states: Sequence[Dict[str, Any]]) -> RunMetrics:
        return replay_metrics(
            self.net,
            self.duration,
            topological_streams(self.deployment),
            self._merged_counters(states),
            self._ordered_retired(states),
            self._merged_deliveries(states),
            faults_applied=self._faults_applied,
            items_lost=self._items_lost(states),
            items_lost_by_query=self._query_lost_merged(states),
            recovery_time_s=self._recovery_time_s,
            queries_repaired=self._queries_repaired,
            queries_lost=sum(
                1 for name in self._records if name not in self.deployment.queries
            ),
            migrations_applied=self._migrations_applied,
            migration_downtime_epochs=self._migration_downtime_epochs,
        )

    def _replay_capture(self, states: Sequence[Dict[str, Any]]) -> None:
        """Replay captured results per query in registration order.

        Per-query sequences are identical to the sequential run;
        cross-query interleaving follows registration order instead of
        pump order (DESIGN.md §12)."""
        if self.capture is None:
            return
        for name in self._records:
            captured = states[self._query_cell[name]].get("captured", {})
            for item in captured.get(name, ()):
                self.capture(name, item)

    # ------------------------------------------------------------------
    # Tracing: segment absorption and partition-invariant op billing
    # ------------------------------------------------------------------
    def _absorb_traces(self, states: Sequence[Dict[str, Any]]) -> None:
        for state in states:
            self._trace_store.absorb(state.get("trace"))

    def _bill_operator_items(self, states: Sequence[Dict[str, Any]]) -> None:
        """Bill ``op.<name>.items`` from the summed per-cell operator
        totals, as deltas since the last billing.

        The totals are partition-invariant (each stream's billed stage
        inputs, independent of how sibling pipelines share tries within
        a cell), so the final counters equal a sequential traced run's
        by construction — the trace-merge identity test pins it.
        """
        totals: Dict[str, int] = {}
        for state in states:
            for name, inputs in state["operator_totals"].items():
                totals[name] = totals.get(name, 0) + inputs
        previous = self._billed_totals or {}
        recorder = self.recorder
        for name, count in totals.items():
            delta = count - previous.get(name, 0)
            if delta:
                recorder.inc(f"op.{name}.items", delta)
        self._billed_totals = totals

    # ------------------------------------------------------------------
    # Per-query SLOs
    # ------------------------------------------------------------------
    def _build_slos(self, states: Sequence[Dict[str, Any]]) -> List["QuerySLO"]:
        """Per-query SLO records from the latest gathered cell states.

        ``delivery_latency_s`` converts the certified epoch lag into
        worst-case stream time: a cut-crossing item produced right
        after an exchange barrier waits ``epoch_lag`` full exchange
        epochs before its delivery step sees it.
        """
        from ..obs.slo import QuerySLO

        epoch_width = self.duration / self.exchange_epochs
        slos: List["QuerySLO"] = []
        for name in self._records:
            host = self._query_cell[name]
            state = states[host]
            entry = state["deliveries"].get(name)
            _, inputs, results = entry if entry else (False, 0, 0)
            lag = self.query_lags.get(name, 0)
            slos.append(
                QuerySLO(
                    query=name,
                    shard=host,
                    epoch_lag=lag,
                    delivery_latency_s=lag * epoch_width,
                    delivered_inputs=inputs,
                    delivered_results=results,
                    items_lost=state.get("query_lost", {}).get(name, 0),
                    migrations=self._query_migrations.get(name, 0),
                    backpressure_epochs=self._cell_backpressure[host],
                    queue_peak=state["peak"],
                    parked=name not in self.deployment.queries,
                )
            )
        return slos

    def query_slos(self) -> List["QuerySLO"]:
        """The latest computed SLO records (end-of-run after
        :meth:`run`; mid-run they reflect the last observed barrier)."""
        return list(self.last_query_slos)

    # ------------------------------------------------------------------
    # Per-shard traced epochs
    # ------------------------------------------------------------------
    def _cell_metrics(
        self,
        cell: int,
        state: Dict[str, Any],
        merged: Dict[str, StreamCounters],
    ) -> RunMetrics:
        """One cell's slice of the accounting: its owned streams and
        hosted queries, replayed against the *global* merged counters
        (children need foreign parents' counts).  Global fault
        transients are attributed to cell 0."""
        order = [
            stream
            for stream in topological_streams(self.deployment)
            if self._owner.get(stream.stream_id) == cell
        ]
        deliveries: List[DeliveryCounters] = []
        for name in self._records:
            if self._query_cell[name] != cell:
                continue
            entry = state["deliveries"].get(name)
            if entry is None:
                continue
            multi, inputs, results = entry
            deliveries.append(
                DeliveryCounters(self._records[name], multi, inputs, results)
            )
        items_lost = state["source_lost"] + sum(state["gate_lost"].values())
        return replay_metrics(
            self.net,
            self.duration,
            order,
            merged,
            state["retired"],
            deliveries,
            faults_applied=self._faults_applied if cell == 0 else 0,
            items_lost=items_lost,
            items_lost_by_query=state.get("query_lost"),
            recovery_time_s=self._recovery_time_s if cell == 0 else 0.0,
            queries_repaired=self._queries_repaired if cell == 0 else 0,
            queries_lost=sum(
                1
                for name in self._records
                if self._query_cell[name] == cell
                and name not in self.deployment.queries
            ),
            migrations_applied=self._migrations_applied if cell == 0 else 0,
            migration_downtime_epochs=(
                self._migration_downtime_epochs if cell == 0 else 0
            ),
        )

    def _emit_cell_epoch(
        self, cell: int, t_end: float, state: Dict[str, Any], merged: Dict[str, StreamCounters]
    ) -> None:
        if t_end <= self._cell_epoch_start[cell] and self._cell_epoch_index[cell] > 0:
            return
        metrics = self._cell_metrics(cell, state, merged)
        totals = state["operator_totals"]
        snapshot = snapshot_delta(
            self._cell_epoch_index[cell],
            self._cell_epoch_start[cell],
            t_end,
            metrics,
            self._cell_last_metrics[cell],
            self.net,
            totals,
            self._cell_last_totals[cell],
            inflight_items=state["inflight"],
            inflight_peak=state["window_peak"],
        )
        snapshot.shard = cell
        self.recorder.add_epoch(snapshot)
        if snapshot.inflight_peak > self.batch_size:
            self._cell_backpressure[cell] += 1
        self._cell_epoch_index[cell] += 1
        self._cell_epoch_start[cell] = t_end
        self._cell_last_metrics[cell] = metrics
        self._cell_last_totals[cell] = totals

    def _emit_cell_epochs(
        self, t_end: float, states: Sequence[Dict[str, Any]]
    ) -> None:
        merged = self._merged_counters(states)
        for cell, state in enumerate(states):
            self._emit_cell_epoch(cell, t_end, state, merged)

    def _emit_global_epoch(
        self, t_end: float, states: Sequence[Dict[str, Any]]
    ) -> Any:
        """The whole-deployment epoch snapshot the rebalancer consumes.

        Built by merging the drained per-cell counters through the
        sequential replay, so every field derived from counters (peer
        CPU%, link kbps, item counts — all the drift detector reads)
        equals the sequential executor's
        :meth:`StreamSimulator._emit_epoch` snapshot bit for bit;
        only ``inflight_peak`` is approximated as the max over cell
        window peaks (cells peak at different instants).
        Not handed to the recorder: traced sharded runs record
        per-cell epochs, and a duplicate global series would change
        their export.  Returns ``None`` at a coincident boundary,
        exactly like the sequential emitter.
        """
        if t_end <= self._epoch_start and self._epoch_index > 0:
            return None  # coincident boundaries: nothing elapsed
        metrics = self._merge(states)
        totals: Dict[str, int] = {}
        for state in states:
            for name, inputs in state["operator_totals"].items():
                totals[name] = totals.get(name, 0) + inputs
        snapshot = snapshot_delta(
            self._epoch_index,
            self._epoch_start,
            t_end,
            metrics,
            self._last_metrics,
            self.net,
            totals,
            self._last_totals,
            inflight_items=sum(state["inflight"] for state in states),
            inflight_peak=max(
                (state["window_peak"] for state in states), default=0
            ),
        )
        self._epoch_index += 1
        self._epoch_start = t_end
        self._last_metrics = metrics
        self._last_totals = totals
        return snapshot

    def _emit_final_epochs(self, states: Sequence[Dict[str, Any]]) -> None:
        merged = self._merged_counters(states)
        for cell, state in enumerate(states):
            self._emit_cell_epoch(cell, self.duration, state, merged)
        recorder = self.recorder
        recorder.set_gauge("exec.peak_live_items", self.peak_live_items)
        for cell, peak in self.peak_live_items_per_shard.items():
            recorder.set_gauge(f"exec.peak_live_items.shard{cell}", peak)
        recorder.inc("exec.runs")
        recorder.inc("exchange.batches", self.exchange_batches)
        recorder.inc("exchange.items", self.exchange_items)
        recorder.inc("exchange.bytes", self.exchange_bytes)
        for (src, dst), items in sorted(self.exchange_pairs.items()):
            recorder.inc(f"exchange.cell{src}->cell{dst}.items", items)
        recorder.set_gauge("exec.workers", self.workers_used)
