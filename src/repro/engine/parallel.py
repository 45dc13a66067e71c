"""The sharded data plane: run a deployment on multiple cores with
epoch-synchronized exchange between cells.

:class:`ShardedSimulator` is the control loop of
:class:`~repro.engine.executor.StreamSimulator` over several
:class:`~repro.engine.executor.Cell` s instead of one, and adds only
what more than one cell needs (DESIGN.md §12): it packs the live
super-peers into *cells* — one per worker
(:func:`~repro.engine.partition.partition_cells`) — and runs each cell
in its own ``multiprocessing`` worker (forked; an in-process backend
covers unpicklable payloads, hosts without ``fork`` and single-core
hosts — the run observes which applies).  Streams whose parent or
subscriber lives in a foreign cell get a *proxy* node in the consuming
cell, fed exclusively by serialized item batches exchanged at epoch
barriers: a batch crossing ``k`` cell boundaries is delivered ``k``
exchange epochs after production (``query_lags``).  A worker pickles
each per-destination outbox once into a ``bytes`` *frame* beside a
header list ``(stream_id, rows, bytes)``; the parent accounts from the
headers and forwards the frame untouched, so only the consuming cell
ever unpickles it — into column batches, never trees (DESIGN.md §12,
§14).

Why any partition is safe (DESIGN.md §12) in brief: every engine
operator is a per-item push over its own stream's FIFO, the exchange
hands each stream's batches over unsplit and in order, multi-input
subscriptions buffer every input until ``finish()``, and all counters
are integers — so totals depend only on per-stream input *sequences*,
never on cross-stream interleaving or batch segmentation.  The loop
merges the per-cell integer counters in the one accounting order
(retired first, then Kahn order, then registration order), so the
resulting :class:`RunMetrics` is byte-identical to a one-cell run —
including under fault schedules, where faults apply only at *drained*
barriers (no in-flight exchange) and a run keeps its cells: a
super-peer new to the run joins the least-loaded one.
"""

from __future__ import annotations

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
    Tuple,
)

from ..network.topology import Network
from ..obs.merge import merge_segment
from ..obs.recorder import NULL_RECORDER, Recorder
from ..xmlkit import Element
from .executor import (
    SOURCE_BATCH,
    Cell,
    ExecutionError,
    ItemGenerator,
    Outbox,
    StreamSimulator,
    _LocalCell,
)
from .partition import partition_cells, query_lags

if TYPE_CHECKING:  # avoid runtime cycles with repro.sharing
    from ..faults.schedule import FaultSchedule
    from ..sharing.plan import Deployment

__all__ = ["ShardedSimulator"]

#: Seconds a worker may stay silent at a barrier before the parent
#: declares it hung, and seconds a stopped worker gets to exit before
#: it is killed (every result was received by then, so a kill is safe).
BARRIER_DEADLINE_S = 600.0
_JOIN_S = 1.0

#: Evenly spaced exchange barriers of a multi-cell run: batches a cell
#: exports in one exchange epoch are delivered at its end (one epoch
#: of lag per cell boundary crossed).  Fault and recovery boundaries
#: are *drained* barriers, and so is every sampling boundary of a
#: rebalanced run: the drained counters replay byte-for-byte, so the
#: drift detector sees the snapshots of a one-cell run and migrates
#: identically.
EXCHANGE_EPOCHS = 8


# ----------------------------------------------------------------------
# A cell of a multi-cell run, and the backends it runs behind
# ----------------------------------------------------------------------
def _parker(captured: Dict[str, List[Element]]) -> Callable[[str, Element], None]:
    """A cell's capture hook that keeps each result in ``captured``:
    it holds the dictionary, not the :class:`_ShardCell` that holds the
    cell (no cell ↔ wrapper cycle)."""

    def park(name: str, item: Element) -> None:
        captured.setdefault(name, []).append(item)

    return park


class _ShardCell:
    """A cell with what the sharded plane adds around it.

    Traced runs hand each shard a live recorder pinned to the parent's
    timeline: the cell's operator batches time into it and every
    protocol operation is a ``cell.*`` span.  Neither the trace nor the
    captured results can reach the parent from another process as they
    are produced: both are kept here and ride on the final state, the
    trace as the cell's recorder itself (:mod:`repro.obs.merge`).
    Operations the plane adds nothing to go to the cell as they are.
    """

    def __init__(self, cell: Cell, recorder: Any, capture: bool) -> None:
        self.cell = cell
        self._recorder = recorder
        self._captured: Dict[str, List[Element]] = {}
        if capture:
            cell.capture = _parker(self._captured)

    def __getattr__(self, op: str) -> Any:
        return getattr(self.cell, op)

    def step(self, until: float, groups: Sequence[Sequence[Any]]) -> Outbox:
        inbound = [batch for group in groups for batch in group]
        with self._recorder.span(
            "cell.step", until=until, inbound_batches=len(inbound)
        ):
            return self.cell.step(until, inbound)

    def apply_reconcile(self, diff: Dict[str, Any]) -> None:
        with self._recorder.span(
            "cell.reconcile",
            stale=len(diff["stale"]),
            add=len(diff["add"]),
            rewire=len(diff["rewire"]),
        ):
            self.cell.apply_reconcile(diff)

    def finish(self) -> Dict[str, Any]:
        recorder = self._recorder
        with recorder.span("cell.finish"):
            self.cell.finish()
        state = self.cell.state()
        state["captured"] = self._captured
        if recorder.enabled:
            state["trace"] = recorder
        return state


def _error_payload(exc: BaseException) -> Dict[str, str]:
    """A worker crash as structured data, so the parent can both raise
    a readable :class:`ExecutionError` and record a machine-parseable
    ``cell.error`` trace event (instead of a string-only traceback)."""
    return {
        "exc_type": type(exc).__name__,
        "message": str(exc),
        "traceback": traceback.format_exc(),
    }


def _worker_main(conn: Any, cell: _ShardCell) -> None:
    """The forked worker loop: execute protocol messages until stopped.

    Inbound frames are unpickled here (and nowhere else); each
    destination's outbox is pickled once into the frame the parent
    forwards as it is."""
    try:
        while True:
            try:
                op, *args = conn.recv()
            except EOFError:
                break
            except BaseException as exc:  # noqa: BLE001 - bad payload
                # A complete message arrived but failed to unpickle;
                # answer it with the error so the parent can report the
                # cause instead of a bare "worker died".
                conn.send(("error", _error_payload(exc)))
                continue
            if op == "stop":
                break
            try:
                if op == "step":
                    until, frames = args
                    outbox = cell.step(until, [pickle.loads(frame) for frame in frames])
                    payload: Any = {
                        dst: (headers, pickle.dumps(batches, pickle.HIGHEST_PROTOCOL))
                        for dst, (headers, batches) in outbox.items()
                    }
                else:
                    payload = getattr(cell, op)(*args)
                conn.send(("ok", payload))
            except BaseException as exc:  # noqa: BLE001 - ship to parent
                conn.send(("error", _error_payload(exc)))
    except (EOFError, OSError):
        pass  # the parent went away: nobody left to report to
    finally:
        conn.close()


class _ProcessCell(_LocalCell):
    """Forked-process backend: one worker per cell, message-pipe driven.

    The worker is forked at the cell's first step.  Until then the cell
    is a local one: the plan is installed in this process, so under the
    fork start method the worker inherits it (and generators, compiled
    pipelines, UDF closures) by memory copy — only the protocol messages
    of the running plan (exchange frames, counter states, repair diffs)
    are ever pickled.

    The parent never waits on a worker without bound: its end of the
    pipe (a Unix socket) carries a kernel receive timeout, so the
    blocking ``recv`` of :meth:`result` itself gives up after
    :data:`BARRIER_DEADLINE_S` without a byte from the worker.
    """

    __slots__ = ("_ctx", "_conn", "_proc", "_shard", "_recorder")

    def __init__(
        self,
        ctx: Any,
        cell: _ShardCell,
        shard: int = 0,
        recorder: Any = NULL_RECORDER,
    ) -> None:
        super().__init__(cell)
        self._ctx = ctx
        self._shard = shard
        self._recorder = recorder
        self._conn: Any = None
        self._proc: Any = None

    def _fork(self) -> None:
        self._conn, child = self._ctx.Pipe()
        timeval = struct.pack(
            "ll", int(BARRIER_DEADLINE_S), int(BARRIER_DEADLINE_S % 1 * 1e6)
        )
        with socket.socket(fileno=os.dup(self._conn.fileno())) as sock:
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVTIMEO, timeval)
        self._proc = self._ctx.Process(
            target=_worker_main, args=(child, self.cell), daemon=True
        )
        self._proc.start()
        child.close()

    def submit(self, op: str, *args: Any) -> None:
        if self._proc is None:
            if op != "step":
                super().submit(op, *args)
                return
            self._fork()
        self._conn.send((op, *args))

    def result(self) -> Any:
        if self._proc is None:
            return super().result()
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
        if self._proc is None:
            return
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
class ShardedSimulator(StreamSimulator):
    """Execute a deployment across several cells, merging to the
    one-cell run's exact :class:`RunMetrics`.

    Parameters are :class:`StreamSimulator`'s plus:

    workers:
        Worker-cell budget; the live super-peers are packed into at
        most this many cells (:func:`~repro.engine.partition
        .partition_cells`).  With one worker, or one resulting cell,
        the run is the sequential one: one cell, nothing added.

    The cells run in forked worker processes when the host has ``fork``
    and more than one core and the plan's records pickle; otherwise in
    this process (same partitioning, exchange and merge, no
    concurrency).  ``mode_used`` reports which.

    Beside what a one-cell run reports, after :meth:`run`:

    * ``peak_live_items_per_shard`` — per-cell in-flight peaks (their
      max, not their sum, is ``peak_live_items``: cells peak at
      different epochs, so the sum overstates peak memory);
    * ``exchange_batches/items/bytes`` and ``exchange_pairs`` — the
      traffic between cells;
    * ``query_lags`` — per query, the most cell boundaries its
      delivery chain crossed over the run; ``mode_used`` and
      ``workers_used`` say how the cells ran.

    Captured results are replayed at the end of the run, per query in
    registration order: per-query sequences are those of a one-cell
    run, cross-query interleaving is not pump order (DESIGN.md §12).
    """

    def __init__(
        self,
        net: Network,
        deployment: "Deployment",
        generators: Dict[str, ItemGenerator],
        duration: float,
        workers: int,
        max_items_per_source: Optional[int] = None,
        batch_size: int = SOURCE_BATCH,
        schedule: Optional["FaultSchedule"] = None,
        repair: Optional[Callable[..., Any]] = None,
        capture: Optional[Callable[[str, Element], None]] = None,
        recorder: Optional[Any] = None,
        rebalancer: Optional[Any] = None,
    ) -> None:
        super().__init__(
            net,
            deployment,
            generators,
            duration,
            max_items_per_source=max_items_per_source,
            batch_size=batch_size,
            schedule=schedule,
            repair=repair,
            capture=capture,
            recorder=recorder,
            rebalancer=rebalancer,
        )
        if workers < 1:
            raise ExecutionError("workers must be >= 1")
        self.workers = workers
        self.exchange_epochs = EXCHANGE_EPOCHS
        self.peak_live_items_per_shard: Dict[int, int] = {0: 0}
        self.exchange_batches = 0
        self.exchange_items = 0
        self.exchange_bytes = 0
        self.exchange_pairs: Dict[Tuple[int, int], int] = {}

    # ------------------------------------------------------------------
    # Partition and backend
    # ------------------------------------------------------------------
    def _resolve_mode(self) -> str:
        """Forked cells if this host and plan allow them, in-process
        cells otherwise (DESIGN.md §12)."""
        if (
            "fork" not in multiprocessing.get_all_start_methods()
            or (os.cpu_count() or 1) <= 1
        ):
            return "inline"
        return "process" if self._payload_pickles() else "inline"

    def _payload_pickles(self) -> bool:
        """Probe the IPC payload types: plan diffs and retired
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

    def _build(self) -> None:
        """One empty cell per cell of the partition, each behind its
        backend; the loop then installs every cell's slice of the plan
        as its first diff."""
        node_cell = partition_cells(self.deployment, self.workers)
        cell_count = max(node_cell.values(), default=0) + 1
        if cell_count <= 1:
            super()._build()
            return
        self._node_cell = node_cell
        self.query_lags = query_lags(self.deployment, node_cell)
        self.mode_used = self._resolve_mode()
        self.workers_used = cell_count
        recorder = self.recorder
        cells = []
        for index in range(cell_count):
            # Cell recorders are built pre-fork, pinned to the parent's
            # timeline so shipped span times merge onto one axis
            # without adjustment.
            own = Recorder(origin=recorder) if recorder.enabled else NULL_RECORDER
            cell = Cell(self.generators, self.max_items, self.batch_size, recorder=own)
            cells.append(_ShardCell(cell, own, self.capture is not None))
        if self.mode_used == "process":
            ctx = multiprocessing.get_context("fork")
            self._cells = [
                _ProcessCell(ctx, cell, index, recorder)
                for index, cell in enumerate(cells)
            ]
        else:
            self._cells = [_LocalCell(cell) for cell in cells]
        exchange_step = self.duration / self.exchange_epochs
        #: Exchange barriers still ahead (latest first: the next one is
        #: popped off the end), and the batches in flight between cells
        #: (destination → what each producer handed over).
        self._exchanges = [
            exchange_step * k for k in range(self.exchange_epochs - 1, 0, -1)
        ]
        self._pending: Dict[int, List[Any]] = {}
        self._flow_seq = 0

    # ------------------------------------------------------------------
    # Exchange rounds
    # ------------------------------------------------------------------
    def _advance(self, until: float, quiescent: bool) -> None:
        """Step every cell through the exchange barriers up to
        ``until``; a quiescent boundary is drained — stepped until no
        batch is in flight."""
        if self.workers_used == 1:
            super()._advance(until, quiescent)
            return
        exchanges = self._exchanges
        while exchanges and exchanges[-1] <= until:
            barrier = exchanges.pop()
            if barrier < until:
                self._pending = self._step_all(barrier, self._pending)
        self._pending = self._step_all(until, self._pending)
        while quiescent and self._pending:
            self._pending = self._step_all(until, self._pending)

    def _step_all(
        self, until: float, pending: Dict[int, List[Any]]
    ) -> Dict[int, List[Any]]:
        """One synchronized round: every cell pumps to ``until`` with
        its pending inbound, and the outboxes are redistributed in
        canonical order (ascending producer cell, emission order) —
        becoming the next round's inbound.  The parent is a
        pass-through: it counts from the headers and forwards each
        cell's batches (a worker's frame) as it received them."""
        outboxes = self._ask(
            "step", until, each=[pending.get(cell, []) for cell in range(len(self._cells))]
        )
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
                    # hand-off between cells (delivery next round: one
                    # epoch of lag per boundary crossed).
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
    # The partition after churn
    # ------------------------------------------------------------------
    def _place(self) -> None:
        """Give the super-peers new to the run a cell, and recount the
        query lags on the repaired deployment.

        A node keeps its cell for the whole run (a rejoined node
        returns to it); a new one goes to the deterministic
        least-loaded cell.  A re-routed delivery chain may cross more
        cells than before, so each query reports the most crossings of
        any deployment it ran on.
        """
        if self.workers_used == 1:
            return
        node_cell = self._node_cell
        loads = [0] * len(self._cells)
        for cell in self._owner.values():
            loads[cell] += 1
        for node in sorted(self.deployment.net.super_peer_names()):
            if node not in node_cell:
                cell = min(range(len(loads)), key=lambda index: (loads[index], index))
                node_cell[node] = cell
                loads[cell] += 1
        lags = self.query_lags
        for name, lag in query_lags(self.deployment, node_cell).items():
            lags[name] = max(lags.get(name, 0), lag)

    # ------------------------------------------------------------------
    # What the cells kept to the end: captures and traces
    # ------------------------------------------------------------------
    def _finish(self, states: Sequence[Dict[str, Any]]) -> None:
        self.peak_live_items_per_shard = {
            cell: state["peak"] for cell, state in enumerate(states)
        }
        if self.workers_used == 1:
            return
        capture = self.capture
        if capture is not None:
            for name in self._records:
                captured = states[self._query_cell[name]]["captured"]
                for item in captured.get(name, ()):
                    capture(name, item)
        for state in states:
            del state["captured"]
        recorder = self.recorder
        if not recorder.enabled:
            return
        for cell, peak in self.peak_live_items_per_shard.items():
            recorder.set_gauge(f"exec.peak_live_items.shard{cell}", peak)
        recorder.inc("exchange.batches", self.exchange_batches)
        recorder.inc("exchange.items", self.exchange_items)
        recorder.inc("exchange.bytes", self.exchange_bytes)
        for (src, dst), items in sorted(self.exchange_pairs.items()):
            recorder.inc(f"exchange.cell{src}->cell{dst}.items", items)
        recorder.set_gauge("exec.workers", self.workers_used)
        # One deterministic fold, cells in shard order: after it the
        # parent's run log carries the whole plane.
        for cell, state in enumerate(states):
            merge_segment(recorder, cell, state.pop("trace"))
