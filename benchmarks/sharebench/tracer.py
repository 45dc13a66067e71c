"""Benchmark-owned tracing: where a traced sample's wall time goes.

The program's own ``Recorder`` covers the control plane (``register``
-> ``parse``/``analyze``/``plan`` -> ``search``/``commit``,
``deregister``, ``repair.*``, ``analysis.*``), the per-operator
``op.<kind>.batch_s`` histograms and, on the sharded plane, the merged
``cell.*`` spans.  Everything else is wrapped from here, for the
duration of a traced sample only (:meth:`Tracer.installed`): the wrap
list :data:`WRAPS` names each callable, the span it opens and whether
the span is kept as a record (*coarse*: a few hundred per sample) or
only aggregated (*hot*: up to a few hundred thousand per sample).

All spans of one sample come from one thread, so they nest properly in
time; :func:`roll_up` sorts the tracer's and the recorder's spans onto
one axis, derives each span's self time (duration minus the part its
children cover) and sums self times per layer.  Whatever part of the
sample lies under no span at all is ``obs.residual_share``.

Hot targets must not call each other, and none may run inside a
recorder span (their time is charged to the enclosing *tracer* span
only); both hold for the list below.
"""

from __future__ import annotations

import importlib
from contextlib import contextmanager
from time import perf_counter
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

HOT = "hot"
COARSE = "coarse"

#: (module, dotted attribute, span name, kind).  A target that no longer
#: exists is skipped and listed in ``Tracer.missing`` — its layer then
#: reads 0 and its time shows up in the enclosing span's self time.
WRAPS: Tuple[Tuple[str, str, str, str], ...] = (
    ("repro.sharing.system", "StreamGlobe.run", "engine.run", COARSE),
    ("repro.sharing.system", "StreamGlobe.register_query", "sharing.admit", COARSE),
    ("repro.engine.executor", "encode_ingest", "xmlkit.encode", HOT),
    ("repro.engine.executor", "batch_bytes", "engine.accounting", HOT),
    ("repro.engine.executor", "replay_metrics", "engine.accounting", HOT),
    ("repro.engine.executor", "_SingleDelivery.feed", "engine.delivery", HOT),
    ("repro.engine.executor", "_MultiDelivery.feed", "engine.delivery", HOT),
    ("repro.engine.executor", "_MultiDelivery.finish", "engine.delivery", HOT),
    ("repro.engine.executor", "StreamSimulator._reconcile", "engine.reconcile", COARSE),
    ("repro.engine.parallel", "ShardedSimulator._reconcile_cells", "engine.reconcile", COARSE),
    ("repro.engine.parallel", "ShardedSimulator._build", "parallel.build", COARSE),
    ("repro.engine.parallel", "ShardedSimulator._step_all", "parallel.step_all", COARSE),
    ("repro.engine.parallel", "ShardedSimulator._merge", "parallel.merge", COARSE),
    ("multiprocessing.process", "BaseProcess.start", "parallel.fork", COARSE),
    ("multiprocessing.connection", "_ConnectionBase.send", "parallel.send", COARSE),
    ("multiprocessing.connection", "_ConnectionBase.recv", "parallel.recv", COARSE),
    # The benchmark's own share of a sample: calibration spins and the
    # verifier it runs as an output check.
    ("calib", "spin", "bench.spin", HOT),
    ("workloads", "verify_deployment", "bench.check", COARSE),
)

#: Span / hot name -> the per-layer metric its self time is summed into.
LAYER_OF: Dict[str, str] = {
    # benchmark's own generator (see workloads.TracedSource)
    "workload.gen": "workload.gen_s",
    "xmlkit.freeze": "xmlkit.freeze_s",
    "bench.spin": "obs.calibration_s",
    "bench.check": "obs.check_s",
    # tracer wrappers
    "xmlkit.encode": "xmlkit.encode_s",
    "engine.accounting": "engine.accounting_s",
    "engine.delivery": "engine.delivery_s",
    "engine.run": "engine.pump_self_s",
    "engine.reconcile": "engine.reconcile_s",
    "sharing.admit": "sharing.admit_self_s",
    "parallel.build": "parallel.fork_s",
    "parallel.fork": "parallel.fork_s",
    "parallel.step_all": "parallel.exchange_s",
    "parallel.send": "parallel.exchange_s",
    "parallel.merge": "parallel.merge_s",
    # recorder spans
    "register": "sharing.plan_s",
    "plan": "sharing.plan_s",
    "parse": "wxquery.parse_s",
    "analyze": "wxquery.analyze_s",
    "search": "sharing.search_s",
    "commit": "sharing.commit_s",
    "deregister": "sharing.deregister_s",
    "repair": "sharing.repair.other_s",
    "repair.damage": "sharing.repair.damage_s",
    "repair.teardown": "sharing.repair.teardown_s",
    "repair.reregister": "sharing.repair.reregister_s",
    "analysis.shards": "analysis.shards_s",
}

#: Operator kinds reported as ``engine.op.<kind>_s`` / ``.items``.
OP_KINDS = ("selection", "projection", "window", "aggregation", "reaggregation")

#: Every layer whose self time is part of the parent process's wall
#: time, in "where the time goes" order.
TIME_LAYERS: Tuple[str, ...] = (
    "workload.gen_s",
    "xmlkit.freeze_s",
    "xmlkit.encode_s",
    *(f"engine.op.{kind}_s" for kind in OP_KINDS),
    "engine.delivery_s",
    "engine.accounting_s",
    "engine.pump_self_s",
    "engine.reconcile_s",
    "parallel.fork_s",
    "parallel.exchange_s",
    "parallel.compute_wait_s",
    "parallel.merge_s",
    "wxquery.parse_s",
    "wxquery.analyze_s",
    "sharing.search_s",
    "sharing.plan_s",
    "sharing.commit_s",
    "sharing.admit_self_s",
    "sharing.deregister_s",
    "sharing.repair.damage_s",
    "sharing.repair.teardown_s",
    "sharing.repair.reregister_s",
    "sharing.repair.other_s",
    "analysis.shards_s",
    "obs.calibration_s",
    "obs.check_s",
    "obs.other_spans_s",
)


class Span:
    """One recorded span on the shared ``perf_counter`` axis."""

    __slots__ = ("span_id", "parent_id", "name", "t0", "t1", "hot_s", "tag", "self_s")

    def __init__(
        self,
        span_id: int,
        parent_id: Optional[int],
        name: str,
        t0: float,
        t1: float,
        hot_s: float = 0.0,
        tag: Any = None,
    ) -> None:
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.t0 = t0
        self.t1 = t1
        #: Time hot (unrecorded) children spent inside this span.
        self.hot_s = hot_s
        self.tag = tag
        self.self_s = 0.0

    def to_dict(self) -> Dict[str, Any]:
        return {
            "id": self.span_id,
            "parent": self.parent_id,
            "name": self.name,
            "t0": self.t0,
            "t1": self.t1,
            "self_s": self.self_s,
        }


class Window:
    """What one traced region (a set-up or a sample) recorded."""

    def __init__(self) -> None:
        self.t0 = 0.0
        self.t1 = 0.0
        self.spans: List[Span] = []
        self.cell_spans: List[Tuple[int, float, float]] = []  # (shard, t0, t1)
        self.hot: Dict[str, Tuple[int, float]] = {}
        self.op_seconds: Dict[str, float] = {}
        self.op_items: Dict[str, float] = {}


class Tracer:
    """Span stack, aggregated hot counters and the installed wrappers."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.hot: Dict[str, List[float]] = {}
        self.missing: List[str] = []
        self._stack: List[list] = []
        self._next_id = 1
        self._undo: List[Tuple[Any, str, Any]] = []

    # -- wrappers ------------------------------------------------------
    def hot_cell(self, name: str) -> List[float]:
        return self.hot.setdefault(name, [0, 0.0])

    def charge(self, cell: List[float], seconds: float) -> None:
        """Book one hot call (the traced generator calls this itself)."""
        cell[0] += 1
        cell[1] += seconds
        if self._stack:
            self._stack[-1][3] += seconds

    def _wrap_hot(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        cell = self.hot_cell(name)
        charge = self.charge

        def hot(*args: Any, **kwargs: Any) -> Any:
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                charge(cell, perf_counter() - start)

        return hot

    def _wrap_coarse(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        stack = self._stack
        spans = self.spans
        # Pipe ends are told apart by identity (which cell a recv waits on).
        tagged = name in ("parallel.send", "parallel.recv")

        def coarse(*args: Any, **kwargs: Any) -> Any:
            span_id = self._next_id
            self._next_id += 1
            frame = [span_id, stack[-1][0] if stack else None, perf_counter(), 0.0]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans.append(
                    Span(
                        span_id,
                        frame[1],
                        name,
                        frame[2],
                        end,
                        frame[3],
                        id(args[0]) if tagged else None,
                    )
                )

        return coarse

    @contextmanager
    def installed(self) -> Iterator[None]:
        """Patch every :data:`WRAPS` target; restore them on exit."""
        for module_name, dotted, name, kind in WRAPS:
            try:
                original: Any = importlib.import_module(module_name)
                owner: Any = None
                *path, leaf = dotted.split(".")
                for part in (*path, leaf):
                    owner, original = original, getattr(original, part)
            except (ImportError, AttributeError):
                self.missing.append(f"{module_name}.{dotted}")
                continue
            wrap = self._wrap_hot if kind == HOT else self._wrap_coarse
            self._undo.append((owner, leaf, original))
            setattr(owner, leaf, wrap(name, original))
        try:
            yield
        finally:
            while self._undo:
                owner, leaf, original = self._undo.pop()
                setattr(owner, leaf, original)

    # -- windows -------------------------------------------------------
    @contextmanager
    def window(self, recorder: Any) -> Iterator[Window]:
        """Collect everything the tracer and ``recorder`` complete
        between entry and exit."""
        window = Window()
        span_mark = len(self.spans)
        hot_mark = {name: tuple(cell) for name, cell in self.hot.items()}
        rec_mark = len(recorder.spans)
        hist_mark = _op_histograms(recorder)
        items_mark = _op_items(recorder)
        offset = _clock_offset(recorder)
        window.t0 = perf_counter()
        try:
            yield window
        finally:
            window.t1 = perf_counter()
            window.spans = self.spans[span_mark:]
            for span in recorder.spans[rec_mark:]:
                if span.end_s is None:
                    continue
                t0, t1 = span.start_s + offset, span.end_s + offset
                shard = span.attrs.get("shard")
                if shard is not None:
                    window.cell_spans.append((shard, t0, t1))
                else:
                    window.spans.append(
                        Span(-span.span_id, None, span.name, t0, t1)
                    )
            for name, cell in self.hot.items():
                calls, seconds = hot_mark.get(name, (0, 0.0))
                window.hot[name] = (int(cell[0] - calls), cell[1] - seconds)
            for kind, total in _op_histograms(recorder).items():
                window.op_seconds[kind] = total - hist_mark.get(kind, 0.0)
            for kind, count in _op_items(recorder).items():
                window.op_items[kind] = count - items_mark.get(kind, 0)


def _clock_offset(recorder: Any) -> float:
    """``perf_counter()`` minus ``recorder.now()``, to well under the
    microsecond that separates a wrapper's start from the start of the
    recorder span it encloses: the tightest of five bracketed reads (a
    collection or a context switch between two reads would shift every
    recorder span and scramble the nesting)."""
    best = (float("inf"), 0.0)
    for _ in range(5):
        before = perf_counter()
        now = recorder.now()
        after = perf_counter()
        best = min(best, (after - before, (before + after) / 2.0 - now))
    return best[1]


def _op_histograms(recorder: Any) -> Dict[str, float]:
    return {
        kind: recorder.histograms[f"op.{kind}.batch_s"].total
        for kind in OP_KINDS
        if f"op.{kind}.batch_s" in recorder.histograms
    }


def _op_items(recorder: Any) -> Dict[str, float]:
    return {
        kind: recorder.counters.get(f"op.{kind}.items", 0) for kind in OP_KINDS
    }


# ----------------------------------------------------------------------
# Roll-up
# ----------------------------------------------------------------------
def _self_times(spans: List[Span]) -> None:
    """Set ``self_s`` (and time-derived ``parent_id``) on nested spans."""
    ordered = sorted(spans, key=lambda s: (s.t0, -s.t1))
    stack: List[Span] = []
    for span in ordered:
        span.self_s = span.t1 - span.t0 - span.hot_s
        while stack and stack[-1].t1 <= span.t0:
            stack.pop()
        if stack:
            stack[-1].self_s -= span.t1 - span.t0
            span.parent_id = stack[-1].span_id
        stack.append(span)


def _overlap(t0: float, t1: float, busy: List[Tuple[float, float]]) -> float:
    return sum(max(0.0, min(t1, b1) - max(t0, b0)) for b0, b1 in busy)


def roll_up(window: Window) -> Dict[str, float]:
    """Per-layer seconds and counts of one window (raw wall seconds).

    Time layers are self times, so they add up to the part of the
    window covered by spans; ``obs.residual_s`` is the rest.
    """
    layers: Dict[str, float] = {name: 0.0 for name in TIME_LAYERS}
    _self_times(window.spans)

    # Which cell does a pipe end belong to?  The parent first talks to
    # its cells in ascending shard order.
    shard_of: Dict[int, int] = {}
    for span in sorted(window.spans, key=lambda s: s.t0):
        if span.name == "parallel.send" and span.tag not in shard_of:
            shard_of[span.tag] = len(shard_of)
    busy: Dict[int, List[Tuple[float, float]]] = {}
    for shard, t0, t1 in window.cell_spans:
        busy.setdefault(shard, []).append((t0, t1))

    covered = 0.0
    for span in window.spans:
        own = max(span.self_s, 0.0)
        covered += own
        if span.name == "parallel.recv":
            waited = min(
                own, _overlap(span.t0, span.t1, busy.get(shard_of.get(span.tag, -1), []))
            )
            layers["parallel.compute_wait_s"] += waited
            layers["parallel.exchange_s"] += own - waited
        else:
            layers[LAYER_OF.get(span.name, "obs.other_spans_s")] += own
    for name, (calls, seconds) in window.hot.items():
        layers[LAYER_OF[name]] += seconds
        covered += seconds
    for kind in OP_KINDS:
        seconds = window.op_seconds.get(kind, 0.0)
        layers[f"engine.op.{kind}_s"] = seconds
        layers[f"engine.op.{kind}.items"] = window.op_items.get(kind, 0)
        if not busy:
            # No worker cells: the operator batches ran inside
            # StreamGlobe.run on this process and are part of that
            # span, not of its self time.
            layers["engine.pump_self_s"] -= seconds
    layers["engine.pump_self_s"] = max(layers["engine.pump_self_s"], 0.0)

    wall = window.t1 - window.t0
    layers["obs.wall_s"] = wall
    layers["obs.residual_s"] = max(wall - covered, 0.0)

    # Inclusive repair time and count (the sub-phases above are selfs).
    repairs = [s for s in window.spans if s.name == "repair"]
    layers["sharing.repairs"] = len(repairs)
    layers["sharing.repair_s"] = sum(s.t1 - s.t0 for s in repairs)

    # Cell-side view of the sharded plane.
    layers["parallel.barrier_idle_s"] = 0.0
    layers["parallel.cell_busy_skew"] = 0.0
    pipes = [s for s in window.spans if s.name in ("parallel.send", "parallel.recv")]
    if busy and pipes:
        span_s = max(s.t1 for s in pipes) - min(s.t0 for s in pipes)
        per_cell = [sum(t1 - t0 for t0, t1 in spans) for spans in busy.values()]
        mean = sum(per_cell) / len(per_cell)
        layers["parallel.barrier_idle_s"] = max(span_s - mean, 0.0)
        layers["parallel.cell_busy_skew"] = max(per_cell) / mean if mean else 0.0
    layers["parallel.cells"] = len(busy)
    layers["engine.delivery.calls"] = window.hot.get("engine.delivery", (0, 0.0))[0]
    layers["workload.items"] = window.hot.get("workload.gen", (0, 0.0))[0]
    return layers


def format_table(sample: Dict[str, float], setup: Dict[str, float], title: str) -> str:
    """The "where the time goes" table: the mean traced sample (self
    times, shares of its wall time) and the traced set-up's spans."""
    wall = sample.get("obs.wall_s", 0.0) or 1.0
    in_cells = sample.get("parallel.cells", 0) > 0
    lines = [f"where the time goes: {title} ({wall:.3f} calibrated s per traced sample)"]
    for name in (*TIME_LAYERS, "obs.residual_s"):
        seconds = sample.get(name, 0.0)
        if seconds <= 0.0:
            continue
        if in_cells and name.startswith("engine.op."):
            # Summed over the forked cells, overlapping the parent's
            # compute_wait: not a share of the parent's wall time.
            lines.append(f"  {name:<32s} {seconds:9.4f} s  (in cells)")
        else:
            lines.append(f"  {name:<32s} {seconds:9.4f} s  {100.0 * seconds / wall:5.1f} %")
    spans = [(name, setup.get(name, 0.0)) for name in TIME_LAYERS if setup.get(name, 0.0) > 0.0]
    if spans:
        lines.append(f"  set-up (recorder spans only, {sum(s for _, s in spans):.3f} s):")
        lines.extend(f"    {name:<30s} {seconds:9.4f} s" for name, seconds in spans)
    return "\n".join(lines)
