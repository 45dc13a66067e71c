"""The five sharebench workloads, their output checks and their pins.

Importing this module imports the program under test (``repro``);
``run.py`` times that import as part of ``setup_s``.

Every workload is a closed loop at full speed in one process (the two
forked cells of ``fig7-sharded-w2`` excepted).  A workload picks its
code path through a property of its *input* — regular or irregular
documents, ``workers=2``, 800 queries, a fault schedule — never
through a ``REPRO_*`` switch.

``--seed`` is added to the seeds of the photon streams only.  The query
mix, the topology and the fault schedule are the workload's shape: a
different template seed moves ``items_per_s`` by +-25 %, which would
drown every bound, while a different data seed moves the deterministic
metrics by about 1 %.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import resource
import statistics
from functools import partial
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.analysis import verify_deployment
from repro.engine.columnar import columnar_stats
from repro.faults import FaultSchedule, SuperPeerCrash, SuperPeerRejoin
from repro.obs import Recorder
from repro.sharing import StreamGlobe
from repro.workload import (
    PhotonGenerator,
    Scenario,
    scenario_churn_hotspots,
    scenario_grid,
    scenario_two,
)

from calib import SPIN_INTERVAL_S, Calibrator, SpinLog
from tracer import Tracer, roll_up

#: A source looks at the clock once per this many items to see whether
#: its next calibration spin is due (a power of two).
CLOCK_EVERY_ITEMS = 32
#: Every this many photons the irregular source drops ``coord/det``.
#: Seven, not the issue's seventeen: the short batch that ends a pump
#: (one per source and run, one per epoch when traced) would otherwise
#: often hold regular photons only and be column-encoded.
IRREGULAR_EVERY = 7
#: Virtual seconds of the warm-up run that ends a set-up (triggers the
#: lazy shape, predicate and restructurer compilation).
WARMUP_S = 5.0
#: Set-ups per run on the workloads that measure on one system (each
#: also yields one group of registrations and of deregistrations).
SETUPS = 7
#: Samples a run takes at least, whatever ``--seconds`` says.
MIN_SAMPLES = 2


# ----------------------------------------------------------------------
# The benchmark's own sources
# ----------------------------------------------------------------------
class Source(PhotonGenerator):
    """A scenario's photon stream plus in-band calibration spins.

    ``irregular`` drops ``coord/det`` (which no template query reads)
    from every 7th photon: every batch large enough to be encoded then
    fails the column encoder's shape validation and takes the
    whole-batch tree path.
    """

    def __init__(self, config: Any, log: SpinLog, irregular: bool) -> None:
        super().__init__(config)
        self._log = log
        self._irregular = irregular
        self._count = 0
        self._spun_at = perf_counter()

    def _photon(self) -> Any:
        item = PhotonGenerator.next_item(self)
        if self._irregular and not self._count % IRREGULAR_EVERY:
            coord = item.children[1]
            coord.children = coord.children[:1]
        return item

    def _maybe_spin(self) -> None:
        now = perf_counter()
        if now - self._spun_at >= SPIN_INTERVAL_S:
            self._log.spin()
            self._spun_at = perf_counter()

    def next_item(self) -> Any:
        self._count += 1
        if not self._count % CLOCK_EVERY_ITEMS:
            self._maybe_spin()
        return self._photon()


class TracedSource(Source):
    """The same stream, reporting generation and ingest freeze (the
    size computation the executor would otherwise do on its own
    ``freeze()``) to the tracer."""

    def __init__(self, config: Any, log: SpinLog, irregular: bool, tracer: Tracer) -> None:
        super().__init__(config, log, irregular)
        self._tracer = tracer
        self._cells = (tracer.hot_cell("workload.gen"), tracer.hot_cell("xmlkit.freeze"))

    def next_item(self) -> Any:
        charge = self._tracer.charge
        gen_cell, freeze_cell = self._cells
        self._count += 1
        if not self._count % CLOCK_EVERY_ITEMS:
            self._maybe_spin()
        start = perf_counter()
        item = self._photon()
        built = perf_counter()
        item.freeze()
        charge(gen_cell, built - start)
        charge(freeze_cell, perf_counter() - built)
        return item


# ----------------------------------------------------------------------
# Run context and outcome
# ----------------------------------------------------------------------
class Outcome:
    """Per-sample metric values plus the attempted/failed tally."""

    def __init__(self) -> None:
        self.samples: Dict[str, List[float]] = {}
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []

    def add(self, metric: str, value: float) -> None:
        self.samples.setdefault(metric, []).append(value)

    def op(self, ok: bool, label: str, count: int = 1) -> None:
        """Tally ``count`` operations or checks that all share one fate."""
        self.attempted += count
        if not ok:
            self.failed += count
            self.failures.append(label)

    def median(self, metric: str) -> float:
        return statistics.median(self.samples[metric])


class Context:
    """What one workload run shares between its phases."""

    def __init__(self, seed: int, quick: bool, calibrator: Calibrator) -> None:
        self.seed = seed
        self.quick = quick
        self.cal = calibrator
        self.tracer = Tracer()
        self.out = Outcome()
        #: Tally of the traced pass (its timings only feed
        #: ``obs.trace_overhead_pct``; its checks count).
        self.traced_out = Outcome()
        self.setup_layers: List[Dict[str, float]] = []
        self.sample_layers: List[Dict[str, float]] = []
        #: Spans of the latest traced window (``run.py --spans``).
        self.last_spans: List[Any] = []
        self._source_logs: Dict[str, SpinLog] = {}

    def source_log(self, name: str) -> SpinLog:
        log = self._source_logs.get(name)
        if log is None:
            log = self._source_logs[name] = self.cal.new_log()
        return log


# ----------------------------------------------------------------------
# Shared phases
# ----------------------------------------------------------------------
def new_system(
    ctx: Context,
    scenario: Scenario,
    strategy: str = "stream-sharing",
    irregular: bool = False,
    recorder: Optional[Recorder] = None,
) -> StreamGlobe:
    """Network plus registered sources (no queries yet)."""
    system = StreamGlobe(scenario.build_network(), strategy=strategy, recorder=recorder)
    for source in scenario.sources:
        config = dataclasses.replace(source.config, seed=source.config.seed + ctx.seed)
        log = ctx.source_log(source.name)
        factory: Callable[[], Source]
        if recorder is None:
            factory = partial(Source, config, log, irregular)
        else:
            factory = partial(TracedSource, config, log, irregular, ctx.tracer)
        system.register_stream(
            source.name,
            "photons/photon",
            factory,
            frequency=source.frequency,
            source_peer=source.source_peer,
        )
    return system


def register_all(
    ctx: Context,
    out: Outcome,
    system: StreamGlobe,
    entries: Sequence[Tuple[str, str, str]],
) -> List[float]:
    """Register ``(name, text, subscriber)`` entries one by one;
    calibrated seconds of each call.  A rejection is a failed op."""
    results: List[Any] = []

    def register(name: str, text: str, peer: str) -> None:
        results.append(system.register_query(name, text, peer))

    latencies = ctx.cal.timed_calls([partial(register, *entry) for entry in entries])
    rejected = [result.query for result in results if not result.accepted]
    out.op(True, "registered", len(results) - len(rejected))
    if rejected:
        out.op(False, f"registration rejected: {rejected[:5]}", len(rejected))
    return latencies


def deregister_all(
    ctx: Context, out: Outcome, system: StreamGlobe, names: Sequence[str]
) -> List[float]:
    latencies = ctx.cal.timed_calls([partial(system.deregister_query, name) for name in names])
    out.op(True, "deregistered", len(names))
    return latencies


def record_registrations(out: Outcome, latencies: List[float]) -> None:
    """One group of registrations: its rate and pooled percentiles."""
    out.add("registrations_per_s", len(latencies) / sum(latencies))
    cuts = statistics.quantiles(latencies, n=20)
    out.add("register_ms_p50", 1000.0 * statistics.median(latencies))
    out.add("register_ms_p95", 1000.0 * cuts[18])


def scenario_entries(scenario: Scenario) -> List[Tuple[str, str, str]]:
    return [(q.name, q.text, q.subscriber_peer) for q in scenario.queries]


def prepare_registered(
    ctx: Context,
    out: Outcome,
    scenario: Scenario,
    irregular: bool = False,
    recorder: Optional[Recorder] = None,
) -> StreamGlobe:
    """The set-up of the run workloads: network, sources, the
    scenario's queries and a short warm-up run, as one ``setup_s``
    sample; the registrations also feed the registration metrics."""
    with ctx.cal.region() as region:
        system = new_system(ctx, scenario, irregular=irregular, recorder=recorder)
        latencies = register_all(ctx, out, system, scenario_entries(scenario))
        system.run(WARMUP_S)
    out.add("setup_s", region.seconds)
    record_registrations(out, latencies)
    return system


def teardown(
    ctx: Context, out: Outcome, system: StreamGlobe, earlier: Sequence[float] = ()
) -> None:
    """Deregister every live query; only the sources may remain.  One
    group of deregistrations, together with those the sample already
    made (``earlier``)."""
    latencies = [*earlier, *deregister_all(ctx, out, system, list(system.deployment.queries))]
    out.add("deregistrations_per_s", len(latencies) / sum(latencies))
    leftover = [s for s in system.deployment.streams.values() if not s.is_original]
    out.op(not leftover, f"teardown left {len(leftover)} derived streams")


def delivery_digest(metrics: Any) -> str:
    payload = json.dumps(sorted(metrics.items_delivered.items()))
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def run_sample(
    ctx: Context,
    out: Outcome,
    system: StreamGlobe,
    duration: float,
    **run_args: Any,
) -> Any:
    """One timed ``system.run`` and the metrics read off its result."""
    with ctx.cal.region() as region:
        metrics = system.run(duration, **run_args)
    items = sum(metrics.items_generated.values())
    delivered = sum(metrics.items_delivered.values())
    out.add("items_per_s", items / region.seconds)
    out.add("backbone_mbit_per_kitem", 1000.0 * metrics.total_mbit() / items)
    out.add("peak_peer_cpu_pct", max(cpu for _, cpu in metrics.cpu_series(system.net)))
    out.add("items_delivered_share", delivered / (delivered + metrics.items_lost))
    out.op(metrics.queries_lost == 0, f"{metrics.queries_lost} queries lost")
    return metrics


def reference_run(ctx: Context, scenario: Scenario, duration: float, strategy: str) -> Any:
    """RunMetrics of an untimed, fault-free run on regular documents:
    the oracles the measured samples are compared with."""
    system = new_system(ctx, scenario, strategy=strategy)
    for name, text, peer in scenario_entries(scenario):
        system.register_query(name, text, peer)
    return system.run(duration)


def check_pin(ctx: Context, out: Outcome, key: str, metrics: Any, pins: Dict[str, Any]) -> None:
    """Pinned totals apply to the default seed only."""
    pin = pins.get(key + ("/quick" if ctx.quick else ""))
    if ctx.seed != 0 or pin is None:
        return
    seen = {
        "generated": sum(metrics.items_generated.values()),
        "delivered": sum(metrics.items_delivered.values()),
        "digest": delivery_digest(metrics),
    }
    out.op(seen == pin, f"{key}: pinned {pin}, saw {seen}")


# ----------------------------------------------------------------------
# Tracing a sample
# ----------------------------------------------------------------------
def traced(
    ctx: Context,
    recorder: Recorder,
    body: Callable[[], Any],
    into: List[Dict[str, float]],
    system: Optional[StreamGlobe] = None,
) -> Any:
    """Run ``body`` inside a tracer window; append its calibrated
    roll-up to ``into``.  With ``system`` (a sample on that system) the
    tracer's wrappers are installed and the system's counters probed;
    without (a set-up) only the recorder's spans are harvested."""
    columnar_before = columnar_stats()
    with ctx.cal.region() as region:
        if system is not None:
            with ctx.tracer.installed(), ctx.tracer.window(recorder) as window:
                result = body()
        else:
            with ctx.tracer.window(recorder) as window:
                result = body()
    layers = roll_up(window)
    ctx.last_spans = window.spans
    for name in list(layers):
        if name.endswith("_s"):
            layers[name] *= region.speed
    if system is not None:
        layers.update(probe_counts(system, columnar_before, layers["engine.delivery.calls"]))
    into.append(layers)
    return result


def probe_counts(
    system: StreamGlobe, columnar_before: Dict[str, int], feeds: float
) -> Dict[str, float]:
    """Counts and ratios read off the system after a traced sample
    (``feeds``: delivery feed calls the tracer counted)."""
    columnar = {k: v - columnar_before[k] for k, v in columnar_stats().items()}
    offered = (
        columnar["batches_encoded"]
        + columnar["batches_bypassed_shape"]
        + columnar["batches_bypassed_irregular"]
    )
    simulator = system.last_simulator
    caches = system.cache_stats()
    results = system.results
    return {
        "xmlkit.rows_encoded": columnar["rows_encoded"],
        "xmlkit.encode_ratio": columnar["batches_encoded"] / offered if offered else 0.0,
        "engine.delivery_kernel_ratio": (
            columnar["delivery_kernel_batches"] / feeds if feeds else 0.0
        ),
        "engine.peak_live_items": simulator.peak_live_items,
        "parallel.exchange_bytes": getattr(simulator, "exchange_bytes", 0),
        "parallel.exchange_items": getattr(simulator, "exchange_items", 0),
        "parallel.exchange_batches": getattr(simulator, "exchange_batches", 0),
        "sharing.index.candidates_per_reg": (
            sum(r.plan.candidate_matches for r in results) / len(results) if results else 0.0
        ),
        "matching.memo_hit_rate": caches.get("match", {}).get("hit_rate", 0.0),
        "network.route_cache_hit_rate": caches["route"]["hit_rate"],
        "network.route_invalidations": caches["route"]["invalidations"],
        "costmodel.rate_cache_hit_rate": caches["rate"]["hit_rate"],
    }


# ----------------------------------------------------------------------
# The workloads
# ----------------------------------------------------------------------
class Workload:
    """One workload: how to set a system up and what one sample is."""

    name = ""
    #: A fresh system per sample (the sample mutates it), else one
    #: system measured repeatedly after ``SETUPS`` timed set-ups.
    fresh = False
    irregular = False

    #: Virtual seconds of one sample's run: (full size, ``--quick``).
    durations = (0.0, 0.0)

    def __init__(self, ctx: Context, pins: Dict[str, Any]) -> None:
        self.ctx = ctx
        self.pins = pins
        self.duration = self.durations[ctx.quick]
        self.scenario = self.build_scenario()
        # The paper's headline saving is against data shipping.
        shipped = reference_run(ctx, self.scenario, self.duration, "data-shipping")
        self.shipping = 1000.0 * shipped.total_mbit() / sum(shipped.items_generated.values())

    def build_scenario(self) -> Scenario:
        raise NotImplementedError

    def run(self, out: Outcome, system: StreamGlobe, **run_args: Any) -> Any:
        """One timed run of the sample's duration, checked against the pin."""
        metrics = run_sample(self.ctx, out, system, self.duration, **run_args)
        check_pin(self.ctx, out, self.name, metrics, self.pins)
        return metrics

    def prepare(self, out: Outcome, recorder: Optional[Recorder] = None) -> StreamGlobe:
        return prepare_registered(self.ctx, out, self.scenario, self.irregular, recorder)

    def warm(self, system: StreamGlobe) -> None:
        """Untimed work on the system the samples will run on."""

    def sample(self, out: Outcome, system: StreamGlobe) -> None:
        raise NotImplementedError

    def finish(self, out: Outcome, system: StreamGlobe) -> None:
        teardown(self.ctx, out, system)


class Fig7Steady(Workload):
    """Regular documents on the columnar fast path: generation,
    freeze, column encode, kernels, delivery count, byte accounting;
    control plane idle."""

    name = "fig7-steady"

    durations = (100.0, 10.0)

    def build_scenario(self) -> Scenario:
        return scenario_two()

    def sample(self, out: Outcome, system: StreamGlobe) -> None:
        self.run(out, system)


class Fig7Irregular(Fig7Steady):
    """Every 7th photon lacks coord/det, so every batch falls back
    to the tree operators: the same engine layer used the other way."""

    name = "fig7-irregular"
    irregular = True
    durations = (40.0, 10.0)

    def __init__(self, ctx: Context, pins: Dict[str, Any]) -> None:
        super().__init__(ctx, pins)
        # Oracle: the regular stream delivers the same results per query.
        regular = reference_run(ctx, self.scenario, self.duration, "stream-sharing")
        self.regular_delivered = regular.items_delivered

    def sample(self, out: Outcome, system: StreamGlobe) -> None:
        metrics = self.run(out, system)
        out.op(
            metrics.items_delivered == self.regular_delivered,
            "irregular stream delivered other per-query counts than the regular one",
        )


class Fig7Sharded(Fig7Steady):
    """system.run(workers=2) on two forked cells: fork, pickle/pipe
    exchange, barrier idle and merge decide; read against
    fig7-steady for the 1.5x bar."""

    name = "fig7-sharded-w2"

    durations = (60.0, 10.0)

    def warm(self, system: StreamGlobe) -> None:
        # Oracle: the sequential executor's RunMetrics.  The sharded
        # warm-up also imports the parallel plane.
        self.sequential = system.run(self.duration)
        system.run(WARMUP_S, workers=2)

    def sample(self, out: Outcome, system: StreamGlobe) -> None:
        metrics = self.run(out, system, workers=2)
        out.op(metrics == self.sequential, "sharded RunMetrics differ from sequential")


class GridRegister(Workload):
    """Control plane at 800 queries: parse/analyze, matching memo,
    availability index, planner search, commit, deregistrar GC with
    writes beside reads; a short run then prices the resulting plan."""

    name = "grid-register-800"
    fresh = True
    durations = (40.0, 10.0)

    def build_scenario(self) -> Scenario:
        return scenario_grid(4, 4, 60 if self.ctx.quick else 800)

    def prepare(self, out: Outcome, recorder: Optional[Recorder] = None) -> StreamGlobe:
        with self.ctx.cal.region() as region:
            system = new_system(self.ctx, self.scenario, recorder=recorder)
        out.add("setup_s", region.seconds)
        return system

    def sample(self, out: Outcome, system: StreamGlobe) -> None:
        ctx = self.ctx
        entries = scenario_entries(self.scenario)
        latencies = register_all(ctx, out, system, entries)
        victims = entries[::3]
        self.deregistered = deregister_all(ctx, out, system, [name for name, _, _ in victims])
        # Fresh names: re-registering a deregistered name whose stream is
        # still shared raises "stream 'Q007:photons' already installed".
        latencies += register_all(
            ctx,
            out,
            system,
            [(f"R{i:03d}", text, peer) for i, (_, text, peer) in enumerate(victims)],
        )
        record_registrations(out, latencies)
        report = verify_deployment(system.deployment, catalog=system.catalog)
        out.op(report.ok, "verify_deployment found errors after the register cycle")
        self.run(out, system)

    def finish(self, out: Outcome, system: StreamGlobe) -> None:
        teardown(self.ctx, out, system, self.deregistered)


class HotspotsChurn(Workload):
    """Crash/rejoin rounds over SP1/SP6/SP5/SP10 on three hot spots:
    plan repair, executor reconcile, route-cache invalidation,
    windows and aggregates."""

    name = "hotspots-rolling-churn"
    fresh = True
    durations = (200.0, 40.0)
    PEERS = ("SP1", "SP6", "SP5", "SP10")

    def build_scenario(self) -> Scenario:
        return scenario_churn_hotspots(rows=3, cols=4, query_count=48, duration=self.duration)

    def schedule(self) -> FaultSchedule:
        rounds = int(self.duration // 10)
        events: List[Any] = []
        for index in range(rounds):
            crash_at = 5.0 + 9.5 * index
            peer = self.PEERS[index % len(self.PEERS)]
            events.append(SuperPeerCrash(crash_at, peer))
            events.append(SuperPeerRejoin(crash_at + 5.0, peer))
        return FaultSchedule(events)

    def sample(self, out: Outcome, system: StreamGlobe) -> None:
        schedule = self.schedule()
        metrics = self.run(out, system, faults=schedule)
        out.op(
            metrics.faults_applied == len(schedule),
            f"{metrics.faults_applied} of {len(schedule)} faults applied",
        )
        report = verify_deployment(system.deployment, catalog=system.catalog)
        out.op(report.ok, "verify_deployment found errors after churn")



# ----------------------------------------------------------------------
# Measuring one workload
# ----------------------------------------------------------------------
def _timed_sample(ctx: Context, out: Outcome, workload: Workload, system: StreamGlobe) -> None:
    with ctx.cal.region() as region:
        workload.sample(out, system)
    out.add("sample_s", region.seconds)


def measure(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    quick: bool,
    calibrator: Calibrator,
    pins: Optional[Dict[str, Any]] = None,
) -> Tuple[Context, Workload]:
    """Run one workload for ``seconds`` of sampling.

    Untraced samples fill ``ctx.out``.  With ``trace`` every untraced
    sample is followed by a traced one on a system of its own (same
    inputs, a ``Recorder`` handed to ``StreamGlobe``, the tracer's
    wrappers installed for the sample only), filling
    ``ctx.sample_layers`` / ``ctx.setup_layers``.
    """
    ctx = Context(seed, quick, calibrator)
    out, tout = ctx.out, ctx.traced_out
    workload: Workload = WORKLOADS[name](ctx, PINS if pins is None else pins)
    taken = 0

    def more() -> bool:
        return taken < MIN_SAMPLES or perf_counter() - started < seconds

    def traced_setup() -> Tuple[StreamGlobe, Recorder]:
        recorder = Recorder()
        system = traced(ctx, recorder, lambda: workload.prepare(tout, recorder), ctx.setup_layers)
        return system, recorder

    def traced_sample(system: StreamGlobe, recorder: Recorder) -> None:
        traced(ctx, recorder, lambda: workload.sample(tout, system), ctx.sample_layers, system)

    started = perf_counter()
    if workload.fresh:
        while more():
            system = workload.prepare(out)
            _timed_sample(ctx, out, workload, system)
            workload.finish(out, system)
            if trace:
                system, recorder = traced_setup()
                traced_sample(system, recorder)
                workload.finish(tout, system)
            taken += 1
    else:
        for _ in range((2 if quick else SETUPS) - 1):
            workload.finish(out, workload.prepare(out))
        system = workload.prepare(out)
        workload.warm(system)
        if trace:
            traced_system, recorder = traced_setup()
            workload.warm(traced_system)
        started = perf_counter()
        while more():
            _timed_sample(ctx, out, workload, system)
            if trace:
                traced_sample(traced_system, recorder)
            taken += 1
        workload.finish(out, system)
    return ctx, workload


def end_to_end(ctx: Context, workload: Workload, import_seconds: float) -> Dict[str, List[float]]:
    """Per-sample values of every end-to-end metric of an untraced run
    (the reported value is their median)."""
    samples = ctx.out.samples
    usage = max(
        resource.getrusage(who).ru_maxrss
        for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
    )
    metrics = {
        name: list(samples[name])
        for name in (
            "items_per_s",
            "registrations_per_s",
            "register_ms_p50",
            "register_ms_p95",
            "deregistrations_per_s",
            "backbone_mbit_per_kitem",
            "peak_peer_cpu_pct",
            "items_delivered_share",
        )
    }
    metrics["setup_s"] = [import_seconds + seconds for seconds in samples["setup_s"]]
    metrics["peak_rss_mb"] = [usage / 1024.0]
    metrics["traffic_vs_data_shipping"] = [
        value / workload.shipping for value in samples["backbone_mbit_per_kitem"]
    ]
    return metrics


#: Layers of a traced *set-up* that count (the run workloads register
#: their queries there); its warm-up run does not.
_SETUP_PREFIXES = ("wxquery.", "sharing.", "analysis.")


def per_layer(ctx: Context) -> Tuple[Dict[str, float], Dict[str, float], Dict[str, float]]:
    """Per-layer metrics: mean per traced sample, plus the control-plane
    layers of the traced set-up (that is where the run workloads
    register their queries).  Times are calibrated seconds.  Also
    returns the two means (sample, set-up) the table is printed from."""

    def means(rows: List[Dict[str, float]]) -> Dict[str, float]:
        keys = sorted({key for row in rows for key in row})
        return {key: statistics.fmean(row.get(key, 0.0) for row in rows) for key in keys}

    sample = means(ctx.sample_layers)
    setup = {
        key: value
        for key, value in means(ctx.setup_layers).items()
        if key.startswith(_SETUP_PREFIXES) and key.endswith("_s")
    }
    layers = dict(sample)
    for key, value in setup.items():
        layers[key] = layers.get(key, 0.0) + value
    untraced = ctx.out.median("sample_s")
    traced_wall = statistics.median(row["obs.wall_s"] for row in ctx.sample_layers)
    layers["obs.trace_overhead_pct"] = 100.0 * (traced_wall / untraced - 1.0)
    layers["obs.residual_share"] = sample["obs.residual_s"] / sample["obs.wall_s"]
    return layers, sample, setup


WORKLOADS: Dict[str, type] = {
    cls.name: cls
    for cls in (Fig7Steady, Fig7Irregular, Fig7Sharded, GridRegister, HotspotsChurn)
}

#: Totals of one sample at seed 0 (generated items, delivered results,
#: digest of the per-query delivered counts), recorded at the commit
#: that added the benchmark; identical under REPRO_COLUMNAR=auto, on
#: and off when recorded.  "/quick" keys are the --quick sizes.
PINS: Dict[str, Dict[str, Any]] = {
    "fig7-irregular": {"generated": 7211, "delivered": 45047, "digest": "0da88417579cb522"},
    "fig7-irregular/quick": {"generated": 1812, "delivered": 11441, "digest": "0d38278174c223ab"},
    "fig7-sharded-w2": {"generated": 10795, "delivered": 67248, "digest": "1d057942f07d0197"},
    "fig7-sharded-w2/quick": {"generated": 1812, "delivered": 11441, "digest": "0d38278174c223ab"},
    "fig7-steady": {"generated": 17988, "delivered": 111650, "digest": "61ddd7fb0f394e6e"},
    "fig7-steady/quick": {"generated": 1812, "delivered": 11441, "digest": "0d38278174c223ab"},
    "grid-register-800": {"generated": 4018, "delivered": 390396, "digest": "66a82cb333649236"},
    "grid-register-800/quick": {"generated": 1008, "delivered": 5977, "digest": "0724762194d85f1a"},
    "hotspots-rolling-churn": {"generated": 19984, "delivered": 46962, "digest": "7259733e4ce527a1"},
    "hotspots-rolling-churn/quick": {"generated": 3999, "delivered": 8894, "digest": "22266a1f54182ab1"},
}
