"""The sharded executor: byte-identical metrics at every worker count.

Every test compares :class:`~repro.engine.parallel.ShardedSimulator`
output against the sequential :class:`StreamSimulator` on identically
seeded systems — equality below is full ``RunMetrics`` equality (exact
floats, not approximate), which is the PR's core guarantee.
"""

import dataclasses
import multiprocessing
import os
import pickle
import signal
import time

import pytest

from repro.engine import parallel
from repro.engine.columnar import (
    batch_bytes,
    columnar_stats,
    reset_columnar_stats,
)
from repro.engine.executor import ExecutionError, StreamSimulator
from repro.engine.parallel import ShardedSimulator
from repro.faults import FaultSchedule, LinkFailure, single_crash, staggered_crashes
from repro.obs.recorder import NULL_RECORDER, Recorder
from repro.xmlkit import Element, serialize

from .conftest import PAPER_QUERIES, make_system, pinned_cells

DURATION = 8.0
MAX_ITEMS = 150

#: Fault schedules over the example topology (SP1..SP8 backbone).
FAULT_CASES = {
    "crash": lambda: single_crash(3.0, "SP6"),
    "crash_rejoin": lambda: single_crash(3.0, "SP5", rejoin_at=6.0),
    "link": lambda: FaultSchedule([LinkFailure(3.0, "SP4", "SP5")]),
    "rolling": lambda: staggered_crashes(3.0, ("SP6", "SP5"), spacing=2.0, downtime=3.0),
}


def deployed_system(**kwargs):
    system = make_system(**kwargs)
    for name, text in PAPER_QUERIES.items():
        system.register_query(name, text, subscriber_peer=f"P{name[1]}")
    return system


def run_system(workers, cells="inline", faults_key=None, traced=False):
    """One full run; returns (metrics, per-query capture, simulator)."""
    system = deployed_system(recorder=Recorder() if traced else NULL_RECORDER)
    captured = {}
    with pinned_cells(cells):
        metrics = system.run(
            DURATION,
            max_items_per_source=MAX_ITEMS,
            faults=FAULT_CASES[faults_key]() if faults_key else None,
            capture=lambda name, item: captured.setdefault(name, []).append(
                serialize(item)
            ),
            workers=workers,
        )
    return metrics, captured, system.last_simulator


# ----------------------------------------------------------------------
# Identity: fault-free
# ----------------------------------------------------------------------
@pytest.mark.parametrize("workers", [2, 4, 8])
def test_identity_inline(workers):
    seq_metrics, seq_cap, _ = run_system(1)
    for traced in (False, True):
        par_metrics, par_cap, simulator = run_system(workers, traced=traced)
        assert par_metrics == seq_metrics
        assert par_cap == seq_cap
        assert simulator.mode_used == "inline"
        assert 1 < simulator.workers_used <= workers


def test_identity_process():
    seq_metrics, seq_cap, _ = run_system(1)
    for traced in (False, True):
        par_metrics, par_cap, simulator = run_system(2, cells="process", traced=traced)
        assert par_metrics == seq_metrics
        assert par_cap == seq_cap
        assert simulator.mode_used == "process"


# ----------------------------------------------------------------------
# Identity: under churn (faults applied at epoch barriers, plan
# re-certified and re-partitioned on every Network.version bump)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("case", sorted(FAULT_CASES))
def test_identity_under_faults_inline(case):
    seq_metrics, seq_cap, _ = run_system(1, faults_key=case)
    for traced in (False, True):
        par_metrics, par_cap, _ = run_system(4, faults_key=case, traced=traced)
        assert par_metrics == seq_metrics
        assert par_cap == seq_cap
        assert par_metrics.faults_applied > 0


def test_identity_under_faults_process():
    seq_metrics, seq_cap, _ = run_system(1, faults_key="crash_rejoin")
    for traced in (False, True):
        par_metrics, par_cap, simulator = run_system(
            2, cells="process", faults_key="crash_rejoin", traced=traced
        )
        assert par_metrics == seq_metrics
        assert par_cap == seq_cap
        assert simulator.mode_used == "process"


def test_recertification_changes_the_partition_mid_run(inline_cells):
    """Churn merges/splits shards mid-run; the run stays identical."""
    seq_metrics, _, _ = run_system(1, faults_key="rolling")

    system = deployed_system()
    plans = []

    def replan():
        plan = system.shard_plan()
        plans.append(plan)
        return plan

    generators = {
        name: source.generator_factory()
        for name, source in system.sources.items()
    }
    simulator = ShardedSimulator(
        system.net,
        system.deployment,
        generators,
        DURATION,
        plan=system.shard_plan(),
        workers=4,
        max_items_per_source=MAX_ITEMS,
        schedule=FAULT_CASES["rolling"](),
        repair=system.plan_repairer().repair,
        replan=replan,
    )
    par_metrics = simulator.run()
    assert par_metrics == seq_metrics
    # Every applied fault event re-certified; the crash plans differ
    # from the initial partition (a node left, so its shard is gone or
    # merged).
    assert len(plans) == par_metrics.faults_applied >= 3
    initial = simulator.plan
    assert any(plan.shard_count != initial.shard_count for plan in plans)
    assert simulator.partition_conflicts == 0


# ----------------------------------------------------------------------
# Fallbacks and clamps
# ----------------------------------------------------------------------
def check_uncertified_plan_runs_sequentially(faults_key):
    system = deployed_system()
    generators = {
        name: source.generator_factory()
        for name, source in system.sources.items()
    }
    plan = dataclasses.replace(system.shard_plan(), certified=False)
    captured = {}
    simulator = ShardedSimulator(
        system.net,
        system.deployment,
        generators,
        DURATION,
        plan=plan,
        workers=4,
        max_items_per_source=MAX_ITEMS,
        schedule=FAULT_CASES[faults_key]() if faults_key else None,
        repair=system.plan_repairer().repair if faults_key else None,
        capture=lambda name, item: captured.setdefault(name, []).append(
            serialize(item)
        ),
    )
    metrics = simulator.run()
    assert simulator.mode_used == "sequential"
    assert simulator.workers_used == 1
    assert simulator.exchange_items == 0 and simulator.partition_conflicts == 0
    seq_metrics, seq_cap, _ = run_system(1, faults_key=faults_key)
    assert metrics == seq_metrics
    assert captured == seq_cap
    assert metrics.faults_applied == (2 if faults_key else 0)


def test_uncertified_plan_falls_back_to_sequential():
    check_uncertified_plan_runs_sequentially(None)


def test_uncertified_plan_falls_back_to_sequential_under_faults():
    """Without a certificate the run is the one loop over one cell, not
    a second simulator: faults, repair and reconcile included."""
    check_uncertified_plan_runs_sequentially("crash_rejoin")


@pytest.mark.parametrize("sharded", [False, True])
def test_non_positive_batch_size_is_rejected(sharded):
    """Validated once, where both simulators are built: with no items
    per pump the clock would never advance."""
    system = deployed_system()
    extra = {"plan": system.shard_plan(), "workers": 2} if sharded else {}
    with pytest.raises(ExecutionError, match="batch size must be positive"):
        (ShardedSimulator if sharded else StreamSimulator)(
            system.net, system.deployment, {}, DURATION, batch_size=0, **extra
        )


def test_single_worker_request_stays_sequential():
    _, _, simulator = run_system(1)
    assert not isinstance(simulator, ShardedSimulator)


def test_worker_count_clamped_to_shard_count():
    _, _, simulator = run_system(64)
    plan = simulator.plan
    assert simulator.workers_used <= plan.shard_count
    assert simulator.workers_used > 1


# ----------------------------------------------------------------------
# Exchange accounting and per-shard telemetry
# ----------------------------------------------------------------------
def test_exchange_counters_and_per_shard_peaks():
    _, _, simulator = run_system(2)
    assert simulator.exchange_batches > 0
    assert simulator.exchange_items > 0
    assert simulator.exchange_bytes > 0
    for (src, dst), items in simulator.exchange_pairs.items():
        assert src != dst
        assert items > 0
    peaks = simulator.peak_live_items_per_shard
    assert sorted(peaks) == list(range(simulator.workers_used))
    assert simulator.peak_live_items == max(peaks.values())


def test_query_lags_respect_certified_epoch_lag():
    _, _, simulator = run_system(4)
    certified = dict(simulator.plan.epoch_lag)
    for query, lag in simulator.query_lags.items():
        # Cell-granularity crossings can only be fewer than the
        # finest-partition certificate's.
        assert 0 <= lag <= certified[query]


# ----------------------------------------------------------------------
# Partition conflicts (one policy on both backends: keep the partition)
# ----------------------------------------------------------------------
def direct_simulator(system, generators=None, **kwargs):
    """A 2-worker ShardedSimulator built by hand (no replan hook unless
    given: re-certification then runs without the statistics catalog)."""
    if generators is None:
        generators = {
            name: source.generator_factory()
            for name, source in system.sources.items()
        }
    return ShardedSimulator(
        system.net,
        system.deployment,
        generators,
        DURATION,
        plan=system.shard_plan(),
        workers=2,
        max_items_per_source=MAX_ITEMS,
        **kwargs,
    )


@pytest.mark.parametrize("mode", ["inline", "process"])
@pytest.mark.parametrize("case", ["crash", "rolling", "no-certificate"])
def test_partition_conflict_keeps_the_partition_in_both_modes(mode, case):
    """The same run must not succeed or fail by backend.

    ``crash``/``rolling``: after SP6 goes down the repaired Q4 window
    pipeline, re-certified without the catalog, is order-sensitive; its
    S510 feed path merges super-peers that live in two cells — a
    certified shard spanning the cut.  ``no-certificate``: the replan
    hook returns an uncertified plan outright.  Either way the run
    keeps its partition, counts the conflict and stays byte-identical.
    """
    faults = "crash" if case == "no-certificate" else case
    seq_metrics, _, _ = run_system(1, faults_key=faults)
    system = deployed_system()
    extra = {}
    if case == "no-certificate":
        extra["replan"] = lambda: dataclasses.replace(
            system.shard_plan(), certified=False
        )
    simulator = direct_simulator(
        system,
        schedule=FAULT_CASES[faults](),
        repair=system.plan_repairer().repair,
        **extra,
    )
    with pinned_cells(mode):
        metrics = simulator.run()
    assert simulator.mode_used == mode
    assert simulator.partition_conflicts > 0
    assert metrics == seq_metrics


# ----------------------------------------------------------------------
# The wire: frames, headers, a pass-through parent
# ----------------------------------------------------------------------
def test_headers_equal_a_recount_of_the_unpickled_frames(monkeypatch):
    frames = []
    step_all = ShardedSimulator._step_all

    def spying_step_all(simulator, until, pending):
        merged = step_all(simulator, until, pending)
        frames.extend(frame for group in merged.values() for frame in group)
        return merged

    monkeypatch.setattr(ShardedSimulator, "_step_all", spying_step_all)
    _, _, simulator = run_system(2, cells="process")
    assert frames and all(isinstance(frame, bytes) for frame in frames)
    batches = [batch for frame in frames for _, batch in pickle.loads(frame)]
    assert simulator.exchange_batches == len(batches)
    assert simulator.exchange_items == sum(len(batch) for batch in batches)
    assert simulator.exchange_bytes == sum(batch_bytes(batch) for batch in batches)
    assert all(len(batch) for batch in batches)  # empty batches stay home


def test_parent_neither_decodes_nor_encodes_exchanged_rows():
    seq_metrics, _, _ = run_system(1)
    system = deployed_system()
    reset_columnar_stats()
    with pinned_cells("process"):
        metrics = system.run(DURATION, max_items_per_source=MAX_ITEMS, workers=2)
    assert system.last_simulator.mode_used == "process"
    assert system.last_simulator.exchange_items > 0
    assert metrics == seq_metrics
    stats = columnar_stats()
    assert stats["rows_decoded"] == 0 and stats["rows_encoded"] == 0


class _EverySeventhIrregular:
    """Drops the first child of every 7th item: each source batch then
    fails shape validation and lands in a row store."""

    def __init__(self, inner):
        self.inner = inner
        self.count = 0

    @property
    def clock(self):
        return self.inner.clock

    def next_item(self):
        item = self.inner.next_item()
        self.count += 1
        if self.count % 7 == 0:
            item = Element(item.tag, None, item.children[1:])
        return item


@pytest.mark.parametrize("mode", ["inline", "process"])
def test_irregular_stream_ships_trees_and_stays_identical(mode):
    def run(workers):
        system = deployed_system()
        generators = {
            name: _EverySeventhIrregular(source.generator_factory())
            for name, source in system.sources.items()
        }
        if workers == 1:
            simulator = StreamSimulator(
                system.net, system.deployment, generators, DURATION,
                max_items_per_source=MAX_ITEMS,
            )
        else:
            simulator = direct_simulator(system, generators)
        with pinned_cells(mode):
            return simulator.run(), simulator

    before = columnar_stats()["batches_bypassed_irregular"]
    seq_metrics, _ = run(1)
    assert columnar_stats()["batches_bypassed_irregular"] > before
    par_metrics, simulator = run(2)
    assert simulator.mode_used == mode and simulator.exchange_items > 0
    assert par_metrics == seq_metrics


# ----------------------------------------------------------------------
# Real worker failure: bounded, structured, nothing left behind
# ----------------------------------------------------------------------
class _Saboteur:
    """A generator that misbehaves after ``after`` items — in a worker
    process only, never in the process running the tests."""

    def __init__(self, inner, after, act):
        self.inner = inner
        self.after = after
        self.act = act
        self.count = 0
        self.parent = os.getpid()

    @property
    def clock(self):
        return self.inner.clock

    def next_item(self):
        self.count += 1
        if self.count == self.after and os.getpid() != self.parent:
            self.act()
        return self.inner.next_item()


def sabotaged_run(act, recorder):
    system = deployed_system()
    generators = {
        name: _Saboteur(source.generator_factory(), MAX_ITEMS // 2, act)
        for name, source in system.sources.items()
    }
    simulator = direct_simulator(system, generators, recorder=recorder)
    started = time.monotonic()
    with pinned_cells("process"), pytest.raises(ExecutionError) as info:
        simulator.run()
    elapsed = time.monotonic() - started
    errors = [e["fields"] for e in recorder.events if e["name"] == "cell.error"]
    return info.value, errors, elapsed


def test_killed_worker_fails_fast_with_one_structured_event():
    error, events, elapsed = sabotaged_run(
        lambda: os.kill(os.getpid(), signal.SIGKILL), Recorder()
    )
    assert "worker died" in str(error)
    assert [event["exc_type"] for event in events] == ["WorkerDied"]
    assert events[0]["shard"] in (0, 1)
    assert elapsed < 10.0
    assert multiprocessing.active_children() == []


def test_hung_worker_fails_at_the_deadline_and_siblings_are_reaped(monkeypatch):
    monkeypatch.setattr(parallel, "BARRIER_DEADLINE_S", 0.5)
    error, events, elapsed = sabotaged_run(lambda: time.sleep(60.0), Recorder())
    assert "worker hung" in str(error)
    assert [event["exc_type"] for event in events] == ["WorkerHung"]
    assert 0.5 <= elapsed < 10.0
    assert multiprocessing.active_children() == []


def test_pickle_probe_is_memoised_per_deployment_state(monkeypatch):
    system = deployed_system()
    simulator = direct_simulator(system)
    assert simulator._payload_pickles()
    probed = system.deployment.pickle_probe
    monkeypatch.setattr(
        parallel.pickle, "dumps", lambda *a, **k: pytest.fail("probed again")
    )
    assert simulator._payload_pickles()
    monkeypatch.undo()
    # A registration changes the record set: the probe runs afresh.
    system.register_query("Q9", PAPER_QUERIES["Q1"], subscriber_peer="P3")
    assert direct_simulator(system)._payload_pickles()
    assert system.deployment.pickle_probe is not probed


@pytest.mark.parametrize("workers", [0, -3])
def test_run_rejects_a_worker_count_below_one(workers):
    """Like ``ShardedSimulator(workers=0)``: not a silent sequential run."""
    system = deployed_system()
    with pytest.raises(ExecutionError, match="workers must be >= 1"):
        system.run(DURATION, max_items_per_source=MAX_ITEMS, workers=workers)
