"""The pump and the cyclic collector (DESIGN.md §7).

Cells pause the collector while they step.  That is safe because
nothing makes reference cycles — not a run, and not a system: what a
run drops and what a dropped system leaves go by reference count, so
the collector, switched off below, has nothing to find.  A run leaves
the collector as it found it.
"""

import dataclasses
import gc
from contextlib import contextmanager

import pytest

from tests.conftest import PAPER_QUERIES, make_system, pinned_cells
from repro.engine.executor import ExecutionError
from repro.sharing.rebalance import Rebalancer
from repro.workload import PhotonGenerator, PhotonStreamConfig
from repro.workload import scenario_churn_hotspots, scenario_two
from repro.workload.scenarios import SCENARIOS, run_scenario


@contextmanager
def collector(enabled):
    """The collector switched ``enabled`` for the block, restored after."""
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        yield
    finally:
        (gc.enable if was else gc.disable)()


@contextmanager
def collections():
    """The generation of every collection started in the block."""
    seen = []

    def callback(phase, info):
        if phase == "start":
            seen.append(info["generation"])

    gc.callbacks.append(callback)
    try:
        yield seen
    finally:
        gc.callbacks.remove(callback)


def paper_system(**options):
    system = make_system(**options)
    for name, text in PAPER_QUERIES.items():
        system.register_query(name, text, subscriber_peer=f"P{name[1]}")
    return system


class _FailsAfter:
    """A photon stream that raises mid-step once its clock passes
    ``at`` virtual seconds."""

    def __init__(self, config, at):
        self.inner = PhotonGenerator(config)
        self.at = at

    @property
    def clock(self):
        return self.inner.clock

    def next_item(self):
        if self.inner.clock > self.at:
            raise ExecutionError("source failed mid-step")
        return self.inner.next_item()


def failing_system():
    system = paper_system()
    config = PhotonStreamConfig(seed=20060326, frequency=100.0)
    system.sources["photons"].generator_factory = lambda: _FailsAfter(config, 1.0)
    return system


def run_once(kind):
    """One run of ``kind``; returns the system it ran."""
    if kind == "failing":
        system = failing_system()
        with pytest.raises(ExecutionError, match="mid-step"):
            system.run(5.0)
        return system
    if kind == "faults":
        scenario = SCENARIOS["churn-smoke"]()
        system = run_scenario(scenario, "stream-sharing", execute=False).system
        system.run(scenario.duration, faults=scenario.faults)
        return system
    system = paper_system(verify=kind == "verify")
    if kind in ("sequential", "verify"):
        system.run(5.0)
    elif kind == "capture":
        captured = []
        system.run(5.0, capture=lambda name, item: captured.append(name))
        assert captured
    elif kind == "rebalancer":
        system.run(5.0, rebalancer=Rebalancer(system))
    elif kind == "deregistered":
        system.run(5.0)
        for name in list(system.deployment.queries):
            system.deregister_query(name)
    else:
        with pinned_cells("process" if kind == "workers-2" else "inline"):
            system.run(5.0, workers=2)
        assert system.last_simulator.workers_used == 2
    return system


RUNS = ["sequential", "workers-2", "inline-workers-2", "failing"]

#: Every kind of run a system may have had when it is dropped.
DROPPED = [
    "sequential",
    "verify",
    "capture",
    "faults",
    "rebalancer",
    "workers-2",
    "inline-workers-2",
    "deregistered",
]


@pytest.mark.parametrize(
    "scenario",
    [scenario_two, lambda: dataclasses.replace(scenario_churn_hotspots(), faults=None)],
    ids=["scenario-two", "churn-hotspots-fault-free"],
)
def test_a_run_makes_no_reference_cycles(scenario):
    """Everything a run drops goes by reference count, on one cell and
    on two, forked or inline.  (Before the recursive signature closures
    became module functions the two sequential runs left 22 and 66
    cyclic objects on scenario two; before a cell exported through a
    closure over its outbox, every sharded run left the cell ↔ export
    feed cycle.)"""
    system = run_scenario(scenario(), "stream-sharing", execute=False).system
    # The first runs compile each interned shape once (bounded by the
    # shape registry, not by the run).
    system.run(2.0)
    for mode in ("process", "inline"):
        with pinned_cells(mode):
            system.run(2.0, workers=2)
    with collector(False):
        gc.collect()
        for duration in (10.0, 40.0):
            system.run(duration)
            assert gc.collect() == 0, duration
        for mode in ("process", "inline"):
            with pinned_cells(mode):
                system.run(10.0, workers=2)
            assert system.last_simulator.mode_used == mode
            assert gc.collect() == 0, mode


@pytest.mark.parametrize("kind", DROPPED)
def test_a_dropped_system_leaves_no_cyclic_garbage(kind):
    """A system is freed by reference count, whatever it ran: no
    repairer it keeps (it keeps the parked subscriptions instead), no
    repairer, rebalancer or capture hook its latest simulator keeps
    after the run, no shape node that caches itself (the statistics'
    private shape trees) and no cell its export feeds or capture hook
    lead back to."""
    run_once(kind)  # the process-wide caches (shapes, builders) fill once
    with collector(False):
        gc.collect()
        run_once(kind)
        assert gc.collect() == 0


@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
@pytest.mark.parametrize("kind", RUNS)
def test_a_run_leaves_the_collector_as_it_found_it(kind, enabled):
    with collector(enabled):
        run_once(kind)
        assert gc.isenabled() is enabled


@pytest.mark.parametrize("kind", RUNS)
def test_a_disabled_collector_never_runs_during_a_run(kind):
    with collector(False), collections() as seen:
        system = run_once(kind)
    assert seen == []
    stats = system.cache_stats()["gc"]
    assert stats == {"gen0": 0, "gen1": 0, "gen2": 0}


def test_cache_stats_count_the_runs_collections():
    system = paper_system()
    assert system.cache_stats()["gc"] == {}
    with collector(True), collections() as seen:
        system.run(5.0)
    stats = system.cache_stats()["gc"]
    assert sorted(stats) == ["gen0", "gen1", "gen2"]
    for generation in range(3):
        assert seen.count(generation) == stats[f"gen{generation}"]


def test_the_pump_is_not_where_collections_happen():
    """A sequential run steps its one cell once (no faults, not
    traced): its collections happen around the step, a handful,
    however long it runs."""
    system = run_scenario(scenario_two(), "stream-sharing", execute=False).system
    with collector(True):
        system.run(100.0)
    stats = system.cache_stats()["gc"]
    assert stats["gen1"] + stats["gen2"] <= 2
    assert stats["gen0"] < 20
