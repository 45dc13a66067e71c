"""The pump and the cyclic collector (DESIGN.md §7).

Cells pause the collector while they step; that is safe only because a
run makes no reference cycles, and the caller's own cyclic garbage is
reclaimed by one collection at the start of a run large enough to pay
for it.  A run leaves the collector as it found it.
"""

import dataclasses
import gc
import sys
from contextlib import contextmanager

import pytest

from tests.conftest import PAPER_QUERIES, make_system, pinned_cells
from repro.engine.executor import ExecutionError, reclaim_before_run
from repro.workload import PhotonGenerator, PhotonStreamConfig
from repro.workload import scenario_churn_hotspots, scenario_two
from repro.workload.scenarios import run_scenario


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


def paper_system():
    system = make_system()
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
    system = paper_system()
    if kind == "sequential":
        system.run(5.0)
    elif kind == "workers-2":
        system.run(5.0, workers=2)
    else:
        with pinned_cells("inline"):
            system.run(5.0, workers=2)
    return system


RUNS = ["sequential", "workers-2", "inline-workers-2", "failing"]


@pytest.mark.parametrize(
    "scenario",
    [scenario_two, lambda: dataclasses.replace(scenario_churn_hotspots(), faults=None)],
    ids=["scenario-two", "churn-hotspots-fault-free"],
)
def test_a_run_makes_no_reference_cycles(scenario):
    """Everything a run drops goes by reference count.  (Before the
    recursive signature closures became module functions the two runs
    left 22 and 66 cyclic objects on scenario two.)"""
    system = run_scenario(scenario(), "stream-sharing", execute=False).system
    # The first run compiles each interned shape once (bounded by the
    # shape registry, not by the run).
    system.run(2.0)
    with collector(False):
        gc.collect()
        for duration in (10.0, 40.0):
            system.run(duration)
            assert gc.collect() == 0, duration


@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
@pytest.mark.parametrize("kind", RUNS)
def test_a_run_leaves_the_collector_as_it_found_it(kind, enabled):
    with collector(enabled):
        run_once(kind)
        assert gc.isenabled() is enabled


@pytest.mark.parametrize("kind", RUNS)
def test_a_disabled_collector_never_runs_during_a_run(kind, monkeypatch):
    # Even a run the rule would collect before.
    monkeypatch.setattr(sys, "getallocatedblocks", lambda: 0)
    with collector(False), collections() as seen:
        system = run_once(kind)
    assert seen == []
    stats = system.cache_stats()["gc"]
    assert stats["run_start_collection"] == 0.0
    assert [stats["gen0"], stats["gen1"], stats["gen2"]] == [0, 0, 0]


class TestRunStartCollection:
    def test_collects_only_when_the_run_allocates_a_heap(self, monkeypatch):
        with collector(True):
            monkeypatch.setattr(sys, "getallocatedblocks", lambda: 1000)
            with collections() as seen:
                assert reclaim_before_run(1000.0)
            assert seen == [2]
            with collections() as seen:
                assert not reclaim_before_run(999.0)
            assert seen == []
        with collector(False), collections() as seen:
            assert not reclaim_before_run(1000.0)
        assert seen == []

    @pytest.mark.parametrize("blocks, fired", [(0, 1.0), (10**12, 0.0)])
    def test_cache_stats_report_the_runs_collections(self, monkeypatch, blocks, fired):
        system = paper_system()
        assert system.cache_stats()["gc"] == {}
        monkeypatch.setattr(sys, "getallocatedblocks", lambda: blocks)
        with collector(True), collections() as seen:
            system.run(5.0)
        stats = system.cache_stats()["gc"]
        assert stats["run_start_collection"] == fired
        assert stats["allocated_blocks"] == blocks
        # 5 s of 100 photons/s, 11 nodes each: an element and a child
        # list per node.
        assert stats["expected_allocations"] == pytest.approx(5.0 * 100 * 22)
        # The run-start collection is a full one; the rest are the
        # run's own, generation by generation.
        assert seen.count(2) == stats["gen2"] + fired
        assert seen.count(1) == stats["gen1"]
        assert seen.count(0) == stats["gen0"]

    def test_the_pump_is_not_where_collections_happen(self):
        """A sequential run steps its one cell once (no faults, not
        traced): its collections happen around the step, a handful,
        however long it runs."""
        system = run_scenario(scenario_two(), "stream-sharing", execute=False).system
        with collector(True):
            system.run(100.0)
        stats = system.cache_stats()["gc"]
        assert stats["gen1"] + stats["gen2"] <= 2
        assert stats["gen0"] < 20
