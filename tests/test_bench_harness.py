"""Tests for the scenario runner every benchmark table is built on
(:func:`repro.workload.scenarios.run_scenario`) and for
:meth:`repro.network.topology.Network.scaled`, the rejection study's
constrained network.

These use a reduced scenario (fewer queries, short duration) so the
full-size runs stay in ``benchmarks/``.  The tables' rendering is
pinned byte for byte by ``benchmarks/results/``.
"""

import pytest

from repro.network.topology import example_topology
from repro.workload.scenarios import Scenario, ScenarioRun, run_scenario, scenario_one

from .conftest import on_every_executor


@pytest.fixture(scope="module")
def small_scenario():
    scenario = scenario_one(query_count=6)
    scenario.duration = 10.0
    return scenario


@pytest.fixture(scope="module")
def small_runs(small_scenario):
    return {
        strategy: run_scenario(small_scenario, strategy)
        for strategy in ("data-shipping", "query-shipping", "stream-sharing")
    }


class TestScaleNetwork:
    def test_capacity_scaled(self):
        scaled = example_topology().scaled(capacity_factor=0.1)
        assert scaled.super_peer("SP0").capacity == pytest.approx(100_000.0)

    def test_bandwidth_override(self):
        scaled = example_topology().scaled(link_bandwidth=1_000_000.0)
        assert all(link.bandwidth == 1_000_000.0 for link in scaled.links())

    def test_structure_preserved(self):
        original = example_topology()
        scaled = original.scaled(0.5, 2_000_000.0)
        assert len(scaled) == len(original)
        assert len(scaled.links()) == len(original.links())
        assert scaled.home_of("P0") == "SP4"


class TestRunScenario:
    def test_all_queries_registered(self, small_runs, small_scenario):
        for run in small_runs.values():
            assert len(run.registrations) == len(small_scenario.queries)
            assert len(run.system.accepted_queries()) == len(small_scenario.queries)

    def test_sharing_total_traffic_is_lowest(self, small_runs):
        totals = {s: r.metrics.total_mbit() for s, r in small_runs.items()}
        assert totals["stream-sharing"] <= totals["query-shipping"]
        assert totals["query-shipping"] < totals["data-shipping"]

    def test_query_shipping_peaks_at_source(self, small_runs):
        run = small_runs["query-shipping"]
        cpu = dict(run.metrics.cpu_series(run.system.net))
        assert max(cpu, key=cpu.get) == "SP4"

    def test_registration_stats(self, small_runs):
        run = small_runs["stream-sharing"]
        times = run.system.registration_times_ms()
        assert times == [r.registration_ms for r in run.registrations]
        assert all(ms > 0 for ms in times)

    def test_execute_false_skips_metrics(self, small_scenario):
        run = run_scenario(small_scenario, "data-shipping", execute=False)
        assert run.metrics is None
        assert run.system.accepted_queries()

    def test_deliveries_identical_across_strategies(self, small_runs):
        reference = small_runs["data-shipping"].metrics.items_delivered
        for run in small_runs.values():
            assert run.metrics.items_delivered == reference

    def test_options_reach_the_system(self, small_scenario):
        run = run_scenario(
            small_scenario, "stream-sharing", execute=False, gamma=1.0, use_index=False
        )
        assert run.system.cost_model.gamma == 1.0
        assert run.system.subscriber.use_index is False
        with pytest.raises(TypeError):
            run_scenario(small_scenario, "stream-sharing", execute=False, gama=1.0)


class TestEmptyScenario:
    @on_every_executor
    def test_no_queries(self, executor):
        scenario = Scenario(
            name="empty", network_factory=example_topology, duration=1.0
        )
        run = run_scenario(
            scenario,
            "stream-sharing",
            recorder=executor.recorder(),
            workers=executor.workers,
        )
        assert run.registrations == []
        assert isinstance(run, ScenarioRun)
        assert run.system.registration_times_ms() == []
