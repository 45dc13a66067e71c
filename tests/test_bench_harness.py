"""Tests for the benchmark harness and report rendering.

These use a reduced scenario (fewer queries, short duration) so the
full-size runs stay in ``benchmarks/``.
"""

import pytest

from repro.bench import (
    ScenarioRun,
    cpu_report,
    registration_table,
    rejection_report,
    run_scenario,
    scale_network,
    series_table,
    traffic_report,
)
from repro.network.topology import example_topology
from repro.workload.scenarios import Scenario, scenario_one

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
        scaled = scale_network(example_topology(), capacity_factor=0.1)
        assert scaled.super_peer("SP0").capacity == pytest.approx(100_000.0)

    def test_bandwidth_override(self):
        scaled = scale_network(example_topology(), link_bandwidth=1_000_000.0)
        assert all(link.bandwidth == 1_000_000.0 for link in scaled.links())

    def test_structure_preserved(self):
        original = example_topology()
        scaled = scale_network(original, 0.5, 2_000_000.0)
        assert len(scaled) == len(original)
        assert len(scaled.links()) == len(original.links())
        assert scaled.home_of("P0") == "SP4"


class TestRunScenario:
    def test_all_queries_registered(self, small_runs, small_scenario):
        for run in small_runs.values():
            assert len(run.registrations) == len(small_scenario.queries)
            assert run.accepted == len(small_scenario.queries)

    def test_sharing_total_traffic_is_lowest(self, small_runs):
        totals = {s: r.total_traffic_mbit() for s, r in small_runs.items()}
        assert totals["stream-sharing"] <= totals["query-shipping"]
        assert totals["query-shipping"] < totals["data-shipping"]

    def test_query_shipping_peaks_at_source(self, small_runs):
        cpu = small_runs["query-shipping"].cpu_by_peer()
        assert max(cpu, key=cpu.get) == "SP4"

    def test_registration_stats(self, small_runs):
        average, minimum, maximum = small_runs["stream-sharing"].registration_stats_ms()
        assert minimum <= average <= maximum

    def test_execute_false_skips_metrics(self, small_scenario):
        run = run_scenario(small_scenario, "data-shipping", execute=False)
        assert run.metrics is None
        assert run.accepted > 0

    def test_deliveries_identical_across_strategies(self, small_runs):
        reference = small_runs["data-shipping"].metrics.items_delivered
        for run in small_runs.values():
            assert run.metrics.items_delivered == reference


class TestReports:
    def test_series_table_renders(self):
        table = series_table("X", "unit", {"data-shipping": {"a": 1.0, "b": 2.5}})
        assert "Data Shipping" in table
        assert "2.50" in table

    def test_cpu_and_traffic_reports(self, small_runs):
        assert "SP4" in cpu_report(small_runs)
        assert "SP4-SP5" in traffic_report(small_runs)

    def test_registration_table(self, small_runs):
        table = registration_table({"1": small_runs})
        assert "Stream Sharing" in table
        assert "Average 1" in table

    def test_rejection_report(self, small_runs):
        report = rejection_report(small_runs)
        assert "Accepted" in report


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
        assert run.registration_stats_ms() == (0.0, 0.0, 0.0)
