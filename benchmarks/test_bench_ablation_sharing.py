"""Experiment E8 (extension) — sharing-mechanism ablations.

Three design choices DESIGN.md calls out:

* FIFO (BFS, the paper's choice) versus LIFO (DFS, noted as "equally
  possible") search order — both must find equally good plans; only the
  search telemetry may differ;
* edgewise (Algorithm 3) versus closure (complete) predicate matching —
  closure never finds fewer reuse opportunities;
* aggregate-stream reuse on/off — disabling it must increase traffic on
  aggregate-heavy workloads.
"""

import pytest

from conftest import series_table, write_result
from repro.workload.scenarios import run_scenario, scenario_one


@pytest.fixture(scope="module")
def baseline_run():
    return run_scenario(scenario_one(), "stream-sharing")


class TestSearchOrder:
    def test_dfs_matches_bfs_traffic(self, baseline_run):
        dfs = run_scenario(scenario_one(), "stream-sharing", search_order="dfs")
        # The search order changes traversal, not the candidate set:
        # total measured traffic stays within a small factor.
        assert dfs.metrics.total_mbit() <= baseline_run.metrics.total_mbit() * 1.3
        assert not dfs.system.rejected_queries()


class TestMatchMode:
    def test_closure_never_worse(self, baseline_run):
        closure = run_scenario(scenario_one(), "stream-sharing", match_mode="closure")
        assert closure.metrics.total_mbit() <= baseline_run.metrics.total_mbit() * 1.05

    def test_closure_finds_at_least_as_many_candidates(self):
        edgewise = run_scenario(
            scenario_one(), "stream-sharing", match_mode="edgewise", execute=False
        )
        closure = run_scenario(
            scenario_one(), "stream-sharing", match_mode="closure", execute=False
        )
        def reuse_count(run):
            return sum(
                1
                for result in run.registrations
                if result.plan.inputs[0].reused_id != "photons"
            )
        assert reuse_count(closure) >= reuse_count(edgewise)


class TestAggregateReuse:
    def test_disabling_costs_traffic(self, baseline_run):
        no_agg = run_scenario(
            scenario_one(), "stream-sharing", share_aggregates=False
        )
        assert no_agg.metrics.total_mbit() >= baseline_run.metrics.total_mbit()
        assert not no_agg.system.rejected_queries()

    def test_no_aggregate_streams_reused(self):
        no_agg = run_scenario(
            scenario_one(), "stream-sharing", share_aggregates=False, execute=False
        )
        deployment = no_agg.system.deployment
        for record in no_agg.registrations:
            for plan in record.plan.inputs:
                reused = deployment.streams.get(plan.reused_id)
                if reused is not None:
                    assert reused.content.aggregation is None


def test_write_ablation_report(baseline_run):
    dfs = run_scenario(scenario_one(), "stream-sharing", search_order="dfs")
    closure = run_scenario(scenario_one(), "stream-sharing", match_mode="closure")
    no_agg = run_scenario(scenario_one(), "stream-sharing", share_aggregates=False)
    series = {
        name: {"total MBit": run.metrics.total_mbit()}
        for name, run in [
            ("bfs+edgewise (paper)", baseline_run),
            ("dfs", dfs),
            ("closure matching", closure),
            ("no aggregate reuse", no_agg),
        ]
    }
    write_result(
        "ablation_sharing.txt",
        series_table("Metric", "scenario 1, stream sharing variants", series),
    )
