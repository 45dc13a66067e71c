"""Experiment E10 (extension) — registration scalability with network size.

The paper's future-work section raises scalability ("a hierarchical
network organization with several interconnected subnets where each
subnet is optimized separately").  This bench quantifies the baseline
problem on flat networks: how the stream-sharing registration cost
(visited nodes, matched candidates, simulated latency) grows with the
super-peer count at a fixed per-network query load.
"""

import pytest

from conftest import registration_stats_ms, series_table, write_result
from repro.workload.scenarios import run_scenario, scenario_grid

GRIDS = ((3, 3), (4, 4), (5, 5))
QUERIES = 40


@pytest.fixture(scope="module")
def scaling_runs():
    return {
        f"{rows}x{cols}": run_scenario(
            scenario_grid(rows, cols, QUERIES), "stream-sharing", execute=False
        )
        for rows, cols in GRIDS
    }


def avg_visited(run):
    plans = [r.plan for r in run.registrations if r.plan is not None]
    return sum(p.visited_nodes for p in plans) / len(plans)


def avg_matches(run):
    plans = [r.plan for r in run.registrations if r.plan is not None]
    return sum(p.candidate_matches for p in plans) / len(plans)


class TestScalability:
    def test_all_queries_accepted(self, scaling_runs):
        for run in scaling_runs.values():
            assert len(run.system.accepted_queries()) == QUERIES

    def test_search_is_workload_bound_not_network_bound(self, scaling_runs):
        """The pruned breadth-first search visits only nodes reachable
        through *matched* streams, so the visited count tracks the
        workload's sharing structure, not the backbone size — the
        mechanism that keeps registration 'manageable' (Section 5's
        containment remark).  On all three grids the average stays far
        below the peer count and nearly constant."""
        visited = {name: avg_visited(run) for name, run in scaling_runs.items()}
        peers = {"3x3": 9, "4x4": 16, "5x5": 25}
        for name, count in visited.items():
            assert count < peers[name] / 2
        spread = max(visited.values()) - min(visited.values())
        assert spread < 1.0

    def test_latency_grows_sublinearly_in_peers(self, scaling_runs):
        """Pruning keeps the search well below whole-network visits:
        average registration latency grows slower than the peer count."""
        latencies = {
            name: registration_stats_ms(run)[0]
            for name, run in scaling_runs.items()
        }
        peers = {"3x3": 9, "4x4": 16, "5x5": 25}
        growth = latencies["5x5"] / latencies["3x3"]
        peer_growth = peers["5x5"] / peers["3x3"]
        assert growth < peer_growth

    def test_deployments_healthy(self, scaling_runs):
        from repro.analysis import verify_deployment

        for run in scaling_runs.values():
            assert verify_deployment(run.system.deployment).ok

    def test_write_report(self, scaling_runs):
        series = {
            name: {
                "avg visited nodes": avg_visited(run),
                "avg matches": avg_matches(run),
                "avg registration ms": registration_stats_ms(run)[0],
            }
            for name, run in scaling_runs.items()
        }
        write_result(
            "scalability.txt",
            series_table("Metric", f"{QUERIES} queries, stream sharing", series),
        )
