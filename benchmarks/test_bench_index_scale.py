"""Experiment E12 (extension) — the availability index against the scan.

Algorithm 1 as the paper states it scans every stream available at a
visited node; ``StreamAvailabilityIndex`` hands Algorithm 2 only the
streams whose signature and selections can match, one per distinct
content.  The registration latency model is still charged every
distinct content whose signature can match (``matches /
registration``); ``Algorithm 2 runs / reg`` counts the matcher's calls
after the selection prune.  The same
250 pre-parsed template queries are registered on the 3x3 grid both
ways (``index_scale_runs``).  The index is an optimization,
never a behaviour change: every plan decision is equal, and what differs
is how many candidates reach Algorithm 2 and how many placement
variants are priced or skipped by the search's cost floor (priced
cheapest floor first; priced plus skipped is the variants examined; the
floor is exact on this unloaded grid, so pricing stops near the
winner) —
exactly repeatable counts, written to ``index_scale.txt`` and compared
byte for byte in CI.  The
wall-clock ratio of the same run is asserted ``> 1`` here and written
nowhere.  The living throughput measurement is sharebench
``grid-register-800``.
"""

import dataclasses
import time

import pytest

from conftest import series_table, write_result
from repro.workload.scenarios import run_scenario, scenario_grid
from repro.wxquery import parse_query

QUERIES = 250


@pytest.fixture(scope="module")
def index_scale_runs():
    """The workload — 250 template queries on the 3x3 grid, every
    distinct text parsed once — registered through the availability
    index and through the reference scan: ``{mode: (run, wall seconds)}``."""
    scenario = scenario_grid(3, 3, QUERIES)
    parsed = {text: parse_query(text) for text in {q.text for q in scenario.queries}}
    scenario.queries = [
        dataclasses.replace(spec, text=parsed[spec.text]) for spec in scenario.queries
    ]
    runs = {}
    for mode, use_index in (("indexed", True), ("scan", False)):
        start = time.perf_counter()
        run = run_scenario(
            scenario, "stream-sharing", use_index=use_index, execute=False
        )
        runs[mode] = (run, time.perf_counter() - start)
    return runs


def decisions(run):
    """Per query: accepted, and per input the reused stream, the tap
    node and the placement node."""
    return {
        result.query: (
            result.accepted,
            tuple(
                (p.input_stream, p.reused_id, p.tap_node, p.placement_node)
                for p in (result.plan.inputs if result.plan else ())
            ),
        )
        for result in run.registrations
    }


def candidate_matches(run):
    """Candidates charged to the registration latency model."""
    return sum(r.plan.candidate_matches for r in run.registrations if r.plan)


def algorithm_2_runs(run):
    """Candidates the search handed to ``match_stream_properties``."""
    return run.system.planner.candidates_matched


class TestIndexScale:
    def test_all_queries_accepted(self, index_scale_runs):
        for run, _ in index_scale_runs.values():
            assert len(run.system.accepted_queries()) == QUERIES

    def test_decisions_are_identical(self, index_scale_runs):
        indexed, scan = (run for run, _ in index_scale_runs.values())
        assert decisions(indexed) == decisions(scan)
        assert sorted(indexed.system.deployment.streams) == sorted(
            scan.system.deployment.streams
        )

    def test_index_prunes_what_reaches_algorithm_2(self, index_scale_runs):
        indexed, scan = (run for run, _ in index_scale_runs.values())
        # Signatures and content groups halve what the latency model
        # charges; selections halve what Algorithm 2 then runs on.
        assert candidate_matches(indexed) * 2 < candidate_matches(scan)
        assert algorithm_2_runs(indexed) * 2 < candidate_matches(indexed)
        assert algorithm_2_runs(scan) == candidate_matches(scan)

    def test_the_search_prices_little_beyond_the_winner(self, index_scale_runs):
        """The floor is the exact cost of a variant that overloads
        nothing, and nothing overloads on this grid: the indexed search
        builds and costs at most 4 variants per registration (the
        initial plan and about the winner's).  A count, not a clock: a
        loosened floor fails on any host."""
        indexed, _ = index_scale_runs["indexed"]
        assert indexed.system.planner.plans_costed <= 4 * QUERIES

    def test_index_is_faster_in_the_same_run(self, index_scale_runs):
        (_, indexed_s), (_, scan_s) = index_scale_runs.values()
        assert scan_s / indexed_s > 1.0

    def test_write_report(self, index_scale_runs):
        series = {
            mode: {
                "candidate matches": float(candidate_matches(run)),
                "matches / registration": candidate_matches(run) / QUERIES,
                "Algorithm 2 runs / reg": algorithm_2_runs(run) / QUERIES,
                "installed streams": float(len(run.system.deployment.streams)),
                "plans costed": float(run.system.planner.plans_costed),
                "plans bounded": float(run.system.planner.plans_bounded),
            }
            for mode, (run, _) in index_scale_runs.items()
        }
        write_result(
            "index_scale.txt",
            series_table(
                "Metric",
                f"{QUERIES} queries, 3x3 grid, stream sharing; decisions identical",
                series,
                precision=1,
            ),
        )
