"""Experiment E12 (extension) — the availability index against the scan.

Algorithm 1 as the paper states it scans every stream available at a
visited node; ``StreamAvailabilityIndex`` hands Algorithm 2 only the
streams whose signature and selections can match, one per distinct
content.  The registration latency model is still charged every
distinct content whose signature can match (``matches /
registration``); ``Algorithm 2 runs / reg`` counts the matcher's calls:
one per distinct content a search lists, after the selection prune,
however many nodes list it.  The same
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

import contextlib
import dataclasses
import time

import pytest

from conftest import series_table, write_result
from repro.sharing import subscribe
from repro.sharing.plan import Deployment
from repro.sharing.subscribe import Subscriber
from repro.workload.scenarios import run_scenario, scenario_grid
from repro.wxquery import parse_query

QUERIES = 250


@contextlib.contextmanager
def spied_searches():
    """Per search (one ``Subscriber._search_input``): the contents its
    candidate source listed for Algorithm 2 and the list of contents
    it handed to ``match_stream_properties``."""
    searches = []
    search, lookup, scan = Subscriber._search_input, Deployment.distinct_candidates_at, Subscriber._scan
    match = subscribe.match_stream_properties

    def opened(self, *args):
        searches.append((set(), []))
        return search(self, *args)

    def indexed(self, node, probe):
        candidates, pruned = lookup(self, node, probe)
        searches[-1][0].update(c.content for c, group in candidates if group is not None)
        return candidates, pruned

    def scanned(deployment, node, subscription):
        candidates = scan(deployment, node, subscription)
        searches[-1][0].update(c.content for c, _ in candidates)
        return candidates

    def matched(content, subscription, *rest):
        searches[-1][1].append(content)
        return match(content, subscription, *rest)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Subscriber, "_search_input", opened)
        patch.setattr(Deployment, "distinct_candidates_at", indexed)
        patch.setattr(Subscriber, "_scan", staticmethod(scanned))
        patch.setattr(subscribe, "match_stream_properties", matched)
        yield searches


@pytest.fixture(scope="module")
def index_scale_runs():
    """The workload — 250 template queries on the 3x3 grid, every
    distinct text parsed once — registered through the availability
    index and through the reference scan: ``{mode: (run, wall seconds,
    per search (contents listed, contents matched))}``."""
    scenario = scenario_grid(3, 3, QUERIES)
    parsed = {text: parse_query(text) for text in {q.text for q in scenario.queries}}
    scenario.queries = [
        dataclasses.replace(spec, text=parsed[spec.text]) for spec in scenario.queries
    ]
    runs = {}
    for mode, use_index in (("indexed", True), ("scan", False)):
        with spied_searches() as searches:
            start = time.perf_counter()
            run = run_scenario(
                scenario, "stream-sharing", use_index=use_index, execute=False
            )
            runs[mode] = (run, time.perf_counter() - start, searches)
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
        for run, _, _ in index_scale_runs.values():
            assert len(run.system.accepted_queries()) == QUERIES

    def test_decisions_are_identical(self, index_scale_runs):
        indexed, scan = (run for run, _, _ in index_scale_runs.values())
        assert decisions(indexed) == decisions(scan)
        assert sorted(indexed.system.deployment.streams) == sorted(
            scan.system.deployment.streams
        )

    def test_index_prunes_what_reaches_algorithm_2(self, index_scale_runs):
        (indexed, _, _), (scan, _, _) = index_scale_runs.values()
        # Signatures and content groups halve what the latency model
        # charges; selections halve what Algorithm 2 then runs on.
        assert candidate_matches(indexed) * 2 < candidate_matches(scan)
        assert algorithm_2_runs(indexed) * 2 < candidate_matches(indexed)
        assert algorithm_2_runs(indexed) <= algorithm_2_runs(scan)

    @pytest.mark.parametrize("mode", ["indexed", "scan"])
    def test_algorithm_2_runs_once_per_content_per_search(self, index_scale_runs, mode):
        """Either candidate source lists a content at every node of its
        route, and the search runs Algorithm 2 on it once: per search,
        the contents matched are the distinct contents listed, each
        once, and ``candidates_matched`` counts those runs."""
        run, _, searches = index_scale_runs[mode]
        assert len(searches) == QUERIES
        for listed, matched in searches:
            assert len(matched) == len(listed) == len(set(matched))
            assert set(matched) == listed
        assert algorithm_2_runs(run) == sum(len(matched) for _, matched in searches)

    def test_the_search_prices_little_beyond_the_winner(self, index_scale_runs):
        """The floor is the exact cost of a variant that overloads
        nothing, and nothing overloads on this grid: the indexed search
        builds and costs at most 4 variants per registration (the
        initial plan and about the winner's).  A count, not a clock: a
        loosened floor fails on any host."""
        indexed, _, _ = index_scale_runs["indexed"]
        assert indexed.system.planner.plans_costed <= 4 * QUERIES

    def test_the_search_matches_little_per_registration(self, index_scale_runs):
        """The indexed search runs Algorithm 2 at most 8 times per
        registration (once per distinct content its signatures and
        selections admit, however many nodes list it).  A count, not a
        clock: matching per listed node instead fails on any host."""
        indexed, _, _ = index_scale_runs["indexed"]
        assert algorithm_2_runs(indexed) <= 8 * QUERIES

    def test_index_is_faster_in_the_same_run(self, index_scale_runs):
        (_, indexed_s, _), (_, scan_s, _) = index_scale_runs.values()
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
            for mode, (run, _, _) in index_scale_runs.items()
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
