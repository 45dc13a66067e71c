"""Whole-scenario integration tests: the optimizer's decisions on the
scenario-1 workload are deterministic and structurally sound."""

import pytest

from repro.workload.scenarios import run_scenario, scenario_one


@pytest.fixture(scope="module")
def sharing_run():
    return run_scenario(scenario_one(), "stream-sharing", execute=False)


class TestScenarioOneDecisions:
    def test_decisions_deterministic(self, sharing_run):
        """Two independent optimizations of the same workload make
        identical decisions."""
        again = run_scenario(scenario_one(), "stream-sharing", execute=False)
        first = [
            (r.query, r.plan.inputs[0].reused_id, r.plan.inputs[0].placement_node)
            for r in sharing_run.registrations
        ]
        second = [
            (r.query, r.plan.inputs[0].reused_id, r.plan.inputs[0].placement_node)
            for r in again.registrations
        ]
        assert first == second

    def test_substantial_sharing_happens(self, sharing_run):
        shared = [
            r.query
            for r in sharing_run.registrations
            if r.plan.inputs[0].reused_id != "photons"
        ]
        # The template pools are engineered for collisions; expect at
        # least a third of the 25 queries to share.
        assert len(shared) >= 8

    def test_every_reuse_is_justified(self, sharing_run):
        """Each reused stream matches the consuming query per
        Algorithm 2 — the optimizer never shares on a hunch."""
        from repro.matching import match_stream_properties

        deployment = sharing_run.system.deployment
        for result in sharing_run.registrations:
            plan = result.plan.inputs[0]
            reused = deployment.streams.get(plan.reused_id)
            if reused is None:
                continue  # candidate not installed (lost later widening races)
            needed = result.plan and deployment.queries[result.query].properties.input_for(
                plan.input_stream
            )
            assert (
                reused.content == needed
                or match_stream_properties(reused.content, needed)
            ), result.query

    def test_aggregate_queries_share_aggregates(self, sharing_run):
        """At least one aggregation query reuses another's result stream
        (the template window lattice guarantees compatible pairs)."""
        reaggregations = [
            r.query
            for r in sharing_run.registrations
            if any(
                spec.kind == "reaggregation"
                for spec in r.plan.inputs[0].delivered.pipeline
            )
        ]
        exact_aggregate_reuses = [
            r.query
            for r in sharing_run.registrations
            if r.plan.inputs[0].reused_id != "photons"
            and not r.plan.inputs[0].delivered.pipeline
        ]
        assert reaggregations or exact_aggregate_reuses

    def test_stream_count_bounded(self, sharing_run):
        """Sharing keeps the stream population small: at most original +
        relay/delivered pairs per query."""
        streams = sharing_run.system.deployment.streams
        assert len(streams) <= 1 + 2 * len(sharing_run.registrations)

    def test_every_super_peer_route_starts_on_parent(self, sharing_run):
        deployment = sharing_run.system.deployment
        for stream in deployment.streams.values():
            if stream.parent_id is None:
                continue
            parent = deployment.streams[stream.parent_id]
            assert stream.origin_node in parent.route


class TestCrossStrategyInvariants:
    def test_sharing_installs_fewest_streams(self):
        runs = {
            strategy: run_scenario(scenario_one(), strategy, execute=False)
            for strategy in ("data-shipping", "query-shipping", "stream-sharing")
        }
        counts = {
            strategy: len(run.system.deployment.streams)
            for strategy, run in runs.items()
        }
        assert counts["stream-sharing"] <= counts["query-shipping"]
        assert counts["stream-sharing"] <= counts["data-shipping"]

    def test_estimated_usage_reflects_strategy(self):
        """The committed (estimated) usage ledger mirrors the measured
        ordering: data shipping commits the most bandwidth."""
        totals = {}
        for strategy in ("data-shipping", "stream-sharing"):
            run = run_scenario(scenario_one(), strategy, execute=False)
            usage = run.system.deployment.usage
            totals[strategy] = sum(usage._link_bits.values())
        assert totals["stream-sharing"] < totals["data-shipping"]