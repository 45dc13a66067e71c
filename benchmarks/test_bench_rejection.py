"""Experiment E6 — the constrained-capacity rejection study.

Section 4: peers capped at 10 % CPU and links at 1 MBit/s, scenario 2.
Paper counts: data shipping rejects 47, query shipping 35, stream
sharing 2 of 100 queries.  The reproduced claim is the *ordering* and
the rough magnitudes (sharing rejects almost nothing, data shipping
close to half).
"""

import dataclasses

import pytest

from conftest import rejection_report, write_result
from repro.sharing import STRATEGIES
from repro.workload.scenarios import run_scenario, scenario_two


@pytest.fixture(scope="module")
def rejection_runs():
    scenario = scenario_two()
    constrained = dataclasses.replace(
        scenario,
        network_factory=lambda: scenario.build_network().scaled(0.10, 1_000_000.0),
    )
    return {
        strategy: run_scenario(
            constrained, strategy, admission_control=True, execute=False
        )
        for strategy in STRATEGIES
    }


def rejected(run):
    return len(run.system.rejected_queries())


class TestRejectionShapes:
    def test_ordering(self, rejection_runs):
        counts = {s: rejected(r) for s, r in rejection_runs.items()}
        assert counts["data-shipping"] > counts["query-shipping"]
        assert counts["query-shipping"] > counts["stream-sharing"]

    def test_sharing_rejects_almost_nothing(self, rejection_runs):
        assert rejected(rejection_runs["stream-sharing"]) <= 10

    def test_data_shipping_rejects_heavily(self, rejection_runs):
        """The paper rejects 47/100; anything in the 30–85 band keeps
        the claim (absolute counts depend on the synthetic item sizes)."""
        assert 30 <= rejected(rejection_runs["data-shipping"]) <= 85

    def test_counts_add_up(self, rejection_runs):
        for run in rejection_runs.values():
            assert len(run.system.accepted_queries()) + rejected(run) == 100

    def test_rejections_do_not_pollute_state(self, rejection_runs):
        """A rejected query must leave no streams behind."""
        run = rejection_runs["data-shipping"]
        installed_queries = set(run.system.deployment.queries)
        for stream in run.system.deployment.streams.values():
            if stream.query is not None:
                assert stream.query in installed_queries

    def test_write_report(self, rejection_runs):
        write_result("rejection.txt", rejection_report(rejection_runs))
