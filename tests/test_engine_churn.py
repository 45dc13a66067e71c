"""Executor integration tests for mid-run faults and recovery."""

import pytest

from tests.conftest import PAPER_QUERIES, on_every_executor
from repro.faults import FaultSchedule, LinkFailure, single_crash
from repro.xmlkit.serializer import serialize


def run_captured(executor, faults=None, names=("Q1", "Q2", "Q3", "Q4"), duration=10.0):
    subscribers = {"Q1": "P1", "Q2": "P2", "Q3": "P3", "Q4": "P4"}
    system = executor.system(verify=True)
    for name in names:
        system.register_query(name, PAPER_QUERIES[name], subscribers[name])
    outputs = {name: [] for name in names}
    metrics = executor.run(
        system,
        duration,
        faults=faults,
        capture=lambda query, item: outputs[query].append(serialize(item)),
    )
    return system, metrics, outputs


class TestGoldenEquivalence:
    @on_every_executor
    def test_unaffected_queries_are_byte_identical(self, executor):
        """The acceptance criterion: a crash severing only Q4's route
        must not change a single delivered byte of Q1-Q3."""
        _, _, baseline = run_captured(executor)
        system, metrics, churned = run_captured(
            executor, faults=single_crash(3.0, "SP6")
        )
        for name in ("Q1", "Q2", "Q3"):
            assert churned[name] == baseline[name]
        assert metrics.faults_applied == 1
        assert metrics.queries_repaired == 1
        assert metrics.queries_lost == 0
        assert "Q4" in system.deployment.queries

    @on_every_executor
    def test_capture_matches_delivery_counts(self, executor):
        _, metrics, outputs = run_captured(executor)
        for name, items in outputs.items():
            assert len(items) == metrics.items_delivered[name]


class TestDegradationMetrics:
    @on_every_executor
    def test_fault_free_run_reports_no_degradation(self, executor):
        _, metrics, _ = run_captured(executor)
        assert metrics.faults_applied == 0
        assert metrics.items_lost == 0
        assert metrics.recovery_time_s == 0.0
        assert metrics.rerouted_traffic_bits == 0.0
        assert metrics.queries_repaired == 0
        assert metrics.queries_lost == 0

    @on_every_executor
    def test_crash_and_rejoin_report_losses_and_rerouting(self, executor):
        system, metrics, _ = run_captured(
            executor, faults=single_crash(3.0, "SP5", rejoin_at=6.0)
        )
        assert metrics.faults_applied == 2
        assert metrics.items_lost > 0
        assert 0.0 < metrics.recovery_time_s < 10.0
        assert metrics.rerouted_traffic_bits > 0.0
        assert metrics.rerouted_mbit() == pytest.approx(
            metrics.rerouted_traffic_bits / 1e6
        )
        assert 0.0 < metrics.recovery_overhead() < 1.0
        assert metrics.queries_repaired >= 1
        assert "SP5" in system.net

    @on_every_executor
    def test_unrepaired_subscription_counts_as_lost(self, executor):
        # Crashing the subscriber's own super-peer leaves Q1 pending
        # for the rest of the run.
        _, metrics, _ = run_captured(
            executor, faults=single_crash(3.0, "SP1"), names=("Q1",)
        )
        assert metrics.queries_lost == 1
        assert metrics.items_delivered["Q1"] > 0  # pre-fault deliveries

    @on_every_executor
    def test_link_failure_mid_run(self, executor):
        _, metrics, outputs = run_captured(
            executor,
            faults=FaultSchedule([LinkFailure(3.0, "SP4", "SP5")]),
            names=("Q1",),
        )
        assert metrics.faults_applied == 1
        assert metrics.queries_repaired == 1
        assert outputs["Q1"]


class TestTopologyPersistence:
    @on_every_executor
    def test_crash_without_rejoin_persists_after_run(self, executor):
        system, _, _ = run_captured(executor, faults=single_crash(3.0, "SP6"))
        assert "SP6" not in system.net
        assert "SP6" in system.net.removed_super_peer_names()
