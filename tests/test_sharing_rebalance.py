"""Adaptive rebalancer tests: migration conservation and cost wins.

The contract pinned here (DESIGN.md §13): a live migration is
make-before-break at a quiescent epoch barrier, so

* with no faults, stateless (selection/projection) subscriptions
  deliver **exactly** the static run's items — zero lost, zero
  duplicated — while windowed aggregations may shift by their
  restarted windows (§8, same as churn repair);
* under concurrent churn, any stateless discrepancy is bounded by the
  runs' fault-attributed losses (gated deliveries), never silent;
* migration downtime is structurally zero, and every migration passes
  the ``verify=True`` pre-flight (the runs here would raise otherwise);
* the sharded data plane replays the identical migrations and merges
  to byte-identical :class:`~repro.engine.metrics.RunMetrics`.
"""

import pytest

from repro.faults.schedule import staggered_crashes
from repro.obs.drift import DriftConfig
from repro.sharing.rebalance import HotPeerCostModel, Rebalancer
from repro.sharing.system import StreamGlobe
from repro.workload.scenarios import scenario_drift

from .conftest import assert_ledger_is_the_walk, on_every_executor

#: Calibrated to the drift scenario's simulated CPU% scale (~6% idle,
#: ~26% after the rate step) — same knobs the PR 8 bench uses.
CONFIG = DriftConfig(
    cpu_threshold=15.0, clear_threshold=8.0, window=2, sustain=2, cooldown=4
)

STATELESS_KINDS = ("selection", "projection")


def _build(scenario, recorder=None):
    system = StreamGlobe(
        scenario.build_network(),
        strategy="stream-sharing",
        verify=True,
        recorder=recorder,
    )
    for source in scenario.sources:
        system.register_stream(
            source.name,
            "photons/photon",
            source.generator_factory(),
            frequency=source.frequency,
            source_peer=source.source_peer,
        )
    for spec in scenario.queries:
        system.register_query(spec.name, spec.text, spec.subscriber_peer)
    return system


def _stateless(scenario):
    return [q.name for q in scenario.queries if q.kind in STATELESS_KINDS]


@pytest.fixture(scope="module")
def drift_runs():
    """Static, adaptive and sharded-adaptive runs of scenario_drift."""
    scenario = scenario_drift()
    static_sys = _build(scenario)
    static = static_sys.run(scenario.duration)

    adaptive_sys = _build(scenario)
    rebalancer = Rebalancer(adaptive_sys, config=CONFIG)
    adaptive = adaptive_sys.run(scenario.duration, rebalancer=rebalancer)

    sharded_sys = _build(scenario)
    sharded_rebalancer = Rebalancer(sharded_sys, config=CONFIG)
    sharded = sharded_sys.run(
        scenario.duration, workers=2, rebalancer=sharded_rebalancer
    )
    return {
        "scenario": scenario,
        "static": static,
        "static_sys": static_sys,
        "adaptive": adaptive,
        "adaptive_sys": adaptive_sys,
        "rebalancer": rebalancer,
        "sharded": sharded,
        "sharded_sys": sharded_sys,
        "sharded_rebalancer": sharded_rebalancer,
    }


class TestMigrationConservation:
    def test_migration_actually_happened(self, drift_runs):
        adaptive = drift_runs["adaptive"]
        rebalancer = drift_runs["rebalancer"]
        assert adaptive.migrations_applied >= 1
        assert len(rebalancer.reports) == adaptive.migrations_applied
        assert rebalancer.detector.alerts
        report = rebalancer.reports[0]
        assert report.moved_queries
        assert report.migrated_queries == report.moved_queries
        assert report.hot_work_released() > 0.0
        assert_ledger_is_the_walk(drift_runs["adaptive_sys"])

    def test_stateless_deliveries_exactly_conserved(self, drift_runs):
        static = drift_runs["static"]
        adaptive = drift_runs["adaptive"]
        for name in _stateless(drift_runs["scenario"]):
            assert adaptive.items_delivered.get(name, 0) == (
                static.items_delivered.get(name, 0)
            ), f"stateless query {name} lost or duplicated deliveries"

    def test_no_items_lost_and_no_queries_lost(self, drift_runs):
        adaptive = drift_runs["adaptive"]
        assert adaptive.items_lost == 0
        assert adaptive.queries_lost == 0
        # Every registered query still delivers after the migration.
        static = drift_runs["static"]
        assert set(adaptive.items_delivered) == set(static.items_delivered)

    def test_migration_downtime_is_zero(self, drift_runs):
        # Make-before-break at a quiescent barrier: the reconcile gate
        # opens immediately, so no observed epoch sees it closed.
        assert drift_runs["adaptive"].migration_downtime_epochs == 0
        assert drift_runs["sharded"].migration_downtime_epochs == 0

    def test_aggregation_shift_is_bounded_by_window_restarts(self, drift_runs):
        # Windowed operators restart across a move (§8): their counts
        # may shift by a few flushed/partial windows, never wholesale.
        static = drift_runs["static"]
        adaptive = drift_runs["adaptive"]
        scenario = drift_runs["scenario"]
        windowed = [
            q.name for q in scenario.queries if q.kind not in STATELESS_KINDS
        ]
        delta = sum(
            abs(
                adaptive.items_delivered.get(name, 0)
                - static.items_delivered.get(name, 0)
            )
            for name in windowed
        )
        assert delta <= len(windowed) * 2

    def test_adaptive_beats_static_on_hottest_peer(self, drift_runs):
        static, adaptive = drift_runs["static"], drift_runs["adaptive"]
        net_s = drift_runs["static_sys"].net
        net_a = drift_runs["adaptive_sys"].net
        hot_static = max(
            static.peer_cpu_percent(net_s, p) for p in net_s.super_peer_names()
        )
        hot_adaptive = max(
            adaptive.peer_cpu_percent(net_a, p) for p in net_a.super_peer_names()
        )
        assert hot_adaptive < hot_static

    def test_migrated_streams_count_as_rerouted_traffic(self, drift_runs):
        # Migration-created streams are accounted like repair-created
        # ones: their traffic shows up as re-routing overhead.
        assert drift_runs["static"].rerouted_traffic_bits == 0.0
        assert drift_runs["adaptive"].rerouted_traffic_bits > 0.0


class TestShardedMigration:
    def test_sharded_adaptive_matches_sequential_exactly(self, drift_runs):
        assert drift_runs["sharded"] == drift_runs["adaptive"]

    def test_sharded_applied_the_same_migrations(self, drift_runs):
        sequential = drift_runs["rebalancer"]
        sharded = drift_runs["sharded_rebalancer"]
        assert [r.epoch_index for r in sharded.reports] == [
            r.epoch_index for r in sequential.reports
        ]
        assert [r.moved_queries for r in sharded.reports] == [
            r.moved_queries for r in sequential.reports
        ]

    def test_sharded_ran_on_multiple_cells(self, drift_runs):
        simulator = drift_runs["sharded_sys"].last_simulator
        assert simulator.workers_used == 2


class TestMigrationUnderChurn:
    @pytest.fixture(scope="class")
    def churn_runs(self):
        scenario = scenario_drift()
        faults = staggered_crashes(5.0, ("SP4", "SP7"), spacing=6.0, downtime=4.0)

        static_sys = _build(scenario)
        static = static_sys.run(scenario.duration, faults=faults)

        adaptive_sys = _build(scenario)
        rebalancer = Rebalancer(adaptive_sys, config=CONFIG)
        adaptive = adaptive_sys.run(
            scenario.duration, faults=faults, rebalancer=rebalancer
        )

        sharded_sys = _build(scenario)
        sharded = sharded_sys.run(
            scenario.duration,
            faults=faults,
            workers=2,
            rebalancer=Rebalancer(sharded_sys, config=CONFIG),
        )
        return {
            "scenario": scenario,
            "static": static,
            "adaptive": adaptive,
            "sharded": sharded,
            "rebalancer": rebalancer,
        }

    def test_migrations_and_repairs_coexist(self, churn_runs):
        adaptive = churn_runs["adaptive"]
        assert adaptive.migrations_applied >= 1
        assert adaptive.faults_applied == churn_runs["static"].faults_applied
        assert adaptive.queries_repaired == churn_runs["static"].queries_repaired
        assert adaptive.queries_lost == 0
        assert adaptive.migration_downtime_epochs == 0

    def test_stateless_discrepancy_bounded_by_fault_losses(self, churn_runs):
        # With faults in play, gated recovery losses land on different
        # items depending on plan placement — but every stateless
        # delivery discrepancy must be attributable to those counted
        # losses, never to the migration itself.
        static = churn_runs["static"]
        adaptive = churn_runs["adaptive"]
        budget = static.items_lost + adaptive.items_lost
        discrepancy = sum(
            abs(
                adaptive.items_delivered.get(name, 0)
                - static.items_delivered.get(name, 0)
            )
            for name in _stateless(churn_runs["scenario"])
        )
        assert discrepancy <= budget

    def test_sharded_matches_sequential_under_churn_and_migration(
        self, churn_runs
    ):
        assert churn_runs["sharded"] == churn_runs["adaptive"]


class TestHotPeerCostModel:
    def test_bias_only_affects_plan_cost(self, drift_runs):
        from repro.costmodel import PlanEffects

        system = drift_runs["static_sys"]
        base = system.cost_model
        biased = HotPeerCostModel(base, ["SP0"], penalty=1000.0)
        effects = PlanEffects()
        effects.add_peer("SP0", 100.0)
        effects.add_peer("SP1", 100.0)
        usage = system.deployment.usage
        assert biased.plan_cost(effects, usage) > base.plan_cost(effects, usage)
        assert biased.overloads(effects, usage) == base.overloads(effects, usage)

    def test_cost_model_restored_after_migration(self, drift_runs):
        # The surcharge wrapper must never survive a migration pass.
        system = drift_runs["adaptive_sys"]
        assert not isinstance(system.planner.cost_model, HotPeerCostModel)


class TestRebalancerKnobs:
    @on_every_executor
    def test_max_migrations_caps_passes(self, executor):
        scenario = scenario_drift()
        system = _build(scenario, executor.recorder())
        rebalancer = Rebalancer(system, config=CONFIG, max_migrations=0)
        metrics = executor.run(system, scenario.duration, rebalancer=rebalancer)
        assert metrics.migrations_applied == 0
        assert rebalancer.reports == []
        # Alerts still fire — only the control-plane rewrite is capped.
        assert rebalancer.detector.alerts
