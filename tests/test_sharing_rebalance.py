"""Adaptive rebalancer tests: migration conservation and cost wins.

The contract pinned here (DESIGN.md §13): a live migration is
make-before-break at a quiescent epoch barrier, so

* with no faults, stateless (selection/projection) subscriptions
  deliver **exactly** the static run's items — zero lost, zero
  duplicated — while windowed aggregations may shift by their
  restarted windows (§8, same as churn repair);
* under concurrent churn, any stateless discrepancy is bounded by the
  runs' fault-attributed losses (gated deliveries), never silent;
* a migration loses no items and no queries, and every migration
  passes the ``verify=True`` pre-flight (the runs here would raise
  otherwise);
* the sharded data plane replays the identical migrations and merges
  to byte-identical :class:`~repro.engine.metrics.RunMetrics`.
"""

import pytest

from repro.faults.schedule import staggered_crashes
from repro.obs.drift import DriftConfig
from repro.sharing.rebalance import HotPeerCostModel, Rebalancer
from repro.sharing.system import StreamGlobe
from repro.workload.scenarios import scenario_drift, scenario_hotspot_shift

from .conftest import assert_ledger_is_the_walk, on_every_executor

#: Calibrated to the drift scenario's simulated CPU% scale (~6% idle,
#: ~26% after the rate step) — the knobs benchmarks/test_bench_rebalance.py
#: tabulates the same runs under.
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
    scenario.register_on(system)
    return system


def _stateless(scenario):
    return [q.name for q in scenario.queries if q.kind in STATELESS_KINDS]


def _runs(scenario):
    """Static, adaptive and sharded-adaptive runs of one scenario."""
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


@pytest.fixture(scope="module")
def drift_runs():
    """The source rate steps up mid-run: *how much* load drifts."""
    return _runs(scenario_drift())


@pytest.fixture(scope="module")
def shift_runs():
    """The hot spots rotate and the rate steps: *where* and how much."""
    return _runs(scenario_hotspot_shift())


def on_both_scenarios(test):
    """Run ``test(self, runs)`` over ``drift_runs`` and ``shift_runs``
    under its one test id (the pattern of ``on_every_executor``): the
    migration contract does not depend on what drifted.  The failing
    scenario is printed."""

    def on_each(self, drift_runs, shift_runs):
        for runs in (drift_runs, shift_runs):
            print(f"scenario: {runs['scenario'].name}")
            test(self, runs)

    on_each.__name__ = test.__name__
    on_each.__doc__ = test.__doc__
    return on_each


class TestMigrationConservation:
    @on_both_scenarios
    def test_migration_actually_happened(self, runs):
        adaptive = runs["adaptive"]
        rebalancer = runs["rebalancer"]
        assert adaptive.migrations_applied >= 1
        assert len(rebalancer.reports) == adaptive.migrations_applied
        assert rebalancer.detector.alerts
        report = rebalancer.reports[0]
        assert report.moved_queries
        assert report.migrated_queries == report.moved_queries
        assert report.hot_work_released() > 0.0
        assert_ledger_is_the_walk(runs["adaptive_sys"])

    @on_both_scenarios
    def test_stateless_deliveries_exactly_conserved(self, runs):
        static = runs["static"]
        adaptive = runs["adaptive"]
        for name in _stateless(runs["scenario"]):
            assert adaptive.items_delivered.get(name, 0) == (
                static.items_delivered.get(name, 0)
            ), f"stateless query {name} lost or duplicated deliveries"

    @on_both_scenarios
    def test_no_items_lost_and_no_queries_lost(self, runs):
        adaptive = runs["adaptive"]
        assert adaptive.items_lost == 0
        assert adaptive.queries_lost == 0
        # Every registered query still delivers after the migration.
        static = runs["static"]
        assert set(adaptive.items_delivered) == set(static.items_delivered)

    @on_both_scenarios
    def test_aggregation_shift_is_bounded_by_window_restarts(self, runs):
        # Windowed operators restart across a move (§8): their counts
        # may shift by a few flushed/partial windows, never wholesale.
        static = runs["static"]
        adaptive = runs["adaptive"]
        scenario = runs["scenario"]
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

    @on_both_scenarios
    def test_adaptive_beats_static_on_hottest_peer(self, runs):
        static, adaptive = runs["static"], runs["adaptive"]
        net_s = runs["static_sys"].net
        net_a = runs["adaptive_sys"].net
        hot_static = max(
            static.peer_cpu_percent(net_s, p) for p in net_s.super_peer_names()
        )
        hot_adaptive = max(
            adaptive.peer_cpu_percent(net_a, p) for p in net_a.super_peer_names()
        )
        assert hot_adaptive < hot_static

    @on_both_scenarios
    def test_migrated_streams_count_as_rerouted_traffic(self, runs):
        # Migration-created streams are accounted like repair-created
        # ones: their traffic shows up as re-routing overhead.
        assert runs["static"].rerouted_traffic_bits == 0.0
        assert runs["adaptive"].rerouted_traffic_bits > 0.0


class TestShardedMigration:
    @on_both_scenarios
    def test_sharded_adaptive_matches_sequential_exactly(self, runs):
        assert runs["sharded"] == runs["adaptive"]

    @on_both_scenarios
    def test_sharded_applied_the_same_migrations(self, runs):
        sequential = runs["rebalancer"]
        sharded = runs["sharded_rebalancer"]
        assert [r.epoch_index for r in sharded.reports] == [
            r.epoch_index for r in sequential.reports
        ]
        assert [r.moved_queries for r in sharded.reports] == [
            r.moved_queries for r in sequential.reports
        ]

    @on_both_scenarios
    def test_sharded_ran_on_multiple_cells(self, runs):
        simulator = runs["sharded_sys"].last_simulator
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
