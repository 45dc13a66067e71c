"""Experiment E14 (extension) — static placement against the rebalancer.

The drift scenarios make the planner's cost model wrong mid-run: the
source rate steps up (``drift``), or the hot spots rotate while it does
(``hotspot_shift``).  A static plan keeps grinding the originally
cheapest peer; the adaptive run watches the per-epoch CPU series and
migrates the affected subscriptions off it, make-before-break at a
quiescent barrier.  Every number is simulated and exactly repeatable,
so ``rebalance.txt`` is compared byte for byte in CI; the contract
itself (nothing lost, conservation under churn, sharded == sequential)
is tier-1's ``tests/test_sharing_rebalance.py``.
"""

from types import SimpleNamespace

import pytest

from conftest import series_table, write_result
from repro.obs.drift import DriftConfig
from repro.sharing import Rebalancer, StreamGlobe
from repro.workload.scenarios import scenario_drift, scenario_hotspot_shift

#: Calibrated to the scenarios' simulated CPU% scale (the hot peer
#: idles around 6 % and passes 25 % after the step), not to the 80 %
#: production default.
CONFIG = DriftConfig(
    cpu_threshold=15.0, clear_threshold=8.0, window=2, sustain=2, cooldown=4
)
SCENARIOS = {"drift": scenario_drift, "hotspot_shift": scenario_hotspot_shift}
STATELESS_KINDS = ("selection", "projection")


def run_once(scenario, adaptive):
    system = StreamGlobe(scenario.build_network(), verify=True)
    scenario.register_on(system)
    rebalancer = Rebalancer(system, config=CONFIG) if adaptive else None
    metrics = system.run(scenario.duration, rebalancer=rebalancer)
    cpu, peer = max(
        (metrics.peer_cpu_percent(system.net, name), name)
        for name in system.net.super_peer_names()
    )
    moved = sum(len(r.moved_queries) for r in rebalancer.reports) if adaptive else 0
    return SimpleNamespace(metrics=metrics, hot_cpu=cpu, hot_peer=peer, moved=moved)


def shifted(scenario, static, adaptive, stateless):
    """Deliveries the two runs disagree on, over the stateless (or the
    windowed) subscriptions: the first must be 0, the second is the
    windows a move restarts (DESIGN.md §8)."""
    return sum(
        abs(
            static.metrics.items_delivered.get(spec.name, 0)
            - adaptive.metrics.items_delivered.get(spec.name, 0)
        )
        for spec in scenario.queries
        if (spec.kind in STATELESS_KINDS) == stateless
    )


@pytest.fixture(scope="module")
def outcomes():
    """Per scenario: the scenario, its static run, its adaptive run."""
    results = {}
    for name, factory in SCENARIOS.items():
        scenario = factory()
        results[name] = (
            scenario,
            run_once(scenario, adaptive=False),
            run_once(scenario, adaptive=True),
        )
    return results


class TestRebalance:
    def test_adaptive_migrates_and_beats_static(self, outcomes):
        for _, static, adaptive in outcomes.values():
            assert adaptive.metrics.migrations_applied >= 1
            assert adaptive.hot_cpu < static.hot_cpu

    def test_stateless_deliveries_conserved(self, outcomes):
        for scenario, static, adaptive in outcomes.values():
            assert shifted(scenario, static, adaptive, stateless=True) == 0

    def test_write_report(self, outcomes):
        series, peers = {}, []
        for name, (scenario, static, adaptive) in outcomes.items():
            series[name] = {
                "hottest peer CPU %, static": static.hot_cpu,
                "hottest peer CPU %, adaptive": adaptive.hot_cpu,
                "migrations": float(adaptive.metrics.migrations_applied),
                "queries moved": float(adaptive.moved),
                "stateless items shifted": float(
                    shifted(scenario, static, adaptive, stateless=True)
                ),
                "aggregate items shifted": float(
                    shifted(scenario, static, adaptive, stateless=False)
                ),
            }
            peers.append(f"{name} {static.hot_peer} -> {adaptive.hot_peer}")
        write_result(
            "rebalance.txt",
            series_table(
                "Metric",
                f"static vs adaptive placement; hottest peer {', '.join(peers)}",
                series,
                precision=3,
            ),
        )
