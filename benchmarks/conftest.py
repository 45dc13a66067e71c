"""Shared infrastructure for the benchmark suite.

Each benchmark module regenerates one of the paper's evaluation
artifacts (DESIGN.md, per-experiment index), asserts its *shape* against
the paper's qualitative claims, and writes the rendered table into
``benchmarks/results/`` for EXPERIMENTS.md.  The report formatters
below render those tables: the same rows and series the paper shows.
"""

from __future__ import annotations

import os
import sys
from typing import Dict, List, Tuple

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

import pytest

from repro.obs.export import format_table
from repro.workload.scenarios import ScenarioRun

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")


def write_result(name: str, content: str) -> None:
    """Persist a rendered report table as a benchmark artifact."""
    os.makedirs(RESULTS_DIR, exist_ok=True)
    with open(os.path.join(RESULTS_DIR, name), "w", encoding="utf-8") as handle:
        handle.write(content + "\n")


STRATEGY_LABELS = {
    "data-shipping": "Data Shipping",
    "query-shipping": "Query Shipping",
    "stream-sharing": "Stream Sharing",
}


def cpu_by_peer(run: ScenarioRun) -> Dict[str, float]:
    return dict(run.metrics.cpu_series(run.system.net))


def traffic_by_link_kbps(run: ScenarioRun) -> Dict[str, float]:
    return dict(run.metrics.traffic_series(run.system.net))


def accumulated_mbit_by_peer(run: ScenarioRun) -> Dict[str, float]:
    net = run.system.net
    return {
        name: run.metrics.peer_accumulated_mbit(net, name)
        for name in net.super_peer_names()
    }


def registration_stats_ms(run: ScenarioRun) -> Tuple[float, float, float]:
    """(average, minimum, maximum) registration time (Table 1)."""
    times = run.system.registration_times_ms()
    return (sum(times) / len(times), min(times), max(times))


def series_table(
    title: str,
    unit: str,
    series_by_strategy: Dict[str, Dict[str, float]],
    precision: int = 2,
) -> str:
    """Render one figure panel: rows = x-axis labels, columns = strategies."""
    strategies = list(series_by_strategy)
    labels: List[str] = []
    for series in series_by_strategy.values():
        for label in series:
            if label not in labels:
                labels.append(label)
    header = [title] + [STRATEGY_LABELS.get(s, s) for s in strategies]
    rows = [
        [label]
        + [
            f"{series_by_strategy[s].get(label, 0.0):.{precision}f}"
            for s in strategies
        ]
        for label in labels
    ]
    return format_table(header, rows) + f"\n({unit})"


def cpu_report(runs: Dict[str, ScenarioRun]) -> str:
    return series_table(
        "Peer",
        "Avg. CPU Load (%)",
        {strategy: cpu_by_peer(run) for strategy, run in runs.items()},
    )


def traffic_report(runs: Dict[str, ScenarioRun]) -> str:
    return series_table(
        "Connection",
        "Avg. Network Traffic (kbps)",
        {strategy: traffic_by_link_kbps(run) for strategy, run in runs.items()},
    )


def accumulated_traffic_report(runs: Dict[str, ScenarioRun]) -> str:
    return series_table(
        "Peer",
        "Acc. Network Traffic (MBit, in+out)",
        {strategy: accumulated_mbit_by_peer(run) for strategy, run in runs.items()},
    )


def registration_table(scenario_runs: Dict[str, Dict[str, ScenarioRun]]) -> str:
    """Table 1: registration times (ms) per scenario and strategy."""
    scenarios = list(scenario_runs)
    header = ["Strategy"]
    for kind in ("Average", "Minimum", "Maximum"):
        for scenario in scenarios:
            header.append(f"{kind} {scenario}")
    rows: List[List[str]] = []
    strategies = list(next(iter(scenario_runs.values())))
    for strategy in strategies:
        row = [STRATEGY_LABELS.get(strategy, strategy)]
        stats = {
            scenario: registration_stats_ms(scenario_runs[scenario][strategy])
            for scenario in scenarios
        }
        for index in range(3):
            for scenario in scenarios:
                row.append(f"{stats[scenario][index]:.0f}")
        rows.append(row)
    return format_table(header, rows) + "\n(Query registration times, ms)"


def rejection_report(runs: Dict[str, ScenarioRun]) -> str:
    header = ["Strategy", "Accepted", "Rejected"]
    rows = [
        [
            STRATEGY_LABELS.get(strategy, strategy),
            str(len(run.system.accepted_queries())),
            str(len(run.system.rejected_queries())),
        ]
        for strategy, run in runs.items()
    ]
    return format_table(header, rows) + "\n(Constrained-capacity admission, Section 4)"


def _verified_runs(scenario):
    """Run a scenario under all strategies, statically verifying each
    deployment (full size — the tier-1 suite covers reduced sizes)."""
    from repro.analysis import verify_system
    from repro.sharing import STRATEGIES
    from repro.workload.scenarios import run_scenario

    runs = {}
    for strategy in STRATEGIES:
        run = run_scenario(scenario, strategy)
        report = verify_system(
            run.system, title=f"{scenario.name} / {strategy}"
        )
        assert report.ok, report.render()
        runs[strategy] = run
    return runs


@pytest.fixture(scope="session")
def scenario1_runs():
    """Scenario 1 executed under all three strategies (Figure 6)."""
    from repro.workload.scenarios import scenario_one

    return _verified_runs(scenario_one())


@pytest.fixture(scope="session")
def scenario2_runs():
    """Scenario 2 executed under all three strategies (Figure 7)."""
    from repro.workload.scenarios import scenario_two

    return _verified_runs(scenario_two())
