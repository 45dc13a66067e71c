"""Plain-text report rendering: the same rows/series the paper shows."""

from __future__ import annotations

from typing import Dict, List

from ..obs.export import format_table
from .harness import ScenarioRun

STRATEGY_LABELS = {
    "data-shipping": "Data Shipping",
    "query-shipping": "Query Shipping",
    "stream-sharing": "Stream Sharing",
}


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
        {strategy: run.cpu_by_peer() for strategy, run in runs.items()},
    )


def traffic_report(runs: Dict[str, ScenarioRun]) -> str:
    return series_table(
        "Connection",
        "Avg. Network Traffic (kbps)",
        {strategy: run.traffic_by_link_kbps() for strategy, run in runs.items()},
    )


def accumulated_traffic_report(runs: Dict[str, ScenarioRun]) -> str:
    return series_table(
        "Peer",
        "Acc. Network Traffic (MBit, in+out)",
        {strategy: run.accumulated_mbit_by_peer() for strategy, run in runs.items()},
    )


def registration_table(
    scenario_runs: Dict[str, Dict[str, ScenarioRun]]
) -> str:
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
            scenario: scenario_runs[scenario][strategy].registration_stats_ms()
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
        [STRATEGY_LABELS.get(strategy, strategy), str(run.accepted), str(run.rejected)]
        for strategy, run in runs.items()
    ]
    return format_table(header, rows) + "\n(Constrained-capacity admission, Section 4)"
