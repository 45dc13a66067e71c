"""Plain-text report rendering: the same rows/series the paper shows."""

from __future__ import annotations

from typing import Dict, List

from ..obs.export import PLANNER_SPAN_ORDER, format_table
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


def cache_report(runs: Dict[str, ScenarioRun]) -> str:
    """Control-plane cache effectiveness: hit rate per cache × strategy.

    Always available — the cache counters are kept regardless of
    tracing (DESIGN.md §10).
    """
    rates = {strategy: run.cache_hit_rates() for strategy, run in runs.items()}
    caches: List[str] = []
    for per_cache in rates.values():
        for name in per_cache:
            if name not in caches:
                caches.append(name)
    header = ["Cache"] + [STRATEGY_LABELS.get(s, s) for s in runs]
    rows = [
        [cache]
        + [
            f"{rates[s][cache] * 100.0:.1f}" if cache in rates[s] else "-"
            for s in runs
        ]
        for cache in caches
    ]
    return format_table(header, rows) + "\n(Cache hit rate, %)"


def planner_phase_report(runs: Dict[str, ScenarioRun]) -> str:
    """Per-phase planner wall time (ms) per strategy.

    Only traced runs (a Recorder handed to ``run_scenario``) carry span
    timings; untraced strategies render as ``-``.
    """
    totals = {strategy: run.planner_phase_seconds() for strategy, run in runs.items()}
    phases = [p for p in PLANNER_SPAN_ORDER if any(p in t for t in totals.values())]
    for per_phase in totals.values():
        for name in per_phase:
            if name not in phases:
                phases.append(name)
    if not phases:
        return "planner phase timings: none (no traced run; pass a Recorder)"
    header = ["Phase"] + [STRATEGY_LABELS.get(s, s) for s in runs]
    rows = [
        [phase]
        + [
            f"{totals[s][phase] * 1000.0:.1f}" if phase in totals[s] else "-"
            for s in runs
        ]
        for phase in phases
    ]
    return format_table(header, rows) + "\n(Planner phase wall time, ms)"


def rejection_report(runs: Dict[str, ScenarioRun]) -> str:
    header = ["Strategy", "Accepted", "Rejected"]
    rows = [
        [STRATEGY_LABELS.get(strategy, strategy), str(run.accepted), str(run.rejected)]
        for strategy, run in runs.items()
    ]
    return format_table(header, rows) + "\n(Constrained-capacity admission, Section 4)"
