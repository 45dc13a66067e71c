"""Benchmark harness and report rendering for the paper's evaluation."""

from .harness import ScenarioRun, run_scenario, scale_network
from .report import (
    STRATEGY_LABELS,
    accumulated_traffic_report,
    cpu_report,
    registration_table,
    rejection_report,
    series_table,
    traffic_report,
)

__all__ = [
    "STRATEGY_LABELS",
    "ScenarioRun",
    "accumulated_traffic_report",
    "cpu_report",
    "registration_table",
    "rejection_report",
    "run_scenario",
    "scale_network",
    "series_table",
    "traffic_report",
]
