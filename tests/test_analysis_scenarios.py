"""Every benchmark scenario's deployment passes the plan verifier.

Registration-only (no execution) and with reduced query counts so the
tier-1 suite stays fast; the full-size gate runs in the benchmark
suite's fixtures and in ``python -m repro.analysis --plan``.
"""

from __future__ import annotations

import pytest

from repro.analysis import build_churned_system, verify_system
from repro.sharing import STRATEGIES
from repro.workload.scenarios import (
    run_scenario,
    scenario_churn,
    scenario_grid,
    scenario_one,
    scenario_two,
)


def _verified(scenario, strategy):
    return verify_system(run_scenario(scenario, strategy, execute=False).system)


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_scenario_one_verifies_clean(strategy):
    report = _verified(scenario_one(query_count=10), strategy)
    assert report.ok, report.render()


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_scenario_two_verifies_clean(strategy):
    report = _verified(scenario_two(query_count=16), strategy)
    assert report.ok, report.render()


def test_grid_scenario_verifies_clean():
    scenario = scenario_grid(rows=3, cols=3, query_count=12)
    report = _verified(scenario, "stream-sharing")
    assert report.ok, report.render()


def test_churn_scenario_verifies_after_every_repair():
    scenario = scenario_churn(query_count=6)
    reports = build_churned_system(scenario, "stream-sharing")
    assert len(reports) == len(scenario.faults)
    for report in reports:
        assert report.ok, report.render()


def test_churn_gate_requires_a_fault_schedule():
    with pytest.raises(ValueError, match="no fault schedule"):
        build_churned_system(scenario_one(query_count=2), "stream-sharing")
