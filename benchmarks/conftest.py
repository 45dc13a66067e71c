"""Shared infrastructure for the benchmark suite.

Each benchmark module regenerates one of the paper's evaluation
artifacts (DESIGN.md, per-experiment index), asserts its *shape* against
the paper's qualitative claims, and writes the rendered table into
``benchmarks/results/`` for EXPERIMENTS.md.
"""

from __future__ import annotations

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

import pytest

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")


def write_result(name: str, content: str) -> None:
    """Persist a rendered report table as a benchmark artifact."""
    os.makedirs(RESULTS_DIR, exist_ok=True)
    with open(os.path.join(RESULTS_DIR, name), "w", encoding="utf-8") as handle:
        handle.write(content + "\n")


def _verified_runs(scenario):
    """Run a scenario under all strategies, statically verifying each
    deployment (full size — the tier-1 suite covers reduced sizes)."""
    from repro.analysis import verify_system
    from repro.bench import run_scenario
    from repro.sharing import STRATEGIES

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
