"""Command-line entry point regenerating the paper's tables and figures.

Usage::

    python -m repro.bench fig6        # Figure 6 (scenario 1)
    python -m repro.bench fig7        # Figure 7 (scenario 2)
    python -m repro.bench table1      # Table 1 (registration times)
    python -m repro.bench rejection   # the constrained-capacity study
    python -m repro.bench caches      # cache hit rates + planner phases
    python -m repro.bench all
    python -m repro.bench fig7 --workers 4
        # executing experiments on the sharded executor (byte-identical
        # metrics; sharebench's fig7-sharded-w2 workload measures it)
"""

from __future__ import annotations

import argparse
import sys
from typing import Dict

from ..sharing.subscribe import STRATEGIES
from ..workload.scenarios import scenario_one, scenario_two
from .harness import ScenarioRun, run_scenario
from .report import (
    accumulated_traffic_report,
    cache_report,
    cpu_report,
    planner_phase_report,
    registration_table,
    rejection_report,
    traffic_report,
)


def _run_all_strategies(scenario, **kwargs) -> Dict[str, ScenarioRun]:
    return {
        strategy: run_scenario(scenario, strategy, **kwargs)
        for strategy in STRATEGIES
    }


def cmd_fig6(workers=None) -> None:
    print("=== Figure 6: extended example scenario "
          "(8 super-peers, 1 data stream, 25 queries) ===\n")
    runs = _run_all_strategies(scenario_one(), workers=workers)
    print(cpu_report(runs))
    print()
    print(traffic_report(runs))
    print()
    totals = {s: f"{r.total_traffic_mbit():.2f}" for s, r in runs.items()}
    print(f"Total backbone traffic (MBit): {totals}")


def cmd_fig7(workers=None) -> None:
    print("=== Figure 7: 4x4 grid scenario "
          "(16 super-peers, 2 data streams, 100 queries) ===\n")
    runs = _run_all_strategies(scenario_two(), workers=workers)
    print(cpu_report(runs))
    print()
    print(accumulated_traffic_report(runs))
    print()
    totals = {s: f"{r.total_traffic_mbit():.2f}" for s, r in runs.items()}
    print(f"Total backbone traffic (MBit): {totals}")


def cmd_table1(workers=None) -> None:
    print("=== Table 1: query registration times ===\n")
    scenario_runs = {
        "1": _run_all_strategies(scenario_one(), execute=False),
        "2": _run_all_strategies(scenario_two(), execute=False),
    }
    print(registration_table(scenario_runs))


def cmd_rejection(workers=None) -> None:
    print("=== Rejection experiment: scenario 2 with peer CPU capped at "
          "10% and links at 1 MBit/s ===\n")
    runs = _run_all_strategies(
        scenario_two(),
        admission_control=True,
        capacity_factor=0.10,
        link_bandwidth=1_000_000.0,
        execute=False,
    )
    print(rejection_report(runs))


def cmd_caches(workers=None) -> None:
    from ..obs import Recorder

    print("=== Control-plane caches and planner phases "
          "(scenario 1, registration only, traced) ===\n")
    runs = {
        strategy: run_scenario(
            scenario_one(), strategy, execute=False, recorder=Recorder()
        )
        for strategy in STRATEGIES
    }
    print(cache_report(runs))
    print()
    print(planner_phase_report(runs))


COMMANDS = {
    "fig6": cmd_fig6,
    "fig7": cmd_fig7,
    "table1": cmd_table1,
    "rejection": cmd_rejection,
    "caches": cmd_caches,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Regenerate the evaluation artifacts of 'Data Stream Sharing' (EDBT 2006).",
    )
    parser.add_argument("experiment", choices=[*COMMANDS, "all"])
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        metavar="N",
        help="execute on the sharded executor with N worker cells "
        "(results are byte-identical to the sequential executor)",
    )
    args = parser.parse_args(argv)
    if args.experiment == "all":
        for index, command in enumerate(COMMANDS.values()):
            if index:
                print("\n")
            command(workers=args.workers)
    else:
        COMMANDS[args.experiment](workers=args.workers)
    return 0


if __name__ == "__main__":
    sys.exit(main())
