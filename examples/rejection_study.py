"""The constrained-capacity rejection study (paper Section 4).

Peers capped at 10 % of their CPU capacity, links at 1 MBit/s — how
many of the grid scenario's 100 queries must each strategy reject
because no overload-free evaluation plan exists?

Paper: data shipping 47, query shipping 35, stream sharing 2.

Run with::

    python examples/rejection_study.py
"""

import dataclasses
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.workload.scenarios import run_scenario, scenario_two


def main() -> None:
    scenario = scenario_two()
    constrained = dataclasses.replace(
        scenario,
        network_factory=lambda: scenario.build_network().scaled(0.10, 1_000_000.0),
    )
    print("peer CPU capped at 10%, links at 1 MBit/s; 100 queries\n")
    print(f"{'strategy':<16} {'accepted':>9} {'rejected':>9}  first rejected queries")
    for strategy in ("data-shipping", "query-shipping", "stream-sharing"):
        run = run_scenario(constrained, strategy, admission_control=True, execute=False)
        accepted = run.system.accepted_queries()
        rejected = run.system.rejected_queries()
        print(
            f"{strategy:<16} {len(accepted):>9} {len(rejected):>9}  "
            f"{', '.join(rejected[:5])}{' ...' if len(rejected) > 5 else ''}"
        )
    print("\npaper reference: data shipping 47, query shipping 35, stream sharing 2")


if __name__ == "__main__":
    main()
