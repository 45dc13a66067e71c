"""The 4x4 grid evaluation scenario (paper Figure 7) as an example.

Registers 100 template-generated queries over two photon streams under
all three strategies and prints a compact comparison.

Run with::

    python examples/grid_scenario.py
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.workload.scenarios import run_scenario, scenario_two


def main() -> None:
    scenario = scenario_two()
    kinds = {}
    for query in scenario.queries:
        kinds[query.kind] = kinds.get(query.kind, 0) + 1
    print(f"scenario: {len(scenario.queries)} queries over "
          f"{len(scenario.sources)} streams on a 4x4 super-peer grid")
    print(f"query mix: {kinds}\n")

    print(f"{'strategy':<16} {'total MBit':>11} {'peak CPU %':>11} "
          f"{'avg reg ms':>11} {'shared':>7}")
    for strategy in ("data-shipping", "query-shipping", "stream-sharing"):
        run = run_scenario(scenario, strategy)
        times = run.system.registration_times_ms()
        shared = sum(
            1
            for result in run.registrations
            if any(
                plan.reused_id not in ("photons", "photons2")
                for plan in result.plan.inputs
            )
        )
        print(
            f"{strategy:<16} {run.metrics.total_mbit():>11.1f} "
            f"{max(cpu for _, cpu in run.metrics.cpu_series(run.system.net)):>11.2f} "
            f"{sum(times) / len(times):>11.0f} "
            f"{shared:>7}"
        )

    print("\n'shared' counts queries answered from a previously generated")
    print("stream rather than the original source stream.")


if __name__ == "__main__":
    main()
