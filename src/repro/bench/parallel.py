"""Sharded-executor benchmark: worker sweep with identity verification.

Sweeps the :class:`~repro.engine.parallel.ShardedSimulator` over worker
counts on Figure 7's scenario and on a multi-hotspot churn scenario, and
writes ``BENCH_PR7.json``.  Every parallel sample is verified to produce
**byte-identical** :class:`~repro.engine.metrics.RunMetrics` against the
sequential reference run — a benchmark entry with ``identical: false``
means the sharded executor is broken, not slow.

The report records ``cpu_count`` alongside the throughput numbers:
speedups are physically bounded by the cores actually present, so a
1-core container legitimately reports ~1.0x at every worker count (the
sweep then measures sharding overhead, which is also worth tracking).

Usage::

    python -m repro.bench.parallel                      # full sweep
    python -m repro.bench.parallel --scenario fig7 --repeats 1
    python -m repro.bench.parallel --check              # smoke gate:
        # fail if the 2-worker fig7 run is >10% slower than 1-worker
        # (only enforced when the host has >= 2 cores)
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
import time
from typing import Any, Callable, Dict, List, Optional

from ..analysis.preflight import _build_system
from ..engine.metrics import RunMetrics
from ..workload.scenarios import Scenario, scenario_churn_hotspots, scenario_two


def _fig7_scenario() -> Scenario:
    scenario = scenario_two()
    scenario.duration = 20.0
    return scenario


SCENARIOS: Dict[str, Callable[[], Scenario]] = {
    "fig7": _fig7_scenario,
    "churn_hotspots": scenario_churn_hotspots,
}

#: Items-per-source cap: keeps full sweeps tractable in CI containers.
MAX_ITEMS = 400


def _run_once(
    factory: Callable[[], Scenario], workers: int
) -> Dict[str, Any]:
    """One timed execution on a freshly built system.

    Churn mutates topology state, so every run (including repeats)
    rebuilds the scenario from its deterministic seeds.
    """
    scenario = factory()
    system = _build_system(scenario, "stream-sharing")
    gc.collect()
    gc.disable()
    try:
        start = time.perf_counter()
        metrics = system.run(
            scenario.duration,
            max_items_per_source=MAX_ITEMS,
            faults=scenario.faults,
            workers=workers,
        )
        wall = time.perf_counter() - start
    finally:
        gc.enable()
    simulator = system.last_simulator
    items = sum(metrics.items_generated.values())
    sample: Dict[str, Any] = {
        "wall_s": round(wall, 4),
        "items": items,
        "items_per_s": round(items / wall, 1) if wall > 0 else 0.0,
        "metrics": metrics,
    }
    if workers > 1:
        sample["mode"] = simulator.mode_used
        sample["cells"] = simulator.workers_used
        sample["exchange_batches"] = simulator.exchange_batches
        sample["exchange_items"] = simulator.exchange_items
        sample["exchange_bytes"] = simulator.exchange_bytes
        sample["peak_live_items_per_shard"] = {
            str(cell): peak
            for cell, peak in sorted(simulator.peak_live_items_per_shard.items())
        }
    else:
        sample["mode"] = "sequential"
        sample["cells"] = 1
    return sample


def _measure(
    factory: Callable[[], Scenario], workers: int, repeats: int
) -> Dict[str, Any]:
    best: Optional[Dict[str, Any]] = None
    for _ in range(repeats):
        sample = _run_once(factory, workers)
        if best is None or sample["wall_s"] < best["wall_s"]:
            best = sample
    assert best is not None
    return best


def worker_sweep(cpu_count: int) -> List[int]:
    """The deduplicated worker counts to sweep: 1, 2, 4 and the host's
    core count."""
    return sorted({1, 2, 4, max(cpu_count, 1)})


def run_benchmark(names: List[str], repeats: int = 2) -> Dict[str, Any]:
    cpu_count = os.cpu_count() or 1
    report: Dict[str, Any] = {
        "benchmark": "repro.bench.parallel",
        "cpu_count": cpu_count,
        "scenarios": {},
    }
    for name in names:
        factory = SCENARIOS[name]
        entry: Dict[str, Any] = {"workers": {}}
        reference: Optional[RunMetrics] = None
        base_rate: Optional[float] = None
        for workers in worker_sweep(cpu_count):
            sample = _measure(factory, workers, repeats)
            metrics = sample.pop("metrics")
            if reference is None:
                reference = metrics
                base_rate = sample["items_per_s"]
            sample["identical"] = metrics == reference
            if base_rate is not None and base_rate > 0:
                sample["speedup_vs_1w"] = round(
                    sample["items_per_s"] / base_rate, 3
                )
            entry["workers"][str(workers)] = sample
        entry["all_identical"] = all(
            sample["identical"] for sample in entry["workers"].values()
        )
        report["scenarios"][name] = entry
    return report


def check_gate(report: Dict[str, Any]) -> int:
    """Smoke gate for CI: parallel must not be broken, and on multi-core
    hosts the 2-worker fig7 run must stay within 10% of 1-worker."""
    failures: List[str] = []
    for name, entry in report["scenarios"].items():
        if not entry["all_identical"]:
            failures.append(f"{name}: RunMetrics diverged from sequential")
    fig7 = report["scenarios"].get("fig7", {}).get("workers", {})
    if report["cpu_count"] >= 2 and "1" in fig7 and "2" in fig7:
        one, two = fig7["1"]["items_per_s"], fig7["2"]["items_per_s"]
        if two < 0.9 * one:
            failures.append(
                f"fig7: 2-worker throughput {two:.1f} items/s is more than "
                f"10% below 1-worker {one:.1f} items/s"
            )
    else:
        print(
            f"throughput gate skipped (cpu_count={report['cpu_count']}); "
            "identity gate still enforced"
        )
    for failure in failures:
        print(f"GATE FAILURE: {failure}", file=sys.stderr)
    return 1 if failures else 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench.parallel", description=__doc__
    )
    parser.add_argument(
        "--scenario",
        choices=[*SCENARIOS, "all"],
        default="all",
        help="which scenario(s) to sweep (default: all)",
    )
    parser.add_argument(
        "--out", default="BENCH_PR7.json", help="report output path"
    )
    parser.add_argument(
        "--repeats", type=int, default=2, help="timing repeats (best-of)"
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="exit 1 when identity breaks or (on >=2 cores) the "
        "2-worker fig7 run regresses >10%% below 1-worker",
    )
    options = parser.parse_args(argv)

    names = list(SCENARIOS) if options.scenario == "all" else [options.scenario]
    report = run_benchmark(names, repeats=options.repeats)
    with open(options.out, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
    for name, entry in report["scenarios"].items():
        for workers, sample in entry["workers"].items():
            ident = "identical" if sample["identical"] else "DIVERGED"
            print(
                f"{name} workers={workers} [{sample['mode']}]: "
                f"{sample['items_per_s']:.1f} items/s "
                f"(x{sample.get('speedup_vs_1w', 1.0)}) {ident}"
            )
    print(f"report written to {options.out} (cpu_count={report['cpu_count']})")
    code = 0
    if options.check:
        code = check_gate(report) or code
    return code


if __name__ == "__main__":
    raise SystemExit(main())
