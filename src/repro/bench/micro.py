"""Executor micro-benchmark: throughput and peak-memory comparison.

Measures the streaming :class:`~repro.engine.executor.StreamSimulator`
against the materializing oracle on the built-in scenarios and writes a
JSON report (``BENCH_PR2.json`` at the repo root by default).  Each
scenario is also run at half duration to demonstrate that the streaming
executor's peak in-flight item count is bounded independently of run
duration (while the materializing executor's grows linearly).

Usage::

    python -m repro.bench.micro                    # all scenarios
    python -m repro.bench.micro --scenario smoke   # CI smoke run
    python -m repro.bench.micro --check BENCH_PR2.json
        # regression gate: fail if streaming items/s drops more than
        # --tolerance (default 30%) below the committed baseline
    python -m repro.bench.micro --columnar --out BENCH_PR9.json \
        --min-columnar-speedup 2.0
        # A/B the tree vs columnar (REPRO_COLUMNAR) streaming executor:
        # verifies RunMetrics identity, records columnar_speedup, and
        # gates the speedup floor (identity is always enforced; the
        # speed gate self-disarms on single-core hosts)

Each scenario entry also records ``cache_hit_rate`` — the
control-plane cache snapshot (route / rate / match) taken right after
registration (DESIGN.md §10).  The timed region itself stays untraced:
this benchmark measures the instrumentation-disabled path.

The ``pre_pr`` block embeds the throughput of the executor *before*
this optimization round (measured on the same scenarios from the seed
revision), so the report directly documents the speedup.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import sys
import time
from typing import Any, Callable, Dict, Iterator, List, Optional

from ..engine.columnar import ENV_VAR as COLUMNAR_ENV
from ..engine.executor import MaterializingSimulator, StreamSimulator
from ..workload.scenarios import Scenario, scenario_one, scenario_two
from .harness import run_scenario

#: Throughput of the seed (pre-PR) executor on this benchmark's
#: scenarios, measured before the streaming rewrite.  Committed so the
#: report documents the speedup against a fixed reference point.
PRE_PR_BASELINE: Dict[str, Dict[str, float]] = {
    "fig7": {"wall_s": 6.3477, "items": 10795, "items_per_s": 1700.6},
    "smoke": {"wall_s": 0.207, "items": 1001, "items_per_s": 4836.1},
}


def _smoke_scenario() -> Scenario:
    scenario = scenario_one(query_count=10)
    scenario.duration = 10.0
    return scenario


SCENARIOS: Dict[str, Callable[[], Scenario]] = {
    "smoke": _smoke_scenario,
    "fig7": scenario_two,
}


@contextlib.contextmanager
def _columnar_env(mode: Optional[str]) -> Iterator[None]:
    """Pin ``REPRO_COLUMNAR`` for one measurement (restore after)."""
    if mode is None:
        yield
        return
    previous = os.environ.get(COLUMNAR_ENV)
    os.environ[COLUMNAR_ENV] = mode
    try:
        yield
    finally:
        if previous is None:
            del os.environ[COLUMNAR_ENV]
        else:
            os.environ[COLUMNAR_ENV] = previous


def _measure(
    simulator_cls,
    system,
    duration: float,
    repeats: int,
    workers: int = 0,
    columnar: Optional[str] = None,
    keep_metrics: bool = False,
) -> Dict[str, Any]:
    """Best-of-``repeats`` execution of one executor on one deployment.

    ``workers > 1`` measures the sharded executor
    (:class:`~repro.engine.parallel.ShardedSimulator`) instead; its
    sample reports ``peak_live_items`` as the *maximum* over shard
    cells — each cell holds its own in-flight window, so summing them
    would overstate any single process's live footprint — and adds the
    per-shard breakdown under ``peak_live_items_per_shard``.
    """
    best: Optional[Dict[str, Any]] = None
    for _ in range(repeats):
        generators = {
            name: source.generator_factory()
            for name, source in system.sources.items()
        }
        # The env pin covers construction too: the executor resolves
        # REPRO_COLUMNAR once per simulator.
        with _columnar_env(columnar):
            if workers > 1:
                from ..engine.parallel import ShardedSimulator

                simulator = ShardedSimulator(
                    system.net,
                    system.deployment,
                    generators,
                    duration,
                    plan=system.shard_plan(),
                    workers=workers,
                )
            else:
                simulator = simulator_cls(
                    system.net, system.deployment, generators, duration
                )
            # Collect leftovers of previous runs, then keep the collector
            # out of the timed region — generational GC passes triggered
            # by a *previous* executor's garbage would otherwise skew the
            # sample.
            gc.collect()
            gc.disable()
            try:
                start = time.perf_counter()
                metrics = simulator.run()
                wall = time.perf_counter() - start
            finally:
                gc.enable()
        items = sum(metrics.items_generated.values())
        sample: Dict[str, Any] = {
            "wall_s": round(wall, 4),
            "items": items,
            "items_per_s": round(items / wall, 1),
            "mbit": round(metrics.total_mbit(), 4),
            "peak_live_items": simulator.peak_live_items,
        }
        if keep_metrics:
            sample["metrics"] = metrics
        if workers > 1:
            sample["peak_live_items_per_shard"] = {
                str(cell): peak
                for cell, peak in sorted(
                    simulator.peak_live_items_per_shard.items()
                )
            }
            sample["mode"] = simulator.mode_used
            sample["cells"] = simulator.workers_used
        if best is None or sample["wall_s"] < best["wall_s"]:
            best = sample
    assert best is not None
    return best


def run_benchmark(
    names: List[str],
    repeats: int = 3,
    parallel_workers: int = 0,
    columnar: bool = False,
) -> Dict[str, Any]:
    report: Dict[str, Any] = {
        "benchmark": "repro.bench.micro",
        "pre_pr": PRE_PR_BASELINE,
        "cpu_count": os.cpu_count() or 1,
        "scenarios": {},
    }
    for name in names:
        scenario = SCENARIOS[name]()
        system = run_scenario(scenario, "stream-sharing", execute=False).system
        # Registration happened above; snapshot the control-plane cache
        # hit rates (always-on counters) before the timed executions.
        cache = {
            cache_name: round(stats["hit_rate"], 4)
            for cache_name, stats in system.cache_stats().items()
        }
        streaming = _measure(StreamSimulator, system, scenario.duration, repeats)
        materializing = _measure(
            MaterializingSimulator, system, scenario.duration, repeats
        )
        # Half-duration run: streaming peak must not scale with duration.
        half = _measure(StreamSimulator, system, scenario.duration / 2, 1)
        entry: Dict[str, Any] = {
            "duration": scenario.duration,
            "cache_hit_rate": cache,
            "streaming": streaming,
            "materializing": materializing,
            "streaming_half_duration_peak": half["peak_live_items"],
        }
        if columnar:
            # Tree vs columnar A/B on the same deployment: identity is
            # checked on the full RunMetrics, speedup on items/s.
            tree = _measure(
                StreamSimulator,
                system,
                scenario.duration,
                repeats,
                columnar="off",
                keep_metrics=True,
            )
            fast = _measure(
                StreamSimulator,
                system,
                scenario.duration,
                repeats,
                columnar="on",
                keep_metrics=True,
            )
            entry["columnar_identical"] = tree.pop("metrics") == fast.pop(
                "metrics"
            )
            entry["streaming_tree"] = tree
            entry["streaming_columnar"] = fast
            entry["columnar_speedup"] = (
                round(fast["items_per_s"] / tree["items_per_s"], 2)
                if tree["items_per_s"]
                else 0.0
            )
        if parallel_workers > 1:
            entry["streaming_parallel"] = _measure(
                StreamSimulator,
                system,
                scenario.duration,
                repeats,
                workers=parallel_workers,
            )
        pre = PRE_PR_BASELINE.get(name)
        if pre:
            entry["speedup_vs_pre_pr"] = round(
                streaming["items_per_s"] / pre["items_per_s"], 2
            )
        report["scenarios"][name] = entry
    return report


def check_columnar_gate(report: Dict[str, Any], min_speedup: float) -> int:
    """CI gate for the columnar accelerator.

    Metrics identity is a correctness property and is enforced
    unconditionally; the speedup floor is a performance property and —
    like the bench-parallel gate — self-disarms on starved hosts
    (``cpu_count < 2``), where timing ratios are noise.
    """
    failures: List[str] = []
    enforce_speed = report.get("cpu_count", 1) >= 2
    if not enforce_speed:
        print(
            f"columnar speedup gate skipped (cpu_count="
            f"{report.get('cpu_count')}); identity gate still enforced"
        )
    for name, entry in report["scenarios"].items():
        if "columnar_identical" not in entry:
            continue
        if not entry["columnar_identical"]:
            failures.append(f"{name}: columnar RunMetrics diverged from tree")
        speedup = entry.get("columnar_speedup", 0.0)
        if enforce_speed and speedup < min_speedup:
            failures.append(
                f"{name}: columnar speedup {speedup:.2f}x is below the "
                f"{min_speedup:.2f}x floor"
            )
    for failure in failures:
        print(f"GATE FAILURE: {failure}", file=sys.stderr)
    return 1 if failures else 0


def check_regression(
    report: Dict[str, Any], baseline_path: str, tolerance: float
) -> int:
    """Compare streaming items/s against a committed baseline report.

    Returns a process exit code: 1 if any common scenario regressed by
    more than ``tolerance`` (fraction), else 0.
    """
    with open(baseline_path, "r", encoding="utf-8") as handle:
        baseline = json.load(handle)
    failures: List[str] = []
    for name, entry in report["scenarios"].items():
        reference = baseline.get("scenarios", {}).get(name)
        if not reference:
            continue
        current = entry["streaming"]["items_per_s"]
        committed = reference["streaming"]["items_per_s"]
        floor = committed * (1.0 - tolerance)
        status = "ok" if current >= floor else "REGRESSION"
        print(
            f"{name}: {current:.1f} items/s vs baseline {committed:.1f} "
            f"(floor {floor:.1f}) {status}"
        )
        if current < floor:
            failures.append(name)
    if failures:
        print(f"regressed scenarios: {', '.join(failures)}", file=sys.stderr)
        return 1
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench.micro", description=__doc__
    )
    parser.add_argument(
        "--scenario",
        choices=[*SCENARIOS, "all"],
        default="all",
        help="which scenario(s) to run (default: all)",
    )
    parser.add_argument(
        "--out", default="BENCH_PR2.json", help="report output path"
    )
    parser.add_argument(
        "--repeats", type=int, default=3, help="timing repeats (best-of)"
    )
    parser.add_argument(
        "--parallel-workers",
        type=int,
        default=0,
        metavar="N",
        help="also measure the sharded executor with N worker cells "
        "(reports peak live items per shard, not summed)",
    )
    parser.add_argument(
        "--columnar",
        action="store_true",
        help="also measure the streaming executor in tree (REPRO_COLUMNAR"
        "=off) vs columnar (=on) mode, verify RunMetrics identity and "
        "record the columnar_speedup per scenario",
    )
    parser.add_argument(
        "--min-columnar-speedup",
        type=float,
        default=0.0,
        metavar="X",
        help="with --columnar: exit 1 when identity breaks, or (on >=2 "
        "cores) when a scenario's columnar speedup falls below X",
    )
    parser.add_argument(
        "--check",
        metavar="BASELINE",
        help="compare against a committed baseline report; exit 1 on "
        "a throughput regression beyond --tolerance",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.30,
        help="allowed fractional items/s regression for --check (default 0.30)",
    )
    options = parser.parse_args(argv)

    names = list(SCENARIOS) if options.scenario == "all" else [options.scenario]
    report = run_benchmark(
        names,
        repeats=options.repeats,
        parallel_workers=options.parallel_workers,
        columnar=options.columnar,
    )
    with open(options.out, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
    for name, entry in report["scenarios"].items():
        streaming = entry["streaming"]
        materializing = entry["materializing"]
        print(
            f"{name}: streaming {streaming['items_per_s']:.1f} items/s "
            f"(peak {streaming['peak_live_items']} live items) | "
            f"materializing {materializing['items_per_s']:.1f} items/s "
            f"(peak {materializing['peak_live_items']})"
        )
        if "columnar_speedup" in entry:
            tree = entry["streaming_tree"]
            fast = entry["streaming_columnar"]
            ident = "identical" if entry["columnar_identical"] else "DIVERGED"
            print(
                f"{name}: columnar {fast['items_per_s']:.1f} items/s vs "
                f"tree {tree['items_per_s']:.1f} items/s "
                f"(x{entry['columnar_speedup']}) metrics {ident}"
            )
        parallel = entry.get("streaming_parallel")
        if parallel:
            shards = ", ".join(
                f"{cell}:{peak}"
                for cell, peak in parallel["peak_live_items_per_shard"].items()
            )
            print(
                f"{name}: parallel[{parallel['cells']}x{parallel['mode']}] "
                f"{parallel['items_per_s']:.1f} items/s "
                f"(peak per shard {shards})"
            )
    print(f"report written to {options.out}")
    if options.columnar and options.min_columnar_speedup > 0:
        code = check_columnar_gate(report, options.min_columnar_speedup)
        if code:
            return code
    if options.check:
        return check_regression(report, options.check, options.tolerance)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
