#!/usr/bin/env python3
"""sharebench: the end-to-end + per-layer benchmark of the sharing system.

Three ways to run it, all from the repository root:

``python3 benchmarks/sharebench/run.py [--seed N] [--quick] [--out FILE]``
    The report: every workload in a fresh child process, once untraced
    (end-to-end metrics) and once traced (per-layer metrics and the
    "where the time goes" table), with medians, quartiles, sample
    counts and a host fingerprint.

``... run.py --workload NAME --seed N --seconds S --trace 0|1``
    One workload in this process (what the children above and the
    benchmark driver run).  The last line of standard output is one
    JSON object ``{"correct", "attempted", "failed", "metrics"}``.

``... run.py --compare A.json B.json`` / ``--twice``
    Repeatability: judge report B against report A per metric and
    workload (``agree`` / ``worse`` / ``unresolved``); ``--twice``
    produces both reports first.  Exits 1 on any ``worse``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))

#: The manifest the benchmark driver reads is also this program's table
#: of workloads and metrics: names, units, directions and bounds.
MANIFEST = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOAD_WHY = {entry["name"]: entry["why"] for entry in MANIFEST["workloads"]}
WORKLOAD_NAMES = tuple(WORKLOAD_WHY)
#: name -> (unit, better, bound): bound is the share of the parent's
#: median by which the metric may worsen before it is a regression.
END_TO_END = {
    entry["name"]: (entry["unit"], entry["better"], entry["bound"])
    for entry in MANIFEST["end_to_end"]
}
#: name -> (unit, better).  No bounds: these explain, they do not gate.
PER_LAYER = {entry["name"]: (entry["unit"], entry["better"]) for entry in MANIFEST["per_layer"]}
DETAIL_PREFIX = "SHAREBENCH-DETAIL "
CHILD_TIMEOUT_S = 180
#: Timed imports of the program per run (fresh interpreters plus this one).
IMPORT_SAMPLES = 6


def summary(values: Sequence[float]) -> Dict[str, float]:
    """Median, quartiles and count of one metric's samples."""
    if len(values) > 1:
        q1, median, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = median = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def format_metric(name: str, unit: str, stats: Dict[str, float]) -> str:
    return (
        f"  {name:<34s} {stats['median']:>14.6g} {unit:<10s} "
        f"q1 {stats['q1']:.6g}  q3 {stats['q3']:.6g}  n={stats['n']}"
    )


# ----------------------------------------------------------------------
# One workload, in this process
# ----------------------------------------------------------------------
def import_seconds(source: Path) -> float:
    """Calibrated seconds a fresh interpreter takes to import the
    program (and the benchmark's modules) — the first thing a user of
    the library pays.  This process's own import is one more sample.
    The child spins before and after its import, so the speed is that
    of its own core at that moment."""
    code = (
        "import sys, time; sys.path[:0] = sys.argv[1:]; import calib; "
        "spins = [calib.spin() for _ in range(3)]; start = time.perf_counter(); "
        "import workloads; seconds = time.perf_counter() - start; "
        "spins += [calib.spin() for _ in range(3)]; print(seconds * calib.speed_of(spins))"
    )
    done = subprocess.run(
        [sys.executable, "-c", code, str(HERE), str(source)],
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True,
    )
    return float(done.stdout)


def run_one(args: argparse.Namespace) -> int:
    source = ROOT / "src"
    if not (source / "repro").is_dir():
        print(f"sharebench: no program to measure at {source / 'repro'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(source))
    # No REPRO_* switch may pick a code path for the program under test.
    for key in [key for key in os.environ if key.startswith("REPRO_")]:
        del os.environ[key]
    from calib import Calibrator

    calibrator = Calibrator()
    imports = [
        import_seconds(source)
        for _ in range(0 if args.quick else IMPORT_SAMPLES - 1)
    ]
    with calibrator.region() as imported:
        import workloads
    imports.append(imported.seconds)
    from tracer import format_table

    ctx, workload = workloads.measure(
        args.workload, args.seed, args.seconds, bool(args.trace), args.quick, calibrator
    )
    stats: Dict[str, Dict[str, float]] = {}
    table = ""
    if args.trace:
        layers, sample, setup = workloads.per_layer(ctx)
        table = format_table(sample, setup, args.workload)
        for name in PER_LAYER:
            if name in sample:
                rows = [row.get(name, 0.0) + setup.get(name, 0.0) for row in ctx.sample_layers]
            else:  # derived from all traced samples at once
                rows = [layers[name]]
            stats[name] = summary(rows)
            stats[name]["median"] = layers[name]
        units = {name: unit for name, (unit, _) in PER_LAYER.items()}
    else:
        first_import = statistics.median(imports)
        for name, values in workloads.end_to_end(ctx, workload, first_import).items():
            stats[name] = summary(values)
        units = {name: unit for name, (unit, _, _) in END_TO_END.items()}

    attempted = ctx.out.attempted + ctx.traced_out.attempted
    failed = ctx.out.failed + ctx.traced_out.failed
    failures = ctx.out.failures + ctx.traced_out.failures
    print(f"{args.workload}  seed={args.seed}  trace={args.trace}  ({WORKLOAD_WHY[args.workload]})")
    for name, unit in units.items():
        print(format_metric(name, unit, stats[name]))
    if table:
        print(table)
    if ctx.tracer.missing:
        print("  not wrapped (target gone): " + ", ".join(sorted(set(ctx.tracer.missing))))
    for failure in failures:
        print(f"  FAILED: {failure}")
    if args.spans is not None and args.trace:
        with args.spans.open("w") as handle:
            for span in sorted(ctx.last_spans, key=lambda span: span.t0):
                handle.write(json.dumps(span.to_dict()) + "\n")
    if args.detail:
        detail = {"stats": stats, "failures": failures, "table": table}
        print(DETAIL_PREFIX + json.dumps(detail))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": stats[name]["median"], "unit": unit} for name, unit in units.items()
        },
    }
    print(json.dumps(result))
    return 0


# ----------------------------------------------------------------------
# The report: every workload, each pass in a fresh child
# ----------------------------------------------------------------------
def fingerprint() -> Dict[str, Any]:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = ""
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "git_commit": commit or "unknown",
    }


def run_child(name: str, trace: int, args: argparse.Namespace) -> Dict[str, Any]:
    command = [
        sys.executable,
        str(HERE / "run.py"),
        "--workload", name,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(trace),
        "--detail",
    ]
    if args.quick:
        command.append("--quick")
    if args.spans is not None and trace:
        command += ["--spans", str(args.spans.with_name(f"{args.spans.name}-{name}.jsonl"))]
    done = subprocess.run(
        command, cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S
    )
    if done.returncode != 0:
        raise RuntimeError(f"{name} (trace {trace}) exited {done.returncode}:\n{done.stderr}")
    lines = done.stdout.strip().splitlines()
    detail = next(line for line in reversed(lines) if line.startswith(DETAIL_PREFIX))
    merged = json.loads(lines[-1])
    merged.update(json.loads(detail[len(DETAIL_PREFIX):]))
    return merged


def report(args: argparse.Namespace, out_path: Optional[Path]) -> Dict[str, Any]:
    result: Dict[str, Any] = {
        "fingerprint": fingerprint(),
        "seed": args.seed,
        "quick": args.quick,
        "seconds": args.seconds,
        "workloads": {},
    }
    print("sharebench  " + "  ".join(f"{k}={v}" for k, v in result["fingerprint"].items()))
    for name in WORKLOAD_NAMES:
        plain = run_child(name, 0, args)
        traced = run_child(name, 1, args)
        attempted = plain["attempted"] + traced["attempted"]
        failed = plain["failed"] + traced["failed"]
        entry = {
            "end_to_end": plain["stats"],
            "per_layer": traced["stats"],
            "attempted": attempted,
            "failed": failed,
            "failed_ops_share": failed / attempted,
            "failures": plain["failures"] + traced["failures"],
            "table": traced["table"],
        }
        result["workloads"][name] = entry
        print(f"\n{name}: end to end (untraced), failed_ops_share {entry['failed_ops_share']:g} "
              f"({failed} of {attempted})")
        for metric, (unit, _, _) in END_TO_END.items():
            print(format_metric(metric, unit, entry["end_to_end"][metric]))
        print(f"{name}: per layer (traced pass)")
        for metric, (unit, _) in PER_LAYER.items():
            print(format_metric(metric, unit, entry["per_layer"][metric]))
        print(entry["table"])
        for failure in entry["failures"]:
            print(f"  FAILED: {failure}")
    if out_path is not None:
        out_path.parent.mkdir(parents=True, exist_ok=True)
        out_path.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
        print(f"\nwrote {out_path}")
    return result


# ----------------------------------------------------------------------
# Repeatability: judge report B against report A
# ----------------------------------------------------------------------
def compare(first: Dict[str, Any], second: Dict[str, Any]) -> int:
    """``agree`` / ``worse`` / ``unresolved`` per metric and workload.

    ``worse``: B's median is worse than A's by more than the metric's
    bound.  ``unresolved``: A's median is itself not known to within
    the bound — its samples' inter-quartile distance over the square
    root of their number, as a share of the median, exceeds it — so
    the pair cannot be told apart at that bound.
    """
    worse = 0
    for name in WORKLOAD_NAMES:
        print(name)
        for metric, (unit, better, bound) in END_TO_END.items():
            a = first["workloads"][name]["end_to_end"][metric]
            b = second["workloads"][name]["end_to_end"][metric]
            base = abs(a["median"])
            spread = (a["q3"] - a["q1"]) / base / a["n"] ** 0.5
            change = (b["median"] - a["median"]) / base
            worsening = change if better == "lower" else -change
            if spread > bound:
                verdict = "unresolved"
            elif worsening > bound:
                verdict = "worse"
                worse += 1
            else:
                verdict = "agree"
            print(
                f"  {metric:<28s} {verdict:<10s} A {a['median']:.6g}  B {b['median']:.6g} {unit}  "
                f"change {100 * change:+.2f} %  A-spread {100 * spread:.2f} %  bound {100 * bound:g} %"
            )
        for label, run in (("A", first), ("B", second)):
            share = run["workloads"][name]["failed_ops_share"]
            if share:
                print(f"  failed_ops_share {label}: {share:g}")
                worse += 1
    print("worse: %d" % worse)
    return 1 if worse else 0


# ----------------------------------------------------------------------
def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0,
                        help="added to the photon streams' seeds (0 = the scenarios' own; pins apply)")
    parser.add_argument("--seconds", type=float, default=None,
                        help="sampling time per pass (default 10, --quick 0.5)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true", help="tiny durations, for the tests")
    parser.add_argument("--detail", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--out", type=Path, help="write the report as JSON")
    parser.add_argument("--spans", type=Path,
                        help="write the last traced sample's spans (id, parent, name, t0, t1, "
                             "self_s) as JSON lines; in the report: SPANS-<workload>.jsonl")
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("A.json", "B.json"))
    parser.add_argument("--twice", action="store_true",
                        help="two reports back to back (OUT-a.json, OUT-b.json), then compare")
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = 0.5 if args.quick else 10.0

    if args.compare:
        first, second = (json.loads(path.read_text()) for path in args.compare)
        return compare(first, second)
    if args.workload:
        return run_one(args)
    if args.twice:
        stem = args.out if args.out is not None else HERE / "results" / "twice"
        reports = [
            report(args, stem.with_name(f"{stem.name}-{label}.json")) for label in ("a", "b")
        ]
        return compare(*reports)
    report(args, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
