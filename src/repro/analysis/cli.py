"""Command-line entry point for the static analysis gates.

Usage::

    python -m repro.analysis                       # default full gate
    python -m repro.analysis --code src/repro      # lint only
    python -m repro.analysis --plan                # verify all scenarios
    python -m repro.analysis --plan --scenario 1 --strategy stream-sharing
    python -m repro.analysis --flow --shards       # dataflow + sharding
    python -m repro.analysis --shards --scenario grid --shard-plan-out plan.json

Passes
------

* ``--code`` lints the given files/directories (default ``src/repro``)
  with the repro-specific :mod:`~repro.analysis.linter` (L3xx);
* ``--plan`` builds the paper's benchmark scenarios
  (``--scenario`` takes a name of
  :data:`~repro.workload.scenarios.SCENARIOS`), registers their
  workload (without pumping items) and runs the
  :func:`~repro.analysis.plan_verifier.verify_deployment` invariants
  (P1xx/T2xx) over the resulting deployments;
* ``--flow`` runs the abstract interpreter
  (:func:`~repro.analysis.flow.analyze_flow`, F4xx) over the same
  deployments — each (scenario, strategy) is registered once, whatever
  the passes;
* ``--shards`` runs the shard-safety certifier
  (:func:`~repro.analysis.shards.certify_shards`, S5xx) and prints each
  deployment's :class:`~repro.analysis.shards.ShardPlan` as one
  ``SHARD-PLAN <scenario> <strategy> <json>`` line (optionally also
  written to ``--shard-plan-out``);
* ``--churn`` replays the churn scenario's fault schedule against a
  registered deployment and re-runs plan/flow/shards after every
  repair, re-validating shard certificates against the bumped
  topology version.

Exit-code contract
------------------

Every pass follows the same contract, which is what CI keys on:

* ``0`` — every requested pass ran and produced no *error*-severity
  diagnostics (warnings do not fail the gate);
* ``1`` — at least one pass reported an error diagnostic.  This
  includes operational findings reported *as* diagnostics: a ``--code``
  path that does not exist (``L307``) or contains no Python files
  (``L308``) produces an error report rather than silently linting
  nothing;
* ``2`` — usage errors detected before any pass runs (unknown flags,
  unknown ``--scenario``/``--strategy`` values), via ``argparse``.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from .diagnostics import AnalysisReport
from .linter import lint_paths

if TYPE_CHECKING:  # pragma: no cover - engine-side import kept lazy
    from .shards import ShardPlan

__all__ = ["main"]

#: What --plan/--flow/--shards register without --scenario: the
#: fault-free scenarios (--churn replays the faulted one).
_DEFAULT_SCENARIOS = ("1", "2", "grid")
_DEFAULT_CODE_PATHS = (os.path.join("src", "repro"),)


def _code_report(paths: Sequence[str]) -> AnalysisReport:
    """Lint ``paths``; missing or Python-free paths become diagnostics.

    A nonexistent path is an error the report carries (``L307``), not a
    silent no-op: the gate must fail loudly when pointed at nothing.
    """
    title = f"code lint: {', '.join(paths)}"
    report = AnalysisReport(title=title)
    present: List[str] = []
    for path in paths:
        if os.path.exists(path):
            present.append(path)
        else:
            report.add(
                "L307",
                path,
                "no such file or directory; nothing was linted for this path",
                hint="check the --code arguments",
            )
    if present:
        linted = lint_paths(present, title=title)
        report.merge(linted)
        if not linted.diagnostics and not _has_python_files(present):
            report.add(
                "L308",
                ", ".join(present),
                "path(s) exist but contain no Python files; nothing was "
                "linted",
                hint="point --code at a Python source tree",
            )
    return report


def _has_python_files(paths: Sequence[str]) -> bool:
    for path in paths:
        if os.path.isfile(path) and path.endswith(".py"):
            return True
        for _root, _dirs, files in os.walk(path):
            if any(name.endswith(".py") for name in files):
                return True
    return False


def _scenario_reports(
    scenarios: Sequence[str],
    strategies: Optional[Sequence[str]],
    passes: Tuple[str, ...],
) -> Tuple[List[AnalysisReport], List[Tuple[str, str, "ShardPlan"]]]:
    """Register each (scenario, strategy) once and run ``passes`` on it.

    The reports come back grouped by pass, in the order of ``passes``.
    """
    # Imported lazily: --code must work even if the engine side is broken.
    from ..sharing.subscribe import STRATEGIES
    from ..workload.scenarios import SCENARIOS, run_scenario
    from .preflight import certify_system, flow_system, verify_system

    by_pass: Dict[str, List[AnalysisReport]] = {name: [] for name in passes}
    plans: List[Tuple[str, str, "ShardPlan"]] = []
    for key in scenarios:
        scenario = SCENARIOS[key]()
        for strategy in strategies or STRATEGIES:
            system = run_scenario(scenario, strategy, execute=False).system
            where = f"scenario {key}, strategy {strategy!r}"
            if "plan" in passes:
                by_pass["plan"].append(
                    verify_system(system, title=f"plan verification: {where}")
                )
                if (key, strategy) == ("1", "stream-sharing"):
                    # Widening rewrites installed streams in place: the one
                    # deployment shape no other scenario produces.
                    widened = run_scenario(
                        scenario, strategy, enable_widening=True, execute=False
                    ).system
                    by_pass["plan"].append(
                        verify_system(
                            widened,
                            title=f"plan verification: {where}, widening enabled",
                        )
                    )
            if "flow" in passes:
                by_pass["flow"].append(
                    flow_system(system, title=f"flow analysis: {where}")
                )
            if "shards" in passes:
                plan, shard_report = certify_system(
                    system, title=f"shard certification: {where}"
                )
                by_pass["shards"].append(shard_report)
                plans.append((key, strategy, plan))
    return [report for name in passes for report in by_pass[name]], plans


def _churn_reports(
    strategies: Optional[Sequence[str]], passes: Tuple[str, ...]
) -> List[AnalysisReport]:
    from ..sharing.subscribe import STRATEGIES
    from ..workload.scenarios import SCENARIOS
    from .preflight import build_churned_system

    reports: List[AnalysisReport] = []
    for strategy in strategies or STRATEGIES:
        reports.extend(
            build_churned_system(
                SCENARIOS["churn"](),
                strategy,
                title=f"churn verification, strategy {strategy!r}",
                passes=passes,
            )
        )
    return reports


def main(argv: Optional[Sequence[str]] = None) -> int:
    from ..workload.scenarios import SCENARIOS

    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="Static analysis gates: source lint, plan verifier, "
        "flow analyzer, shard certifier.",
    )
    parser.add_argument(
        "--code",
        nargs="*",
        metavar="PATH",
        default=None,
        help="lint the given files/directories (default: src/repro)",
    )
    parser.add_argument(
        "--plan",
        action="store_true",
        help="register the benchmark scenarios and verify their deployments",
    )
    parser.add_argument(
        "--flow",
        action="store_true",
        help="run the F4xx abstract interpreter over the scenario deployments",
    )
    parser.add_argument(
        "--shards",
        action="store_true",
        help="certify shard partitions (S5xx) and print each ShardPlan as "
        "a 'SHARD-PLAN <scenario> <strategy> <json>' line",
    )
    parser.add_argument(
        "--shard-plan-out",
        metavar="PATH",
        default=None,
        help="also write the last certified ShardPlan JSON to PATH",
    )
    parser.add_argument(
        "--churn",
        action="store_true",
        help="replay the churn scenario's faults and re-run the plan, flow "
        "and shards passes after every repair",
    )
    parser.add_argument(
        "--scenario",
        choices=SCENARIOS,
        action="append",
        help="restrict plan/flow/shards to one scenario (repeatable; "
        "default: 1, 2 and grid)",
    )
    parser.add_argument(
        "--strategy",
        action="append",
        help="restrict to one sharing strategy (repeatable; default: all)",
    )
    parser.add_argument(
        "--quiet",
        action="store_true",
        help="print only failing reports",
    )
    args = parser.parse_args(argv)

    run_code = args.code is not None
    run_plan = args.plan
    run_flow = args.flow
    run_shards = args.shards
    run_churn = args.churn
    if not any((run_code, run_plan, run_flow, run_shards, run_churn)):
        run_code = run_plan = True  # no flags: run the default full gate

    if args.strategy and (run_plan or run_flow or run_shards or run_churn):
        from ..sharing.subscribe import STRATEGIES

        unknown = [s for s in args.strategy if s not in STRATEGIES]
        if unknown:
            parser.error(
                f"unknown strategy {', '.join(unknown)}; "
                f"pick from {', '.join(STRATEGIES)}"
            )

    reports: List[AnalysisReport] = []
    if run_code:
        paths = args.code if args.code else list(_DEFAULT_CODE_PATHS)
        reports.append(_code_report(paths))
    passes = tuple(
        name
        for name, wanted in (("plan", run_plan), ("flow", run_flow), ("shards", run_shards))
        if wanted
    )
    if passes:
        scenario_reports, plans = _scenario_reports(
            args.scenario or _DEFAULT_SCENARIOS, args.strategy, passes
        )
        reports.extend(scenario_reports)
        for key, strategy, plan in plans:
            print(f"SHARD-PLAN {key} {strategy} {plan.to_json()}")
        if args.shard_plan_out and plans:
            with open(args.shard_plan_out, "w", encoding="utf-8") as handle:
                handle.write(plans[-1][2].to_json() + "\n")
    if run_churn:
        reports.extend(_churn_reports(args.strategy, ("plan", "flow", "shards")))

    failed = False
    for report in reports:
        if not report.ok:
            failed = True
        if not report.ok or not args.quiet:
            print(report.render())
            print()
    print("FAIL" if failed else "OK")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
