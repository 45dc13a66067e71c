"""Glue between the analysis passes and a live :class:`StreamGlobe`.

Entry points per pass:

* :func:`verify_system` — the P1xx/T2xx plan verifier (``--plan``);
* :func:`flow_system` — the F4xx abstract interpreter (``--flow``);
* :func:`certify_system` — the S5xx shard certifier (``--shards``);
* :func:`build_churned_system` — replay a scenario's fault schedule and
  run the requested passes after every repair (``--churn``, and the
  certificate re-validation gate for ``--flow``/``--shards``).

``python -m repro.analysis`` registers each scenario's full workload
*without executing it* (:func:`~repro.workload.scenarios.run_scenario` with
``execute=False``) and runs every requested pass on that one system.
All passes are span-traced through the system's recorder
(``analysis.flow`` / ``analysis.shards`` spans).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Tuple

from ..diagnostics import AnalysisReport
from .flow import analyze_flow
from .plan_verifier import verify_deployment
from .shards import ShardPlan, certify_shards

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..sharing.system import StreamGlobe
    from ..workload.scenarios import Scenario

__all__ = [
    "build_churned_system",
    "certify_system",
    "flow_system",
    "verify_system",
]


def verify_system(
    system: "StreamGlobe", title: str = "deployment verification"
) -> AnalysisReport:
    """Verify a system's current deployment against its own catalog."""
    return verify_deployment(system.deployment, catalog=system.catalog, title=title)


def flow_system(
    system: "StreamGlobe", title: str = "flow analysis"
) -> AnalysisReport:
    """Run the F4xx flow pass over a system's current deployment."""
    return analyze_flow(
        system.deployment, system.catalog, title=title, recorder=system.recorder
    )


def certify_system(
    system: "StreamGlobe", title: str = "shard certification"
) -> Tuple[ShardPlan, AnalysisReport]:
    """Run the S5xx shard certifier over a system's current deployment."""
    return certify_shards(
        system.deployment, system.catalog, title=title, recorder=system.recorder
    )


def build_churned_system(
    scenario: "Scenario",
    strategy: str,
    title: str = "churn verification",
    passes: Tuple[str, ...] = ("plan",),
) -> List[AnalysisReport]:
    """Register ``scenario``, replay its fault schedule, re-run ``passes``.

    Applies every scheduled fault to the registered (unexecuted)
    deployment through :meth:`StreamGlobe.apply_fault` and re-runs the
    requested passes (``"plan"``, ``"flow"``, ``"shards"``) after each
    event.  Shard certificates are pinned to the topology: each
    re-certification is checked to carry the bumped
    :attr:`~repro.network.topology.Network.version`, so a stale
    certificate can never be mistaken for a fresh one.
    """
    if scenario.faults is None or not scenario.faults:
        raise ValueError(f"scenario {scenario.name!r} has no fault schedule")
    unknown = set(passes) - {"plan", "flow", "shards"}
    if unknown:
        raise ValueError(f"unknown churn passes: {sorted(unknown)}")
    from ..workload.scenarios import run_scenario

    system = run_scenario(scenario, strategy, execute=False).system
    last_plan: Optional[ShardPlan] = None
    reports: List[AnalysisReport] = []
    for event in scenario.faults.events():
        system.apply_fault(event)
        context = f"{title}: after {event.describe()}"
        if "plan" in passes:
            reports.append(verify_system(system, title=context))
        if "flow" in passes:
            reports.append(flow_system(system, title=f"flow {context}"))
        if "shards" in passes:
            plan, report = certify_system(system, title=f"shards {context}")
            if plan.network_version != system.net.version:
                report.add(
                    "S501",
                    "shard certificate",
                    f"certificate pinned to network version "
                    f"{plan.network_version} but the topology is at "
                    f"{system.net.version}; re-certification raced a "
                    "topology change",
                )
            if last_plan is not None and plan.network_version <= last_plan.network_version:
                report.add(
                    "S501",
                    "shard certificate",
                    "re-certification after a fault did not observe a "
                    "network version bump; the stale certificate would "
                    "still validate",
                )
            last_plan = plan
            reports.append(report)
    return reports
