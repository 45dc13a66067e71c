"""Glue between the analysis passes and a live :class:`StreamGlobe`.

Entry points per pass:

* :func:`verify_system` — the P1xx/T2xx plan verifier (``--plan``);
* :func:`flow_system` — the F4xx abstract interpreter (``--flow``);
* :func:`build_churned_system` — replay a scenario's fault schedule and
  run the requested passes after every repair (``--churn``).

``python -m repro.analysis`` registers each scenario's full workload
*without executing it* (:func:`~repro.workload.scenarios.run_scenario` with
``execute=False``) and runs every requested pass on that one system.
The flow pass is span-traced through the system's recorder
(``analysis.flow`` spans).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Tuple

from ..diagnostics import AnalysisReport
from .flow import analyze_flow
from .plan_verifier import verify_deployment

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..sharing.system import StreamGlobe
    from ..workload.scenarios import Scenario

__all__ = [
    "build_churned_system",
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


def build_churned_system(
    scenario: "Scenario",
    strategy: str,
    title: str = "churn verification",
    passes: Tuple[str, ...] = ("plan",),
) -> List[AnalysisReport]:
    """Register ``scenario``, replay its fault schedule, re-run ``passes``.

    Applies every scheduled fault to the registered (unexecuted)
    deployment through :meth:`StreamGlobe.apply_fault` and re-runs the
    requested passes (``"plan"``, ``"flow"``) after each event.
    """
    if scenario.faults is None or not scenario.faults:
        raise ValueError(f"scenario {scenario.name!r} has no fault schedule")
    unknown = set(passes) - {"plan", "flow"}
    if unknown:
        raise ValueError(f"unknown churn passes: {sorted(unknown)}")
    from ..workload.scenarios import run_scenario

    system = run_scenario(scenario, strategy, execute=False).system
    reports: List[AnalysisReport] = []
    for event in scenario.faults.events():
        system.apply_fault(event)
        context = f"{title}: after {event.describe()}"
        if "plan" in passes:
            reports.append(verify_system(system, title=context))
        if "flow" in passes:
            reports.append(flow_system(system, title=f"flow {context}"))
    return reports
