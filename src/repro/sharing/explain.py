"""Explanations of registration decisions, human- and machine-readable.

``explain_registration`` renders what Algorithm 1 decided for a
subscription — which stream it reuses, where compensation operators
run, how the result is routed, what the search looked at — in the
vocabulary of the paper.  Used by examples and by operators debugging a
deployment; the output format is covered by tests so it can be relied
on in scripts.

``decision_record`` is the machine-readable counterpart: a plain-dict
"why this plan" record (reused stream, placement, compensation,
chosen vs. initial cost, the overload penalty in the chosen cost,
search telemetry) that the observability
layer attaches to every registration as a structured
``plan.decision`` event (DESIGN.md §10).
"""

from __future__ import annotations

from typing import Any, Dict, List

from ..properties import (
    AggregationSpec,
    OperatorSpec,
    ProjectionSpec,
    ReAggregationSpec,
    SelectionSpec,
    UdfSpec,
    WindowContentsSpec,
)
from .plan import Deployment, InputPlan
from .subscribe import RegistrationResult


def describe_operator(spec: OperatorSpec) -> str:
    """One line describing a compensation operator."""
    if isinstance(spec, SelectionSpec):
        return f"selection σ: {spec.graph.describe()}"
    if isinstance(spec, ProjectionSpec):
        outputs = ", ".join(sorted(str(p) for p in spec.output_elements))
        return f"projection π: keep {outputs}"
    if isinstance(spec, AggregationSpec):
        return f"window aggregation Φ: {spec}"
    if isinstance(spec, ReAggregationSpec):
        ratio = spec.new.window.windows_per_new_window(spec.reused.window)
        return (
            f"re-aggregation ρ: merge {ratio} reused window(s) "
            f"{spec.reused.window} into {spec.new.window}"
        )
    if isinstance(spec, WindowContentsSpec):
        return f"windowing ω: emit contents of {spec.window}"
    if isinstance(spec, UdfSpec):
        return f"user-defined operator: {spec}"
    return str(spec)


def explain_input_plan(plan: InputPlan, deployment: Deployment) -> List[str]:
    """Explanation lines for one input stream's plan."""
    lines: List[str] = []
    reused = deployment.streams.get(plan.reused_id)
    if reused is not None and reused.is_original:
        lines.append(
            f"input '{plan.input_stream}': uses the original stream at "
            f"{plan.tap_node}"
        )
    else:
        owner = f" (created for {reused.query})" if reused and reused.query else ""
        lines.append(
            f"input '{plan.input_stream}': SHARES stream '{plan.reused_id}'"
            f"{owner}, duplicated at {plan.tap_node}"
        )
    if plan.widening is not None:
        lines.append(
            f"  the reused stream was WIDENED in place "
            f"(now: {plan.widening.widened_content})"
        )
    if plan.relay is not None:
        lines.append(
            f"  relayed unmodified along {' -> '.join(plan.relay.route)}"
        )
    if plan.delivered.pipeline:
        lines.append(f"  compensation at {plan.placement_node}:")
        for spec in plan.delivered.pipeline:
            lines.append(f"    - {describe_operator(spec)}")
    else:
        lines.append("  exact reuse: no compensation operators needed")
    if len(plan.delivered.route) > 1:
        lines.append(
            f"  result routed {' -> '.join(plan.delivered.route)}"
        )
    lines.append(f"  estimated plan cost C = {plan.cost:.6f}")
    if plan.overload_penalty:
        lines.append(
            f"  of which overload penalty {plan.overload_penalty:.6f} "
            f"(the plan exceeds the available capacity)"
        )
    return lines


def explain_registration(
    result: RegistrationResult, deployment: Deployment
) -> str:
    """Full explanation of one subscription's registration outcome."""
    lines: List[str] = [f"subscription '{result.query}':"]
    if not result.accepted:
        lines.append(f"  REJECTED — {result.rejection_reason}")
        lines.append(f"  registration took {result.registration_ms:.0f} ms (simulated)")
        return "\n".join(lines)
    assert result.plan is not None
    for plan in result.plan.inputs:
        for line in explain_input_plan(plan, deployment):
            lines.append(f"  {line}")
    lines.append(
        f"  post-processing (restructuring) at the subscriber's super-peer; "
        f"its output is not reused"
    )
    lines.append(
        f"  search visited {result.plan.visited_nodes} node(s), "
        f"matched {result.plan.candidate_matches} candidate propertie(s); "
        f"registration took {result.registration_ms:.0f} ms (simulated)"
    )
    return "\n".join(lines)


def _input_plan_record(plan: InputPlan, deployment: Deployment) -> Dict[str, Any]:
    reused = deployment.streams.get(plan.reused_id)
    shares = reused is not None and not reused.is_original
    record: Dict[str, Any] = {
        "input_stream": plan.input_stream,
        "reused_id": plan.reused_id,
        "shares_existing_stream": shares,
        "reused_owner": reused.query if reused is not None else None,
        "tap_node": plan.tap_node,
        "placement_node": plan.placement_node,
        "relay_route": list(plan.relay.route) if plan.relay is not None else None,
        "delivery_route": list(plan.delivered.route),
        "compensation": [describe_operator(spec) for spec in plan.delivered.pipeline],
        "widened": plan.widening is not None,
        "cost": plan.cost,
        "overload_penalty": plan.overload_penalty,
        "initial_cost": plan.initial_cost,
    }
    if plan.initial_cost is not None:
        record["saving_vs_initial"] = plan.initial_cost - plan.cost
    return record


def decision_record(
    result: RegistrationResult, deployment: Deployment
) -> Dict[str, Any]:
    """Machine-readable "why this plan" record for one registration.

    JSON-serializable by construction; the explanation mirrors
    :func:`explain_registration` field for field, so both views of a
    decision always agree.
    """
    record: Dict[str, Any] = {
        "query": result.query,
        "accepted": result.accepted,
        "registration_ms": result.registration_ms,
    }
    if not result.accepted:
        record["rejection_reason"] = result.rejection_reason
    plan = result.plan
    if plan is not None:
        record.update(
            {
                "total_cost": plan.total_cost(),
                "visited_nodes": plan.visited_nodes,
                "candidate_matches": plan.candidate_matches,
                "reused_streams": sorted(
                    p.reused_id
                    for p in plan.inputs
                    if (s := deployment.streams.get(p.reused_id)) is not None
                    and not s.is_original
                ),
                "inputs": [_input_plan_record(p, deployment) for p in plan.inputs],
            }
        )
    return record


def explain_deployment(deployment: Deployment) -> str:
    """Summary of every stream currently flowing in the network."""
    lines = ["deployed streams:"]
    for stream in deployment.streams.values():
        origin = "original" if stream.is_original else f"from {stream.parent_id}"
        ops = ", ".join(op.kind for op in stream.pipeline) or "none"
        lines.append(
            f"  {stream.stream_id}: {origin}, at {stream.origin_node}, "
            f"route {' -> '.join(stream.route)}, operators: {ops}"
        )
    lines.append(f"registered subscriptions: {', '.join(deployment.queries) or 'none'}")
    return "\n".join(lines)
