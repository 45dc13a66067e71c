"""Stream widening — the paper's announced enhancement (Section 6).

"We are currently working on an enhanced version of the approach ...
able to ... widen data streams.  This enables the system to consider
data streams for sharing that initially do not contain all the
necessary data for a new query but can be altered to do so by changing
some operators in the network."

Given a candidate stream whose properties do *not* match a new
subscription (its selection is too tight, or its projection dropped
elements the subscription references), widening replaces the operators
that produce the stream with weaker ones:

* the **selection hull** keeps exactly the atomic constraints common to
  both predicates, each at the looser bound — implied by both queries,
  so the widened stream is a superset of both needs;
* the **projection union** outputs the union of both element sets.

Because every existing consumer of the widened stream suddenly sees a
superset, widening also rewrites their compensation pipelines and —
for subscriptions that consumed the stream *directly* — inserts a
restoring pipeline at their super-peer, so delivered results stay
bit-identical.  All of that is costed as a delta against the cost
function ``C`` and competes with ordinary plans inside Algorithm 1.

Widening is restricted to selection/projection streams; aggregate,
window, and UDF streams are never widened (their consumers' semantics
are tied to the exact operator conditions).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..costmodel import PlanEffects, base_load, estimate_stream_rate
from ..matching import match_stream_properties
from ..predicates import PredicateGraph
from ..properties import (
    OperatorSpec,
    ProjectionSpec,
    SelectionSpec,
    StreamProperties,
)
from .plan import Deployment, InstalledStream, RegisteredQuery
from .planner import Planner, derive_compensation


# ----------------------------------------------------------------------
# Content widening
# ----------------------------------------------------------------------
def widen_selection(
    existing: Optional[SelectionSpec], needed: Optional[SelectionSpec]
) -> Optional[SelectionSpec]:
    """The loosest selection implied by both predicates (their hull).

    Keeps an edge only when *both* graphs constrain the same pair, at
    the looser of the two bounds.  Returns ``None`` (no selection) when
    either side has no selection — the widened stream must then carry
    every item.
    """
    if existing is None or needed is None:
        return None
    hull = PredicateGraph()
    needed_edges = needed.graph.edges
    for (source, target), bound in existing.graph.edges.items():
        other = needed_edges.get((source, target))
        if other is None:
            continue
        hull.add_edge(source, target, bound if other.implies(bound) else other)
    if hull.is_empty():
        return None
    return SelectionSpec(hull)


def widen_projection(
    existing: Optional[ProjectionSpec], needed: Optional[ProjectionSpec]
) -> Optional[ProjectionSpec]:
    """The union projection, or ``None`` when either side needs whole items."""
    if existing is None or needed is None:
        return None
    return ProjectionSpec(
        output_elements=existing.output_elements | needed.output_elements,
        referenced_elements=existing.referenced_elements | needed.referenced_elements,
    )


def widen_content(
    existing: StreamProperties, needed: StreamProperties
) -> Optional[StreamProperties]:
    """Widened stream content serving both ``existing`` and ``needed``.

    Returns ``None`` when the streams are incompatible or widening is
    not applicable (aggregates/windows/UDFs, or nothing would change).
    """
    if existing.stream != needed.stream or existing.item_path != needed.item_path:
        return None
    plain_kinds = {"selection", "projection"}
    if any(op.kind not in plain_kinds for op in existing.operators):
        return None
    if any(op.kind not in plain_kinds for op in needed.operators):
        return None

    operators: List[OperatorSpec] = []
    selection = widen_selection(existing.selection, needed.selection)
    if selection is not None:
        operators.append(selection)
    projection = widen_projection(existing.projection, needed.projection)
    if projection is not None:
        operators.append(projection)

    widened = StreamProperties(
        stream=existing.stream,
        item_path=existing.item_path,
        operators=tuple(operators),
    )
    if widened.operators == existing.operators:
        return None  # nothing widens: the existing stream already matched
    # Sanity: the widened stream must serve both parties.
    if not match_stream_properties(widened, existing):
        return None
    if not match_stream_properties(widened, needed):
        return None
    return widened


# ----------------------------------------------------------------------
# Widening actions
# ----------------------------------------------------------------------
@dataclass
class DeliveryRestore:
    """A restoring stream for a subscription that consumed the widened
    stream directly: re-applies the original content at the target."""

    query: str
    input_stream: str
    old_stream_id: str
    restore: InstalledStream


@dataclass
class WideningAction:
    """Everything a committed widening changes in the deployment."""

    stream_id: str
    widened_content: StreamProperties
    widened_pipeline: Tuple[OperatorSpec, ...]
    #: Child stream id → its recomputed compensation pipeline.
    consumer_pipelines: Dict[str, Tuple[OperatorSpec, ...]] = field(default_factory=dict)
    delivery_restores: List[DeliveryRestore] = field(default_factory=list)
    effects: PlanEffects = field(default_factory=PlanEffects)


class WideningPlanner:
    """Builds and commits widening actions against a deployment."""

    def __init__(self, planner: Planner) -> None:
        self.planner = planner

    # ------------------------------------------------------------------
    def plan_widening(
        self,
        deployment: Deployment,
        candidate: InstalledStream,
        needed: StreamProperties,
        query_name: str,
    ) -> Optional[Tuple[InstalledStream, WideningAction]]:
        """Try to widen ``candidate`` so that it serves ``needed``.

        Returns the *hypothetical* widened stream (not yet installed)
        plus the action describing the deployment change, or ``None``
        when widening does not apply.
        """
        if candidate.is_original:
            return None  # the raw stream is already maximal
        widened_content = widen_content(candidate.content, needed)
        if widened_content is None:
            return None
        parent = deployment.streams.get(candidate.parent_id or "")
        if parent is None:
            return None
        widened_pipeline = derive_compensation(parent.content, widened_content)

        action = WideningAction(
            stream_id=candidate.stream_id,
            widened_content=widened_content,
            widened_pipeline=widened_pipeline,
        )
        self._plan_consumers(deployment, candidate, widened_content, action, query_name)
        self._estimate_delta(deployment, candidate, parent, action)

        widened_stream = dataclasses.replace(
            candidate, content=widened_content, pipeline=widened_pipeline
        )
        return widened_stream, action

    # ------------------------------------------------------------------
    def _plan_consumers(
        self,
        deployment: Deployment,
        candidate: InstalledStream,
        widened_content: StreamProperties,
        action: WideningAction,
        query_name: str,
    ) -> None:
        # Child streams: recompute their compensation pipelines against
        # the widened content.
        for stream in deployment.streams.values():
            if stream.parent_id != candidate.stream_id:
                continue
            action.consumer_pipelines[stream.stream_id] = derive_compensation(
                widened_content, stream.content
            )
        # Direct deliveries: subscriptions whose delivered stream IS the
        # candidate get a restoring stream at their super-peer.
        for record in deployment.queries.values():
            for input_stream, stream_id in record.delivered:
                if stream_id != candidate.stream_id:
                    continue
                restore = InstalledStream(
                    stream_id=f"{candidate.stream_id}#restore:{record.name}:{query_name}",
                    content=candidate.content,
                    origin_node=candidate.target_node,
                    route=(candidate.target_node,),
                    parent_id=candidate.stream_id,
                    pipeline=derive_compensation(widened_content, candidate.content),
                    query=record.name,
                    taps_parent=False,
                )
                action.delivery_restores.append(
                    DeliveryRestore(
                        query=record.name,
                        input_stream=input_stream,
                        old_stream_id=stream_id,
                        restore=restore,
                    )
                )

    def _estimate_delta(
        self,
        deployment: Deployment,
        candidate: InstalledStream,
        parent: InstalledStream,
        action: WideningAction,
    ) -> None:
        """Delta effects: extra traffic on the widened route, pipeline
        load changes at the origin, restore pipelines at targets."""
        catalog = self.planner.catalog
        net = self.planner.net
        old_rate = estimate_stream_rate(candidate.content, catalog)
        new_rate = estimate_stream_rate(action.widened_content, catalog)
        delta_bits = new_rate.bits_per_second - old_rate.bits_per_second
        for a, b in candidate.links():
            action.effects.add_link(net.link(a, b), delta_bits)
        delta_frequency = new_rate.frequency - old_rate.frequency
        peer = net.super_peer(candidate.origin_node)
        for sender, _ in candidate.links():
            sender_peer = net.super_peer(sender)
            action.effects.add_peer(
                sender, base_load("transfer") * sender_peer.pindex * delta_frequency
            )
        # Pipeline load delta at the origin (approximate: both pipelines
        # see the parent stream's frequency at their selection stage).
        parent_rate = estimate_stream_rate(parent.content, catalog)
        def pipeline_work(pipeline):
            work = 0.0
            frequency = parent_rate.frequency
            for spec in pipeline:
                work += base_load(spec.kind) * peer.pindex * frequency
                if spec.kind == "selection" and isinstance(spec, SelectionSpec):
                    stats = catalog.for_stream(candidate.content.stream)
                    frequency = min(
                        frequency, stats.frequency * stats.selectivity(spec.graph)
                    )
            return work
        action.effects.add_peer(
            candidate.origin_node,
            pipeline_work(action.widened_pipeline) - pipeline_work(candidate.pipeline),
        )
        # Restoring pipelines at delivery targets.
        for restore in action.delivery_restores:
            target = net.super_peer(restore.restore.origin_node)
            for spec in restore.restore.pipeline:
                action.effects.add_peer(
                    restore.restore.origin_node,
                    base_load(spec.kind) * target.pindex * new_rate.frequency,
                )

    # ------------------------------------------------------------------
    def commit(self, deployment: Deployment, action: WideningAction) -> None:
        """Apply a widening action's *structural* changes.

        Effects are NOT committed here — the subscriber folds them into
        the evaluation plan's combined effects so that admission control
        and the usage ledger see widening and plan as one unit.
        """
        deployment.streams[action.stream_id] = dataclasses.replace(
            deployment.streams[action.stream_id],
            content=action.widened_content,
            pipeline=action.widened_pipeline,
        )
        for stream_id, pipeline in action.consumer_pipelines.items():
            deployment.streams[stream_id] = dataclasses.replace(
                deployment.streams[stream_id], pipeline=pipeline
            )
        for restore in action.delivery_restores:
            deployment.install_stream(restore.restore)
            record = deployment.queries[restore.query]
            delivered = tuple(
                (input_stream, restore.restore.stream_id)
                if stream_id == restore.old_stream_id and input_stream == restore.input_stream
                else (input_stream, stream_id)
                for input_stream, stream_id in record.delivered
            )
            deployment.queries[restore.query] = RegisteredQuery(
                name=record.name,
                properties=record.properties,
                analyzed=record.analyzed,
                subscriber_node=record.subscriber_node,
                delivered=delivered,
            )
