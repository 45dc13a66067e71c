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
bit-identical.  All of that is costed as a delta — the ledger walk
(:meth:`Planner.stream_effects`) over the touched streams after the
widening minus the walk before it — against the cost function ``C`` and
competes with ordinary plans inside Algorithm 1.

Widening is restricted to selection/projection streams; aggregate,
window, and UDF streams are never widened (their consumers' semantics
are tied to the exact operator conditions).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from ..costmodel import PlanEffects
from ..matching import match_stream_properties
from ..predicates import PredicateGraph
from ..properties import (
    OperatorSpec,
    ProjectionSpec,
    SelectionSpec,
    StreamProperties,
)
from .plan import Deployment, InstalledStream
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
class WideningAction:
    """Everything a committed widening changes in the deployment."""

    stream_id: str
    widened_content: StreamProperties
    #: The widened stream and its child streams as they are re-installed
    #: (the children's compensation pipelines recomputed).
    rewritten: List[InstalledStream] = field(default_factory=list)
    #: ``(query, input stream, restoring stream)`` per subscription
    #: that consumed the widened stream directly: the restoring stream
    #: re-applies the original content at the target.
    restores: List[Tuple[str, str, InstalledStream]] = field(default_factory=list)
    #: The ledger delta: the walk over the streams above after the
    #: widening minus the walk over them before it.
    effects: PlanEffects = field(default_factory=PlanEffects)

    def commit(self, deployment: Deployment) -> None:
        """Apply the action's *structural* changes.

        Effects are NOT committed here — the subscriber folds them into
        the evaluation plan's combined effects so that admission control
        and the usage ledger see widening and plan as one unit.
        """
        for stream in self.rewritten:
            deployment.replace_stream(stream)
        for query, input_stream, restore in self.restores:
            deployment.install_stream(restore)
            record = deployment.queries[query]
            deployment.replace_query(
                dataclasses.replace(
                    record,
                    delivered=tuple(
                        (name, restore.stream_id)
                        if (name, stream_id) == (input_stream, self.stream_id)
                        else (name, stream_id)
                        for name, stream_id in record.delivered
                    ),
                )
            )


class WideningPlanner:
    """Builds widening actions against a deployment."""

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
        when widening does not apply — in particular when the
        candidate's parent cannot supply the widened content.
        """
        if candidate.is_original:
            return None  # the raw stream is already maximal
        widened_content = widen_content(candidate.content, needed)
        if widened_content is None:
            return None
        parent = deployment.streams.get(candidate.parent_id or "")
        if parent is None or not match_stream_properties(
            parent.content, widened_content
        ):
            return None
        widened = dataclasses.replace(
            candidate,
            content=widened_content,
            pipeline=derive_compensation(parent.content, widened_content),
        )
        action = WideningAction(candidate.stream_id, widened_content, [widened])

        planner = self.planner
        before = PlanEffects()
        parent_rate = planner.stream_rate(parent.content)
        old_rate = planner.stream_rate(candidate.content)
        new_rate = planner.stream_rate(widened_content)
        planner.effects_of(before, candidate, old_rate, parent_rate)
        planner.effects_of(action.effects, widened, new_rate, parent_rate)
        # Child streams: recompute their compensation pipelines against
        # the widened content.
        for stream in deployment.streams.values():
            if stream.parent_id != candidate.stream_id:
                continue
            rewritten = dataclasses.replace(
                stream, pipeline=derive_compensation(widened_content, stream.content)
            )
            action.rewritten.append(rewritten)
            rate = planner.stream_rate(stream.content)
            planner.effects_of(before, stream, rate, old_rate)
            planner.effects_of(action.effects, rewritten, rate, new_rate)
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
                action.restores.append((record.name, input_stream, restore))
                planner.effects_of(action.effects, restore, old_rate, new_rate)
        action.effects.merge(before, sign=-1.0)
        return widened, action
