"""``Subscribe`` — Algorithm 1: breadth-first search for shareable
streams and cost-based plan selection.

For each input stream of a newly registered subscription the algorithm

1. starts from the plan that routes the *original* input stream to the
   subscriber and evaluates everything there (lines 4–5);
2. breadth-first searches the network from the original stream's node,
   following only matched streams' delivery targets (lines 7–25) — a
   non-matching property adds no nodes, so the search visits only the
   relevant part of the network;
3. matches every variant stream available at each visited node against
   the subscription (Algorithm 2) and keeps the cheapest plan under the
   cost function ``C`` (lines 19–22) — a matched stream whose
   :meth:`~repro.sharing.planner.Planner.cost_floor` already reaches the
   incumbent's cost is never priced (branch and bound; decisions
   equal), and of the variants priced only the winner is built.

The queue discipline is configurable: FIFO gives the paper's
breadth-first search, LIFO the depth-first alternative the paper notes
would be equally possible (ablation bench E8).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, List, Optional, Set, Tuple

from ..matching import MatchMemo, match_stream_properties
from ..properties import Properties, StreamProperties
from ..wxquery import AnalyzedQuery
from .index import SubscriptionProbe
from .plan import Deployment, EvaluationPlan, InputPlan, InstalledStream, RegisteredQuery
from .planner import Planner, PlanningError, PricedVariant
from .widening import WideningPlanner


#: The evaluation strategies compared in Section 4.  **Data shipping**
#: transmits the whole original stream to the subscriber's super-peer
#: and evaluates the query there, once per subscription; **query
#: shipping** evaluates it at the source's super-peer and ships only the
#: result; **stream sharing** is Algorithm 1.  The first two are the
#: search's initial plan under a fixed placement, with no frontier.
STRATEGIES = ("data-shipping", "query-shipping", "stream-sharing")

#: Relative slack on :meth:`Planner.cost_floor` before it prunes: the
#: floor and a variant's cost sum the same terms in different orders,
#: so rounding may put the floor a few ulps above the cost it bounds;
#: this margin (far above any rounding, far below any real cost gap)
#: keeps the prune from ever skipping a strict winner.
FLOOR_MARGIN = 1e-9


@dataclass
class RegistrationResult:
    """Outcome of registering one subscription."""

    query: str
    accepted: bool
    plan: Optional[EvaluationPlan]
    registration_ms: float
    rejection_reason: Optional[str] = None


class Subscriber:
    """Runs Algorithm 1 against a deployment and commits the result."""

    def __init__(
        self,
        planner: Planner,
        strategy: str,
        match_mode: str = "edgewise",
        search_order: str = "bfs",
        admission_control: bool = False,
        share_aggregates: bool = True,
        enable_widening: bool = False,
        use_index: bool = True,
    ) -> None:
        if strategy not in STRATEGIES:
            raise ValueError(f"unknown strategy {strategy!r}; pick one of {STRATEGIES}")
        if search_order not in ("bfs", "dfs"):
            raise ValueError("search_order must be 'bfs' or 'dfs'")
        self.planner = planner
        self.strategy = strategy
        self.match_mode = match_mode
        self.search_order = search_order
        self.admission_control = admission_control
        #: Ablation switch (bench E8): with ``False``, existing aggregate
        #: result streams are never considered for reuse.
        self.share_aggregates = share_aggregates
        #: Control-plane scale-up: consult the deployment's
        #: StreamAvailabilityIndex instead of scanning every stream at a
        #: node, and memoize matching verdicts.  Plan-equivalent to the
        #: brute-force scan (the index only prunes guaranteed
        #: non-matches); ``False`` keeps the paper-faithful linear scan,
        #: the reference the index is tested against.
        self.use_index = use_index
        self.match_memo = MatchMemo() if use_index else None
        #: The Section 6 enhancement: consider widening almost-matching
        #: streams (see :mod:`repro.sharing.widening`).  It needs the
        #: near-miss candidates the index would prune, so it forces the
        #: scan.
        self.widening = WideningPlanner(planner) if enable_widening else None

    # ------------------------------------------------------------------
    def subscribe(
        self,
        deployment: Deployment,
        properties: Properties,
        analyzed: AnalyzedQuery,
        subscriber_node: str,
    ) -> RegistrationResult:
        """Register a subscription; returns the outcome (never raises
        for capacity rejections — those are reported in the result)."""
        plan = EvaluationPlan(query=properties.name)
        recorder = self.planner.recorder

        with recorder.span("search", query=properties.name) as span:
            for subscription_input in properties.input_streams():  # line 2
                best = self._search_input(
                    deployment,
                    subscription_input,
                    properties.name,
                    subscriber_node,
                    plan,
                )
                plan.inputs.append(best)                            # line 27
            if recorder.enabled:
                span.set(
                    visited_nodes=plan.visited_nodes,
                    candidate_matches=plan.candidate_matches,
                    inputs=len(plan.inputs),
                )

        result = RegistrationResult(
            query=properties.name,
            accepted=True,
            plan=plan,
            registration_ms=self.planner.latency_model.registration_time_ms(
                visited_nodes=plan.visited_nodes,
                candidate_matches=plan.candidate_matches,
                installed_operators=plan.installed_operator_count(),
                route_hops=plan.route_hop_count(),
            ),
        )
        effects = plan.combined_effects()
        if self.admission_control and self.planner.cost_model.overloads(
            effects, deployment.usage
        ):
            result.accepted = False
            result.rejection_reason = "no evaluation plan without overload"
            return result

        with recorder.span("commit", query=properties.name):
            delivered = []
            for input_plan in plan.inputs:
                if input_plan.widening is not None:
                    input_plan.widening.commit(deployment)
                for stream in input_plan.new_streams():
                    deployment.install_stream(stream)
                delivered.append(
                    (input_plan.input_stream, input_plan.delivered.stream_id)
                )
            deployment.commit_effects(effects)
            deployment.register_query(
                RegisteredQuery(
                    name=properties.name,
                    properties=properties,
                    analyzed=analyzed,
                    subscriber_node=subscriber_node,
                    delivered=tuple(delivered),
                )
            )
        return result

    # ------------------------------------------------------------------
    # Algorithm 1 core
    # ------------------------------------------------------------------
    def _search_input(
        self,
        deployment: Deployment,
        subscription_input: StreamProperties,
        query_name: str,
        subscriber_node: str,
        plan: EvaluationPlan,
    ) -> InputPlan:
        try:
            original = deployment.find_original(subscription_input.stream)
        except KeyError as exc:
            raise PlanningError(str(exc)) from None
        planner = self.planner

        # Lines 4–5: the initial plan ships the original stream to the
        # subscriber's super-peer and evaluates everything there (query
        # shipping: evaluates at the source and ships the result).
        placement = "tap" if self.strategy == "query-shipping" else "target"
        (best,) = planner.price_variants(
            deployment,
            original,
            original.origin_node,
            subscription_input,
            subscriber_node,
            (placement,),
        )
        if self.strategy != "stream-sharing":
            return planner.build_plan(
                deployment, best, subscription_input, query_name, subscriber_node
            )
        initial_cost = best.cost

        # Widening needs the almost-matching candidates the signature
        # index prunes, so it falls back to the full per-node scan.
        probe: Optional[SubscriptionProbe] = None
        if self.use_index and self.widening is None:
            # Interning makes recurring contents pointer-identical, so
            # memo/index/rate-cache probes short-circuit on identity
            # instead of re-running structural equality.
            subscription_input = planner.intern_content(subscription_input)
            probe = SubscriptionProbe.from_subscription(
                subscription_input,
                self.match_mode,
                self.match_memo,
                self.share_aggregates,
            )

        marked: Set[str] = set()
        queue: Deque[str] = deque([original.origin_node])           # line 6

        while queue:                                                # line 7
            node = queue.popleft() if self.search_order == "bfs" else queue.pop()
            if node in marked:
                continue
            marked.add(node)                                        # line 8
            plan.visited_nodes += 1
            # Delivery targets of matched streams (line 15); enqueued
            # after the candidate loop in sorted order so both candidate
            # sources expand the frontier identically.
            matched_targets: Set[str] = set()

            if probe is not None:
                # One representative per distinct content: same-content
                # streams tapped at the same node plan identically, and
                # only the smallest id can win the strict-< tie-break,
                # so matching and pricing the representative is
                # plan-equivalent to the full scan.  Contents pruned on
                # their selections would fail line 14; the latency model
                # still charges them, since its count sets the modelled
                # recovery time that gates delivery under churn.
                candidates, pruned = deployment.distinct_candidates_at(node, probe)
                plan.candidate_matches += pruned
            else:
                candidates = self._scan(deployment, node, subscription_input)
            for candidate, targets in candidates:
                # (A probe built without aggregate sharing covers no
                # aggregate signature; the scan filters here.)
                if not self.share_aggregates and candidate.content.aggregation is not None:
                    continue
                plan.candidate_matches += 1
                planner.candidates_matched += 1
                if match_stream_properties(                         # line 14
                    candidate.content,
                    subscription_input,
                    self.match_mode,
                    self.match_memo,
                ):
                    matched_targets.update(targets)                 # line 15
                    floor = planner.cost_floor(
                        candidate.content, node, subscription_input, subscriber_node
                    )
                    if floor * (1.0 - FLOOR_MARGIN) >= best.cost:
                        # No variant can beat ``best`` under strict <:
                        # skip pricing them.
                        planner.plans_bounded += 1 if node == subscriber_node else 2
                        continue
                    variants = planner.price_variants(              # line 19
                        deployment, candidate, node, subscription_input, subscriber_node
                    )
                elif self.widening is not None:
                    variants = self._widened(
                        deployment,
                        candidate,
                        subscription_input,
                        query_name,
                        subscriber_node,
                        node,
                    )
                else:
                    continue
                for variant in variants:
                    if variant.cost < best.cost:                    # lines 20–22
                        best = variant

            for target in sorted(matched_targets):                  # lines 16–18
                if target not in marked and target not in queue:
                    queue.append(target)
        chosen = planner.build_plan(
            deployment, best, subscription_input, query_name, subscriber_node
        )
        chosen.initial_cost = initial_cost
        return chosen

    def _widened(
        self,
        deployment: Deployment,
        candidate: InstalledStream,
        subscription_input: StreamProperties,
        query_name: str,
        subscriber_node: str,
        node: str,
    ) -> List[PricedVariant]:
        """The variants that reuse a non-matching ``candidate`` after
        widening it, priced with the widening's ledger delta."""
        widened = self.widening.plan_widening(
            deployment, candidate, subscription_input, query_name
        )
        if widened is None:
            return []
        widened_stream, action = widened
        return self.planner.price_variants(
            deployment,
            widened_stream,
            node,
            subscription_input,
            subscriber_node,
            widening=action,
        )

    @staticmethod
    def _scan(
        deployment: Deployment, node: str, subscription_input: StreamProperties
    ) -> List[Tuple[InstalledStream, Tuple[str, ...]]]:
        """Line 9, the brute-force reference: every stream available at
        ``node`` derived from the same original input stream, with its
        delivery target (the indexed source is
        ``Deployment.distinct_candidates_at``).

        Sorted by stream id so equal-cost plans tie-break identically
        from both candidate sources — the ``best`` updates use strict
        ``<``, so the first-iterated candidate wins.
        """
        return [
            (stream, (stream.target_node,))
            for stream in sorted(
                deployment.streams_at(node), key=lambda stream: stream.stream_id
            )
            if stream.content.stream == subscription_input.stream
        ]
