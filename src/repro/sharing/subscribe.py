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
   cost function ``C`` (lines 19–22), best first: the plans of matched
   streams are built after the search in ascending order of their
   :meth:`~repro.sharing.planner.Planner.cost_floor` — the cost of
   their cheaper placement variant without overload penalties, exact
   for a plan that overloads nothing — and one whose floor exceeds the
   incumbent's cost is never built (branch and bound).  Ties go to
   the stream found first — the plan is the minimum of ``(cost,
   discovery order, placement)``, which a strict-``<`` scan in
   discovery order would keep too, so decisions do not depend on the
   build order.

The queue discipline is configurable: FIFO gives the paper's
breadth-first search, LIFO the depth-first alternative the paper notes
would be equally possible (ablation bench E8).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional, Set, Tuple

from ..costmodel import DEFAULT_LATENCY_MODEL
from ..matching import MatchMemo, match_stream_properties
from ..predicates import MATCH_MODES
from ..properties import Properties, StreamProperties
from ..wxquery import AnalyzedQuery
from .index import SubscriptionProbe, is_plain
from .plan import Deployment, EvaluationPlan, InputPlan, InstalledStream, RegisteredQuery
from .planner import Planner, PlanningError, variant_count
from .widening import WideningAction, plan_widening


#: The evaluation strategies compared in Section 4.  **Data shipping**
#: transmits the whole original stream to the subscriber's super-peer
#: and evaluates the query there, once per subscription; **query
#: shipping** evaluates it at the source's super-peer and ships only the
#: result; **stream sharing** is Algorithm 1.  The first two are the
#: search's initial plan under a fixed placement, with no frontier.
STRATEGIES = ("data-shipping", "query-shipping", "stream-sharing")

#: Relative slack on :meth:`Planner.cost_floor` before it prunes: the
#: floor is a variant's penalty-free cost with its non-negative terms
#: re-associated — per charge instead of per peer, and through the
#: route profile (a rate times a sum of per-hop shares, not a sum of
#: per-hop products) — so rounding may put it a few ulps above the
#: cost it bounds (or equals, for a variant that overloads nothing);
#: this margin (far above any rounding, far below any real cost gap)
#: keeps the prune from ever skipping a winner.
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
        if match_mode not in MATCH_MODES:
            raise ValueError(f"unknown match_mode {match_mode!r}; pick one of {MATCH_MODES}")
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
        #: streams (see :mod:`repro.sharing.widening`).
        self.enable_widening = enable_widening

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

        costed, bounded = self.planner.plans_costed, self.planner.plans_bounded
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
                    priced=self.planner.plans_costed - costed,
                    bounded=self.planner.plans_bounded - bounded,
                    inputs=len(plan.inputs),
                )

        result = RegistrationResult(
            query=properties.name,
            accepted=True,
            plan=plan,
            registration_ms=DEFAULT_LATENCY_MODEL.registration_time_ms(
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
        sharing = self.strategy == "stream-sharing"
        if sharing and self.use_index:
            # Interning makes recurring contents pointer-identical, so
            # memo/index/rate-cache probes short-circuit on identity
            # instead of re-running structural equality.
            subscription_input = planner.intern_content(subscription_input)

        # Lines 4–5: the initial plan ships the original stream to the
        # subscriber's super-peer and evaluates everything there (query
        # shipping: evaluates at the source and ships the result).
        placement = "tap" if self.strategy == "query-shipping" else "target"
        (best,) = planner.plans_for_candidate(
            deployment,
            original,
            original.origin_node,
            subscription_input,
            query_name,
            subscriber_node,
            (placement,),
        )
        if not sharing:
            return best
        initial_cost = best.cost

        # Only a plain subscription can be served by widening a stream
        # (widen_content), so no other is offered any.
        widening = self.enable_widening and is_plain(subscription_input)
        probe: Optional[SubscriptionProbe] = None
        if self.use_index:
            probe = SubscriptionProbe.from_subscription(
                subscription_input,
                self.match_mode,
                self.match_memo,
                self.share_aggregates,
                widening,
            )

        # The incumbent's key: (cost, discovery order, placement index),
        # the initial plan at order -1.  Its lexicographic minimum is
        # the plan a strict-< scan in discovery order keeps, whatever
        # order the variants are built in.
        best_key = (best.cost, -1, 0)
        # Matched and widened candidates, built after the search,
        # cheapest floor first: (floor, discovery order, candidate, tap
        # node, the widening it needs).
        pending: List[Tuple[float, int, InstalledStream, str, Optional[WideningAction]]] = []
        # Widenings do not depend on the visited node: one search widens
        # each candidate once and each content once (plan_widening).
        widenings: Dict[str, Optional[Tuple[InstalledStream, WideningAction]]] = {}
        widened_contents: Dict[StreamProperties, Optional[StreamProperties]] = {}
        order = 0
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
                # only the smallest id can win the tie-break on
                # discovery order, so matching and building the
                # representative is plan-equivalent to the full scan.
                # Contents pruned on their selections would fail
                # line 14; the latency model still charges them, since
                # its count sets the modelled recovery time that gates
                # delivery under churn.  (A widening probe also lists,
                # without targets, what only widening may reuse.)
                candidates, pruned = deployment.distinct_candidates_at(node, probe)
                plan.candidate_matches += pruned
            else:
                candidates = self._scan(deployment, node, subscription_input)
            for candidate, targets in candidates:
                order += 1
                if targets is not None:
                    # (A probe built without aggregate sharing covers no
                    # aggregate signature; the scan filters here.)
                    if not self.share_aggregates and candidate.content.aggregation is not None:
                        continue
                    plan.candidate_matches += 1
                    planner.candidates_matched += 1
                    if match_stream_properties(                     # line 14
                        candidate.content,
                        subscription_input,
                        self.match_mode,
                        self.match_memo,
                    ):
                        matched_targets.update(targets)             # line 15
                        floor = planner.cost_floor(
                            candidate.content, node, subscription_input, subscriber_node
                        )
                        pending.append((floor, order, candidate, node, None))
                        if widening:  # its group's other members need none
                            widened_contents[candidate.content] = None
                        continue
                if widening:
                    if candidate.stream_id not in widenings:
                        widenings[candidate.stream_id] = plan_widening(
                            planner, deployment, candidate, subscription_input,
                            query_name, self.match_memo, widened_contents,
                        )
                    widened = widenings[candidate.stream_id]
                    if widened is not None:
                        # The widening's delta adds to the widened floor.
                        stream, action = widened
                        floor = action.floor + planner.cost_floor(
                            stream.content, node, subscription_input, subscriber_node
                        )
                        pending.append((floor, order, stream, node, action))

            for target in sorted(matched_targets):                  # lines 16–18
                if target not in marked and target not in queue:
                    queue.append(target)

        # Lines 19–22, best-first: a variant costs at least its
        # candidate's floor (up to the margin), so a candidate whose
        # floor exceeds the incumbent's cost — or equals it, found after
        # the incumbent — cannot win and is never built.
        pending.sort()
        for floor, order, candidate, node, action in pending:
            if (floor * (1.0 - FLOOR_MARGIN), order) > best_key[:2]:
                planner.plans_bounded += variant_count(node, subscriber_node)
                continue
            variants = planner.plans_for_candidate(                 # line 19
                deployment, candidate, node, subscription_input, query_name,
                subscriber_node, widening=action,
            )
            for placement, variant in enumerate(variants):
                key = (variant.cost, order, placement)
                if key < best_key:
                    best, best_key = variant, key
        best.initial_cost = initial_cost
        return best

    @staticmethod
    def _scan(
        deployment: Deployment, node: str, subscription_input: StreamProperties
    ) -> List[Tuple[InstalledStream, Tuple[str, ...]]]:
        """Line 9 as written, the brute-force reference: every installed
        stream whose route passes ``node`` and whose content derives
        from the subscription's original input stream, with its
        delivery target.  It reads the routes, not the availability
        index the indexed source (``Deployment.distinct_candidates_at``)
        is checked against.

        Sorted by stream id so equal-cost plans tie-break identically
        from both candidate sources — ties go to the candidate found
        first.
        """
        source = subscription_input.stream
        available = [
            stream
            for stream in deployment.streams.values()
            if node in stream.route and stream.content.stream == source
        ]
        available.sort(key=lambda stream: stream.stream_id)
        return [(stream, (stream.target_node,)) for stream in available]
