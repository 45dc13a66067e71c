"""Plan generation: compensation pipelines, effect estimation, costing.

``generatePlan`` in Algorithm 1 turns "reuse stream *p* at node *v* for
the query registered at *v_q*" into a concrete evaluation plan.  This
module implements it in parts:

* :func:`derive_compensation` — the operator specs that transform the
  reused stream's content into the subscription's required content;
* :meth:`Planner.plans_for_candidate` — every placement variant of a
  reuse, built and costed: the streams it installs, what they commit,
  and ``C(P)``.  The compensation can run at the tap node (in-network
  processing — the paper's stream-sharing placement, cf. Query 1
  computed at SP4) or at the subscriber's super-peer (the shape of
  Algorithm 1's *initial* plan, which ships the stream first).  Both
  variants are built and the cost function chooses — a documented,
  cost-neutral generalization;
* :meth:`Planner.stream_effects` — what one stream commits (traffic
  per link, operator load per peer, from the cost model's
  ``size(p)``/``freq(p)`` estimates): the one walk that prices a
  variant, commits a stream and releases it again;
* :meth:`Planner.cost_floor` — what the cheaper placement variant of
  a candidate costs without overload penalties, read from the route's
  profile in one lookup: a lower bound under any usage, and the exact
  cost of a variant that overloads nothing.  The search builds
  candidates cheapest floor first and skips those that cannot beat its
  incumbent, so on an unloaded network it builds little beyond the
  winner.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Iterator, List, Optional, Tuple

from ..costmodel import (
    RATE_RULES,
    CostModel,
    PlanEffects,
    StatisticsCatalog,
    StreamRate,
    base_load,
    estimate_stream_rate,
)
from ..network.routing import RouteCache
from ..network.topology import Network
from ..obs.recorder import NULL_RECORDER
from ..properties import (
    OperatorSpec,
    ProjectionSpec,
    ReAggregationSpec,
    StreamProperties,
    WindowContentsSpec,
)
from .plan import Deployment, InputPlan, InstalledStream

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .widening import WideningAction


class PlanningError(Exception):
    """Raised when no valid plan can be constructed."""


def derive_compensation(
    reused: StreamProperties, subscription: StreamProperties
) -> Tuple[OperatorSpec, ...]:
    """Operators that turn ``reused`` content into ``subscription`` content.

    Assumes the two already matched via Algorithm 2 (the reused stream
    is a superset of what the subscription needs).  Returns an empty
    tuple for exact reuse.
    """
    reused_agg = reused.aggregation
    sub_agg = subscription.aggregation

    if reused_agg is not None:
        if sub_agg is None:
            raise PlanningError(
                "an aggregate stream cannot serve an item-level subscription"
            )
        if reused_agg == sub_agg:
            return ()
        return (ReAggregationSpec(reused_agg, sub_agg),)

    ops: List[OperatorSpec] = []
    sub_selection = subscription.selection
    if sub_selection is not None and sub_selection != reused.selection:
        ops.append(sub_selection)

    if sub_agg is not None:
        ops.append(sub_agg)
        return tuple(ops)

    sub_projection = subscription.projection
    reused_projection = reused.projection
    if sub_projection is not None and (
        reused_projection is None
        or reused_projection.output_elements != sub_projection.output_elements
    ):
        ops.append(
            ProjectionSpec(
                output_elements=sub_projection.output_elements,
                referenced_elements=sub_projection.referenced_elements,
            )
        )

    sub_window = subscription.operator_of_kind("window")
    reused_window = reused.operator_of_kind("window")
    if isinstance(sub_window, WindowContentsSpec) and reused_window is None:
        ops.append(sub_window)
    return tuple(ops)


def _fresh_id(deployment: Deployment, base: str) -> str:
    """``base``, or the first ``base~N`` no installed stream carries.

    A stream outlives the query it was created for while another query
    still shares it, and that query's name may be registered again.
    """
    stream_id, attempt = base, 1
    while stream_id in deployment.streams:
        attempt += 1
        stream_id = f"{base}~{attempt}"
    return stream_id


def _with_widening(effects: PlanEffects, widening: Optional["WideningAction"]) -> PlanEffects:
    """``effects`` plus the ledger delta of ``widening``, if any."""
    if widening is None:
        return effects
    combined = PlanEffects()
    combined.merge(effects)
    combined.merge(widening.effects)
    return combined


def variant_count(tap_node: str, subscriber_node: str) -> int:
    """How many placement variants :meth:`Planner.plans_for_candidate`
    builds for a candidate tapped at ``tap_node``: one when the tap is
    the subscriber's node (the two placements coincide), two
    otherwise."""
    return 1 if tap_node == subscriber_node else 2


class Planner:
    """Builds and costs candidate plans against a deployment state."""

    def __init__(
        self,
        net: Network,
        catalog: StatisticsCatalog,
        cost_model: CostModel,
        recorder: Optional[object] = None,
    ) -> None:
        self.net = net
        self.catalog = catalog
        self.cost_model = cost_model
        #: Observability sink (no-op unless the owning system traces).
        self.recorder = recorder if recorder is not None else NULL_RECORDER
        # Always-on plain-int cache telemetry (cheap enough to keep
        # unconditional; surfaced via StreamGlobe.cache_stats()).
        self.rate_cache_hits = 0
        self.rate_cache_misses = 0
        #: Placement variants built and costed (:meth:`plans_for_candidate`).
        self.plans_costed = 0
        #: Algorithm 2 runs: candidates the search handed to
        #: ``match_stream_properties``.
        self.candidates_matched = 0
        #: Variants the search skipped because their candidate's
        #: :meth:`cost_floor` could not beat the incumbent plan.
        self.plans_bounded = 0
        #: Shortest-path memo; invalidated by the topology's churn
        #: version counter, so repairs re-route automatically.
        self.routes = RouteCache(net)
        # size(p)/freq(p) memo: a stream's rate depends only on its
        # immutable content and the catalog entry of its original
        # stream, which is registered once and never mutated.
        self._rate_cache: Dict[StreamProperties, StreamRate] = {}
        # Compensation load per (reused content, subscription), beside
        # the rates it is walked from (see :meth:`stage_load`).
        self._stage_loads: Dict[Tuple[StreamProperties, StreamProperties], float] = {}
        self.stage_load_hits = 0
        self.stage_load_misses = 0
        # Content intern table: equal contents recur constantly in
        # template-style workloads, and every dict probe on a *distinct*
        # equal object pays a full structural __eq__.  Interning makes
        # recurring contents pointer-identical so those probes hit the
        # dict's identity fast-path.
        self._contents: Dict[StreamProperties, StreamProperties] = {}

    def intern_content(self, content: StreamProperties) -> StreamProperties:
        """Canonical instance for ``content`` (equality-preserving)."""
        return self._contents.setdefault(content, content)

    @property
    def interned_contents(self) -> int:
        """Entries of the content intern table."""
        return len(self._contents)

    def stream_rate(self, content: StreamProperties) -> StreamRate:
        """Memoized :func:`~repro.costmodel.estimate_stream_rate`."""
        rate = self._rate_cache.get(content)
        if rate is None:
            self.rate_cache_misses += 1
            rate = estimate_stream_rate(content, self.catalog)
            self._rate_cache[content] = rate
        else:
            self.rate_cache_hits += 1
        return rate

    @property
    def stage_loads(self) -> int:
        """Entries of the :meth:`stage_load` memo."""
        return len(self._stage_loads)

    def stage_load(self, content: StreamProperties, subscription: StreamProperties) -> float:
        """``L``: the compensation stages that turn ``content`` into
        ``subscription`` (:func:`derive_compensation`), each ``bload`` ×
        its input frequency — what :meth:`stream_effects` charges for
        them at a peer of performance index 1.  Memoized per pair: like
        the rates it reads, it depends on the contents and the catalog
        only."""
        key = (content, subscription)
        load = self._stage_loads.get(key)
        if load is None:
            self.stage_load_misses += 1
            load = 0.0
            pipeline = derive_compensation(content, subscription)
            frequency = self.stream_rate(content).frequency
            for kind, udf_name, frequency in self._stages(pipeline, frequency, content.stream):
                load += base_load(kind, udf_name) * frequency
            self._stage_loads[key] = load
        else:
            self.stage_load_hits += 1
        return load

    def _stages(
        self, pipeline: Tuple[OperatorSpec, ...], frequency: float, stream: str
    ) -> Iterator[Tuple[str, Optional[str], float]]:
        """Each stage of ``pipeline`` as ``(kind, udf name, input
        frequency)``: the first runs at ``frequency``, every later one
        at the frequency its predecessor's
        :data:`~repro.costmodel.RATE_RULES` rule yields (the last
        stage's output is never computed)."""
        for index, spec in enumerate(pipeline):
            if index:
                before = pipeline[index - 1]
                stats = self.catalog.for_stream(stream)
                frequency = RATE_RULES[before.kind].frequency(before, frequency, stats)
            udf_name = getattr(spec, "name", None) if spec.kind == "udf" else None
            yield spec.kind, udf_name, frequency

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def plans_for_candidate(
        self,
        deployment: Deployment,
        candidate: InstalledStream,
        tap_node: str,
        subscription: StreamProperties,
        query_name: str,
        subscriber_node: str,
        placements: Tuple[str, ...] = ("tap", "target"),
        widening: Optional["WideningAction"] = None,
    ) -> List[InputPlan]:
        """Every placement variant of reusing ``candidate`` at
        ``tap_node``, built: the streams it installs, their
        :meth:`stream_effects` plus the subscriber's post-processing,
        and its cost ``C(P)`` — the ledger delta of ``widening`` (the
        action that makes ``candidate`` reusable) included."""
        pipeline = derive_compensation(candidate.content, subscription)
        reused_rate = self.stream_rate(candidate.content)
        delivered_rate = self.stream_rate(subscription)
        plans: List[InputPlan] = []
        for placement in placements:
            node = tap_node if placement == "tap" else subscriber_node
            if any(plan.placement_node == node for plan in plans):
                continue  # tap == target: the variants coincide
            effects = PlanEffects()
            relay: Optional[InstalledStream] = None
            delivered_parent = candidate.stream_id
            if node != tap_node:
                relay = InstalledStream(
                    stream_id=_fresh_id(
                        deployment, f"{query_name}:{subscription.stream}:relay"
                    ),
                    content=candidate.content,
                    origin_node=tap_node,
                    route=self.routes.path(tap_node, node),
                    parent_id=candidate.stream_id,
                    pipeline=(),
                    query=query_name,
                )
                delivered_parent = relay.stream_id
                self.stream_effects(effects, relay, reused_rate, reused_rate)
            delivered = InstalledStream(
                stream_id=_fresh_id(deployment, f"{query_name}:{subscription.stream}"),
                content=subscription,
                origin_node=node,
                route=self.routes.path(node, subscriber_node),
                parent_id=delivered_parent,
                pipeline=pipeline,
                query=query_name,
                taps_parent=relay is None,
            )
            self.stream_effects(effects, delivered, delivered_rate, reused_rate)
            self.charge(effects, subscriber_node, "restructure", delivered_rate.frequency)
            combined = _with_widening(effects, widening)
            cost = self.cost_model.plan_cost(combined, deployment.usage)
            self.plans_costed += 1
            plans.append(
                InputPlan(
                    input_stream=subscription.stream,
                    reused_id=candidate.stream_id,
                    tap_node=tap_node,
                    placement_node=node,
                    relay=relay,
                    delivered=delivered,
                    effects=effects,
                    cost=cost,
                    widening=widening,
                    overload_penalty=cost - self.cost_model.utilisation_cost(combined),
                )
            )
        return plans

    def cost_floor(
        self,
        content: StreamProperties,
        tap_node: str,
        subscription: StreamProperties,
        subscriber_node: str,
    ) -> float:
        """The usage-free, penalty-free cost of the cheaper placement
        variant of reusing a stream of ``content`` at ``tap_node``.

        Both variants duplicate the reused stream at the tap, send
        something along ``path(tap, subscriber)`` and restructure at the
        subscriber.  Compensation at the tap sends the delivered stream
        (its bits and frequency) and runs the stages' load ``L``
        (:meth:`stage_load`) at the tap; compensation at the subscriber
        relays the reused stream and runs ``L`` there.  Each variant's
        γ-weighted utilisation sum is read from the route's
        :class:`~repro.network.routing.RouteProfile` (one lookup, not a
        walk over the hops).  The overload penalties of
        :meth:`CostModel.plan_cost` are never negative, so no variant
        costs less under any usage (up to float rounding), and one that
        overloads nothing costs exactly its floor.
        """
        reused = self.stream_rate(content)
        delivered = self.stream_rate(subscription)
        stages = self.stage_load(content, subscription)
        profile = self.routes.profile(tap_node, subscriber_node)
        tap_share, subscriber_share = profile.source_share, profile.target_share
        shared = (
            base_load("duplicate") * reused.frequency * tap_share
            + base_load("restructure") * delivered.frequency * subscriber_share
        )
        transfer = base_load("transfer") * profile.sender_share
        gamma = self.cost_model.gamma
        at_tap = gamma * delivered.bits_per_second * profile.inverse_bandwidth + (
            1.0 - gamma
        ) * (shared + stages * tap_share + transfer * delivered.frequency)
        at_subscriber = gamma * reused.bits_per_second * profile.inverse_bandwidth + (
            1.0 - gamma
        ) * (shared + stages * subscriber_share + transfer * reused.frequency)
        return min(at_tap, at_subscriber)

    # ------------------------------------------------------------------
    # The ledger walk
    # ------------------------------------------------------------------
    def stream_effects(
        self,
        effects: PlanEffects,
        stream: InstalledStream,
        rate: StreamRate,
        parent_rate: Optional[StreamRate],
    ) -> None:
        """Add what ``stream`` commits to ``effects`` — the one walk
        behind every ledger entry and every price (invariant: ``usage``
        equals this walk summed over the installed streams plus one
        ``restructure`` :meth:`charge` per delivered input).

        Tap duplication at the origin (when the stream ``taps_parent``),
        then its ``pipeline`` stages there — each charged at the
        frequency its predecessor's :data:`~repro.costmodel.RATE_RULES`
        rule yields (the last stage's output is never computed:
        ``rate`` prices the route) — then traffic and transfer work
        along its route.  ``rate`` is the stream's own
        :meth:`stream_rate`, ``parent_rate`` that of the stream it
        derives from (``None``: nothing runs at the origin).
        """
        origin = stream.origin_node
        if parent_rate is not None:
            frequency = parent_rate.frequency
            if stream.taps_parent:
                self.charge(effects, origin, "duplicate", frequency)
            if stream.pipeline:  # a relay or an exact reuse runs no stage
                for kind, udf_name, frequency in self._stages(
                    stream.pipeline, frequency, stream.content.stream
                ):
                    self.charge(effects, origin, kind, frequency, udf_name)
        # Route traffic and transfer work: :meth:`PlanEffects.add_link`
        # and :meth:`charge` unrolled over the hops.
        route = stream.route
        bits = rate.bits_per_second
        link = self.net.link
        link_bits = effects.link_bits
        for a, b in zip(route, route[1:]):
            key = link(a, b, include_removed=True)
            link_bits[key] = link_bits.get(key, 0.0) + bits
        frequency = rate.frequency
        transfer = base_load("transfer")
        super_peer = self.net.super_peer
        peer_work = effects.peer_work
        for sender in route[:-1]:
            work = transfer * super_peer(sender, include_removed=True).pindex * frequency
            peer_work[sender] = peer_work.get(sender, 0.0) + work

    def installed_effects(
        self, effects: PlanEffects, deployment: Deployment, stream: InstalledStream
    ) -> None:
        """:meth:`stream_effects` of a stream installed in ``deployment``."""
        rate = self.stream_rate(stream.content)
        parent = deployment.streams.get(stream.parent_id or "")
        parent_rate = None if parent is None else self.stream_rate(parent.content)
        self.stream_effects(effects, stream, rate, parent_rate)

    def charge(
        self,
        effects: PlanEffects,
        node: str,
        kind: str,
        frequency: float,
        udf_name: Optional[str] = None,
    ) -> None:
        """Add one operator's load at ``node`` — ``bload`` × the peer's
        performance index × the input frequency.  Peers (like the
        walk's links) resolve through the topology's removed-entity
        stash: a commitment estimated before a fault is released after
        it."""
        peer = self.net.super_peer(node, include_removed=True)
        effects.add_peer(node, base_load(kind, udf_name) * peer.pindex * frequency)
