"""Plan generation: compensation pipelines, effect estimation, costing.

``generatePlan`` in Algorithm 1 turns "reuse stream *p* at node *v* for
the query registered at *v_q*" into a concrete evaluation plan.  This
module implements it in parts:

* :func:`derive_compensation` — the operator specs that transform the
  reused stream's content into the subscription's required content;
* :meth:`Planner.price_variants` — what each placement variant would
  commit and cost, without building it.  The compensation can run at
  the tap node (in-network processing — the paper's stream-sharing
  placement, cf. Query 1 computed at SP4) or at the subscriber's
  super-peer (the shape of Algorithm 1's *initial* plan, which ships
  the stream first).  Both variants are priced and the cost function
  chooses — a documented, cost-neutral generalization;
* :meth:`Planner.build_plan` — the streams of the variant that won,
  materialised once per input (:meth:`Planner.plans_for_candidate`
  builds every variant of a candidate);
* :meth:`Planner.stream_effects` — what one stream commits (traffic
  per link, operator load per peer, from the cost model's
  ``size(p)``/``freq(p)`` estimates), walked from the stream's facts:
  the one walk that prices a variant, commits a stream and releases
  it again;
* :meth:`Planner.cost_floor` — a lower bound on what every placement
  variant of a candidate costs, so the search skips a candidate that
  cannot beat its incumbent without pricing it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, NamedTuple, Optional, Tuple

from ..costmodel import (
    CostModel,
    LatencyModel,
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
    AggregationSpec,
    OperatorSpec,
    ProjectionSpec,
    ReAggregationSpec,
    SelectionSpec,
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


class PricedVariant(NamedTuple):
    """One placement variant of reusing ``candidate`` at ``tap_node``,
    priced but not built: the search's incumbent, materialised by
    :meth:`Planner.build_plan` only if it wins.

    ``effects`` are the variant's own commitments; ``cost`` also
    covers the ``widening`` it needs, when there is one.
    """

    cost: float
    effects: PlanEffects
    candidate: InstalledStream
    tap_node: str
    placement_node: str
    pipeline: Tuple[OperatorSpec, ...]
    widening: Optional["WideningAction"] = None


class Planner:
    """Prices, builds and costs candidate plans against a deployment
    state."""

    def __init__(
        self,
        net: Network,
        catalog: StatisticsCatalog,
        cost_model: CostModel,
        latency_model: Optional[LatencyModel] = None,
        recorder: Optional[object] = None,
    ) -> None:
        self.net = net
        self.catalog = catalog
        self.cost_model = cost_model
        self.latency_model = latency_model or LatencyModel()
        #: Observability sink (no-op unless the owning system traces).
        self.recorder = recorder if recorder is not None else NULL_RECORDER
        # Always-on plain-int cache telemetry (cheap enough to keep
        # unconditional; surfaced via StreamGlobe.cache_stats()).
        self.rate_cache_hits = 0
        self.rate_cache_misses = 0
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

    # ------------------------------------------------------------------
    # Pricing and construction
    # ------------------------------------------------------------------
    def price_variants(
        self,
        deployment: Deployment,
        candidate: InstalledStream,
        tap_node: str,
        subscription: StreamProperties,
        subscriber_node: str,
        placements: Tuple[str, ...] = ("tap", "target"),
        widening: Optional["WideningAction"] = None,
    ) -> List[PricedVariant]:
        """Every placement variant of reusing ``candidate`` at
        ``tap_node``, priced: what it commits — the walk over the
        streams :meth:`build_plan` would install, plus the subscriber's
        post-processing — and its :meth:`variant_cost`.  ``widening``:
        the action that makes ``candidate`` reusable."""
        pipeline = derive_compensation(candidate.content, subscription)
        reused_rate = self.stream_rate(candidate.content)
        delivered_rate = self.stream_rate(subscription)
        variants: List[PricedVariant] = []
        for placement in placements:
            node = tap_node if placement == "tap" else subscriber_node
            if any(variant.placement_node == node for variant in variants):
                continue  # tap == target: the variants coincide
            effects = PlanEffects()
            relayed = node != tap_node
            if relayed:
                self.stream_effects(
                    effects,
                    tap_node,
                    self.routes.path(tap_node, node),
                    (),
                    True,
                    candidate.content,
                    reused_rate,
                    reused_rate,
                )
            self.stream_effects(
                effects,
                node,
                self.routes.path(node, subscriber_node),
                pipeline,
                not relayed,
                subscription,
                delivered_rate,
                reused_rate,
            )
            self.charge(effects, subscriber_node, "restructure", delivered_rate.frequency)
            cost = self.variant_cost(deployment, effects, widening)
            self.plans_costed += 1
            variants.append(
                PricedVariant(cost, effects, candidate, tap_node, node, pipeline, widening)
            )
        return variants

    def variant_cost(
        self,
        deployment: Deployment,
        effects: PlanEffects,
        widening: Optional["WideningAction"],
    ) -> float:
        """``C(P)`` of a variant's ``effects`` plus the ledger delta of
        the ``widening`` it needs, if any."""
        if widening is not None:
            combined = PlanEffects()
            combined.merge(effects)
            combined.merge(widening.effects)
            effects = combined
        return self.cost_model.plan_cost(effects, deployment.usage)

    def build_plan(
        self,
        deployment: Deployment,
        variant: PricedVariant,
        subscription: StreamProperties,
        query_name: str,
        subscriber_node: str,
    ) -> InputPlan:
        """Materialise a priced variant: the streams it installs, and
        the effects and cost walked from them — what releasing them
        walks again (uncounted: the variant was priced already)."""
        candidate = variant.candidate
        tap_node, placement_node = variant.tap_node, variant.placement_node
        effects = PlanEffects()
        reused_rate = self.stream_rate(candidate.content)
        delivered_rate = self.stream_rate(subscription)
        relay: Optional[InstalledStream] = None
        delivered_parent = candidate.stream_id
        if placement_node != tap_node:
            relay = InstalledStream(
                stream_id=_fresh_id(
                    deployment, f"{query_name}:{subscription.stream}:relay"
                ),
                content=candidate.content,
                origin_node=tap_node,
                route=self.routes.path(tap_node, placement_node),
                parent_id=candidate.stream_id,
                pipeline=(),
                query=query_name,
            )
            delivered_parent = relay.stream_id
            self.effects_of(effects, relay, reused_rate, reused_rate)
        delivered = InstalledStream(
            stream_id=_fresh_id(deployment, f"{query_name}:{subscription.stream}"),
            content=subscription,
            origin_node=placement_node,
            route=self.routes.path(placement_node, subscriber_node),
            parent_id=delivered_parent,
            pipeline=variant.pipeline,
            query=query_name,
            taps_parent=relay is None,
        )
        self.effects_of(effects, delivered, delivered_rate, reused_rate)
        self.charge(effects, subscriber_node, "restructure", delivered_rate.frequency)
        return InputPlan(
            input_stream=subscription.stream,
            reused_id=candidate.stream_id,
            tap_node=tap_node,
            placement_node=placement_node,
            relay=relay,
            delivered=delivered,
            effects=effects,
            cost=self.variant_cost(deployment, effects, variant.widening),
            widening=variant.widening,
        )

    def plans_for_candidate(
        self,
        deployment: Deployment,
        candidate: InstalledStream,
        tap_node: str,
        subscription: StreamProperties,
        query_name: str,
        subscriber_node: str,
        placements: Tuple[str, ...] = ("tap", "target"),
    ) -> List[InputPlan]:
        """All placement variants of reusing ``candidate`` at
        ``tap_node``, priced and built."""
        return [
            self.build_plan(deployment, variant, subscription, query_name, subscriber_node)
            for variant in self.price_variants(
                deployment, candidate, tap_node, subscription, subscriber_node, placements
            )
        ]

    def cost_floor(
        self,
        content: StreamProperties,
        tap_node: str,
        subscription: StreamProperties,
        subscriber_node: str,
    ) -> float:
        """A lower bound on the cost of every placement variant of
        reusing a stream of ``content`` at ``tap_node``.

        Both variants duplicate the reused stream at the tap, ship
        something over ``path(tap, subscriber)`` — the delivered stream
        (compensation at the tap) or a relay of the reused one
        (compensation at the subscriber) — and restructure at the
        subscriber.  The floor sums those terms at the smaller of the
        two rates, usage-free and penalty-free; every term of
        :meth:`CostModel.plan_cost` is non-negative, so no variant costs
        less (up to float rounding).
        """
        reused = self.stream_rate(content)
        delivered = self.stream_rate(subscription)
        route = self.routes.path(tap_node, subscriber_node)
        bits = min(reused.bits_per_second, delivered.bits_per_second)
        link = self.net.link
        traffic = 0.0
        for a, b in zip(route, route[1:]):
            traffic += bits / link(a, b, include_removed=True).bandwidth
        share = self._load_share
        load = share(tap_node, "duplicate", reused.frequency)
        load += share(subscriber_node, "restructure", delivered.frequency)
        frequency = min(reused.frequency, delivered.frequency)
        transfer = base_load("transfer")
        super_peer = self.net.super_peer
        for sender in route[:-1]:
            peer = super_peer(sender, include_removed=True)
            load += transfer * peer.pindex * frequency / peer.capacity
        gamma = self.cost_model.gamma
        return gamma * traffic + (1.0 - gamma) * load

    def _load_share(self, node: str, kind: str, frequency: float) -> float:
        """One operator's share of a peer's capacity (``u_l`` of its
        :meth:`charge`)."""
        peer = self.net.super_peer(node, include_removed=True)
        return base_load(kind) * peer.pindex * frequency / peer.capacity

    # ------------------------------------------------------------------
    # The ledger walk
    # ------------------------------------------------------------------
    def stream_effects(
        self,
        effects: PlanEffects,
        origin: str,
        route: Tuple[str, ...],
        pipeline: Tuple[OperatorSpec, ...],
        taps_parent: bool,
        content: StreamProperties,
        rate: StreamRate,
        parent_rate: Optional[StreamRate],
    ) -> None:
        """Add what one stream commits to ``effects`` — the one walk
        behind every ledger entry and every price (invariant: ``usage``
        equals this walk summed over the installed streams plus one
        ``restructure`` :meth:`charge` per delivered input).

        Walks the stream's facts, so a variant is priced before any
        :class:`InstalledStream` exists: tap duplication (when the
        stream ``taps_parent``), then the ``pipeline`` stages at
        ``origin``, then traffic and transfer work along ``route``.
        ``rate`` is the stream's own :meth:`stream_rate` (of
        ``content``), ``parent_rate`` that of the stream it derives
        from (``None``: nothing runs at the origin).
        """
        if parent_rate is not None:
            frequency = parent_rate.frequency
            if taps_parent:
                self.charge(effects, origin, "duplicate", frequency)
            for spec in pipeline:
                udf_name = getattr(spec, "name", None) if spec.kind == "udf" else None
                self.charge(effects, origin, spec.kind, frequency, udf_name)
                frequency = self._stage_output_frequency(
                    spec, content, frequency, rate.frequency
                )
        # Route traffic and transfer work: :meth:`PlanEffects.add_link`
        # and :meth:`charge` unrolled over the hops.
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

    def effects_of(
        self,
        effects: PlanEffects,
        stream: InstalledStream,
        rate: StreamRate,
        parent_rate: Optional[StreamRate],
    ) -> None:
        """:meth:`stream_effects` over an :class:`InstalledStream`'s facts."""
        self.stream_effects(
            effects,
            stream.origin_node,
            stream.route,
            stream.pipeline,
            stream.taps_parent,
            stream.content,
            rate,
            parent_rate,
        )

    def installed_effects(
        self, effects: PlanEffects, deployment: Deployment, stream: InstalledStream
    ) -> None:
        """:meth:`stream_effects` of a stream installed in ``deployment``."""
        rate = self.stream_rate(stream.content)
        parent = deployment.streams.get(stream.parent_id or "")
        parent_rate = None if parent is None else self.stream_rate(parent.content)
        self.effects_of(effects, stream, rate, parent_rate)

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

    def _stage_output_frequency(
        self,
        spec: OperatorSpec,
        content: StreamProperties,
        input_frequency: float,
        output_frequency: float,
    ) -> float:
        if isinstance(spec, SelectionSpec):
            stats = self.catalog.for_stream(content.stream)
            return min(input_frequency, stats.frequency * stats.selectivity(spec.graph))
        if isinstance(spec, (AggregationSpec, ReAggregationSpec, WindowContentsSpec)):
            return output_frequency
        return input_frequency  # projections keep the frequency
