"""Evaluation plans and the deployed-network state.

An *evaluation plan* ``P`` (Section 3.3) names the operators to install,
the peers to install them on, and the additional data streams to route.
A plan for one input stream of a subscription consists of:

* the reused stream and the node where it is tapped (duplicated);
* an optional *relay* stream shipping the reused content unmodified from
  the tap node to the processing node;
* the *delivered* stream: the compensation pipeline's output, routed to
  the subscriber's super-peer.

:class:`Deployment` is the persistent network state the incremental
registration algorithm works against: every installed stream, which
super-peers it is available at (every node on its route), the
subscriptions served, and the estimated resource usage underlying
``a_b``/``a_l`` in the cost function.  It also counts references
to every installed stream, so garbage collection reads what nothing
needs instead of searching for it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Set, Tuple

from ..costmodel import NetworkUsage, PlanEffects
from ..network.topology import Network
from ..properties import OperatorSpec, Properties, StreamProperties
from ..wxquery import AnalyzedQuery
from .index import StreamAvailabilityIndex, SubscriptionProbe

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .widening import WideningAction


@dataclass(frozen=True)
class InstalledStream:
    """One data stream flowing in the network.

    Attributes
    ----------
    stream_id:
        Unique identifier (e.g. ``"photons"`` or ``"Q7:photons"``).
    content:
        What the stream contains, as :class:`StreamProperties` relative
        to its original input stream — this is what Algorithm 2 matches.
    origin_node:
        Super-peer where the stream is produced (where ``pipeline``
        runs; for an original stream, the source's home super-peer).
    route:
        Node sequence from origin to the delivery target (inclusive);
        the stream is *available* for sharing at every node on it.
    parent_id:
        The stream this one is derived from (``None`` for originals).
    pipeline:
        Compensation operator specs executed at ``origin_node`` to turn
        the parent's items into this stream's items (empty for originals
        and pure relay streams).
    query:
        Name of the subscription this stream was created for (``None``
        for original source streams).
    taps_parent:
        Whether installing the stream duplicated its parent at a tap
        node.  The planner charges one tap duplication per input chain,
        so a delivered stream fed by its own plan's relay (or a
        widening's restoring stream) does not tap — a fact of how the
        stream was created, which names cannot recover once a
        subscription's name is registered again.
    """

    stream_id: str
    content: StreamProperties
    origin_node: str
    route: Tuple[str, ...]
    parent_id: Optional[str] = None
    pipeline: Tuple[OperatorSpec, ...] = ()
    query: Optional[str] = None
    taps_parent: bool = True

    def __post_init__(self) -> None:
        if not self.route:
            raise ValueError(f"stream {self.stream_id}: empty route")
        if self.route[0] != self.origin_node:
            raise ValueError(
                f"stream {self.stream_id}: route must start at the origin node"
            )

    @property
    def target_node(self) -> str:
        return self.route[-1]

    @property
    def is_original(self) -> bool:
        return self.parent_id is None

    def links(self) -> List[Tuple[str, str]]:
        return list(zip(self.route, self.route[1:]))


@dataclass(frozen=True)
class RegisteredQuery:
    """A subscription installed in the network."""

    name: str
    properties: Properties
    analyzed: AnalyzedQuery
    subscriber_node: str
    #: Per input stream: the delivered stream's id.
    delivered: Tuple[Tuple[str, str], ...]  # (input stream name, stream_id)


@dataclass
class InputPlan:
    """The chosen plan ``P_s`` for one input stream of a subscription.

    ``widening`` is set when the plan reuses a stream only after
    *widening* it (the Section 6 enhancement, see
    :mod:`repro.sharing.widening`); its delta effects are folded into
    the evaluation plan's combined effects.
    """

    input_stream: str
    reused_id: str
    tap_node: str
    placement_node: str
    relay: Optional[InstalledStream]
    delivered: InstalledStream
    effects: PlanEffects
    cost: float
    widening: Optional["WideningAction"] = None
    #: Cost of Algorithm 1's *initial* plan (ship the original stream to
    #: the subscriber) — the baseline the chosen plan improved on; set
    #: by the search, reported in the decision record.
    initial_cost: Optional[float] = None

    def new_streams(self) -> List[InstalledStream]:
        streams = [] if self.relay is None else [self.relay]
        streams.append(self.delivered)
        return streams


@dataclass
class EvaluationPlan:
    """The overall plan ``P`` for a subscription (one entry per input)."""

    query: str
    inputs: List[InputPlan] = field(default_factory=list)
    #: Search telemetry feeding the registration latency model.
    visited_nodes: int = 0
    candidate_matches: int = 0

    def total_cost(self) -> float:
        return sum(plan.cost for plan in self.inputs)

    def combined_effects(self) -> PlanEffects:
        effects = PlanEffects()
        for plan in self.inputs:
            effects.merge(plan.effects)
            if plan.widening is not None:
                effects.merge(plan.widening.effects)
        return effects

    def installed_operator_count(self) -> int:
        count = 0
        for plan in self.inputs:
            count += len(plan.delivered.pipeline)
            if plan.relay is not None:
                count += len(plan.relay.pipeline)
        return count + 1  # the restructuring step at the subscriber

    def route_hop_count(self) -> int:
        hops = 0
        for plan in self.inputs:
            hops += len(plan.delivered.route) - 1
            if plan.relay is not None:
                hops += len(plan.relay.route) - 1
        return hops


class Deployment:
    """The incrementally evolving state of the stream network."""

    def __init__(self, net: Network) -> None:
        self.net = net
        self.streams: Dict[str, InstalledStream] = {}
        self.queries: Dict[str, RegisteredQuery] = {}
        self.usage = NetworkUsage(net)
        self._available: Dict[str, List[str]] = {name: [] for name in net}
        #: Inverted index over the same availability facts, by signature,
        #: selection and content; maintained in lock-step with
        #: ``_available`` (invariant P14x).
        self.sharing_index = StreamAvailabilityIndex()
        #: Per installed stream: the deliveries that name it plus its
        #: installed children (invariant P144).
        self.refcounts: Dict[str, int] = {}
        #: The derived streams whose count is 0: where the tear-down's
        #: sweep starts (invariant P144).
        self.unreferenced: Set[str] = set()
        #: The sharded executor's memo of whether these records pickle:
        #: ``(records probed, verdict)``.
        self.pickle_probe: Optional[Tuple[tuple, bool]] = None
        #: Bumped by every mutation of ``streams`` / ``queries``: what a
        #: cache of anything derived from the plan is keyed on (names
        #: are reused, so the installed ids are not a key).
        self.version = 0

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def install_stream(self, stream: InstalledStream) -> None:
        if stream.stream_id in self.streams:
            raise ValueError(f"stream {stream.stream_id!r} already installed")
        if stream.parent_id is not None and stream.parent_id not in self.streams:
            raise ValueError(
                f"stream {stream.stream_id!r}: unknown parent {stream.parent_id!r}"
            )
        self.streams[stream.stream_id] = stream
        self.version += 1
        for node in stream.route:
            # setdefault: a super-peer may have rejoined the topology
            # after this deployment was constructed.
            self._available.setdefault(node, []).append(stream.stream_id)
        self.sharing_index.add(stream.stream_id, stream.content, stream.route)
        self.refcounts[stream.stream_id] = 0
        if stream.parent_id is not None:
            self.unreferenced.add(stream.stream_id)
            self._reference(stream.parent_id)

    def release_stream(self, stream_id: str) -> bool:
        """Uninstall one stream; idempotent and atomic.

        Removes the stream record and every availability-index entry
        its route created.  Returns ``True`` if the stream was
        installed, ``False`` if it was already gone (releasing twice —
        e.g. once through deregistration and once through plan repair —
        is a no-op, never an error, and never leaves the index
        half-mutated).
        """
        stream = self.streams.pop(stream_id, None)
        if stream is None:
            return False
        self.version += 1
        for node in stream.route:
            bucket = self._available.get(node)
            if bucket is None:
                continue
            try:
                bucket.remove(stream_id)
            except ValueError:
                pass  # index entry already gone; keep the removal atomic
        self.sharing_index.discard(stream_id, stream.route)
        self.refcounts.pop(stream_id, None)
        self.unreferenced.discard(stream_id)
        if stream.parent_id is not None:
            self._dereference(stream.parent_id)
        return True

    def register_query(self, record: RegisteredQuery) -> None:
        if record.name in self.queries:
            raise ValueError(f"query {record.name!r} already registered")
        self.queries[record.name] = record
        self.version += 1
        for _, stream_id in record.delivered:
            self._reference(stream_id)

    def pop_query(self, name: str) -> RegisteredQuery:
        """Remove and return a subscription's record (``KeyError`` if
        it is not registered)."""
        record = self.queries.pop(name)
        self.version += 1
        for _, stream_id in record.delivered:
            self._dereference(stream_id)
        return record

    def replace_stream(self, stream: InstalledStream) -> None:
        """Swap an installed stream's record for one with the same id
        and route (widening changes content and pipeline only), re-keyed
        in the sharing index under its new content.  The parent stays,
        so the reference counts do too."""
        assert self.streams[stream.stream_id].parent_id == stream.parent_id
        self.sharing_index.discard(stream.stream_id, stream.route)
        self.streams[stream.stream_id] = stream
        self.sharing_index.add(stream.stream_id, stream.content, stream.route)
        self.version += 1

    def replace_query(self, record: RegisteredQuery) -> None:
        """Swap a subscription's record (widening moves a delivery to
        its restoring stream)."""
        for _, stream_id in self.queries[record.name].delivered:
            self._dereference(stream_id)
        self.queries[record.name] = record
        self.version += 1
        for _, stream_id in record.delivered:
            self._reference(stream_id)

    def _reference(self, stream_id: str) -> None:
        count = self.refcounts.get(stream_id)
        if count is not None:  # references to released streams count nowhere
            self.refcounts[stream_id] = count + 1
            self.unreferenced.discard(stream_id)

    def _dereference(self, stream_id: str) -> None:
        count = self.refcounts.get(stream_id)
        if count is not None:
            self.refcounts[stream_id] = count - 1
            if count == 1 and not self.streams[stream_id].is_original:
                self.unreferenced.add(stream_id)

    def commit_effects(self, effects: PlanEffects, sign: float = 1.0) -> None:
        """Fold estimated usage into the persistent state (``sign=-1.0``
        releases it again)."""
        for link, bits in effects.link_bits.items():
            self.usage.add_link_traffic(link, sign * bits)
        for peer, work in effects.peer_work.items():
            self.usage.add_peer_work(peer, sign * work)

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def streams_at(self, node: str) -> List[InstalledStream]:
        """Streams available for sharing at ``node`` (on their route)."""
        return [self.streams[stream_id] for stream_id in self._available[node]]

    def distinct_candidates_at(
        self, node: str, probe: SubscriptionProbe
    ) -> Tuple[List[Tuple[InstalledStream, Set[str]]], int]:
        """Indexed candidates grouped by *content*: one representative
        stream per distinct content ``probe`` admits, plus the delivery
        targets of every stream in the group; and the number of
        contents pruned on their selections.

        Two streams with identical content tapped at the same node
        produce byte-identical plan effects and cost — only the parent
        linkage differs — so under the deterministic smallest-id-first
        tie-break only the group's smallest id can ever win.  Matching
        once per content and costing only the representative is
        therefore plan-equivalent to the full scan; the targets keep
        Algorithm 1's search frontier exact (every matched stream still
        contributes its delivery target).  A pruned content would fail
        Algorithm 2, so it adds neither a plan nor a target.

        Representatives are returned in ascending stream-id order.
        """
        groups, pruned = self.sharing_index.candidate_groups(node, probe)
        streams = self.streams
        firsts = sorted((min(group), group) for group in groups)
        return [
            (streams[first], {streams[stream_id].target_node for stream_id in group})
            for first, group in firsts
        ], pruned

    def stream(self, stream_id: str) -> InstalledStream:
        try:
            return self.streams[stream_id]
        except KeyError:
            raise KeyError(f"unknown stream {stream_id!r}") from None

    def find_original(self, stream_name: str) -> InstalledStream:
        """The original stream ``stream_name`` (an original's id is its
        name)."""
        stream = self.streams.get(stream_name)
        if stream is None or not stream.is_original:
            raise KeyError(f"no original stream named {stream_name!r} is registered")
        return stream
