"""Shard-safety certifier over a deployed stream network (shards pass).

The ROADMAP's parallel data plane needs to know *statically* which
partitions of the super-peer graph can execute independently without
changing results relative to the sequential
:class:`~repro.engine.executor.StreamSimulator`.  This pass computes a
certified partition — a :class:`ShardPlan` — and explains, per edge,
what blocks a finer cut.

Operator effect lattice
-----------------------

Every operator spec is classified into a three-point lattice (see
:func:`operator_effect`)::

    STATELESS  <  KEYED_STATE  <  ORDER_SENSITIVE

* **stateless** — per-item pure functions: selections, projections,
  the subscriber-side restructuring step;
* **keyed-state** — operators with per-stream state whose result is a
  deterministic function of the input *sequence*: count windows, and
  time-based windows whose reference element is certified nondecreasing
  by the statistics catalog (aggregation, window-contents,
  re-aggregation);
* **order-sensitive** — operators whose result can depend on more than
  the per-stream item sequence: UDFs (unknown semantics) and time-based
  windows whose reference ordering is *not* certified (their reorder
  buffering depends on batch segmentation).  An admitted time window's
  reference is always certified (``T208`` rejects the others at the
  door), so a time window is order-sensitive only without a catalog.

Happens-before model
--------------------

The sequential executor advances all streams between *epoch barriers*
(fault times, gate openings, metric samples).  A sharded executor keeps
that contract per shard and exchanges cross-shard traffic only at the
barriers: items a producer shard emits during epoch *k* are visible to
the consumer shard at epoch *k + 1*.  This exchange preserves
**per-stream FIFO order** — so stateless and keyed-state consumers are
deterministic across a cut — but it changes *batch segmentation* and
*inter-stream interleaving*, which is exactly what the two blocking
rules protect:

* ``S510`` — an edge feeds an order-sensitive pipeline downstream.
  Re-segmenting the feed could change the consumer's result, so every
  edge on the path from the original source to that pipeline must stay
  inside one shard.
* ``S511`` — an edge carries an input of a *multi-input* subscription.
  The combiner pairs the r-th items of all inputs; inputs crossing
  different numbers of cuts would arrive with different epoch lags, so
  all delivered inputs (and their lineages, keeping lag uniformly zero)
  must live in the subscriber's shard.

``S501`` (error) flags an operator spec the certifier cannot classify;
the plan is then reported uncertified.

The resulting partition is the *finest* certified one: merging certified
shards never violates the rules, so a parallel executor is free to
coarsen it (e.g. to match a worker count).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from ..costmodel import StatisticsCatalog
from ..obs import NULL_RECORDER
from ..properties import (
    AggregationSpec,
    OperatorSpec,
    ReAggregationSpec,
    WindowContentsSpec,
    WindowSpec,
)
from ..sharing.plan import Deployment, InstalledStream
from ..diagnostics import AnalysisReport

__all__ = [
    "BlockedEdge",
    "CutEdge",
    "KEYED_STATE",
    "ORDER_SENSITIVE",
    "RuntimePartition",
    "STATELESS",
    "Shard",
    "ShardPlan",
    "certify_shards",
    "operator_effect",
    "partition_for_workers",
    "shard_weights",
    "stream_effect",
]

#: The three points of the effect lattice, in increasing order.
STATELESS = "stateless"
KEYED_STATE = "keyed-state"
ORDER_SENSITIVE = "order-sensitive"

_EFFECT_RANK = {STATELESS: 0, KEYED_STATE: 1, ORDER_SENSITIVE: 2}


def _max_effect(first: str, second: str) -> str:
    return first if _EFFECT_RANK[first] >= _EFFECT_RANK[second] else second


# ----------------------------------------------------------------------
# Effect classification
# ----------------------------------------------------------------------
def operator_effect(
    spec: OperatorSpec, catalog: Optional[StatisticsCatalog], stream: str
) -> Optional[str]:
    """Classify one operator spec; ``None`` when the kind is unknown.

    ``stream`` names the original input stream — the statistics catalog
    entry consulted to certify a time-based window's reference element
    as nondecreasing.
    """
    if spec.kind in ("selection", "projection", "restructure"):
        return STATELESS
    if spec.kind == "aggregation":
        assert isinstance(spec, AggregationSpec)
        return _window_effect(spec.window, catalog, stream)
    if spec.kind == "window":
        assert isinstance(spec, WindowContentsSpec)
        return _window_effect(spec.window, catalog, stream)
    if spec.kind == "reaggregation":
        assert isinstance(spec, ReAggregationSpec)
        return _window_effect(spec.new.window, catalog, stream)
    if spec.kind == "udf":
        return ORDER_SENSITIVE
    return None


def _window_effect(
    window: WindowSpec, catalog: Optional[StatisticsCatalog], stream: str
) -> str:
    if window.kind == "count":
        return KEYED_STATE
    assert window.reference is not None
    if catalog is not None and stream in catalog:
        certified = catalog.for_stream(stream).is_nondecreasing(window.reference)
        if certified:
            return KEYED_STATE
    return ORDER_SENSITIVE


def stream_effect(
    stream: InstalledStream,
    catalog: Optional[StatisticsCatalog],
    report: AnalysisReport,
) -> str:
    """The join of a stream's compensation-pipeline effects.

    Unknown operator kinds are reported as ``S501`` and treated as
    order-sensitive (the conservative top element).
    """
    effect = STATELESS
    for spec in stream.pipeline:
        classified = operator_effect(spec, catalog, stream.content.stream)
        if classified is None:
            report.add(
                "S501",
                f"stream {stream.stream_id}",
                f"operator {spec} has unknown kind {spec.kind!r}; the "
                "certifier cannot classify its effect",
                hint="extend repro.analysis.shards.operator_effect for the "
                "new operator kind",
            )
            classified = ORDER_SENSITIVE
        effect = _max_effect(effect, classified)
    return effect


# ----------------------------------------------------------------------
# The ShardPlan artifact
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Shard:
    """One certified partition cell of the super-peer graph."""

    shard_id: int
    nodes: Tuple[str, ...]
    streams: Tuple[str, ...]
    queries: Tuple[str, ...]


@dataclass(frozen=True)
class CutEdge:
    """A network link crossing two shards, with its traffic class."""

    link: Tuple[str, str]
    from_shard: int
    to_shard: int
    streams: Tuple[str, ...]
    effect: str


@dataclass(frozen=True)
class BlockedEdge:
    """A link the partition was not allowed to cut, and why."""

    link: Tuple[str, str]
    code: str
    streams: Tuple[str, ...]
    reason: str


@dataclass(frozen=True)
class ShardPlan:
    """The machine-readable certificate: the parallel executor's input.

    ``network_version`` pins the certificate to one topology state —
    any :attr:`repro.network.topology.Network.version` bump (crash,
    rejoin, link failure/restore) invalidates it and requires
    re-certification.
    """

    network_version: int
    shards: Tuple[Shard, ...]
    cut_edges: Tuple[CutEdge, ...]
    blocked_edges: Tuple[BlockedEdge, ...]
    epoch_lag: Tuple[Tuple[str, int], ...]
    certified: bool

    @property
    def shard_count(self) -> int:
        return len(self.shards)

    def shard_of(self, node: str) -> Optional[int]:
        for shard in self.shards:
            if node in shard.nodes:
                return shard.shard_id
        return None

    def to_dict(self) -> Dict[str, Any]:
        return {
            "version": 1,
            "network_version": self.network_version,
            "certified": self.certified,
            "shards": [
                {
                    "id": shard.shard_id,
                    "nodes": list(shard.nodes),
                    "streams": list(shard.streams),
                    "queries": list(shard.queries),
                }
                for shard in self.shards
            ],
            "cut_edges": [
                {
                    "link": list(edge.link),
                    "from_shard": edge.from_shard,
                    "to_shard": edge.to_shard,
                    "streams": list(edge.streams),
                    "effect": edge.effect,
                }
                for edge in self.cut_edges
            ],
            "blocked_edges": [
                {
                    "link": list(edge.link),
                    "code": edge.code,
                    "streams": list(edge.streams),
                    "reason": edge.reason,
                }
                for edge in self.blocked_edges
            ],
            "epoch_lag": {query: lag for query, lag in self.epoch_lag},
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))


# ----------------------------------------------------------------------
# Plan → runtime partition adapter
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class RuntimePartition:
    """A certified :class:`ShardPlan` coarsened to a worker count.

    Coarsening certified shards is always safe (merging never violates
    S510/S511), so the adapter is free to pack the finest certified
    shards into ``cells`` — one cell per executor worker.  ``cells[i]``
    lists the shard ids worker ``i`` runs; ``node_cell`` maps every
    super-peer to its worker.
    """

    plan: ShardPlan
    cells: Tuple[Tuple[int, ...], ...]
    node_cell: Tuple[Tuple[str, int], ...]

    @property
    def cell_count(self) -> int:
        return len(self.cells)

    def as_mapping(self) -> Dict[str, int]:
        return dict(self.node_cell)

    def query_lags(self, deployment: Deployment) -> Dict[str, int]:
        """Per-query delivery lag (in epochs) at *cell* granularity.

        Coarsening can only remove crossings, so every lag is bounded by
        the certified plan's ``epoch_lag`` for the same query.
        """
        cell_of = self.as_mapping()
        streams = deployment.streams
        lags: Dict[str, int] = {}
        for query_name in sorted(deployment.queries):
            record = deployment.queries[query_name]
            worst = 0
            for _, delivered_id in sorted(record.delivered):
                delivered = streams.get(delivered_id)
                if delivered is None:
                    continue
                path = _lineage_edges(streams, delivered) + _route_edges(delivered)
                crossings = sum(
                    1
                    for a, b, _carrier in path
                    if cell_of.get(a) is not None
                    and cell_of.get(b) is not None
                    and cell_of[a] != cell_of[b]
                )
                worst = max(worst, crossings)
            lags[query_name] = worst
        return lags


def shard_weights(plan: ShardPlan, deployment: Deployment) -> Dict[int, int]:
    """Deterministic load estimate per shard: one unit per stream plus
    one per pipeline stage plus one per subscription — a proxy for the
    pump work a worker running that shard will do."""
    weights: Dict[int, int] = {}
    streams = deployment.streams
    for shard in plan.shards:
        weight = 0
        for stream_id in shard.streams:
            stream = streams.get(stream_id)
            if stream is None:
                continue
            weight += 1 + len(stream.pipeline)
        weight += len(shard.queries)
        weights[shard.shard_id] = weight
    return weights


def _handovers(
    plan: ShardPlan, deployment: Deployment
) -> List[Tuple[int, Tuple[int, ...], int]]:
    """The streams another shard consumes, as sorted ``(home shard,
    foreign consumer shards, stream count)`` groups.

    A stream is consumed where a child taps it (the child's origin
    node) and where a subscriber receives it; every consuming *cell*
    other than the home cell costs the executor a proxy node and one
    exchanged copy of each of the stream's batches."""
    shard_of = {node: shard.shard_id for shard in plan.shards for node in shard.nodes}
    streams = deployment.streams
    consumers: Dict[str, Set[int]] = {}

    def consume(stream_id: str, node: str) -> None:
        if node in shard_of:
            consumers.setdefault(stream_id, set()).add(shard_of[node])

    for stream in streams.values():
        if stream.parent_id is not None:
            consume(stream.parent_id, stream.origin_node)
    for record in deployment.queries.values():
        for _, delivered_id in record.delivered:
            consume(delivered_id, record.subscriber_node)
    groups: Dict[Tuple[int, Tuple[int, ...]], int] = {}
    for stream_id, shards in consumers.items():
        stream = streams.get(stream_id)
        if stream is None or stream.origin_node not in shard_of:
            continue
        home = shard_of[stream.origin_node]
        foreign = tuple(sorted(shards - {home}))
        if foreign:
            groups[(home, foreign)] = groups.get((home, foreign), 0) + 1
    return [(home, foreign, count) for (home, foreign), count in sorted(groups.items())]


def partition_for_workers(
    plan: ShardPlan, deployment: Deployment, workers: int
) -> RuntimePartition:
    """Pack the certified shards into at most ``workers`` cells.

    Greedy LPT first: shards in decreasing weight order (ties by shard
    id) go to the currently lightest cell (ties by lowest cell index).
    Then cut-aware refinement: as long as one does, take the single
    shard move or two-shard swap that most reduces the number of
    stream hand-overs between cells (:func:`_handovers`; ties by lower
    maximum load, then shard ids) while no cell empties and every cell
    stays within the load LPT itself guarantees, ``(4/3 - 1/3m)`` of
    the ideal.  All integer arithmetic over sorted orders — fully
    deterministic, so every run of the parallel executor partitions the
    same way.  Requires ``plan.certified``; coarsening a certified plan
    is always safe, refining is not.
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    if not plan.certified:
        raise ValueError("cannot partition from an uncertified ShardPlan")
    weights = shard_weights(plan, deployment)
    cell_total = min(workers, len(plan.shards)) or 1
    loads = [0] * cell_total
    cell_of: Dict[int, int] = {}
    ordered = sorted(
        plan.shards, key=lambda shard: (-weights[shard.shard_id], shard.shard_id)
    )
    for shard in ordered:
        target = min(range(cell_total), key=lambda index: (loads[index], index))
        loads[target] += weights[shard.shard_id]
        cell_of[shard.shard_id] = target

    handovers = _handovers(plan, deployment)
    # loads * 3m <= (4m - 1) * ideal, with ideal = max(total / m, heaviest).
    cap = (4 * cell_total - 1) * max(
        sum(weights.values()), cell_total * max(weights.values(), default=0)
    )

    def score(moved: Dict[int, int]) -> Optional[Tuple[int, int]]:
        """``(hand-overs, maximum load)`` with ``moved`` applied, or
        ``None`` beyond the load bound."""
        trial = list(loads)
        for shard_id, cell in moved.items():
            trial[cell_of[shard_id]] -= weights[shard_id]
            trial[cell] += weights[shard_id]
        if 3 * cell_total * cell_total * max(trial) > cap:
            return None
        place = {**cell_of, **moved}
        crossing = sum(
            count * len({place[shard] for shard in foreign} - {place[home]})
            for home, foreign, count in handovers
        )
        return crossing, max(trial)

    shard_ids = sorted(cell_of)
    # ``None`` when LPT itself overshoots the bound (the ideal is only
    # a lower bound on the best packing): then LPT stands.
    current = score({})
    while current is not None:
        best: Optional[Tuple[Tuple[int, int], List[Tuple[int, int]]]] = None
        for index, first in enumerate(shard_ids):
            home = cell_of[first]
            trials = [
                {first: cell_of[second], second: home}
                for second in shard_ids[index + 1 :]
                if cell_of[second] != home
            ]
            if list(cell_of.values()).count(home) > 1:  # never empty a cell
                trials += [{first: cell} for cell in range(cell_total) if cell != home]
            for moved in trials:
                scored = score(moved)
                if scored is not None:
                    key = (scored, sorted(moved.items()))
                    if best is None or key < best:
                        best = key
        if best is None or best[0] >= current:
            break
        current = best[0]
        for shard_id, cell in best[1]:
            loads[cell_of[shard_id]] -= weights[shard_id]
            loads[cell] += weights[shard_id]
            cell_of[shard_id] = cell

    members: List[List[int]] = [[] for _ in range(cell_total)]
    for shard_id, cell in cell_of.items():
        members[cell].append(shard_id)
    # Renumber cells by their smallest shard id so the cell order is
    # independent of the packing history.
    occupied = sorted(
        (cell for cell in members if cell), key=lambda cell: min(cell)
    )
    cells = tuple(tuple(sorted(cell)) for cell in occupied)
    shard_cell = {
        shard_id: index for index, cell in enumerate(cells) for shard_id in cell
    }
    node_cell = tuple(
        (node, shard_cell[shard.shard_id])
        for shard in plan.shards
        for node in shard.nodes
    )
    return RuntimePartition(plan=plan, cells=cells, node_cell=node_cell)


# ----------------------------------------------------------------------
# Lineage geometry
# ----------------------------------------------------------------------
def _lineage_edges(
    streams: Dict[str, InstalledStream], stream: InstalledStream
) -> List[Tuple[str, str, str]]:
    """Edges on the source → ``stream.origin_node`` feed path.

    Returns ``(from, to, carrying_stream_id)`` triples: for each
    ancestor, the segment of its route from its origin up to the node
    where the next descendant taps it.
    """
    edges: List[Tuple[str, str, str]] = []
    tap = stream.origin_node
    cursor = streams.get(stream.parent_id) if stream.parent_id else None
    while cursor is not None:
        route = cursor.route
        # The tap must sit on the ancestor's route (a P1xx invariant);
        # fall back to the full route if a malformed plan violates it.
        end = route.index(tap) if tap in route else len(route) - 1
        for a, b in zip(route[:end], route[1 : end + 1]):
            edges.append((a, b, cursor.stream_id))
        tap = cursor.origin_node
        cursor = streams.get(cursor.parent_id) if cursor.parent_id else None
    return edges


def _route_edges(stream: InstalledStream) -> List[Tuple[str, str, str]]:
    return [(a, b, stream.stream_id) for a, b in stream.links()]


# ----------------------------------------------------------------------
# The pass
# ----------------------------------------------------------------------
def certify_shards(
    deployment: Deployment,
    catalog: Optional[StatisticsCatalog] = None,
    title: str = "shard certification",
    recorder: object = None,
) -> Tuple[ShardPlan, AnalysisReport]:
    """Certify a partition of the super-peer graph; report S5xx."""
    rec = recorder if recorder is not None else NULL_RECORDER
    with rec.span(  # type: ignore[attr-defined]
        "analysis.shards", streams=len(deployment.streams)
    ) as span:
        plan, report = _certify_shards(deployment, catalog, title)
        if getattr(rec, "enabled", False):
            span.set(shards=plan.shard_count, certified=plan.certified)
        return plan, report


def _certify_shards(
    deployment: Deployment, catalog: Optional[StatisticsCatalog], title: str
) -> Tuple[ShardPlan, AnalysisReport]:
    report = AnalysisReport(title=title)
    net = deployment.net
    streams = deployment.streams

    # Union-find over the live super-peers.
    parent: Dict[str, str] = {name: name for name in sorted(net.super_peer_names())}

    def find(node: str) -> str:
        root = node
        while parent[root] != root:
            root = parent[root]
        while parent[node] != root:
            parent[node], node = root, parent[node]
        return root

    def union(a: str, b: str) -> None:
        if a not in parent or b not in parent:
            return  # a removed peer on a not-yet-repaired route
        root_a, root_b = find(a), find(b)
        if root_a != root_b:
            # Deterministic representative: the smaller name wins.
            low, high = sorted((root_a, root_b))
            parent[high] = low

    # Effect of every stream's own pipeline, plus S501 reporting.
    effects: Dict[str, str] = {}
    for stream_id in sorted(streams):
        effects[stream_id] = stream_effect(streams[stream_id], catalog, report)

    blocked: Dict[Tuple[str, str], BlockedEdge] = {}
    edge_effect: Dict[Tuple[str, str], str] = {}

    def note_effect(a: str, b: str, effect: str) -> None:
        key = _canonical(a, b)
        edge_effect[key] = _max_effect(edge_effect.get(key, STATELESS), effect)

    def block(a: str, b: str, code: str, stream_id: str, reason: str) -> None:
        union(a, b)
        key = _canonical(a, b)
        existing = blocked.get(key)
        if existing is None:
            blocked[key] = BlockedEdge(key, code, (stream_id,), reason)
        elif stream_id not in existing.streams:
            blocked[key] = BlockedEdge(
                key,
                existing.code,
                tuple(sorted(existing.streams + (stream_id,))),
                existing.reason,
            )

    # S510 — order-sensitive pipelines pin their whole feed path.
    for stream_id in sorted(streams):
        stream = streams[stream_id]
        feed = _lineage_edges(streams, stream)
        for a, b, carrier in feed:
            note_effect(a, b, effects[stream_id])
        if effects[stream_id] != ORDER_SENSITIVE:
            continue
        for a, b, carrier in feed:
            reason = (
                f"feeds the order-sensitive pipeline of stream {stream_id} "
                f"at {stream.origin_node}; re-segmenting the feed across an "
                "epoch cut could change its result"
            )
            block(a, b, "S510", carrier, reason)
            report.add(
                "S510",
                f"link {a}–{b}",
                f"carries stream {carrier}, {reason}",
                hint="the edge is kept intra-shard; certify the window "
                "reference as nondecreasing (or replace the UDF) to "
                "unlock the cut",
                severity="warning",
            )

    # S511 — multi-input subscriptions need uniformly zero epoch lag.
    for query_name in sorted(deployment.queries):
        record = deployment.queries[query_name]
        if len(record.delivered) <= 1:
            continue
        for _, delivered_id in sorted(record.delivered):
            delivered = streams.get(delivered_id)
            if delivered is None:
                continue
            path = _lineage_edges(streams, delivered) + _route_edges(delivered)
            union_nodes = {record.subscriber_node, delivered.origin_node}
            union_nodes.update(delivered.route)
            for a, b, carrier in path:
                union_nodes.update((a, b))
                reason = (
                    f"carries input {delivered_id} of multi-input "
                    f"subscription {query_name!r}; the combiner pairs items "
                    "across inputs, so all inputs must reach "
                    f"{record.subscriber_node} with equal (zero) epoch lag"
                )
                block(a, b, "S511", carrier, reason)
                report.add(
                    "S511",
                    f"link {a}–{b}",
                    f"carries stream {carrier}, {reason}",
                    hint="the input's whole feed path is kept in the "
                    "subscriber's shard",
                    severity="warning",
                )
            ordered = sorted(node for node in union_nodes if node in parent)
            for node in ordered[1:]:
                union(ordered[0], node)

    # Deliveries of single-input queries: stateless traffic on the
    # delivered routes (counts toward the cut-edge traffic class).
    for query_name in sorted(deployment.queries):
        record = deployment.queries[query_name]
        for _, delivered_id in sorted(record.delivered):
            delivered = streams.get(delivered_id)
            if delivered is None:
                continue
            for a, b, _carrier in _route_edges(delivered):
                note_effect(a, b, STATELESS)

    # Assemble the partition.
    components: Dict[str, List[str]] = {}
    for node in parent:
        components.setdefault(find(node), []).append(node)
    ordered_roots = sorted(components, key=lambda root: min(components[root]))
    shard_of: Dict[str, int] = {}
    for shard_id, root in enumerate(ordered_roots):
        for node in components[root]:
            shard_of[node] = shard_id

    shard_streams: Dict[int, List[str]] = {i: [] for i in range(len(ordered_roots))}
    for stream_id in sorted(streams):
        home = shard_of.get(streams[stream_id].origin_node)
        if home is not None:
            shard_streams[home].append(stream_id)
    shard_queries: Dict[int, List[str]] = {i: [] for i in range(len(ordered_roots))}
    for query_name in sorted(deployment.queries):
        home = shard_of.get(deployment.queries[query_name].subscriber_node)
        if home is not None:
            shard_queries[home].append(query_name)

    shards = tuple(
        Shard(
            shard_id=shard_id,
            nodes=tuple(sorted(components[root])),
            streams=tuple(shard_streams[shard_id]),
            queries=tuple(shard_queries[shard_id]),
        )
        for shard_id, root in enumerate(ordered_roots)
    )

    # Classify the cut edges (live links whose endpoints differ).
    stream_edges: Dict[Tuple[str, str], List[str]] = {}
    for stream_id in sorted(streams):
        for a, b, _carrier in _route_edges(streams[stream_id]):
            stream_edges.setdefault(_canonical(a, b), []).append(stream_id)
    cut_edges: List[CutEdge] = []
    for link in sorted(net.links(), key=lambda item: item.ends):
        a, b = link.ends
        if a not in shard_of or b not in shard_of:
            continue
        if shard_of[a] == shard_of[b]:
            continue
        key = _canonical(a, b)
        cut_edges.append(
            CutEdge(
                link=key,
                from_shard=shard_of[a],
                to_shard=shard_of[b],
                streams=tuple(sorted(set(stream_edges.get(key, [])))),
                effect=edge_effect.get(key, STATELESS),
            )
        )

    # Per-query epoch lag: cut crossings on the slowest input path.
    lags: List[Tuple[str, int]] = []
    for query_name in sorted(deployment.queries):
        record = deployment.queries[query_name]
        worst = 0
        for _, delivered_id in sorted(record.delivered):
            delivered = streams.get(delivered_id)
            if delivered is None:
                continue
            path = _lineage_edges(streams, delivered) + _route_edges(delivered)
            crossings = sum(
                1
                for a, b, _carrier in path
                if shard_of.get(a) is not None
                and shard_of.get(b) is not None
                and shard_of[a] != shard_of[b]
            )
            worst = max(worst, crossings)
        lags.append((query_name, worst))

    plan = ShardPlan(
        network_version=net.version,
        shards=shards,
        cut_edges=tuple(cut_edges),
        blocked_edges=tuple(blocked[key] for key in sorted(blocked)),
        epoch_lag=tuple(lags),
        certified=report.ok,
    )
    return plan, report


def _canonical(a: str, b: str) -> Tuple[str, str]:
    return (a, b) if a <= b else (b, a)
