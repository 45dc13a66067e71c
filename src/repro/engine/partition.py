"""How the sharded plane cuts a deployment into cells (DESIGN.md §12).

Any map of the live super-peers onto cells runs byte-identically to one
cell: operators push per item over their stream's FIFO, the exchange
hands each stream's batches over unsplit and in order, a multi-input
subscription buffers every input until ``finish()`` and the counters
are integers merged in one order.  So the partition is chosen for cost
alone — :func:`partition_cells` packs super-peers by load, then by the
stream hand-overs a cut costs — and :func:`query_lags` counts, per
query, the cells its delivery chain crosses (each crossing delays an
item one exchange epoch).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Set, Tuple

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..sharing.plan import Deployment, InstalledStream

__all__ = ["node_weights", "partition_cells", "query_lags"]

#: Stream hand-overs between super-peers, grouped as ``(home node
#: index, foreign consumer node indices, stream count)``.
Handovers = List[Tuple[int, Tuple[int, ...], int]]


def node_weights(deployment: "Deployment", nodes: List[str]) -> List[int]:
    """Deterministic load estimate per super-peer of ``nodes``: one unit
    per stream originating there plus one per pipeline stage plus one
    per subscription it hosts — a proxy for the pump work of the cell
    running it."""
    index = {node: position for position, node in enumerate(nodes)}
    weights = [0] * len(nodes)
    for stream in deployment.streams.values():
        home = index.get(stream.origin_node)
        if home is not None:
            weights[home] += 1 + len(stream.pipeline)
    for record in deployment.queries.values():
        host = index.get(record.subscriber_node)
        if host is not None:
            weights[host] += 1
    return weights


def _handovers(deployment: "Deployment", nodes: List[str]) -> Handovers:
    """The streams another super-peer consumes, sorted.

    A stream is consumed where a child taps it (the child's origin
    node) and where a subscriber receives it; every consuming *cell*
    other than the home cell costs the executor a proxy node and one
    exchanged copy of each of the stream's batches."""
    index = {node: position for position, node in enumerate(nodes)}
    streams = deployment.streams
    consumers: Dict[str, Set[int]] = {}

    def consume(stream_id: str, node: str) -> None:
        if node in index:
            consumers.setdefault(stream_id, set()).add(index[node])

    for stream in streams.values():
        if stream.parent_id is not None:
            consume(stream.parent_id, stream.origin_node)
    for record in deployment.queries.values():
        for _, delivered_id in record.delivered:
            consume(delivered_id, record.subscriber_node)
    groups: Dict[Tuple[int, Tuple[int, ...]], int] = {}
    for stream_id, consuming in consumers.items():
        stream = streams.get(stream_id)
        if stream is None or stream.origin_node not in index:
            continue
        home = index[stream.origin_node]
        foreign = tuple(sorted(consuming - {home}))
        if foreign:
            groups[(home, foreign)] = groups.get((home, foreign), 0) + 1
    return [(home, foreign, count) for (home, foreign), count in sorted(groups.items())]


def partition_cells(deployment: "Deployment", workers: int) -> Dict[str, int]:
    """Pack the live super-peers into at most ``workers`` cells.

    Greedy LPT first: super-peers in decreasing weight order
    (:func:`node_weights`; ties by name) go to the currently lightest
    cell (ties by lowest cell index).  Then cut-aware refinement: as
    long as one does, take the single move or two-node swap that most
    reduces the number of stream hand-overs between cells (ties by
    lower maximum load, then names) while no cell empties and every
    cell stays within the load LPT itself guarantees, ``(4/3 - 1/3m)``
    of the ideal.  Cells are numbered by their first super-peer's name.
    All integer arithmetic over sorted orders, so every run partitions
    the same way.  Super-peers of weight 0 may share a cell with
    others, so fewer cells than ``workers`` may come back.
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    nodes = sorted(deployment.net.super_peer_names())
    weights = node_weights(deployment, nodes)
    cell_total = min(workers, len(nodes)) or 1
    loads = [0] * cell_total
    cell_of: List[int] = [0] * len(nodes)
    for node in sorted(range(len(nodes)), key=lambda node: (-weights[node], node)):
        target = min(range(cell_total), key=lambda cell: (loads[cell], cell))
        loads[target] += weights[node]
        cell_of[node] = target

    handovers = _handovers(deployment, nodes)
    # loads * 3m <= (4m - 1) * ideal, with ideal = max(total / m, heaviest).
    cap = (4 * cell_total - 1) * max(sum(weights), cell_total * max(weights, default=0))

    def score(moved: Dict[int, int]) -> Optional[Tuple[int, int]]:
        """``(hand-overs, maximum load)`` with ``moved`` applied, or
        ``None`` beyond the load bound."""
        trial = list(loads)
        for node, cell in moved.items():
            trial[cell_of[node]] -= weights[node]
            trial[cell] += weights[node]
        if 3 * cell_total * cell_total * max(trial) > cap:
            return None
        place = [moved.get(node, cell) for node, cell in enumerate(cell_of)]
        crossing = sum(
            count * len({place[node] for node in foreign} - {place[home]})
            for home, foreign, count in handovers
        )
        return crossing, max(trial)

    # ``None`` when LPT itself overshoots the bound (the ideal is only
    # a lower bound on the best packing): then LPT stands.
    current = score({})
    while current is not None:
        best: Optional[Tuple[Tuple[int, int], List[Tuple[int, int]]]] = None
        for first in range(len(nodes)):
            home = cell_of[first]
            trials = [
                {first: cell_of[second], second: home}
                for second in range(first + 1, len(nodes))
                if cell_of[second] != home
            ]
            if cell_of.count(home) > 1:  # never empty a cell
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
        for node, cell in best[1]:
            loads[cell_of[node]] -= weights[node]
            loads[cell] += weights[node]
            cell_of[node] = cell

    # Renumber cells by their first super-peer so the cell order is
    # independent of the packing history.
    renumbered: Dict[int, int] = {}
    for cell in cell_of:
        renumbered.setdefault(cell, len(renumbered))
    return {node: renumbered[cell] for node, cell in zip(nodes, cell_of)}


def _lineage_edges(
    streams: Dict[str, "InstalledStream"], stream: "InstalledStream"
) -> List[Tuple[str, str]]:
    """Links on the source → ``stream.origin_node`` feed path: for each
    ancestor, the segment of its route from its origin up to the node
    where the next descendant taps it."""
    edges: List[Tuple[str, str]] = []
    tap = stream.origin_node
    cursor = streams.get(stream.parent_id) if stream.parent_id else None
    while cursor is not None:
        route = cursor.route
        # The tap sits on the ancestor's route (a P1xx invariant); a
        # malformed plan that breaks it counts the full route.
        end = route.index(tap) if tap in route else len(route) - 1
        edges.extend(zip(route[:end], route[1 : end + 1]))
        tap = cursor.origin_node
        cursor = streams.get(cursor.parent_id) if cursor.parent_id else None
    return edges


def query_lags(deployment: "Deployment", node_cell: Dict[str, int]) -> Dict[str, int]:
    """Per query, the most cell boundaries one of its inputs crosses on
    the way from the source (its feed path, then its delivered route):
    the exchange epochs its deliveries may lag production by."""
    streams = deployment.streams
    lags: Dict[str, int] = {}
    for query_name in sorted(deployment.queries):
        record = deployment.queries[query_name]
        worst = 0
        for _, delivered_id in sorted(record.delivered):
            delivered = streams.get(delivered_id)
            if delivered is None:
                continue
            path = _lineage_edges(streams, delivered) + delivered.links()
            crossings = sum(
                1
                for a, b in path
                if a in node_cell and b in node_cell and node_cell[a] != node_cell[b]
            )
            worst = max(worst, crossings)
        lags[query_name] = worst
    return lags
