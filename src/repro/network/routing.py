"""Shortest-path routing over the super-peer backbone.

All three strategies in the paper route streams along shortest paths in
hop count (Section 4: "using a shortest path in the network").  The
backbone links all have the same nominal bandwidth, so plain
breadth-first search is exact; ties are broken deterministically by
visiting neighbors in insertion order, which keeps every benchmark run
reproducible.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List, NamedTuple, Sequence, Tuple

from .topology import Link, Network, TopologyError


class NoRouteError(TopologyError):
    """Raised when no path exists between two super-peers."""


def _describe_endpoint(net: Network, name: str) -> str:
    """``'SP3' (removed from the backbone)`` or ``'SP3' (never existed)``."""
    if name in net.removed_super_peer_names():
        return f"{name!r} (removed from the backbone)"
    return f"{name!r} (never existed)"


def _churn_note(net: Network) -> str:
    """A parenthetical listing current removals, or ``""`` if none."""
    parts = []
    removed_peers = net.removed_super_peer_names()
    if removed_peers:
        parts.append(f"removed super-peers: {', '.join(sorted(removed_peers))}")
    removed_links = net.removed_links()
    if removed_links:
        parts.append(
            f"removed links: {', '.join(sorted(str(link) for link in removed_links))}"
        )
    return f" ({'; '.join(parts)})" if parts else ""


def shortest_path(net: Network, source: str, target: str) -> List[str]:
    """Shortest node sequence from ``source`` to ``target`` (inclusive).

    Raises :class:`NoRouteError` when the nodes are disconnected.
    """
    missing = [name for name in (source, target) if name not in net]
    if missing:
        detail = ", ".join(_describe_endpoint(net, name) for name in missing)
        label = "endpoints" if len(missing) > 1 else "endpoint"
        raise TopologyError(f"unknown {label}: {detail}")
    if source == target:
        return [source]
    parents: Dict[str, str] = {}
    queue = deque([source])
    seen = {source}
    while queue:
        node = queue.popleft()
        for neighbor in net.neighbors(node):
            if neighbor in seen:
                continue
            parents[neighbor] = node
            if neighbor == target:
                return _reconstruct(parents, source, target)
            seen.add(neighbor)
            queue.append(neighbor)
    raise NoRouteError(f"no route from {source} to {target}{_churn_note(net)}")


def _reconstruct(parents: Dict[str, str], source: str, target: str) -> List[str]:
    path = [target]
    while path[-1] != source:
        path.append(parents[path[-1]])
    path.reverse()
    return path


class RouteProfile(NamedTuple):
    """The sums a cost floor needs of one route, each over its own
    entities (removed ones resolve through the topology's stash)."""

    #: ``Σ 1/b(e)`` over the route's links.
    inverse_bandwidth: float
    #: ``Σ pindex/l(v)`` over the super-peers that send along it (all
    #: but the last).
    sender_share: float
    #: ``pindex/l(v)`` of the route's first and last super-peer.
    source_share: float
    target_share: float


class RouteCache:
    """Memoized :func:`shortest_path` keyed on ``(source, target)``,
    and each memoized route's :class:`RouteProfile`.

    Every topology mutation (growth and churn) bumps
    :attr:`Network.version`; the cache checks the counter on each lookup
    and drops itself wholesale when it moved, so a grown network and
    crash/rejoin repairs always route against the current topology
    without any explicit invalidation hook.

    Each direction is computed and cached independently — BFS ties can
    break differently per direction, and plans must be byte-identical to
    direct ``shortest_path`` calls.  Routing errors (disconnected
    endpoints) propagate uncached, so a later rejoin can succeed.
    Profiles live beside the routes they sum and are dropped with them,
    so there is at most one per routed pair.

    ``hits``/``misses``/``invalidations`` are always-on plain-int
    counters (surfaced through ``StreamGlobe.cache_stats`` and the
    observability registry); ``invalidations`` counts wholesale drops,
    i.e. lookups that found :attr:`Network.version` had moved.  A
    profile lookup counts as one route lookup.
    """

    __slots__ = (
        "net", "_version", "_paths", "_profiles", "hits", "misses", "invalidations"
    )

    def __init__(self, net: Network) -> None:
        self.net = net
        self._version = net.version
        self._paths: Dict[Tuple[str, str], Tuple[str, ...]] = {}
        self._profiles: Dict[Tuple[str, str], RouteProfile] = {}
        self.hits = 0
        self.misses = 0
        self.invalidations = 0

    def _invalidate(self) -> None:
        """Drop every route and profile: the topology has moved."""
        self._paths.clear()
        self._profiles.clear()
        self._version = self.net.version
        self.invalidations += 1

    def path(self, source: str, target: str) -> Tuple[str, ...]:
        if self._version != self.net.version:
            self._invalidate()
        key = (source, target)
        route = self._paths.get(key)
        if route is None:
            self.misses += 1
            route = tuple(shortest_path(self.net, source, target))
            self._paths[key] = route
        else:
            self.hits += 1
        return route

    def profile(self, source: str, target: str) -> RouteProfile:
        """The :class:`RouteProfile` of ``path(source, target)``."""
        if self._version != self.net.version:
            self._invalidate()
        key = (source, target)
        profile = self._profiles.get(key)
        if profile is not None:
            self.hits += 1
            return profile
        route = self.path(source, target)
        net = self.net
        inverse_bandwidth = 0.0
        for a, b in zip(route, route[1:]):
            inverse_bandwidth += 1.0 / net.link(a, b, include_removed=True).bandwidth
        shares = []
        for node in route:
            peer = net.super_peer(node, include_removed=True)
            shares.append(peer.pindex / peer.capacity)
        profile = RouteProfile(
            inverse_bandwidth, sum(shares[:-1], 0.0), shares[0], shares[-1]
        )
        self._profiles[key] = profile
        return profile

    @property
    def profiles(self) -> int:
        """Entries of the profile table."""
        return len(self._profiles)

    def __len__(self) -> int:
        return len(self._paths)


def hop_distance(net: Network, source: str, target: str) -> int:
    """Number of links on the shortest path between two super-peers."""
    return len(shortest_path(net, source, target)) - 1


def path_links(net: Network, path: Sequence[str]) -> List[Link]:
    """The links traversed by a node sequence."""
    return [net.link(a, b) for a, b in zip(path, path[1:])]


def all_distances(net: Network, source: str) -> Dict[str, int]:
    """Hop distance from ``source`` to every reachable super-peer."""
    distances = {source: 0}
    queue = deque([source])
    while queue:
        node = queue.popleft()
        for neighbor in net.neighbors(node):
            if neighbor not in distances:
                distances[neighbor] = distances[node] + 1
                queue.append(neighbor)
    return distances

