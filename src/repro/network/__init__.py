"""Super-peer P2P network substrate (Section 1, [3])."""

from .routing import (
    NoRouteError,
    RouteCache,
    all_distances,
    hop_distance,
    path_links,
    shortest_path,
)
from .topology import (
    Link,
    Network,
    SuperPeer,
    ThinPeer,
    TopologyError,
    example_topology,
    grid_topology,
)

__all__ = [
    "Link",
    "Network",
    "NoRouteError",
    "RouteCache",
    "SuperPeer",
    "ThinPeer",
    "TopologyError",
    "all_distances",
    "example_topology",
    "grid_topology",
    "hop_distance",
    "path_links",
    "shortest_path",
]
