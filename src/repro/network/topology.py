"""Super-peer network topology.

StreamGlobe's architecture (Section 1, [3]) organizes the network as a
stationary backbone of *super-peers* — powerful servers that execute
operators and relay streams — plus *thin-peers* registered at exactly one
super-peer each, which contribute data streams or subscribe to queries.

:class:`Network` is a small undirected graph tailored to what the
sharing algorithms and the cost model need: per-node capacity ``l(v)``
and performance index, per-link bandwidth ``b(e)``, neighbor iteration,
and canonical link identities (an undirected edge compares equal in both
orientations).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple


class TopologyError(Exception):
    """Raised for structural errors: unknown nodes, duplicate links, ..."""


@dataclass(frozen=True)
class SuperPeer:
    """A backbone node that can host operators and relay streams.

    Attributes
    ----------
    name:
        Unique identifier, e.g. ``"SP4"``.
    capacity:
        Maximum computational load ``l(v)`` in abstract work units per
        virtual second.
    pindex:
        Performance index of the peer (Section 3.2): a multiplier on
        operator base loads.  A faster machine has a *smaller* pindex.
    """

    name: str
    capacity: float = 1_000_000.0
    pindex: float = 1.0

    def __post_init__(self) -> None:
        if self.capacity <= 0:
            raise TopologyError(f"peer {self.name}: capacity must be positive")
        if self.pindex <= 0:
            raise TopologyError(f"peer {self.name}: pindex must be positive")


@dataclass(frozen=True)
class ThinPeer:
    """A device registered at one super-peer: a source or a subscriber."""

    name: str
    super_peer: str


@dataclass(frozen=True)
class Link:
    """An undirected backbone connection with bandwidth ``b(e)`` in bit/s."""

    a: str
    b: str
    bandwidth: float = 100_000_000.0  # the paper's 100 Mbit/s LAN

    def __post_init__(self) -> None:
        if self.a == self.b:
            raise TopologyError(f"self-loop at {self.a}")
        if self.bandwidth <= 0:
            raise TopologyError(f"link {self.a}-{self.b}: bandwidth must be positive")
        # Canonical orientation so Link("x","y") == Link("y","x").
        if self.a > self.b:
            first, second = self.b, self.a
            object.__setattr__(self, "a", first)
            object.__setattr__(self, "b", second)

    @property
    def ends(self) -> Tuple[str, str]:
        return (self.a, self.b)

    def other(self, node: str) -> str:
        if node == self.a:
            return self.b
        if node == self.b:
            return self.a
        raise TopologyError(f"{node} is not an endpoint of {self}")

    def __str__(self) -> str:
        return f"{self.a}-{self.b}"


class Network:
    """The super-peer backbone plus registered thin-peers.

    Peers "may connect to and disconnect from the network at any time"
    (Section 1), so besides construction the topology supports *churn*:
    :meth:`remove_super_peer` / :meth:`remove_link` model crashes and
    connection failures, :meth:`restore_super_peer` /
    :meth:`restore_link` model rejoins.  Removed entities are stashed so
    tear-down bookkeeping (which must release commitments estimated
    against the old topology) can still resolve them via the
    ``include_removed`` lookups, and so a later rejoin restores the
    exact same capacities and bandwidths.  Every mutation bumps
    :attr:`version`, invalidating any routing state derived from an
    earlier topology.
    """

    def __init__(self) -> None:
        self._peers: Dict[str, SuperPeer] = {}
        self._thin_peers: Dict[str, ThinPeer] = {}
        self._links: Dict[Tuple[str, str], Link] = {}
        self._adjacency: Dict[str, List[str]] = {}
        self._removed_peers: Dict[str, SuperPeer] = {}
        self._removed_links: Dict[Tuple[str, str], Link] = {}
        #: Link keys torn down by a peer crash, keyed by the peer whose
        #: restoration should bring them back.
        self._crash_links: Dict[str, List[Tuple[str, str]]] = {}
        #: Monotonic counter bumped on every topology mutation; holders
        #: of derived routing state compare against it to detect staleness.
        self.version = 0

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_super_peer(
        self, name: str, capacity: float = 1_000_000.0, pindex: float = 1.0
    ) -> SuperPeer:
        if name in self._peers:
            raise TopologyError(f"duplicate super-peer {name}")
        if name in self._removed_peers:
            raise TopologyError(
                f"super-peer {name} is removed; use restore_super_peer"
            )
        peer = SuperPeer(name, capacity, pindex)
        self._peers[name] = peer
        self._adjacency[name] = []
        return peer

    def add_thin_peer(self, name: str, super_peer: str) -> ThinPeer:
        if name in self._thin_peers:
            raise TopologyError(f"duplicate thin-peer {name}")
        if super_peer not in self._peers:
            raise TopologyError(f"unknown super-peer {super_peer}")
        thin = ThinPeer(name, super_peer)
        self._thin_peers[name] = thin
        return thin

    def add_link(self, a: str, b: str, bandwidth: float = 100_000_000.0) -> Link:
        for end in (a, b):
            if end not in self._peers:
                raise TopologyError(f"unknown super-peer {end}")
        link = Link(a, b, bandwidth)
        if link.ends in self._links:
            raise TopologyError(f"duplicate link {link}")
        if link.ends in self._removed_links:
            raise TopologyError(f"link {link} is removed; use restore_link")
        self._links[link.ends] = link
        self._adjacency[a].append(b)
        self._adjacency[b].append(a)
        return link

    def scaled(
        self, capacity_factor: float = 1.0, link_bandwidth: Optional[float] = None
    ) -> Network:
        """A copy with every peer capacity times ``capacity_factor`` and,
        if given, every link at ``link_bandwidth`` bits/s.

        The rejection study's constraint: "we limited the maximum CPU
        load of peers to 10 % of their actual capacity and the maximum
        bandwidth of network connections between peers to 1 MBit/s"
        (Section 4).
        """
        scaled = Network()
        for peer in self.super_peers():
            scaled.add_super_peer(
                peer.name, capacity=peer.capacity * capacity_factor, pindex=peer.pindex
            )
        for link in self.links():
            scaled.add_link(
                link.a,
                link.b,
                bandwidth=link_bandwidth if link_bandwidth is not None else link.bandwidth,
            )
        for thin in self.thin_peers():
            scaled.add_thin_peer(thin.name, thin.super_peer)
        return scaled

    # ------------------------------------------------------------------
    # Churn (crashes, connection failures, rejoins)
    # ------------------------------------------------------------------
    def remove_super_peer(self, name: str) -> List[Link]:
        """Crash a super-peer: detach it and every incident link.

        Returns the links torn down with the peer.  The peer's record
        (and its links') are stashed for :meth:`restore_super_peer`;
        thin-peers registered at the crashed super-peer stay registered
        but are unreachable until it rejoins.
        """
        peer = self._peers.pop(name, None)
        if peer is None:
            if name in self._removed_peers:
                raise TopologyError(f"super-peer {name} is already removed")
            raise TopologyError(f"unknown super-peer {name}")
        self._removed_peers[name] = peer
        torn_down: List[Link] = []
        for neighbor in self._adjacency.pop(name):
            key = (name, neighbor) if name < neighbor else (neighbor, name)
            link = self._links.pop(key, None)
            if link is None:
                continue  # already failed independently
            self._adjacency[neighbor].remove(name)
            self._removed_links[key] = link
            self._crash_links.setdefault(name, []).append(key)
            torn_down.append(link)
        self.version += 1
        return torn_down

    def restore_super_peer(self, name: str) -> List[Link]:
        """Rejoin a crashed super-peer with its original capacity.

        Links torn down by the crash come back with it — except those
        whose other endpoint is still removed; these are re-queued to
        return when *that* peer rejoins.  Returns the restored links.
        """
        peer = self._removed_peers.pop(name, None)
        if peer is None:
            raise TopologyError(f"super-peer {name} is not removed")
        self._peers[name] = peer
        self._adjacency[name] = []
        restored: List[Link] = []
        for key in self._crash_links.pop(name, []):
            link = self._removed_links.get(key)
            if link is None:
                continue  # explicitly restored or permanently failed
            other = link.other(name)
            if other not in self._peers:
                # Hand the link over to the still-crashed endpoint.
                self._crash_links.setdefault(other, []).append(key)
                continue
            del self._removed_links[key]
            self._links[key] = link
            self._adjacency[link.a].append(link.b)
            self._adjacency[link.b].append(link.a)
            restored.append(link)
        self.version += 1
        return restored

    def remove_link(self, a: str, b: str) -> Link:
        """Fail one backbone connection (both super-peers stay up)."""
        key = (a, b) if a < b else (b, a)
        link = self._links.pop(key, None)
        if link is None:
            if key in self._removed_links:
                raise TopologyError(f"link {key[0]}-{key[1]} is already removed")
            raise TopologyError(f"no link between {a} and {b}")
        self._adjacency[link.a].remove(link.b)
        self._adjacency[link.b].remove(link.a)
        self._removed_links[key] = link
        self.version += 1
        return link

    def restore_link(self, a: str, b: str) -> Link:
        """Bring a failed connection back (both endpoints must be live)."""
        key = (a, b) if a < b else (b, a)
        link = self._removed_links.get(key)
        if link is None:
            raise TopologyError(f"link {key[0]}-{key[1]} is not removed")
        for end in key:
            if end not in self._peers:
                raise TopologyError(
                    f"cannot restore link {key[0]}-{key[1]}: "
                    f"super-peer {end} is still removed"
                )
        del self._removed_links[key]
        self._links[key] = link
        self._adjacency[link.a].append(link.b)
        self._adjacency[link.b].append(link.a)
        self.version += 1
        return link

    def removed_super_peer_names(self) -> List[str]:
        return list(self._removed_peers)

    def removed_links(self) -> List[Link]:
        return list(self._removed_links.values())

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def super_peer(self, name: str, include_removed: bool = False) -> SuperPeer:
        try:
            return self._peers[name]
        except KeyError:
            if include_removed and name in self._removed_peers:
                return self._removed_peers[name]
            raise TopologyError(f"unknown super-peer {name}") from None

    def thin_peer(self, name: str) -> ThinPeer:
        try:
            return self._thin_peers[name]
        except KeyError:
            raise TopologyError(f"unknown thin-peer {name}") from None

    def home_of(self, peer_name: str) -> str:
        """Super-peer of a thin-peer; a super-peer is its own home."""
        if peer_name in self._peers:
            return peer_name
        return self.thin_peer(peer_name).super_peer

    def link(self, a: str, b: str, include_removed: bool = False) -> Link:
        key = (a, b) if a < b else (b, a)
        try:
            return self._links[key]
        except KeyError:
            if include_removed and key in self._removed_links:
                return self._removed_links[key]
            raise TopologyError(f"no link between {a} and {b}") from None

    def has_link(self, a: str, b: str) -> bool:
        key = (a, b) if a < b else (b, a)
        return key in self._links

    def neighbors(self, node: str) -> List[str]:
        try:
            return list(self._adjacency[node])
        except KeyError:
            raise TopologyError(f"unknown super-peer {node}") from None

    # ------------------------------------------------------------------
    # Iteration
    # ------------------------------------------------------------------
    def super_peers(self) -> List[SuperPeer]:
        return list(self._peers.values())

    def super_peer_names(self) -> List[str]:
        return list(self._peers)

    def thin_peers(self) -> List[ThinPeer]:
        return list(self._thin_peers.values())

    def links(self) -> List[Link]:
        return list(self._links.values())

    def __contains__(self, name: str) -> bool:
        return name in self._peers

    def __len__(self) -> int:
        return len(self._peers)

    def __iter__(self) -> Iterator[str]:
        return iter(self._peers)

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------
    def check_connected(self) -> None:
        """Raise :class:`TopologyError` if the backbone is disconnected."""
        if not self._peers:
            return
        seen = set()
        frontier = [next(iter(self._peers))]
        while frontier:
            node = frontier.pop()
            if node in seen:
                continue
            seen.add(node)
            frontier.extend(self._adjacency[node])
        missing = set(self._peers) - seen
        if missing:
            raise TopologyError(f"backbone is disconnected; unreachable: {sorted(missing)}")


def example_topology() -> Network:
    """The 8-super-peer topology of Figures 1 and 2.

    The backbone drawn in the figures: SP0–SP7 arranged as two rows of
    four with the photon source thin-peer P0 at SP4 and subscriber
    thin-peers P1–P4 at SP1, SP3, SP3, SP0 respectively.
    """
    net = Network()
    for i in range(8):
        net.add_super_peer(f"SP{i}")
    # Wiring consistent with the figures and the running example: two
    # rows (SP4 SP6 SP0 SP2 above, SP5 SP7 SP1 SP3 below) with vertical
    # links, plus the SP5-SP1 connection the text's Query-1 route
    # (SP4 -> SP5 -> SP1) requires.
    for a, b in [
        ("SP4", "SP6"),
        ("SP6", "SP0"),
        ("SP0", "SP2"),
        ("SP5", "SP7"),
        ("SP7", "SP1"),
        ("SP1", "SP3"),
        ("SP4", "SP5"),
        ("SP6", "SP7"),
        ("SP0", "SP1"),
        ("SP2", "SP3"),
        ("SP5", "SP1"),
    ]:
        net.add_link(a, b)
    net.add_thin_peer("P0", "SP4")  # the satellite-bound telescope
    net.add_thin_peer("P1", "SP1")  # registers Query 1
    net.add_thin_peer("P2", "SP7")  # registers Query 2 (reuse at SP5, via SP7)
    net.add_thin_peer("P3", "SP3")  # registers Query 3
    net.add_thin_peer("P4", "SP0")  # registers Query 4
    net.check_connected()
    return net


def grid_topology(rows: int = 4, cols: int = 4) -> Network:
    """A ``rows × cols`` grid of super-peers (the second scenario)."""
    if rows < 1 or cols < 1:
        raise TopologyError("grid dimensions must be positive")
    net = Network()
    for r in range(rows):
        for c in range(cols):
            net.add_super_peer(f"SP{r * cols + c}")
    for r in range(rows):
        for c in range(cols):
            here = f"SP{r * cols + c}"
            if c + 1 < cols:
                net.add_link(here, f"SP{r * cols + c + 1}")
            if r + 1 < rows:
                net.add_link(here, f"SP{(r + 1) * cols + c}")
    net.check_connected()
    return net
