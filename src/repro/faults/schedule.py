"""Deterministic fault schedules over simulated stream time.

The paper's super-peer backbone is a P2P network whose peers "may
connect to and disconnect from the network at any time" (Section 1).
This module expresses such churn as *data*: a :class:`FaultSchedule` is
an ordered list of :class:`FaultEvent` records — super-peer crashes,
link failures, and the corresponding rejoins — each pinned to a point
in simulated stream time.  The executor applies due events between
batches, :meth:`StreamGlobe.repair
<repro.sharing.system.StreamGlobe.repair>` re-plans after each, and
because the schedule is plain data the whole churn run stays
bit-for-bit reproducible.

Events at the same time fire in schedule order (stable sort), so a
crash-then-rejoin written in that order behaves as written.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, List, Sequence

from ..network.topology import Link, Network


class FaultError(Exception):
    """Raised for malformed fault schedules or inapplicable events."""


@dataclass(frozen=True)
class FaultEvent:
    """Base class: something happens to the backbone at ``time``."""

    time: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.time) or self.time < 0:
            raise FaultError(f"fault time must be finite and >= 0, got {self.time!r}")

    def apply(self, net: Network) -> None:
        raise NotImplementedError

    def describe(self) -> str:
        raise NotImplementedError


@dataclass(frozen=True)
class SuperPeerCrash(FaultEvent):
    """A super-peer disconnects; its links go down with it."""

    peer: str = ""

    def __post_init__(self) -> None:
        super().__post_init__()
        if not self.peer:
            raise FaultError("SuperPeerCrash needs a peer name")

    def apply(self, net: Network) -> None:
        net.remove_super_peer(self.peer)

    def describe(self) -> str:
        return f"t={self.time:g}: super-peer {self.peer} crashes"


@dataclass(frozen=True)
class SuperPeerRejoin(FaultEvent):
    """A crashed super-peer reconnects with its surviving links."""

    peer: str = ""

    def __post_init__(self) -> None:
        super().__post_init__()
        if not self.peer:
            raise FaultError("SuperPeerRejoin needs a peer name")

    def apply(self, net: Network) -> None:
        net.restore_super_peer(self.peer)

    def describe(self) -> str:
        return f"t={self.time:g}: super-peer {self.peer} rejoins"


@dataclass(frozen=True)
class LinkFailure(FaultEvent):
    """One backbone connection fails; both endpoints stay up."""

    a: str = ""
    b: str = ""

    def __post_init__(self) -> None:
        super().__post_init__()
        if not self.a or not self.b:
            raise FaultError("LinkFailure needs both endpoints")

    def apply(self, net: Network) -> None:
        net.remove_link(self.a, self.b)

    def describe(self) -> str:
        return f"t={self.time:g}: link {Link(self.a, self.b)} fails"


@dataclass(frozen=True)
class LinkRestore(FaultEvent):
    """A failed connection comes back."""

    a: str = ""
    b: str = ""

    def __post_init__(self) -> None:
        super().__post_init__()
        if not self.a or not self.b:
            raise FaultError("LinkRestore needs both endpoints")

    def apply(self, net: Network) -> None:
        net.restore_link(self.a, self.b)

    def describe(self) -> str:
        return f"t={self.time:g}: link {Link(self.a, self.b)} restored"


class FaultSchedule:
    """An immutable, time-ordered list of fault events.

    Events are stably sorted by time, preserving the written order of
    simultaneous events.
    """

    def __init__(self, events: Iterable[FaultEvent] = ()) -> None:
        materialized = list(events)
        for event in materialized:
            if not isinstance(event, FaultEvent):
                raise FaultError(f"not a fault event: {event!r}")
        self._events: List[FaultEvent] = sorted(
            materialized, key=lambda event: event.time
        )

    # ------------------------------------------------------------------
    def events(self) -> List[FaultEvent]:
        return list(self._events)

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[FaultEvent]:
        return iter(self._events)

    def __bool__(self) -> bool:
        return bool(self._events)

    def describe(self) -> List[str]:
        return [event.describe() for event in self._events]


def single_crash(time: float, peer: str, rejoin_at: float = 0.0) -> FaultSchedule:
    """Convenience: one super-peer crash, optionally followed by a rejoin."""
    events: Sequence[FaultEvent] = (
        (SuperPeerCrash(time, peer), SuperPeerRejoin(rejoin_at, peer))
        if rejoin_at > time
        else (SuperPeerCrash(time, peer),)
    )
    return FaultSchedule(events)


def staggered_crashes(
    start: float,
    peers: Sequence[str],
    spacing: float = 2.0,
    downtime: float = 0.0,
) -> FaultSchedule:
    """A rolling-churn schedule: ``peers`` crash one after another.

    Peer ``i`` crashes at ``start + i * spacing``; ``downtime > 0``
    additionally rejoins each peer that long after its crash.  Staggered
    crashes are the stress pattern for plan repair: every event forces
    a repair and (on the sharded executor) a reconcile of every cell,
    and overlapping downtimes exercise repairs computed on an
    already-degraded backbone.
    """
    if spacing <= 0:
        raise FaultError(f"crash spacing must be > 0, got {spacing!r}")
    events: List[FaultEvent] = []
    for index, peer in enumerate(peers):
        crash_at = start + index * spacing
        events.append(SuperPeerCrash(crash_at, peer))
        if downtime > 0:
            events.append(SuperPeerRejoin(crash_at + downtime, peer))
    return FaultSchedule(events)
