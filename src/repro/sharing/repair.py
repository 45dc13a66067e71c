"""Plan repair after backbone faults, and the re-plan pass it shares
with load migration.

When a super-peer crashes or a connection fails, every installed stream
whose route crossed the lost node or link stops flowing, and every
subscription fed (directly or transitively) by such a stream stops
receiving results.  :meth:`StreamGlobe.repair
<repro.sharing.system.StreamGlobe.repair>` restores the deployment to a
consistent, verifiable state against the *surviving* topology:

1. **damage analysis** (:func:`damaged_streams`) — a stream is damaged
   when any node or link on its route is gone; descendants of damaged
   streams are damaged transitively (their input dried up).  This is
   deliberately conservative: a child tapping its parent at the origin
   survives a break further downstream in reality, but tearing it down
   and letting re-registration rediscover the (still installed)
   surviving prefix keeps the analysis simple and the repaired state
   verifiable;
2. **re-planning** (:func:`replan`) — the affected subscriptions are
   torn down and their streams garbage-collected by
   :func:`~repro.sharing.deregister.tear_down`, releasing every
   estimated commitment (including those on now-removed peers and
   links, via the topology's removed-entity stash); then each one is
   registered afresh (:meth:`StreamGlobe.reregister`), exactly as a new
   query would be: Algorithm 1 searches the surviving topology and
   shares surviving streams.  Window state is *not* migrated —
   recovered windowed queries restart their windows (DESIGN.md §8);
3. **verification** — with ``verify=True`` the PR 1 plan verifier runs
   on the repaired deployment and raises on any violated invariant.

Subscriptions that cannot be re-registered *yet* — their subscriber's
or their source's super-peer is down, or the backbone is partitioned —
are parked on the system (:attr:`StreamGlobe.parked`) and retried
first by every later re-plan pass (a repair after a rejoin, a migration).

Migration (:meth:`Rebalancer.migrate
<repro.sharing.rebalance.Rebalancer.migrate>`) runs the same
:func:`replan` over the subscriptions working on hot peers, with a
cost-model bias tried first.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, List, Optional, Sequence, Set, Tuple

from ..costmodel import CostModel
from ..engine.executor import topological_streams
from ..network.topology import Network, TopologyError
from .deregister import tear_down
from .plan import Deployment, RegisteredQuery
from .planner import PlanningError
from .subscribe import RegistrationResult

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .system import StreamGlobe


@dataclass
class RepairReport:
    """What one repair pass found, tore down, and rebuilt."""

    context: str
    damaged_streams: List[str] = field(default_factory=list)
    removed_streams: List[str] = field(default_factory=list)
    torn_down_queries: List[str] = field(default_factory=list)
    reregistered: List[RegistrationResult] = field(default_factory=list)
    #: Subscriptions that could not be re-registered: ``(query, reason)``.
    pending: List[Tuple[str, str]] = field(default_factory=list)
    reinstalled_sources: List[str] = field(default_factory=list)

    @property
    def repaired_queries(self) -> List[str]:
        return [r.query for r in self.reregistered if r.accepted]

    def recovery_time_ms(self) -> float:
        """Stream time until the slowest re-registration completed.

        Re-registrations run concurrently on different super-peers, so
        recovery takes as long as the slowest one (the same latency
        model that produced Table 1's registration times).
        """
        return max(
            (r.registration_ms for r in self.reregistered if r.accepted),
            default=0.0,
        )

    def summary(self) -> str:
        return (
            f"{self.context}: {len(self.damaged_streams)} damaged stream(s), "
            f"{len(self.torn_down_queries)} quer(ies) torn down, "
            f"{len(self.repaired_queries)} re-registered, "
            f"{len(self.pending)} pending"
        )


def damaged_streams(deployment: Deployment, net: Network) -> Set[str]:
    """Installed streams whose route or some ancestor's route touches a
    removed node or link: one pass, parents before children."""
    damaged: Set[str] = set()
    for stream in topological_streams(deployment):
        if (
            stream.parent_id in damaged
            or any(node not in net for node in stream.route)
            or any(not net.has_link(a, b) for a, b in stream.links())
        ):
            damaged.add(stream.stream_id)
    return damaged


def replan(
    system: "StreamGlobe",
    phase: str,
    names: Sequence[str],
    *,
    release: Sequence[str] = (),
    bias: Optional[CostModel] = None,
) -> Tuple[List[str], List[str], List[RegistrationResult]]:
    """Tear the subscriptions ``names`` down and register them again.

    The one re-plan pass of plan repair (``phase`` ``"repair"``) and
    load migration (``"rebalance"``), in a ``<phase>.teardown`` and a
    ``<phase>.reregister`` span.  After the sweep, the original streams
    ``release`` are dropped: releasing a dead derived stream looks up
    its parent's rate, so an original must still be installed then.
    Re-registration takes the parked subscriptions first (they have
    waited longest), then the torn-down ones in name order.  Each one
    tries the ``bias`` cost model first, if given, then the planner's
    own; one that still fails is parked with its reason.

    Returns the torn-down names, the removed stream ids and the
    accepted re-registrations.
    """
    deployment = system.deployment
    recorder = system.recorder
    with recorder.span(f"{phase}.teardown") as span:
        popped, removed = tear_down(system.planner, deployment, names)
        for stream_id in release:
            deployment.release_stream(stream_id)
            removed.append(stream_id)
        if recorder.enabled:
            # A migration counts the queries it moves here; a repair's
            # damage span has counted them already.
            if bias is not None:
                span.set(moved_queries=len(popped))
            span.set(removed_streams=len(removed))

    with recorder.span(f"{phase}.reregister") as span:
        parked = system.parked
        records: List[RegisteredQuery] = [parked.pop(name)[0] for name in sorted(parked)]
        records.extend(record for _, record in sorted(popped.items()))
        reregistered: List[RegistrationResult] = []
        for record in records:
            result, reason = _try_reregister(system, record, bias)
            if result is None:
                parked[record.name] = (record, reason)
            else:
                reregistered.append(result)
        if recorder.enabled:
            span.set(reregistered=len(reregistered), pending=len(parked))
    return sorted(popped), removed, reregistered


def _try_reregister(
    system: "StreamGlobe", record: RegisteredQuery, bias: Optional[CostModel]
) -> Tuple[Optional[RegistrationResult], str]:
    """One subscription registered again, or why it cannot be yet."""
    if record.subscriber_node not in system.net:
        return None, f"subscriber super-peer {record.subscriber_node} is removed"
    missing = [
        sp.stream
        for sp in record.properties.input_streams()
        if sp.stream not in system.deployment.streams
    ]
    if missing:
        return None, f"original stream(s) unavailable: {', '.join(sorted(missing))}"
    planner = system.planner
    base = planner.cost_model
    reason = ""
    for model in (base,) if bias is None else (bias, base):
        planner.cost_model = model
        try:
            result = system.reregister(record)
        except (PlanningError, TopologyError) as exc:
            reason = str(exc)
            continue
        finally:
            planner.cost_model = base
        if result.accepted:
            return result, ""
        reason = result.rejection_reason or "registration rejected"
    return None, reason
