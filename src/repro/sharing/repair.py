"""Plan repair after backbone faults.

When a super-peer crashes or a connection fails, every installed stream
whose route crossed the lost node or link stops flowing, and every
subscription fed (directly or transitively) by such a stream stops
receiving results.  :class:`PlanRepairer` restores the deployment to a
consistent, verifiable state against the *surviving* topology:

1. **damage analysis** — a stream is damaged when any node or link on
   its route is gone; descendants of damaged streams are damaged
   transitively (their input dried up).  This is deliberately
   conservative: a child tapping its parent at the origin survives a
   break further downstream in reality, but tearing it down and letting
   re-registration rediscover the (still installed) surviving prefix
   keeps the analysis simple and the repaired state verifiable;
2. **tear-down** — affected subscriptions are removed and their streams
   garbage-collected by :func:`~repro.sharing.deregister.tear_down`,
   releasing every estimated commitment (including those on now-removed
   peers and links, via the topology's removed-entity stash);
3. **re-registration** — each affected subscription is registered
   afresh (:meth:`StreamGlobe.reregister`), exactly as a new query would be:
   Algorithm 1 searches the surviving topology and shares surviving
   streams.  Window state is *not* migrated — recovered windowed
   queries restart their windows (DESIGN.md §8);
4. **verification** — with ``verify=True`` the PR 1 plan verifier runs
   on the repaired deployment and raises on any violated invariant.

Subscriptions that cannot be repaired *yet* — their subscriber's or
their source's super-peer is down, or the backbone is partitioned —
are parked as *pending* and retried on every later repair (i.e. after
a rejoin).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Set, Tuple

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


class PlanRepairer:
    """Repairs a :class:`StreamGlobe` deployment after topology faults.

    Subscriptions that cannot be re-registered against the current
    topology are parked on the system (:attr:`StreamGlobe.parked`) and
    retried on every subsequent :meth:`repair` call, by this repairer
    or another one over the same system, so a rejoin heals them
    automatically.  A repairer holds nothing else: build one per use
    (:meth:`StreamGlobe.plan_repairer`).
    """

    def __init__(self, system: "StreamGlobe") -> None:
        self.system = system
        self._pending: Dict[str, Tuple[RegisteredQuery, str]] = system.parked

    # ------------------------------------------------------------------
    @property
    def pending(self) -> List[Tuple[str, str]]:
        """Currently unrepairable subscriptions as ``(query, reason)``."""
        return [(name, reason) for name, (_, reason) in sorted(self._pending.items())]

    # ------------------------------------------------------------------
    def repair(self, context: str = "topology fault") -> RepairReport:
        """One repair pass against the system's current topology."""
        system = self.system
        deployment = system.deployment
        net = system.net
        recorder = system.recorder
        report = RepairReport(context=context)

        with recorder.span("repair", context=context) as repair_span:
            with recorder.span("repair.damage") as span:
                # Original streams whose home super-peer rejoined.
                for name, source in system.sources.items():
                    if name not in deployment.streams and source.home_node in net:
                        deployment.install_stream(source.stream())
                        report.reinstalled_sources.append(name)

                damaged = self._damaged_closure(deployment, net)
                report.damaged_streams = sorted(damaged)

                # Every subscription whose subscriber vanished or whose
                # delivery chain touches a damaged stream.
                affected_names = [
                    name
                    for name, record in deployment.queries.items()
                    if record.subscriber_node not in net
                    or any(
                        stream_id not in deployment.streams or stream_id in damaged
                        for _, stream_id in record.delivered
                    )
                ]
                report.torn_down_queries = sorted(affected_names)
                if recorder.enabled:
                    span.set(
                        damaged_streams=len(damaged),
                        torn_down_queries=len(report.torn_down_queries),
                    )

            with recorder.span("repair.teardown") as span:
                # With their consumers gone, damaged derived streams are
                # dead and the sweep releases their commitments —
                # estimated against the pre-fault topology.
                affected, report.removed_streams = tear_down(
                    system.planner, deployment, affected_names
                )
                # Damaged *original* streams (their source's home
                # crashed) are never garbage — drop them explicitly, and
                # only after the sweep: releasing a dead derived stream
                # looks up its parent's rate, so the original must still
                # be installed then.  The originals themselves carry no
                # committed effects (single-node route, no pipeline).
                for stream_id in sorted(damaged):
                    stream = deployment.streams.get(stream_id)
                    if stream is not None and stream.is_original:
                        deployment.release_stream(stream_id)
                        report.removed_streams.append(stream_id)
                if recorder.enabled:
                    span.set(removed_streams=len(report.removed_streams))

            with recorder.span("repair.reregister") as span:
                # Re-registration: previously pending subscriptions
                # first (they have waited longest), then this fault's,
                # each in name order.
                candidates: List[Tuple[str, RegisteredQuery]] = [
                    (name, self._pending.pop(name)[0])
                    for name in sorted(self._pending)
                ]
                candidates.extend(sorted(affected.items()))
                for name, record in candidates:
                    self._reregister(deployment, net, name, record, report)
                report.pending = self.pending
                if recorder.enabled:
                    span.set(
                        reregistered=len(report.repaired_queries),
                        pending=len(report.pending),
                    )

            if recorder.enabled:
                repair_span.set(summary=report.summary())

        if recorder.enabled:
            recorder.event(
                "repair.report",
                context=context,
                damaged_streams=len(report.damaged_streams),
                removed_streams=len(report.removed_streams),
                torn_down_queries=len(report.torn_down_queries),
                queries_repaired=len(report.repaired_queries),
                queries_lost=len(report.pending),
                sources_reinstalled=len(report.reinstalled_sources),
                recovery_time_ms=report.recovery_time_ms(),
            )

        system.preflight(f"after plan repair ({context})")
        return report

    # ------------------------------------------------------------------
    @staticmethod
    def _damaged_closure(deployment: Deployment, net: Network) -> Set[str]:
        damaged: Set[str] = set()
        for stream in deployment.streams.values():
            if any(node not in net for node in stream.route) or any(
                not net.has_link(a, b) for a, b in stream.links()
            ):
                damaged.add(stream.stream_id)
        # Descendants of damaged streams lost their input.
        changed = True
        while changed:
            changed = False
            for stream in deployment.streams.values():
                if (
                    stream.stream_id not in damaged
                    and stream.parent_id is not None
                    and stream.parent_id in damaged
                ):
                    damaged.add(stream.stream_id)
                    changed = True
        return damaged

    def _reregister(
        self,
        deployment: Deployment,
        net: Network,
        name: str,
        record: RegisteredQuery,
        report: RepairReport,
    ) -> None:
        if record.subscriber_node not in net:
            self._park(
                record, f"subscriber super-peer {record.subscriber_node} is removed"
            )
            return
        missing = [
            sp.stream
            for sp in record.properties.input_streams()
            if sp.stream not in deployment.streams
        ]
        if missing:
            self._park(
                record,
                f"original stream(s) unavailable: {', '.join(sorted(missing))}",
            )
            return
        try:
            result = self.system.reregister(record)
        except (PlanningError, TopologyError) as exc:
            self._park(record, str(exc))
            return
        if not result.accepted:
            self._park(record, result.rejection_reason or "registration rejected")
            return
        report.reregistered.append(result)

    def _park(self, record: RegisteredQuery, reason: str) -> None:
        self._pending[record.name] = (record, reason)

    def is_parked(self, name: str) -> bool:
        return name in self._pending
