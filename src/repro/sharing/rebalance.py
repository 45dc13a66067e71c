"""Adaptive re-optimization: live plan migration under load drift.

Plans are placed once at registration and only change on faults, so
sustained load drift — a source whose rate quadruples, a hot spot
wandering into another query's region — leaves the originally cheapest
super-peer saturated while the rest of the network idles.
:class:`Rebalancer` closes the loop between the observability plane
and the control plane (DESIGN.md §13):

1. the executor feeds it the per-epoch :class:`~repro.obs.EpochSnapshot`
   series; a :class:`~repro.obs.DriftDetector` turns those into
   sustained-overload alerts (windowed means + hysteresis, so photon
   bursts and fault transients don't trigger churn);
2. on an alert, :meth:`migrate` re-plans every subscription whose
   delivery chain places operator work on a hot super-peer, with
   plan repair's two primitives: tear the affected subscriptions down
   (:func:`~repro.sharing.deregister.tear_down`: garbage-collecting
   their now-unshared streams and releasing the estimated
   commitments), then re-register each one
   (:meth:`StreamGlobe.reregister`) — *with the planner's cost
   model temporarily wrapped to surcharge work placed on hot peers*,
   so Algorithm 1's strict-``<`` comparison steers new operator
   placements away from the hotspot;
3. the rewritten deployment passes the PR 1 verified pre-flight
   (``verify=True`` systems), exactly like churn repair does.

The cost-model swap only biases the *choice* among candidate plans:
committed :class:`~repro.costmodel.PlanEffects` stay the unbiased
estimates, so the usage ledger the P13x invariants check is untouched.

Migration is a control-plane rewrite at a quiescent epoch boundary —
make-before-break: the executor reconciles the running pipelines
against the rewritten deployment with an *open* delivery gate, so a
fault-free migration loses and duplicates nothing (pinned by the
conservation tests).  Windowed operators restart their windows across
a move, same as repair (DESIGN.md §8).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from ..costmodel import CostModel, NetworkUsage, PlanEffects
from ..obs.drift import DriftAlert, DriftConfig, DriftDetector
from ..obs.timeseries import EpochSnapshot
from .deregister import tear_down
from .plan import RegisteredQuery
from .planner import PlanningError
from .subscribe import RegistrationResult

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .system import StreamGlobe

__all__ = ["HotPeerCostModel", "MigrationReport", "Rebalancer"]

#: Default surcharge per unit of *relative* load (work/capacity) a
#: candidate plan places on a hot peer.  Large against the cost
#: function's O(1) relative terms, so any feasible placement avoiding
#: the hot peer wins; finite, so a plan *through* the hot peer still
#: beats no plan when the topology offers nothing else.
HOT_PEER_PENALTY = 1000.0


class HotPeerCostModel:
    """A :class:`~repro.costmodel.CostModel` wrapper that surcharges
    operator work placed on the given hot peers.

    Only :meth:`plan_cost` is biased — the admission-control
    :meth:`overloads` test and everything else delegate to the base
    model, and the effects committed to the usage ledger are produced
    upstream of costing, so the bias can never leak into accounting.
    """

    def __init__(
        self,
        base: CostModel,
        hot_peers: Sequence[str],
        penalty: float = HOT_PEER_PENALTY,
    ) -> None:
        self._base = base
        self._hot = frozenset(hot_peers)
        self._penalty = penalty

    def plan_cost(self, effects: PlanEffects, usage: NetworkUsage) -> float:
        cost = self._base.plan_cost(effects, usage)
        for peer, work in effects.peer_work.items():
            if peer in self._hot:
                cost += self._penalty * (work / self._base.peer_capacity(peer))
        return cost

    def overloads(self, effects: PlanEffects, usage: NetworkUsage) -> bool:
        return self._base.overloads(effects, usage)

    def __getattr__(self, name: str):
        return getattr(self._base, name)


@dataclass
class MigrationReport:
    """What one migration pass moved, and what it bought.

    ``peer_work_before``/``peer_work_after`` record the usage ledger's
    committed work on every hot peer around the rewrite — the
    control-plane cost delta the benchmark reports (the measured
    per-epoch CPU% delta shows up in the run's time series).
    """

    context: str
    epoch_index: int
    hot_peers: Tuple[str, ...]
    moved_queries: List[str] = field(default_factory=list)
    removed_streams: List[str] = field(default_factory=list)
    reregistered: List[RegistrationResult] = field(default_factory=list)
    peer_work_before: Dict[str, float] = field(default_factory=dict)
    peer_work_after: Dict[str, float] = field(default_factory=dict)

    @property
    def migrated_queries(self) -> List[str]:
        return [r.query for r in self.reregistered if r.accepted]

    def hot_work_released(self) -> float:
        """Total committed work the rewrite took off the hot peers."""
        return sum(
            self.peer_work_before.get(peer, 0.0)
            - self.peer_work_after.get(peer, 0.0)
            for peer in self.hot_peers
        )

    def summary(self) -> str:
        return (
            f"{self.context}: {len(self.moved_queries)} quer(ies) moved off "
            f"{', '.join(self.hot_peers)}, "
            f"{len(self.removed_streams)} stream(s) rebuilt, "
            f"{self.hot_work_released():.1f} work/s released"
        )


class Rebalancer:
    """Consumes the epoch stream, migrates plans off sustained hotspots.

    One instance is handed to :meth:`StreamGlobe.run
    <repro.sharing.system.StreamGlobe.run>`; the executor calls
    :meth:`observe_epoch` at every sampled epoch boundary (a quiescent
    barrier on both executors) and applies the returned migration via
    the same reconcile machinery churn repair uses.
    """

    def __init__(
        self,
        system: "StreamGlobe",
        config: Optional[DriftConfig] = None,
        penalty: float = HOT_PEER_PENALTY,
        max_migrations: Optional[int] = None,
    ) -> None:
        self.system = system
        self.detector = DriftDetector(config or DriftConfig())
        self.penalty = penalty
        #: Optional hard cap on migration passes per run (None = unlimited).
        self.max_migrations = max_migrations
        #: Every migration applied so far, in epoch order.
        self.reports: List[MigrationReport] = []

    # ------------------------------------------------------------------
    def observe_epoch(self, snapshot: EpochSnapshot) -> Optional[MigrationReport]:
        """Feed one *global* epoch snapshot; migrate on sustained drift.

        Returns the applied :class:`MigrationReport`, or ``None`` when
        the epoch raised no alert or nothing movable lives on the hot
        peers.  The caller (the executor) owns making the boundary
        quiescent and reconciling the data plane afterwards.
        """
        alerts = self.detector.observe(snapshot)
        if not alerts:
            return None
        if self.max_migrations is not None and len(self.reports) >= self.max_migrations:
            return None
        alert = alerts[0]
        report = self.migrate(alert)
        if report is None or not report.moved_queries:
            return None
        self.reports.append(report)
        return report

    # ------------------------------------------------------------------
    def migrate(self, alert: DriftAlert) -> Optional[MigrationReport]:
        """One migration pass: re-plan everything working on hot peers.

        Mirrors :meth:`PlanRepairer.repair
        <repro.sharing.repair.PlanRepairer.repair>`'s teardown /
        re-register structure — the topology is intact here, so unlike
        repair there is no damage closure and no pending parking: every
        torn-down subscription re-registers (with the hot-peer
        surcharge; retried unbiased if the surcharged search fails,
        which cannot lose plans the original registration found).
        """
        system = self.system
        deployment = system.deployment
        recorder = system.recorder
        hot = tuple(alert.peer_names)
        context = f"load drift at epoch {alert.epoch_index}"

        affected = self._affected_queries(hot)
        if not affected:
            return None

        report = MigrationReport(
            context=context, epoch_index=alert.epoch_index, hot_peers=hot
        )
        report.peer_work_before = {
            peer: deployment.usage.peer_work(peer) for peer in hot
        }

        with recorder.span(
            "rebalance", context=context, hot_peers=list(hot)
        ) as rebalance_span:
            with recorder.span("rebalance.teardown") as span:
                # Streams no surviving subscription shares are
                # garbage-collected and their estimated commitments
                # released — the tear-down the repair path runs,
                # against an undamaged topology.
                popped, report.removed_streams = tear_down(
                    system.planner, deployment, affected
                )
                report.moved_queries = sorted(popped)
                if recorder.enabled:
                    span.set(
                        moved_queries=len(popped),
                        removed_streams=len(report.removed_streams),
                    )

            with recorder.span("rebalance.reregister") as span:
                base_model = system.planner.cost_model
                biased = HotPeerCostModel(base_model, hot, self.penalty)
                try:
                    for _, record in sorted(popped.items()):
                        report.reregistered.append(
                            self._reregister(record, biased, base_model)
                        )
                finally:
                    system.planner.cost_model = base_model
                if recorder.enabled:
                    span.set(reregistered=len(report.migrated_queries))

            report.peer_work_after = {
                peer: deployment.usage.peer_work(peer) for peer in hot
            }
            if recorder.enabled:
                rebalance_span.set(summary=report.summary())

        if recorder.enabled:
            recorder.event(
                "migration.report",
                context=context,
                epoch_index=alert.epoch_index,
                hot_peers=list(hot),
                moved_queries=len(report.moved_queries),
                removed_streams=len(report.removed_streams),
                queries_migrated=len(report.migrated_queries),
                hot_work_released=report.hot_work_released(),
            )

        system.preflight(f"after rebalance migration ({context})")
        return report

    # ------------------------------------------------------------------
    def _affected_queries(self, hot_peers: Tuple[str, ...]) -> List[str]:
        """Queries whose delivery chain runs operator work on a hot peer.

        Operator work is billed at a derived stream's origin (tap)
        node, so a subscription is movable when any *derived* stream in
        its delivered chains' parent closure originates on a hot peer.
        Original streams are pinned to their source's home — they never
        make a query movable by themselves.
        """
        deployment = self.system.deployment
        hot = set(hot_peers)
        affected: List[str] = []
        for name in sorted(deployment.queries):
            record = deployment.queries[name]
            chain: List[str] = [sid for _, sid in record.delivered]
            seen = set(chain)
            movable = False
            while chain:
                stream = deployment.streams.get(chain.pop())
                if stream is None:
                    continue
                if stream.parent_id is not None and stream.origin_node in hot:
                    movable = True
                    break
                if stream.parent_id is not None and stream.parent_id not in seen:
                    seen.add(stream.parent_id)
                    chain.append(stream.parent_id)
            # Restructuring/delivery work bills at the subscriber node.
            if movable or record.subscriber_node in hot:
                affected.append(name)
        return affected

    def _reregister(
        self, record: RegisteredQuery, biased: HotPeerCostModel, unbiased: CostModel
    ) -> RegistrationResult:
        """Re-register one torn-down subscription, never losing it.

        The surcharged search can only fail where the unbiased search
        would (the penalty is finite), but re-plan defensively: on a
        surcharged :class:`PlanningError` or rejection, retry with the
        base model — the topology is intact, so the original plan shape
        is always still available.
        """
        system = self.system
        system.planner.cost_model = biased
        try:
            result = system.reregister(record)
            if result.accepted:
                return result
        except PlanningError:
            pass
        system.planner.cost_model = unbiased
        result = system.reregister(record)
        if not result.accepted:
            raise PlanningError(
                f"migration could not re-register query {record.name!r}: "
                f"{result.rejection_reason or 'registration rejected'}"
            )
        return result
