"""Query deregistration and stream garbage collection.

The paper registers continuous queries incrementally and notes they
"usually remain registered over long periods of time" — but every
subscription eventually ends.  Deregistration must respect sharing: a
stream created for one query may meanwhile serve others, so tear-down
is reference-counted:

1. the query record is removed;
2. every stream is *live* iff some remaining query's delivery uses it,
   or a live stream derives from it (transitively), or it is an
   original registered source stream;
3. dead streams are removed and their estimated resource commitments
   are released from the usage ledger (traffic on their routes,
   pipeline/duplicate/transfer work, the query's restructuring work).

Released usage is recomputed with the same estimators that committed
it, so the ledger returns to exactly what a fresh registration of the
remaining queries would have committed (covered by tests).
"""

from __future__ import annotations

from typing import List, Optional, Set

from ..costmodel import PlanEffects, base_load
from .plan import Deployment, InstalledStream
from .planner import Planner


class DeregistrationError(Exception):
    """Raised for unknown queries."""


def live_stream_ids(deployment: Deployment) -> Set[str]:
    """Streams still needed: delivery roots plus all their ancestors,
    plus original source streams."""
    live: Set[str] = set()
    pending: List[str] = []
    for stream in deployment.streams.values():
        if stream.is_original:
            live.add(stream.stream_id)
    for record in deployment.queries.values():
        for _, stream_id in record.delivered:
            pending.append(stream_id)
    while pending:
        stream_id = pending.pop()
        if stream_id in live:
            continue
        live.add(stream_id)
        stream = deployment.streams.get(stream_id)
        if stream is not None and stream.parent_id is not None:
            pending.append(stream.parent_id)
    return live


class Deregistrar:
    """Removes queries and garbage-collects their streams."""

    def __init__(self, planner: Planner) -> None:
        self.planner = planner

    # ------------------------------------------------------------------
    def deregister(self, deployment: Deployment, query_name: str) -> List[str]:
        """Remove ``query_name``; return the ids of removed streams."""
        record = deployment.queries.pop(query_name, None)
        if record is None:
            raise DeregistrationError(f"unknown query {query_name!r}")

        # Release the query's own post-processing load.
        release = PlanEffects()
        for _, stream_id in record.delivered:
            stream = deployment.streams.get(stream_id)
            if stream is None:
                continue
            rate = self.planner.stream_rate(stream.content)
            self._charge(release, record.subscriber_node, "restructure", rate.frequency)

        removed = self._collect_garbage(deployment, release)
        self._apply_release(deployment, release)
        return removed

    # ------------------------------------------------------------------
    def _collect_garbage(
        self, deployment: Deployment, release: PlanEffects
    ) -> List[str]:
        removed: List[str] = []
        while True:
            live = live_stream_ids(deployment)
            # Sorted by id: release/removal order (and with it the
            # reported removal list) must not depend on dict insertion
            # order, so indexed and brute-force registrations — which
            # install streams in different orders — tear down
            # identically.
            dead = sorted(
                (
                    stream
                    for stream in deployment.streams.values()
                    if stream.stream_id not in live
                ),
                key=lambda stream: stream.stream_id,
            )
            if not dead:
                return removed
            # Release every dead stream before deleting any: releasing a
            # derived stream needs its parent's rate, and the parent may
            # itself be dead in the same sweep.
            for stream in dead:
                self.stream_effects(deployment, stream, release)
            for stream in dead:
                if deployment.release_stream(stream.stream_id):
                    removed.append(stream.stream_id)

    def stream_effects(
        self, deployment: Deployment, stream: InstalledStream, effects: PlanEffects
    ) -> None:
        """Add one installed stream's estimated commitments to
        ``effects``, mirroring the planner: what installing it commits
        (:meth:`StreamGlobe.install_derived_stream`) is what removing it
        releases."""
        net = self.planner.net
        rate = self.planner.stream_rate(stream.content)

        # Route traffic and forwarding work.  Lookups include removed
        # peers/links: plan repair tears down streams whose routes
        # crossed a crashed peer, and their commitments — estimated
        # against the pre-fault topology — must still be released.
        for a, b in stream.links():
            effects.add_link(net.link(a, b, include_removed=True), rate.bits_per_second)
        for sender in stream.route[:-1]:
            self._charge(effects, sender, "transfer", rate.frequency)

        # Tap duplication and pipeline work at the origin.
        parent = (
            deployment.streams.get(stream.parent_id)
            if stream.parent_id is not None
            else None
        )
        if parent is not None:
            parent_rate = self.planner.stream_rate(parent.content)
            # The planner charges one tap duplication per input chain, at
            # the node where the chain taps the reused stream.
            if stream.taps_parent:
                self._charge(
                    effects, stream.origin_node, "duplicate", parent_rate.frequency
                )
            frequency = parent_rate.frequency
            for spec in stream.pipeline:
                udf_name = getattr(spec, "name", None) if spec.kind == "udf" else None
                self._charge(
                    effects, stream.origin_node, spec.kind, frequency, udf_name
                )
                frequency = self.planner._stage_output_frequency(
                    spec, stream.content, frequency, rate.frequency
                )

    def _apply_release(self, deployment: Deployment, release: PlanEffects) -> None:
        for link, bits in release.link_bits.items():
            deployment.usage.add_link_traffic(link, -bits)
        for peer, work in release.peer_work.items():
            deployment.usage.add_peer_work(peer, -work)

    def _charge(
        self,
        effects: PlanEffects,
        node: str,
        kind: str,
        frequency: float,
        udf_name: Optional[str] = None,
    ) -> None:
        peer = self.planner.net.super_peer(node, include_removed=True)
        effects.add_peer(node, base_load(kind, udf_name) * peer.pindex * frequency)
