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

Released usage is :meth:`Planner.stream_effects` — the walk that
committed it — so the ledger returns to exactly what a fresh
registration of the remaining queries would have committed (covered by
tests).  :func:`tear_down` is the only tear-down: deregistration, plan
repair and rebalancing all remove subscriptions through it.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Set, Tuple

from ..costmodel import PlanEffects
from .plan import Deployment, RegisteredQuery
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


def tear_down(
    planner: Planner, deployment: Deployment, names: Iterable[str]
) -> Tuple[Dict[str, RegisteredQuery], List[str]]:
    """Remove the subscriptions ``names`` and garbage-collect their
    streams; returns their records and the ids of the removed streams.

    Pop the records, release their post-processing load, sweep the
    streams nothing needs any more, apply the release.
    """
    try:
        records = {name: deployment.pop_query(name) for name in names}
    except KeyError as exc:
        raise DeregistrationError(f"unknown query {exc.args[0]!r}") from None

    release = PlanEffects()
    for record in records.values():
        for _, stream_id in record.delivered:
            stream = deployment.streams.get(stream_id)
            if stream is not None:
                rate = planner.stream_rate(stream.content)
                planner.charge(
                    release, record.subscriber_node, "restructure", rate.frequency
                )

    removed: List[str] = []
    while True:
        live = live_stream_ids(deployment)
        # Sorted by id: release/removal order (and with it the reported
        # removal list) must not depend on dict insertion order, so
        # indexed and brute-force registrations — which install streams
        # in different orders — tear down identically.
        dead = sorted(
            (s for s in deployment.streams.values() if s.stream_id not in live),
            key=lambda stream: stream.stream_id,
        )
        if not dead:
            break
        # Release every dead stream before deleting any: releasing a
        # derived stream needs its parent's rate, and the parent may
        # itself be dead in the same sweep.
        for stream in dead:
            planner.installed_effects(release, deployment, stream)
        for stream in dead:
            if deployment.release_stream(stream.stream_id):
                removed.append(stream.stream_id)
    deployment.commit_effects(release, sign=-1.0)
    return records, removed
