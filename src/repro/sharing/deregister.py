"""Query deregistration and stream garbage collection.

The paper registers continuous queries incrementally and notes they
"usually remain registered over long periods of time" — but every
subscription eventually ends.  Deregistration must respect sharing: a
stream created for one query may meanwhile serve others, so tear-down
is reference-counted:

1. the query records are removed (all names are checked first, so a
   call that names an unknown or repeated query changes nothing);
2. a stream is *dead* iff nothing references it: the
   :class:`~repro.sharing.plan.Deployment` counts, per installed
   stream, the deliveries that name it plus its installed children,
   and keeps the derived streams whose count is 0.  The sweep starts
   there and follows parents whose every reference dies with them;
   originals are never dead;
3. dead streams are removed and their estimated resource commitments
   are released from the usage ledger (traffic on their routes,
   pipeline/duplicate/transfer work, the query's restructuring work).

Released usage is :meth:`Planner.stream_effects` — the walk that
committed it — so the ledger returns to exactly what a fresh
registration of the remaining queries would have committed (covered by
tests).  :func:`tear_down` is the only tear-down: deregistration, plan
repair and rebalancing all remove subscriptions through it, and its
cost follows what it removes, not the size of the deployment.
:func:`live_stream_ids` is the reference walk over the whole
deployment, kept for the analyses and the tests that check the counts.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Set, Tuple

from ..costmodel import PlanEffects
from .plan import Deployment, RegisteredQuery
from .planner import Planner


class DeregistrationError(Exception):
    """Raised for unknown or repeated queries."""


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


def _dead_streams(deployment: Deployment) -> List[str]:
    """Ids of the streams nothing needs, in id order: the unreferenced
    derived streams, then every derived parent whose references all
    come from dead streams."""
    streams, refcounts = deployment.streams, deployment.refcounts
    dead: List[str] = []
    lost: Dict[str, int] = {}
    pending = list(deployment.unreferenced)
    while pending:
        stream_id = pending.pop()
        dead.append(stream_id)
        parent_id = streams[stream_id].parent_id
        if parent_id is None or parent_id not in streams or streams[parent_id].is_original:
            continue
        lost[parent_id] = lost.get(parent_id, 0) + 1
        if lost[parent_id] == refcounts[parent_id]:
            pending.append(parent_id)
    # Sorted by id: release/removal order (and with it the reported
    # removal list) must not depend on set or dict order, so indexed and
    # brute-force registrations — which install streams in different
    # orders — tear down identically.
    return sorted(dead)


def tear_down(
    planner: Planner, deployment: Deployment, names: Iterable[str]
) -> Tuple[Dict[str, RegisteredQuery], List[str]]:
    """Remove the subscriptions ``names`` and garbage-collect their
    streams; returns their records and the ids of the removed streams.

    Check the names, pop the records, release their post-processing
    load, sweep the streams nothing references any more, apply the
    release.
    """
    names = list(names)
    seen: Set[str] = set()
    for name in names:
        if name not in deployment.queries:
            raise DeregistrationError(f"unknown query {name!r}")
        if name in seen:
            raise DeregistrationError(f"query {name!r} named twice")
        seen.add(name)
    records = {name: deployment.pop_query(name) for name in names}

    release = PlanEffects()
    for record in records.values():
        for _, stream_id in record.delivered:
            stream = deployment.streams.get(stream_id)
            if stream is not None:
                rate = planner.stream_rate(stream.content)
                planner.charge(
                    release, record.subscriber_node, "restructure", rate.frequency
                )

    removed = _dead_streams(deployment)
    # Release every dead stream before deleting any: releasing a derived
    # stream needs its parent's rate, and the parent may itself be dead.
    for stream_id in removed:
        planner.installed_effects(release, deployment, deployment.streams[stream_id])
    for stream_id in removed:
        deployment.release_stream(stream_id)
    deployment.commit_effects(release, sign=-1.0)
    return records, removed
