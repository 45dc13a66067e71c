"""Static verification of a deployed stream network (pass "a").

Given a :class:`~repro.sharing.plan.Deployment` and its
:class:`~repro.network.topology.Network`, check every invariant the
incremental registration algorithm relies on but nothing re-checks at
runtime:

* **routes** — every installed stream's route is a cycle-free connected
  path rooted at its origin node, using only real topology links
  (``P101``–``P104``);
* **sharing index** — the availability index, the deployment's one
  record of where a stream is available, mirrors the routes: it lists
  exactly the installed streams at exactly their route nodes, under the
  keys of their current content; and the reference counts garbage
  collection sweeps by are a recount (``P14x``);
* **derivation** — parents exist, taps sit on parent routes, originals
  carry no pipeline, and every child's content is actually producible
  from its parent (``P11x``);
* **delivery** — each subscription's delivered streams exist, terminate
  at the subscriber's super-peer, and satisfy the recorded per-input
  requirement (``P12x``);
* **usage ledger** — the committed traffic/load that feeds ``a_b(e)``
  and ``a_l(v)`` is consistent with the set of installed pipelines: no
  negative or ghost commitments, and no installed stream whose traffic
  or pipeline work was never committed (``P13x``);
* **operator typing** — every derived stream's compensation pipeline
  type-checks stage-to-stage against the stream's schema (``T2xx``,
  see :mod:`repro.properties.typecheck`); subscription texts, and so
  stream contents, are typed at registration and not re-typed here.

The verifier is read-only and cheap (linear in streams × route length),
so :class:`~repro.sharing.system.StreamGlobe` can afford to run it as a
pre-flight hook after every registration.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, Optional, Set, Tuple

from ..costmodel.statistics import StatisticsCatalog
from ..matching import match_stream_properties
from ..sharing.index import IndexKeys, index_keys
from ..sharing.plan import Deployment, InstalledStream
from ..diagnostics import AnalysisReport
from ..properties.typecheck import SchemaView, check_pipeline

__all__ = ["verify_deployment"]

#: Negative-commitment tolerance (mirrors the deregistration ledger).
_NEGATIVE_EPS = 1e-6
#: Float dust left by commit/release round-trips; anything below is
#: treated as "no commitment".
_DUST_EPS = 1e-3


def verify_deployment(
    deployment: Deployment,
    catalog: Optional[StatisticsCatalog] = None,
    title: str = "deployment verification",
) -> AnalysisReport:
    """Statically verify ``deployment``; returns the full report
    (compensation pipelines are typed only against a ``catalog``)."""
    report = AnalysisReport(title=title)
    views = _build_views(deployment, catalog)

    for stream in deployment.streams.values():
        _check_route(deployment, stream, report)
        _check_derivation(deployment, stream, report, views)
    _check_sharing_index(deployment, report)
    _check_reference_counts(deployment, report)
    _check_deliveries(deployment, report)
    _check_usage_ledger(deployment, report)
    return report


# ----------------------------------------------------------------------
# Schema views
# ----------------------------------------------------------------------
def _build_views(
    deployment: Deployment, catalog: Optional[StatisticsCatalog]
) -> Dict[str, SchemaView]:
    if catalog is None:
        return {}
    names = {stream.content.stream for stream in deployment.streams.values()}
    return {
        name: SchemaView.from_statistics(catalog.for_stream(name))
        for name in names
        if name in catalog
    }


# ----------------------------------------------------------------------
# P10x — routes
# ----------------------------------------------------------------------
def _check_route(
    deployment: Deployment, stream: InstalledStream, report: AnalysisReport
) -> None:
    net = deployment.net
    subject = f"stream {stream.stream_id!r}"
    for node in stream.route:
        if node not in net:
            report.add(
                "P101", subject, f"route node {node!r} does not exist in the topology"
            )
            return
    if stream.route[0] != stream.origin_node:
        report.add(
            "P104",
            subject,
            f"route starts at {stream.route[0]!r}, not at the origin node "
            f"{stream.origin_node!r}",
        )
    for a, b in stream.links():
        if not net.has_link(a, b):
            report.add(
                "P102",
                subject,
                f"route uses non-existent link {a}-{b}",
                hint="plans may only route along real topology edges",
            )
    repeats = [node for node, count in Counter(stream.route).items() if count > 1]
    if repeats:
        report.add(
            "P103",
            subject,
            f"route visits {', '.join(sorted(repeats))} more than once",
            hint="evaluation plans route streams along cycle-free trees "
            "(Section 3.3); a repeated node means a routing cycle",
        )


# ----------------------------------------------------------------------
# P14x — sharing index (indexed candidate lookup)
# ----------------------------------------------------------------------
def _check_sharing_index(deployment: Deployment, report: AnalysisReport) -> None:
    """The inverted index must mirror the deployment exactly.

    Indexed registration trusts the index as the *complete* candidate
    set: a missing entry silently hides a shareable stream (worse plans,
    never caught at runtime), a stale entry resurrects a released one.

    * ``P140`` — the index lists a stream that is not installed;
    * ``P141`` — the index lists a stream at a node off its route;
    * ``P142`` — an installed stream is missing from the index at some
      node of its route (or entirely);
    * ``P143`` — a stream is indexed under a signature, selection key
      or content other than those of its current content.
    """
    index = deployment.sharing_index
    listed_nodes: Dict[str, Set[str]] = {}
    for node, stream_id, _ in index.entries():
        stream = deployment.streams.get(stream_id)
        if stream is None:
            report.add(
                "P140",
                f"node {node}",
                f"sharing index lists stream {stream_id!r}, which is not "
                "installed (stale entry)",
                hint="release_stream must discard the stream from the "
                "sharing index atomically",
            )
            continue
        if node not in stream.route:
            report.add(
                "P141",
                f"stream {stream_id!r}",
                f"sharing index lists the stream at {node}, which is not on "
                f"its route {'-'.join(stream.route)}",
            )
        listed_nodes.setdefault(stream_id, set()).add(node)

    for stream in deployment.streams.values():
        subject = f"stream {stream.stream_id!r}"
        stored = index.keys_of(stream.stream_id)
        if stored is None:
            report.add(
                "P142",
                subject,
                "stream is missing from the sharing index entirely",
                hint="install_stream must add every stream to the sharing "
                "index",
            )
            continue
        missing = set(stream.route) - listed_nodes.get(stream.stream_id, set())
        if missing:
            report.add(
                "P142",
                subject,
                f"sharing index misses the stream at route node(s) "
                f"{', '.join(sorted(missing))}",
            )
        stale = [
            name
            for name, have, want in zip(
                IndexKeys._fields, stored, index_keys(stream.content)
            )
            if have != want
        ]
        if stale:
            report.add(
                "P143",
                subject,
                f"indexed {' and '.join(stale)} key(s) do not match the "
                "stream's current content (indexed lookups would mis-group it)",
                hint="a stream whose content changes must be re-keyed "
                "(Deployment.replace_stream)",
            )


def _check_reference_counts(deployment: Deployment, report: AnalysisReport) -> None:
    """``P144`` — the reference counts must be a recount.

    The tear-down collects exactly what the counts say nothing
    references: a count too high leaks a dead stream (and its ledger
    commitments) forever, one too low releases a stream a delivery
    still reads.  Per installed stream the count is the deliveries that
    name it plus its installed children, and the unreferenced set is
    the derived streams whose count is 0.
    """
    streams = deployment.streams
    expected: Dict[str, int] = {stream_id: 0 for stream_id in streams}
    for stream in streams.values():
        if stream.parent_id is not None and stream.parent_id in expected:
            expected[stream.parent_id] += 1
    for record in deployment.queries.values():
        for _, stream_id in record.delivered:
            if stream_id in expected:
                expected[stream_id] += 1
    stored = deployment.refcounts
    for stream_id in sorted(set(expected) | set(stored)):
        have, want = stored.get(stream_id), expected.get(stream_id)
        if have != want:
            report.add(
                "P144",
                f"stream {stream_id!r}",
                f"reference count is {have}, but {want} deliveries and "
                "installed children reference it",
                hint="install_stream, release_stream, register_query, "
                "pop_query and replace_query keep the counts",
            )
    unreferenced = {
        stream_id
        for stream_id, count in expected.items()
        if count == 0 and not streams[stream_id].is_original
    }
    for stream_id in sorted(unreferenced ^ deployment.unreferenced):
        listed = stream_id in deployment.unreferenced
        report.add(
            "P144",
            f"stream {stream_id!r}",
            "listed as unreferenced, but it is referenced, original or "
            "not installed"
            if listed
            else "nothing references the derived stream, but it is not "
            "listed as unreferenced (the tear-down would never collect it)",
        )


# ----------------------------------------------------------------------
# P11x — derivation
# ----------------------------------------------------------------------
def _check_derivation(
    deployment: Deployment,
    stream: InstalledStream,
    report: AnalysisReport,
    views: Dict[str, SchemaView],
) -> None:
    subject = f"stream {stream.stream_id!r}"
    if stream.parent_id is None:
        if stream.pipeline:
            report.add(
                "P112", subject, "an original source stream must carry no pipeline"
            )
        return

    parent = deployment.streams.get(stream.parent_id)
    if parent is None:
        report.add(
            "P110",
            subject,
            f"parent stream {stream.parent_id!r} is not installed (orphaned pipeline)",
        )
        return
    if stream.origin_node not in parent.route:
        report.add(
            "P111",
            subject,
            f"taps parent {stream.parent_id!r} at {stream.origin_node}, which is "
            f"not on the parent's route {'-'.join(parent.route)}",
            hint="a stream is only available for sharing at nodes on its route",
        )
    if parent.content.stream != stream.content.stream:
        report.add(
            "P114",
            subject,
            f"original input stream changes along the derivation "
            f"({parent.content.stream!r} → {stream.content.stream!r})",
        )
    elif not match_stream_properties(parent.content, stream.content):
        report.add(
            "P113",
            subject,
            f"content is not derivable from parent {stream.parent_id!r} "
            "(Algorithm 2 rejects the pair)",
            hint="the compensation pipeline cannot create data its input "
            "does not contain",
        )
    view = views.get(stream.content.stream)
    if view is not None:
        report.extend(
            check_pipeline(parent.content, stream.pipeline, view, subject)
        )


# ----------------------------------------------------------------------
# P12x — delivery
# ----------------------------------------------------------------------
def _check_deliveries(deployment: Deployment, report: AnalysisReport) -> None:
    for record in deployment.queries.values():
        subject = f"query {record.name!r}"
        for input_stream, stream_id in record.delivered:
            delivered = deployment.streams.get(stream_id)
            if delivered is None:
                report.add(
                    "P120",
                    subject,
                    f"delivered stream {stream_id!r} is not installed",
                )
                continue
            if delivered.target_node != record.subscriber_node:
                report.add(
                    "P121",
                    subject,
                    f"stream {stream_id!r} terminates at {delivered.target_node}, "
                    f"but the subscriber sits at {record.subscriber_node}",
                )
            try:
                needed = record.properties.input_for(input_stream)
            except KeyError:
                report.add(
                    "P123",
                    subject,
                    f"no requirement recorded for input stream {input_stream!r}",
                )
                continue
            # The delivered stream must BE the required content, or at
            # least be able to answer it (widening restores may deliver
            # a superset that the restore pipeline narrows).
            if delivered.content != needed and not match_stream_properties(
                delivered.content, needed
            ):
                report.add(
                    "P122",
                    subject,
                    f"delivered stream {stream_id!r} does not satisfy the "
                    f"subscription's requirement on {input_stream!r}",
                )


# ----------------------------------------------------------------------
# P13x — usage ledger (the a_b / a_l bookkeeping)
# ----------------------------------------------------------------------
def _check_usage_ledger(deployment: Deployment, report: AnalysisReport) -> None:
    net = deployment.net
    usage = deployment.usage

    used_links: Set[Tuple[str, str]] = set()
    active_peers: Set[str] = set()
    for stream in deployment.streams.values():
        for a, b in stream.links():
            used_links.add((a, b) if a < b else (b, a))
        active_peers.update(stream.route)
    for record in deployment.queries.values():
        active_peers.add(record.subscriber_node)

    for (a, b), bits in usage._link_bits.items():
        if bits < -_NEGATIVE_EPS:
            report.add(
                "P130",
                f"link {a}-{b}",
                f"negative committed traffic ({bits:.3f} bit/s)",
            )
        elif bits > _DUST_EPS and (a, b) not in used_links:
            report.add(
                "P131",
                f"link {a}-{b}",
                f"ledger commits {bits:.1f} bit/s but no installed stream "
                "routes over this link (stale a_b)",
            )
    for peer, work in usage._peer_work.items():
        if work < -_NEGATIVE_EPS:
            report.add(
                "P130", f"peer {peer}", f"negative committed work ({work:.3f} units/s)"
            )
        elif work > _DUST_EPS and peer not in active_peers:
            report.add(
                "P132",
                f"peer {peer}",
                f"ledger commits {work:.1f} units/s of work but no installed "
                "stream or subscription touches this peer (stale a_l)",
            )

    for stream in deployment.streams.values():
        if stream.parent_id is None:
            continue
        subject = f"stream {stream.stream_id!r}"
        for a, b in stream.links():
            link = net.link(a, b) if net.has_link(a, b) else None
            if link is not None and usage.link_traffic(link) <= _DUST_EPS:
                report.add(
                    "P133",
                    subject,
                    f"stream is routed over {a}-{b} but the ledger shows no "
                    "committed traffic there (stale a_b)",
                    hint="installing a stream must commit its estimated "
                    "effects; see Deployment.commit_effects",
                )
        if stream.pipeline and usage.peer_work(stream.origin_node) <= _DUST_EPS:
            report.add(
                "P134",
                subject,
                f"pipeline runs at {stream.origin_node} but the ledger shows "
                "no committed work there (stale a_l)",
            )
    for record in deployment.queries.values():
        if usage.peer_work(record.subscriber_node) <= _DUST_EPS:
            report.add(
                "P135",
                f"query {record.name!r}",
                f"no work committed at the subscriber's super-peer "
                f"{record.subscriber_node} (missing post-processing load)",
            )
