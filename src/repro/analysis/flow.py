"""Abstract interpretation over the deployed stream network (flow pass).

The plan verifier (P1xx) checks *point* invariants on a finished
deployment; this pass *derives* facts about it.  Per installed stream it
computes :class:`FlowFacts` — an interval-valued abstraction of the
stream's runtime behaviour — by propagating facts from the original
source streams through every compensation pipeline in topological
(parent-before-child) order.

Abstract domain
---------------

``FlowFacts`` is the product of three components:

* ``frequency`` — an :class:`Interval` of emissions per virtual second;
* ``item_size`` — an :class:`Interval` of serialized bytes per item;
* ``burst`` — an additive, duration-independent count slack.

The concretisation is: over any run of virtual duration ``D``, the
stream produces between ``⌊frequency.lo · D⌋ − burst`` and
``frequency.hi · D + burst`` items (see :meth:`FlowFacts.count_bounds`),
each serialized within ``item_size``.  The hypothesis property test in
``tests/test_prop_flow_soundness.py`` checks this containment against
measured :meth:`~repro.engine.executor.StreamSimulator.stream_counts`.

Transformers
------------

Each stage's transformer is the interval side of its operator kind's
rule in :data:`repro.costmodel.rates.RATE_RULES` — the table whose
point side the cost model folds into its committed estimate — so the
two cannot drift apart.  The intervals are *conservative* where the
points are averages: a source's catalog mean widens by
:data:`SOURCE_RATE_SLACK`, a selection's floor is 0, a time-based
window is bounded through its reference element, and a UDF is ⊤ (a
declared description is an expectation, not a bound).

Diagnostics (F4xx)
------------------

* ``F400`` (warning) — an original stream has no statistics catalog
  entry, so no facts can be derived for it or its descendants;
* ``F401`` (error) — the cost model's committed rate for a stream (the
  point rules folded over its content) lies *outside* the interval
  derived from its actual parent lineage (the interval rules folded
  along its pipelines): the content the planner priced is inconsistent
  with how the stream is really derived (unsound rate estimate);
* ``F402`` (warning) — a dead stream: installed and committing
  resources in the usage ledger, but never delivered to a query nor
  tapped by a live descendant (liveness via
  :func:`repro.sharing.deregister.live_stream_ids`).  A warning, not an
  error: administrative streams installed through
  :meth:`StreamGlobe.install_derived_stream` are legitimately dead
  until a query attaches or a deregistration sweep collects them;
* ``F403`` (warning) — missed sharing: a stream recomputes its pipeline
  from the raw source although a matching derived stream
  (:func:`repro.matching.match_stream_properties`) of another query was
  available on a node of its route.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..costmodel import StatisticsCatalog, estimate_stream_rate
from ..costmodel.rates import (
    INCREMENT_SLACK,
    RATE_RULES,
    SIZE_SLACK,
    SOURCE_RATE_SLACK,
    FlowFacts,
    Interval,
    source_facts,
)
from ..engine.executor import topological_streams
from ..matching import match_stream_properties
from ..obs import NULL_RECORDER
from ..sharing.deregister import live_stream_ids
from ..sharing.plan import Deployment, InstalledStream
from ..diagnostics import AnalysisReport, Diagnostic

__all__ = [
    "FlowFacts",
    "INCREMENT_SLACK",
    "Interval",
    "SIZE_SLACK",
    "SOURCE_RATE_SLACK",
    "analyze_flow",
    "derive_stream_facts",
]


# ----------------------------------------------------------------------
# Fact derivation
# ----------------------------------------------------------------------
def derive_stream_facts(
    deployment: Deployment, catalog: StatisticsCatalog
) -> Dict[str, FlowFacts]:
    """Propagate facts source → descendants over the stream forest.

    Streams whose original source has no catalog statistics get no
    entry (and neither do their descendants) — :func:`analyze_flow`
    reports those as ``F400``.
    """
    facts: Dict[str, FlowFacts] = {}
    for stream in topological_streams(deployment):
        if stream.is_original:
            if stream.content.stream in catalog:
                stats = catalog.for_stream(stream.content.stream)
                facts[stream.stream_id] = source_facts(stats)
            continue
        if stream.parent_id is None:  # pragma: no cover - invalid plans
            continue
        parent = facts.get(stream.parent_id)
        if parent is None:
            continue
        stats = (
            catalog.for_stream(stream.content.stream)
            if stream.content.stream in catalog
            else None
        )
        current = parent
        for spec in stream.pipeline:
            current = RATE_RULES[spec.kind].interval(spec, current, stats)
        facts[stream.stream_id] = current
    return facts


# ----------------------------------------------------------------------
# The pass
# ----------------------------------------------------------------------
def analyze_flow(
    deployment: Deployment,
    catalog: StatisticsCatalog,
    title: str = "flow analysis",
    recorder: object = None,
) -> AnalysisReport:
    """Run the flow pass and report F4xx diagnostics."""
    rec = recorder if recorder is not None else NULL_RECORDER
    with rec.span(  # type: ignore[attr-defined]
        "analysis.flow", streams=len(deployment.streams)
    ):
        return _analyze_flow(deployment, catalog, title)


def _analyze_flow(
    deployment: Deployment, catalog: StatisticsCatalog, title: str
) -> AnalysisReport:
    report = AnalysisReport(title=title)
    facts = derive_stream_facts(deployment, catalog)

    # F400 — underivable streams (missing catalog statistics).
    missing = sorted(
        {
            stream.content.stream
            for stream in deployment.streams.values()
            if stream.is_original and stream.content.stream not in catalog
        }
    )
    for name in missing:
        report.add(
            "F400",
            f"stream {name!r}",
            "original stream has no statistics catalog entry; no flow "
            "facts can be derived for it or its descendants",
            hint="register the source through StreamGlobe.register_stream "
            "so a sample is measured",
            severity="warning",
        )

    # F401 — committed estimates outside the derived interval.
    for stream_id in sorted(facts):
        stream = deployment.streams[stream_id]
        derived = facts[stream_id]
        committed = estimate_stream_rate(stream.content, catalog)
        if not derived.frequency.contains(committed.frequency):
            report.add(
                "F401",
                f"stream {stream_id}",
                f"committed frequency {committed.frequency:.6g} items/s lies "
                f"outside the interval {derived.frequency} derived from its "
                "parent lineage",
                hint="the stream's content disagrees with its derivation: "
                "the planner priced a different pipeline than the one "
                "installed",
            )
        if not derived.item_size.contains(committed.size):
            report.add(
                "F401",
                f"stream {stream_id}",
                f"committed item size {committed.size:.6g} B lies outside "
                f"the interval {derived.item_size} derived from its parent "
                "lineage",
                hint="the stream's content disagrees with its derivation: "
                "the planner priced a different pipeline than the one "
                "installed",
            )

    # F402 — dead streams still committing resources.
    live = live_stream_ids(deployment)
    for stream_id in sorted(deployment.streams):
        if stream_id in live:
            continue
        stream = deployment.streams[stream_id]
        report.add(
            "F402",
            f"stream {stream_id}",
            "dead stream: derived but never delivered to a query nor "
            "tapped by a live descendant; its route "
            f"{' → '.join(stream.route)} still commits usage-ledger "
            "resources",
            hint="the next deregistration sweep will garbage-collect it "
            "(repro.sharing.deregister); attach a query if it is meant "
            "to stay",
            severity="warning",
        )

    # F403 — provably subsumable but unshared plans.
    report.extend(_missed_sharing(deployment))
    return report


def _missed_sharing(deployment: Deployment) -> List[Diagnostic]:
    """F403: streams that recompute from raw despite a matching stream.

    Only streams tapping the *original* directly are considered — a
    stream already deriving from a shared intermediate is reusing.  The
    candidate must belong to another query, carry operators (otherwise
    there is nothing to save), be available on the recomputing stream's
    origin node, and match per Algorithm 2.
    """
    diagnostics: List[Diagnostic] = []
    streams = deployment.streams
    for stream_id in sorted(streams):
        stream = streams[stream_id]
        if stream.is_original or not stream.pipeline:
            continue
        parent = streams.get(stream.parent_id) if stream.parent_id else None
        if parent is None or not parent.is_original:
            continue
        for other_id in sorted(streams):
            other = streams[other_id]
            if (
                other_id == stream_id
                or other.is_original
                or not other.content.operators
                or other.query == stream.query
                or stream.origin_node not in other.route
                or _related(streams, stream, other)
            ):
                continue
            if match_stream_properties(other.content, stream.content):
                diagnostics.append(
                    Diagnostic(
                        "F403",
                        f"stream {stream_id}",
                        f"recomputes {len(stream.pipeline)} operator(s) from "
                        f"the raw stream although matching stream {other_id} "
                        f"(query {other.query!r}) was available at "
                        f"{stream.origin_node}",
                        hint="the plan is subsumable: rewriting it to tap "
                        f"{other_id} would share the operator work",
                        severity="warning",
                    )
                )
                break  # one witness per stream is enough
    return diagnostics


def _related(
    streams: Dict[str, InstalledStream],
    first: InstalledStream,
    second: InstalledStream,
) -> bool:
    """Whether one stream is an ancestor of the other."""
    return _is_ancestor(streams, first, second) or _is_ancestor(
        streams, second, first
    )


def _is_ancestor(
    streams: Dict[str, InstalledStream],
    ancestor: InstalledStream,
    descendant: InstalledStream,
) -> bool:
    cursor: Optional[str] = descendant.parent_id
    while cursor is not None:
        if cursor == ancestor.stream_id:
            return True
        node = streams.get(cursor)
        cursor = node.parent_id if node is not None else None
    return False
