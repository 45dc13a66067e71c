"""Property test: indexed registration is plan-equivalent to brute force.

The StreamAvailabilityIndex, the match memo, the content-grouped
candidate lookup, and the route cache are all *optimizations*: on any
workload — including deregistration and churn with plan repair — the
indexed system must accept the same subscriptions, reuse the same
streams at the same nodes with the same placements and costs, and end
with an identical deployment — with stream widening on as well, where
both sources offer the streams that fail Algorithm 2 for widening.
Randomized here over template-generated workloads plus the paper's
example queries.
"""

from __future__ import annotations

from hypothesis import example, given, settings
from hypothesis import strategies as st

from tests.conftest import PAPER_QUERIES, make_system
from repro.analysis import verify_system
from repro.faults import SuperPeerCrash, SuperPeerRejoin
from repro.predicates import UnsatisfiableError
from repro.workload.templates import QueryTemplateGenerator


def _box(ra, dec, strict=False):
    """A sky box; ``strict`` turns every bound into ``<``/``>``."""
    low, high = (">", "<") if strict else (">=", "<=")
    return (
        f"$p/coord/cel/ra {low} {ra[0]} and $p/coord/cel/ra {high} {ra[1]} "
        f"and $p/coord/cel/dec {low} {dec[0]} and $p/coord/cel/dec {high} {dec[1]}"
    )


def _selection(where):
    return (
        '<photons>{ for $p in stream("photons")/photons/photon '
        f"where {where} return <m> {{ $p/coord/cel/ra }} {{ $p/coord/cel/dec }} "
        "{ $p/en } { $p/det_time } </m> }</photons>"
    )


def _aggregate(where, function="avg"):
    condition = where.replace("$p/", "")
    return (
        '<photons>{ for $w in stream("photons")/photons/photon '
        f"[{condition}] |det_time diff 20 step 10| let $a := {function}($w/en) "
        "return <agg_result> { $a } </agg_result> }</photons>"
    )


def _whole_items(where):
    return (
        '<photons>{ for $p in stream("photons")/photons/photon '
        f"where {where} return $p }}</photons>"
    )


def _window_contents(where, window="count 10 step 10"):
    return (
        '<photons>{ for $w in stream("photons")/photons/photon '
        f"[{where}] |{window}| return $w }}</photons>"
    )


VELA = ((120.0, 138.0), (-49.0, -40.0))  # Query 1's box

#: Selections built to sit where the index's selection prune is most
#: likely to disagree with the scan: constants on a neighbour's bound,
#: strict against non-strict comparisons, and nested, disjoint, and
#: degenerate or empty regions.
_ADVERSARIAL = [
    _selection(_box(*VELA, strict=True)),  # Query 1's box, open
    _selection(_box((138.0, 150.0), VELA[1])),  # shares the edge ra = 138
    _selection(_box((138.0, 150.0), VELA[1], strict=True)),  # touches it, open
    _selection(_box((138.0, 138.0), VELA[1])),  # the shared edge alone
    _selection(_box((125.0, 130.0), (-45.0, -42.0))),  # nested, beside Query 2's
    _selection(_box((120.0, 130.5), (-49.0, -45.0))),  # bounds of Query 1 and 2
    _selection(_box((160.0, 170.0), (-30.0, -20.0))),  # disjoint from every box
    _selection("$p/coord/cel/ra >= 120.0"),  # half-open, holds every box
    _selection("$p/en > 1.3 and " + _box((130.5, 135.5), (-48.0, -45.0))),  # Query 2, open
    _aggregate(_box(*VELA, strict=True)),  # Query 3's pre-selection, open
    _aggregate(_box((138.0, 150.0), VELA[1]), "sum"),
]

#: Window contents, reused only with an equal window, selection and
#: projection: each is a near miss of the ones before it (windows that
#: rebuild the earlier ones, a stricter selection).
_WINDOW_CONTENTS = [
    _window_contents("en >= 1.0", "count 10 step 5"),
    _window_contents("en >= 1.0"),
    _window_contents("en >= 1.3"),
    _window_contents("en >= 1.0", "count 20 step 10"),
]
_ADVERSARIAL += _WINDOW_CONTENTS

#: A fixed pool of template queries (seeded: reproducible examples).
_POOL = [g.text for g in QueryTemplateGenerator(seed=99).generate(12)]
_POOL += list(PAPER_QUERIES.values())
_POOL += _ADVERSARIAL

#: The index test also draws an empty region, which registration
#: refuses in both modes alike.
_INDEX_POOL = _POOL + [_selection(_box((138.0, 138.0), VELA[1], strict=True))]

#: Query 2's box under a projection that drops ``dec``: its selection
#: passes the prune for the box's other queries, its projection fails.
NARROW_PROJECTION = (
    '<photons>{ for $p in stream("photons")/photons/photon where '
    f"{_box((125.0, 130.0), (-45.0, -42.0))} "
    "return <m> { $p/coord/cel/ra } { $p/en } </m> }</photons>"
)

#: The widening test adds plain subscriptions without a projection or
#: without a selection: a widening probe also reaches the plain
#: contents beyond their details.
_WIDENING_POOL = _INDEX_POOL + [
    _whole_items(_box(*VELA)),
    _whole_items(_box((125.0, 130.0), (-45.0, -42.0))),
    '<photons>{ for $p in stream("photons")/photons/photon '
    "return <m> { $p/coord/cel/ra } { $p/coord/cel/dec } { $p/en } </m> }</photons>",
    NARROW_PROJECTION,
]

#: Picks whose widened plan only one near-miss source offers: a box,
#: then one beside it whose probe prunes the first's selection; a
#: template query's projected box, then whole items of Query 1's box —
#: the projected content lies beyond that subscription's details; and
#: two streams of ``NARROW_PROJECTION``'s content, the second of which
#: the last pick widens (an admitted group's non-representative member).
WIDENED_PRUNED = [
    _WIDENING_POOL.index(_selection(_box((160.0, 170.0), (-30.0, -20.0)))),
    _WIDENING_POOL.index(_selection(_box((138.0, 150.0), VELA[1], strict=True))),
]
WIDENED_BEYOND_DETAILS = [10, _WIDENING_POOL.index(_whole_items(_box(*VELA)))]
_NARROW = _WIDENING_POOL.index(NARROW_PROJECTION)
WIDENED_FOLLOWER = [
    16,
    _NARROW,
    _WIDENING_POOL.index(_whole_items(_box(*VELA))),
    4,
    _NARROW,
    _WIDENING_POOL.index(_selection(_box((125.0, 130.0), (-45.0, -42.0)))),
]

SUBSCRIBERS = ("P1", "P2", "P3", "P4")


def _register_workload(use_index, picks, pool=_INDEX_POOL, **options):
    system = make_system("stream-sharing", use_index=use_index, **options)
    results = []
    for i, pick in enumerate(picks):
        try:
            result = system.register_query(
                f"W{i:02d}", pool[pick], SUBSCRIBERS[i % len(SUBSCRIBERS)]
            )
        except UnsatisfiableError:
            continue  # an empty region is refused before any search
        results.append(result)
    return system, results


def _decisions(results):
    out = []
    for r in results:
        inputs = ()
        if r.plan is not None:
            inputs = tuple(
                (
                    p.input_stream,
                    p.reused_id,
                    p.tap_node,
                    p.placement_node,
                    p.cost,
                    p.effects.link_bits,
                    p.effects.peer_work,
                    p.widening is not None,
                )
                for p in r.plan.inputs
            )
        out.append((r.query, r.accepted, inputs))
    return out


def _deployment_facts(system):
    deployment = system.deployment
    return {
        "streams": {
            sid: (s.content, s.origin_node, s.route, s.parent_id, s.pipeline)
            for sid, s in deployment.streams.items()
        },
        "queries": sorted(
            (name, record.subscriber_node, record.delivered)
            for name, record in deployment.queries.items()
        ),
    }


@settings(max_examples=15, deadline=None)
@given(
    picks=st.lists(
        st.integers(min_value=0, max_value=len(_INDEX_POOL) - 1),
        min_size=1,
        max_size=10,
    ),
    drop=st.sets(st.integers(min_value=0, max_value=9)),
    crash=st.sampled_from([None, "SP5", "SP6", "SP7"]),
    rejoin=st.booleans(),
)
@example(
    picks=[_INDEX_POOL.index(text) for text in _WINDOW_CONTENTS + _WINDOW_CONTENTS[1:2]],
    drop=set(),
    crash=None,
    rejoin=False,
)
def test_indexed_equals_brute_force(picks, drop, crash, rejoin):
    _assert_equivalent(picks, drop, crash, rejoin)


@settings(max_examples=15, deadline=None)
@given(
    picks=st.lists(
        st.integers(min_value=0, max_value=len(_WIDENING_POOL) - 1),
        min_size=1,
        max_size=10,
    ),
    drop=st.sets(st.integers(min_value=0, max_value=9)),
    crash=st.sampled_from([None, "SP5", "SP6", "SP7"]),
    rejoin=st.booleans(),
)
@example(picks=WIDENED_PRUNED, drop=set(), crash=None, rejoin=False)
@example(picks=WIDENED_BEYOND_DETAILS, drop=set(), crash=None, rejoin=False)
@example(picks=WIDENED_FOLLOWER, drop=set(), crash=None, rejoin=False)
def test_indexed_widening_equals_scan_widening(picks, drop, crash, rejoin):
    """With widening on, the index offers widening what the scan does:
    the streams of pruned groups, of groups beyond the subscription's
    details, and every member of an admitted group that fails."""
    _assert_equivalent(
        picks, drop, crash, rejoin, pool=_WIDENING_POOL, enable_widening=True
    )


def _assert_equivalent(picks, drop, crash, rejoin, **options):
    indexed, indexed_results = _register_workload(True, picks, **options)
    brute, brute_results = _register_workload(False, picks, **options)

    # Identical plan decisions, including costs, on registration ...
    assert _decisions(indexed_results) == _decisions(brute_results)
    assert _deployment_facts(indexed) == _deployment_facts(brute)

    # ... identical teardown through deregistration GC ...
    for index in sorted(drop):
        name = f"W{index:02d}"
        if name in indexed.deployment.queries:
            indexed.deregister_query(name)
            brute.deregister_query(name)
    assert _deployment_facts(indexed) == _deployment_facts(brute)

    # ... and identical repair under churn.
    if crash is not None:
        indexed.apply_fault(SuperPeerCrash(5.0, crash))
        brute.apply_fault(SuperPeerCrash(5.0, crash))
        if rejoin:
            indexed.apply_fault(SuperPeerRejoin(15.0, crash))
            brute.apply_fault(SuperPeerRejoin(15.0, crash))
        assert _deployment_facts(indexed) == _deployment_facts(brute)

    # The indexed deployment stays verifier-clean (P14x included).
    report = verify_system(indexed)
    assert report.ok, report.render()


@settings(max_examples=10, deadline=None)
@given(
    picks=st.lists(
        st.integers(min_value=0, max_value=len(_POOL) - 1),
        min_size=2,
        max_size=8,
    )
)
def test_batch_admission_matches_some_sequential_order(picks):
    """Batch admission must behave exactly like sequential registration
    in admission order: same final stream set as registering the sorted
    batch one by one."""
    batch_system = make_system("stream-sharing")
    batch = [
        (f"W{i:02d}", _POOL[pick], SUBSCRIBERS[i % len(SUBSCRIBERS)])
        for i, pick in enumerate(picks)
    ]
    batch_results = batch_system.register_queries(batch)
    assert [r.query for r in batch_results] == [name for name, _, _ in batch]

    from repro.properties import extract_properties
    from repro.sharing.index import admission_order_key
    from repro.wxquery import parse_query

    order = sorted(
        range(len(batch)),
        key=lambda i: admission_order_key(
            extract_properties(parse_query(batch[i][1]), batch[i][0])
        ),
    )
    sequential = make_system("stream-sharing")
    for i in order:
        name, text, subscriber = batch[i]
        sequential.register_query(name, text, subscriber)
    assert _deployment_facts(batch_system) == _deployment_facts(sequential)
