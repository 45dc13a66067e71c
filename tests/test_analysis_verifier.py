"""Plan-verifier invariants: clean deployments pass, seeded defects are caught.

Each seeded violation mirrors one failure mode of the registration
machinery: a cyclic route, a route over a non-existent link, an
orphaned compensation pipeline, a schema-incompatible projection, and a
stale ``a_b``/``a_l`` ledger.  The verifier must name the precise rule
code and subject for each.
"""

from __future__ import annotations

from fractions import Fraction

import pytest

from tests.conftest import PAPER_QUERIES, make_system
from repro.analysis import (
    InvariantViolation,
    SchemaView,
    check_content,
    verify_deployment,
    verify_system,
)
from repro.properties import (
    ProjectionSpec,
    StreamProperties,
    UdfSpec,
    WindowContentsSpec,
)
from repro.properties.windows import WindowSpec
from repro.sharing.plan import InstalledStream
from repro.xmlkit import Path


def registered_system(strategy="stream-sharing", queries=("Q1", "Q2", "Q3", "Q4")):
    system = make_system(strategy)
    for name in queries:
        system.register_query(name, PAPER_QUERIES[name], "P1")
    return system


def reroute(system, stream_id, route):
    """Force a stream onto ``route``, keeping the index in sync."""
    stream = system.deployment.streams[stream_id]
    for node in stream.route:
        system.deployment._available[node].remove(stream_id)
    object.__setattr__(stream, "route", route)
    for node in route:
        system.deployment._available.setdefault(node, []).append(stream_id)
    return stream


# ----------------------------------------------------------------------
# Valid deployments verify clean
# ----------------------------------------------------------------------
def own_peer_system(strategy):
    """The paper's queries, each at its own thin peer."""
    system = make_system(strategy)
    for name, peer in [("Q1", "P1"), ("Q2", "P2"), ("Q3", "P3"), ("Q4", "P4")]:
        system.register_query(name, PAPER_QUERIES[name], peer)
    return system


def widened_system():
    """A narrow stream installed first, then widened for a broader query."""
    system = make_system("stream-sharing", enable_widening=True)
    system.register_query("narrow", PAPER_QUERIES["Q2"], "P2")
    system.register_query("wide", PAPER_QUERIES["Q1"], "P1")
    return system


def scenario_one_system(**options):
    from repro.workload.scenarios import run_scenario, scenario_one

    return run_scenario(
        scenario_one(), "stream-sharing", execute=False, **options
    ).system


STRATEGIES = ["data-shipping", "query-shipping", "stream-sharing"]


@pytest.mark.parametrize(
    "build",
    [
        *(pytest.param(lambda s=s: registered_system(s), id=s) for s in STRATEGIES),
        *(
            pytest.param(lambda s=s: own_peer_system(s), id=f"own-peers-{s}")
            for s in STRATEGIES
        ),
        pytest.param(widened_system, id="widened"),
        pytest.param(scenario_one_system, id="scenario-one"),
        pytest.param(
            lambda: scenario_one_system(enable_widening=True),
            id="scenario-one-widened",
        ),
    ],
)
def test_registered_deployments_verify_clean(build):
    report = verify_system(build())
    assert report.ok, report.render()


def test_empty_deployment_verifies_clean():
    report = verify_system(make_system())
    assert report.ok, report.render()


def test_deployment_after_deregistration_verifies_clean():
    system = registered_system()
    for name in ("Q1", "Q2", "Q3", "Q4"):
        system.deregister_query(name)
    report = verify_system(system)
    assert report.ok, report.render()


# ----------------------------------------------------------------------
# P10x — route structure
# ----------------------------------------------------------------------
def test_cyclic_route_is_rejected():
    system = registered_system(queries=("Q1",))
    delivered = system.deployment.queries["Q1"].delivered[0][1]
    stream = system.deployment.streams[delivered]
    reroute(system, delivered, stream.route + (stream.route[-2], stream.route[-1]))
    report = verify_system(system)
    assert "P103" in report.codes(), report.render()
    [diag] = [d for d in report.errors() if d.code == "P103"]
    assert delivered in diag.subject
    assert "more than once" in diag.message


def test_route_over_missing_link_is_rejected():
    system = registered_system(queries=("Q1",))
    # SP4 and SP7 are not adjacent in the example topology.
    reroute(system, "photons", ("SP4", "SP7"))
    report = verify_system(system)
    assert "P102" in report.codes(), report.render()
    [diag] = [d for d in report.errors() if d.code == "P102"]
    assert "SP4-SP7" in diag.message


def test_route_over_unknown_node_is_rejected():
    system = registered_system(queries=("Q1",))
    reroute(system, "photons", ("SP4", "SP99"))
    report = verify_system(system)
    assert "P101" in report.codes(), report.render()


def test_route_not_rooted_at_origin_is_rejected():
    system = registered_system(queries=("Q1",))
    stream = system.deployment.streams["photons"]
    object.__setattr__(stream, "route", ("SP5", "SP4"))
    report = verify_system(system)
    assert "P104" in report.codes(), report.render()


def test_stale_availability_index_is_rejected():
    system = registered_system(queries=("Q1",))
    # The index claims availability at a node the route never touches...
    system.deployment._available["SP3"].append("photons")
    report = verify_system(system)
    assert "P106" in report.codes(), report.render()
    # ...and a missing entry is the mirror violation.
    system.deployment._available["SP3"].remove("photons")
    system.deployment._available["SP4"].remove("photons")
    report = verify_system(system)
    assert "P105" in report.codes(), report.render()


# ----------------------------------------------------------------------
# P11x — derivation
# ----------------------------------------------------------------------
def test_orphaned_pipeline_is_rejected():
    system = registered_system(queries=("Q1",))
    delivered = system.deployment.queries["Q1"].delivered[0][1]
    stream = system.deployment.streams[delivered]
    object.__setattr__(stream, "parent_id", "no-such-stream")
    report = verify_system(system)
    assert "P110" in report.codes(), report.render()
    [diag] = [d for d in report.errors() if d.code == "P110"]
    assert "no-such-stream" in diag.message


def test_tap_off_parent_route_is_rejected():
    system = registered_system(queries=("Q1",))
    # Restrict the parent's route so the child's tap node leaves it.
    delivered = system.deployment.queries["Q1"].delivered[0][1]
    child = system.deployment.streams[delivered]
    assert child.origin_node == "SP4"
    reroute(system, "photons", ("SP4",))
    object.__setattr__(child, "origin_node", "SP5")
    object.__setattr__(child, "route", ("SP5",) + child.route[1:])
    report = verify_system(system)
    assert "P111" in report.codes(), report.render()


def test_original_with_pipeline_is_rejected():
    system = registered_system(queries=("Q1",))
    stream = system.deployment.streams["photons"]
    object.__setattr__(stream, "pipeline", (UdfSpec(name="rogue"),))
    report = verify_system(system)
    assert "P112" in report.codes(), report.render()


def test_underivable_content_is_rejected():
    system = registered_system(queries=("Q1", "Q2"))
    # Q2's stream derives from Q1's (already selected and projected).
    # Claiming it carries the *raw* photon stream means the pipeline
    # would have to re-create data its input no longer contains.
    d1 = system.deployment.queries["Q1"].delivered[0][1]
    d2 = system.deployment.queries["Q2"].delivered[0][1]
    s2 = system.deployment.streams[d2]
    assert s2.parent_id == d1  # precondition: sharing reused Q1's stream
    object.__setattr__(
        s2,
        "content",
        StreamProperties(stream="photons", item_path=Path("photons/photon")),
    )
    report = verify_system(system)
    assert "P113" in report.codes(), report.render()


# ----------------------------------------------------------------------
# P12x — delivery
# ----------------------------------------------------------------------
def test_missing_delivered_stream_is_rejected():
    system = registered_system(queries=("Q1",))
    record = system.deployment.queries["Q1"]
    delivered = record.delivered[0][1]
    # Released behind the record's back, but consistently: the indexes
    # and reference counts agree that the stream is gone.
    system.deployment.release_stream(delivered)
    report = verify_system(system)
    assert "P120" in report.codes(), report.render()
    assert not {"P105", "P106", "P140", "P142", "P144"} & set(report.codes())


def test_delivery_to_wrong_node_is_rejected():
    system = registered_system(queries=("Q1",))
    record = system.deployment.queries["Q1"]
    object.__setattr__(record, "subscriber_node", "SP3")
    report = verify_system(system)
    codes = report.codes()
    assert "P121" in codes, report.render()


def test_unsatisfying_delivery_is_rejected():
    system = registered_system(queries=("Q1", "Q2"))
    # Point Q1 at Q2's delivered stream: strictly narrower content.
    q2_delivered = system.deployment.queries["Q2"].delivered[0][1]
    record = system.deployment.queries["Q1"]
    object.__setattr__(record, "delivered", (("photons", q2_delivered),))
    report = verify_system(system)
    assert "P122" in report.codes(), report.render()


# ----------------------------------------------------------------------
# P13x — usage ledger
# ----------------------------------------------------------------------
def test_negative_commitment_is_rejected():
    system = registered_system(queries=("Q1",))
    link = system.net.link("SP4", "SP5")
    system.deployment.usage.add_link_traffic(
        link, -2 * system.deployment.usage.link_traffic(link)
    )
    report = verify_system(system)
    assert "P130" in report.codes(), report.render()


def test_ghost_traffic_is_rejected():
    system = registered_system(queries=("Q1",))
    # Traffic on a link no installed stream routes over (stale a_b).
    system.deployment.usage.add_link_traffic(system.net.link("SP2", "SP3"), 5000.0)
    report = verify_system(system)
    assert "P131" in report.codes(), report.render()


def test_ghost_work_is_rejected():
    system = registered_system(queries=("Q1",))
    system.deployment.usage.add_peer_work("SP2", 100.0)
    report = verify_system(system)
    assert "P132" in report.codes(), report.render()


def test_uncommitted_stream_traffic_is_rejected():
    system = registered_system(queries=("Q1",))
    delivered = system.deployment.queries["Q1"].delivered[0][1]
    stream = system.deployment.streams[delivered]
    for a, b in stream.links():
        link = system.net.link(a, b)
        system.deployment.usage.add_link_traffic(
            link, -system.deployment.usage.link_traffic(link)
        )
    report = verify_system(system)
    assert "P133" in report.codes(), report.render()


def test_uncommitted_pipeline_work_is_rejected():
    system = registered_system(queries=("Q1",))
    delivered = system.deployment.queries["Q1"].delivered[0][1]
    stream = system.deployment.streams[delivered]
    assert stream.pipeline
    system.deployment.usage.add_peer_work(
        stream.origin_node, -system.deployment.usage.peer_work(stream.origin_node)
    )
    report = verify_system(system)
    assert "P134" in report.codes(), report.render()


def test_missing_subscriber_work_is_rejected():
    system = registered_system(queries=("Q1",))
    node = system.deployment.queries["Q1"].subscriber_node
    system.deployment.usage.add_peer_work(
        node, -system.deployment.usage.peer_work(node)
    )
    report = verify_system(system)
    assert "P135" in report.codes(), report.render()


# ----------------------------------------------------------------------
# T2xx — operator typing against the measured schema
# ----------------------------------------------------------------------
def test_schema_incompatible_projection_is_rejected(photon_stats):
    view = SchemaView.from_statistics(photon_stats)
    bogus = Path("photons/photon/no_such_leaf")
    content = StreamProperties(
        stream="photons",
        item_path=Path("photons/photon"),
        operators=(
            ProjectionSpec(
                output_elements=frozenset({bogus}),
                referenced_elements=frozenset({bogus}),
            ),
        ),
    )
    diags = check_content(content, view, "stream 'seeded'")
    assert [d.code for d in diags] == ["T203"]
    assert "does not exist in the schema" in diags[0].message


def test_projection_dropping_window_reference_is_rejected(photon_stats):
    view = SchemaView.from_statistics(photon_stats)
    en = Path("photons/photon/en")
    content = StreamProperties(
        stream="photons",
        item_path=Path("photons/photon"),
        operators=(
            ProjectionSpec(
                output_elements=frozenset({en}), referenced_elements=frozenset({en})
            ),
            # det_time was just projected away: the window cannot key on it.
            WindowContentsSpec(
                window=WindowSpec(
                    "diff",
                    Fraction(20),
                    Fraction(10),
                    reference=Path("photons/photon/det_time"),
                )
            ),
        ),
    )
    diags = check_content(content, view, "stream 'seeded'")
    assert "T206" in [d.code for d in diags]
    assert any("dropped by an earlier projection" in d.message for d in diags)


def test_window_on_non_monotone_reference_is_rejected(photon_stats):
    view = SchemaView.from_statistics(photon_stats)
    assert Path("photons/photon/det_time") in (view.monotone or ())
    content = StreamProperties(
        stream="photons",
        item_path=Path("photons/photon"),
        operators=(
            WindowContentsSpec(
                window=WindowSpec(
                    "diff",
                    Fraction(20),
                    Fraction(10),
                    # Photon energies are random, not time-ordered.
                    reference=Path("photons/photon/en"),
                )
            ),
        ),
    )
    diags = check_content(content, view, "stream 'seeded'")
    assert "T208" in [d.code for d in diags]


def test_seeded_typing_defect_surfaces_in_deployment_report(photon_stats):
    system = registered_system(queries=("Q1",))
    stream = system.deployment.streams["photons"]
    bogus = Path("photons/photon/no_such_leaf")
    object.__setattr__(
        stream,
        "content",
        StreamProperties(
            stream="photons",
            item_path=Path("photons/photon"),
            operators=(
                ProjectionSpec(
                    output_elements=frozenset({bogus}),
                    referenced_elements=frozenset({bogus}),
                ),
            ),
        ),
    )
    report = verify_system(system)
    assert "T203" in report.codes(), report.render()


def test_reaggregation_function_compatibility(photon_stats):
    from repro.predicates import PredicateGraph
    from repro.properties import AggregationSpec, ReAggregationSpec

    view = SchemaView.from_statistics(photon_stats)
    window = WindowSpec(
        "diff", Fraction(20), Fraction(10), reference=Path("photons/photon/det_time")
    )
    wide = WindowSpec(
        "diff", Fraction(60), Fraction(20), reference=Path("photons/photon/det_time")
    )

    def agg(function, win):
        return AggregationSpec(
            function=function,
            aggregated_path=Path("photons/photon/en"),
            window=win,
            pre_selection=PredicateGraph(),
            result_filter=PredicateGraph(),
        )

    def chain(reused_fn, new_fn):
        return StreamProperties(
            stream="photons",
            item_path=Path("photons/photon"),
            operators=(
                agg(reused_fn, window),
                ReAggregationSpec(agg(reused_fn, window), agg(new_fn, wide)),
            ),
        )

    # avg streams carry (sum, count) pairs: avg → sum is servable...
    assert [d.code for d in check_content(chain("avg", "sum"), view, "s")] == []
    # ...but partial sums cannot rebuild an average.
    diags = check_content(chain("sum", "avg"), view, "s")
    assert "T215" in [d.code for d in diags]


def test_empty_operator_chain_is_trivially_typed(photon_stats):
    view = SchemaView.from_statistics(photon_stats)
    content = StreamProperties(stream="photons", item_path=Path("photons/photon"))
    assert check_content(content, view, "stream 'raw'") == []


def test_aggregation_after_window_contents_is_accepted(photon_stats):
    # A window-contents stage re-emits the (selected, projected) items
    # in batches — the item schema survives, so a downstream aggregation
    # still types.  The converse order is rejected as T213.
    from repro.predicates import PredicateGraph
    from repro.properties import AggregationSpec

    view = SchemaView.from_statistics(photon_stats)
    window = WindowSpec(
        "diff", Fraction(20), Fraction(10), reference=Path("photons/photon/det_time")
    )
    aggregation = AggregationSpec(
        function="avg",
        aggregated_path=Path("photons/photon/en"),
        window=window,
        pre_selection=PredicateGraph(),
        result_filter=PredicateGraph(),
    )
    accepted = StreamProperties(
        stream="photons",
        item_path=Path("photons/photon"),
        operators=(WindowContentsSpec(window=window), aggregation),
    )
    assert check_content(accepted, view, "s") == []
    rejected = StreamProperties(
        stream="photons",
        item_path=Path("photons/photon"),
        operators=(aggregation, WindowContentsSpec(window=window)),
    )
    assert [d.code for d in check_content(rejected, view, "s")] == ["T213"]


def test_restructure_only_chain_is_rejected(photon_stats):
    from repro.properties import RestructureSpec

    view = SchemaView.from_statistics(photon_stats)
    content = StreamProperties(
        stream="photons",
        item_path=Path("photons/photon"),
        operators=(RestructureSpec("Q1"),),
    )
    diags = check_content(content, view, "stream 'post'")
    assert [d.code for d in diags] == ["T217"]
    assert "never reused" in diags[0].hint


# ----------------------------------------------------------------------
# The pre-flight hook
# ----------------------------------------------------------------------
def test_verify_flag_accepts_valid_registrations():
    system = make_system(verify=True)
    for name in ("Q1", "Q2", "Q3", "Q4"):
        result = system.register_query(name, PAPER_QUERIES[name], "P1")
        assert result.accepted


def test_verify_flag_rejects_invalid_plan():
    system = make_system(verify=True)
    system.register_query("Q1", PAPER_QUERIES["Q1"], "P1")
    # Corrupt the deployment the way a buggy planner would: a cycle.
    delivered = system.deployment.queries["Q1"].delivered[0][1]
    stream = system.deployment.streams[delivered]
    reroute(system, delivered, stream.route + (stream.route[-2], stream.route[-1]))
    with pytest.raises(InvariantViolation) as exc:
        system.register_query("Q2", PAPER_QUERIES["Q2"], "P1")
    assert "P103" in exc.value.report.codes()
    assert delivered in str(exc.value)


def test_verify_flag_guards_execution():
    system = make_system(verify=True)
    system.register_query("Q1", PAPER_QUERIES["Q1"], "P1")
    system.deployment.usage.add_peer_work("SP2", 123.0)
    with pytest.raises(InvariantViolation):
        system.run(duration=1.0)


_SELECTION = """<photons>
{{ for $p in stream("photons")/photons/photon
  where {condition}
  return <r> {{ $p/en }} </r> }}
</photons>"""

_AGGREGATION = """<photons>
{{ for $w in stream("photons")/photons/photon
  |{window}|
  let $a := {aggregate}
  return <r> {{ $a }} </r> }}
</photons>"""


_ILL_TYPED_TEXTS = {
    "T201": _SELECTION.format(condition="$p/foo >= 1.0"),
    "T202": _SELECTION.format(condition="$p/coord >= 1.0"),
    "T204": _AGGREGATION.format(window="det_time diff 10 step 10", aggregate="sum($w/foo)"),
    "T205": _AGGREGATION.format(window="det_time diff 10 step 10", aggregate="sum($w/coord)"),
    "T207": _AGGREGATION.format(window="coord diff 10 step 10", aggregate="sum($w/en)"),
}


@pytest.mark.parametrize("code", sorted(_ILL_TYPED_TEXTS))
def test_verify_flag_types_the_subscription_text(code):
    """Ill-typed query text — an undeclared path, arithmetic on an
    interior element, a window over one — is refused by the pre-flight
    with exactly its type code."""
    system = make_system(verify=True)
    with pytest.raises(InvariantViolation) as exc:
        system.register_query("Q", _ILL_TYPED_TEXTS[code], "P1")
    assert set(exc.value.report.codes()) == {code}


def test_install_derived_stream_commits_and_releases_effects():
    system = make_system(verify=True)
    system.register_query("Q1", PAPER_QUERIES["Q1"], "P1")
    system.install_derived_stream(
        "photons#udf", "photons", [UdfSpec(name="calibrate")], target="P2"
    )
    report = verify_system(system)
    assert report.ok, report.render()
    # Deregistration garbage-collects the administrative stream too and
    # must return the ledger to (numerically) zero.
    system.deregister_query("Q1")
    assert "photons#udf" not in system.deployment.streams
    assert verify_system(system).ok
    usage = system.deployment.usage
    assert all(abs(w) < 1e-3 for w in usage._peer_work.values())
    assert all(abs(b) < 1e-3 for b in usage._link_bits.values())


def test_verify_deployment_accepts_explicit_schema_override(catalog):
    system = registered_system(queries=("Q1",))
    report = verify_deployment(system.deployment, catalog=catalog)
    assert report.ok, report.render()
