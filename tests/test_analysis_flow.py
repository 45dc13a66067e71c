"""The F4xx abstract interpreter: domain, transformers, diagnostics."""

from __future__ import annotations

import math
from fractions import Fraction

import pytest

from tests.conftest import PAPER_QUERIES, make_system
from repro.analysis import (
    FlowFacts,
    Interval,
    analyze_flow,
    derive_stream_facts,
)
from repro.costmodel import RATE_RULES, StatisticsCatalog
from repro.network.topology import example_topology
from repro.predicates import PredicateGraph, graph_from_atoms, normalize_comparison
from repro.properties import (
    RESULT_NODE,
    AggregationSpec,
    ProjectionSpec,
    ReAggregationSpec,
    RestructureSpec,
    SelectionSpec,
    StreamProperties,
    UdfSpec,
    WindowSpec,
)
from repro.sharing.plan import Deployment, InstalledStream
from repro.xmlkit import Path

EN = Path("photons/photon/en")
DET_TIME = Path("photons/photon/det_time")


# ----------------------------------------------------------------------
# The abstract domain
# ----------------------------------------------------------------------
def test_interval_validation():
    with pytest.raises(ValueError):
        Interval(-1.0, 2.0)
    with pytest.raises(ValueError):
        Interval(3.0, 2.0)
    with pytest.raises(ValueError):
        Interval(float("nan"), 2.0)


def test_interval_top_contains_everything():
    top = Interval.top()
    assert top.contains(0.0)
    assert top.contains(1e12)
    assert math.isinf(top.hi)


def test_interval_contains_with_tolerance():
    box = Interval(10.0, 20.0)
    assert box.contains(10.0) and box.contains(20.0)
    # A hair outside is floating-point noise, not a violation.
    assert box.contains(20.0 * (1 + 1e-9))
    assert not box.contains(21.0)
    assert not box.contains(9.0)


def test_interval_scale_and_hull():
    box = Interval(2.0, 4.0)
    assert box.scale(0.5) == Interval(1.0, 2.0)
    with pytest.raises(ValueError):
        box.scale(-1.0)
    assert box.hull(Interval(1.0, 3.0)) == Interval(1.0, 4.0)


def test_count_bounds():
    facts = FlowFacts(frequency=Interval(10.0, 20.0), item_size=Interval(0, 1), burst=1.0)
    lo, hi = facts.count_bounds(2.0)
    assert lo == 19.0  # floor(10 · 2) − 1
    assert hi == 41.0  # 20 · 2 + 1
    with pytest.raises(ValueError):
        facts.count_bounds(-1.0)
    top = FlowFacts(Interval.top(), Interval.top(), burst=0.0)
    assert top.count_bounds(5.0) == (0.0, float("inf"))


# ----------------------------------------------------------------------
# Transformers (the interval side of each operator kind's rate rule)
# ----------------------------------------------------------------------
def _transform(spec, facts, stats):
    return RATE_RULES[spec.kind].interval(spec, facts, stats)


def _base_facts():
    return FlowFacts(
        frequency=Interval(50.0, 200.0),
        item_size=Interval(80.0, 320.0),
        burst=1.0,
    )


def _selection():
    atoms = normalize_comparison(EN, ">=", None, Fraction("1.3"))
    return SelectionSpec(graph_from_atoms(atoms))


def _aggregation(window, result_filter=None):
    return AggregationSpec(
        function="avg",
        aggregated_path=EN,
        window=window,
        pre_selection=PredicateGraph(),
        result_filter=result_filter or PredicateGraph(),
    )


def test_selection_zeroes_the_lower_bound(photon_stats):
    out = _transform(_selection(), _base_facts(), photon_stats)
    assert out.frequency == Interval(0.0, 200.0)
    assert out.item_size == _base_facts().item_size  # sizes untouched


def test_projection_only_shrinks_items(photon_stats):
    spec = ProjectionSpec(
        output_elements=frozenset({EN}), referenced_elements=frozenset({EN})
    )
    out = _transform(spec, _base_facts(), photon_stats)
    assert out.frequency == _base_facts().frequency
    assert out.item_size == Interval(0.0, 320.0)


def test_count_window_divides_the_rate(photon_stats):
    window = WindowSpec("count", Fraction(10), Fraction(10))
    out = _transform(_aggregation(window), _base_facts(), photon_stats)
    assert out.frequency == Interval(0.0, 20.0)  # 200 / µ
    assert out.burst > _base_facts().burst  # the first-window offset


def test_filtered_aggregation_keeps_zero_floor(photon_stats):
    window = WindowSpec("count", Fraction(10), Fraction(10))
    having = graph_from_atoms(
        normalize_comparison(RESULT_NODE, ">=", None, Fraction("1.3"))
    )
    out = _transform(_aggregation(window, having), _base_facts(), photon_stats)
    assert out.frequency.lo == 0.0


def test_diff_window_bounded_through_the_reference(photon_stats):
    window = WindowSpec("diff", Fraction(20), Fraction(10), reference=DET_TIME)
    out = _transform(_aggregation(window), _base_facts(), photon_stats)
    # The reference advances at most max_increment · slack per raw
    # arrival, and each µ of span completes one window — finite.
    assert not math.isinf(out.frequency.hi)
    assert out.frequency.lo == 0.0


def test_diff_window_without_statistics_is_top():
    window = WindowSpec("diff", Fraction(20), Fraction(10), reference=DET_TIME)
    out = _transform(_aggregation(window), _base_facts(), None)
    assert math.isinf(out.frequency.hi)


def test_reaggregation_strides_the_reused_rate(photon_stats):
    fine = WindowSpec("diff", Fraction(20), Fraction(10), reference=DET_TIME)
    coarse = WindowSpec("diff", Fraction(60), Fraction(20), reference=DET_TIME)
    spec = ReAggregationSpec(_aggregation(fine), _aggregation(coarse))
    out = _transform(spec, _base_facts(), photon_stats)
    assert out.frequency == Interval(0.0, 100.0)  # 200 / (20/10)


def test_udf_and_restructure_lose_information(photon_stats):
    udf = _transform(UdfSpec(name="calibrate"), _base_facts(), photon_stats)
    assert math.isinf(udf.frequency.hi) and math.isinf(udf.item_size.hi)
    restructured = _transform(RestructureSpec("Q1"), _base_facts(), photon_stats)
    assert restructured.frequency == _base_facts().frequency
    assert math.isinf(restructured.item_size.hi)


# ----------------------------------------------------------------------
# Fact derivation over real deployments
# ----------------------------------------------------------------------
def test_source_facts_bracket_the_catalog_mean():
    system = make_system()
    facts = derive_stream_facts(system.deployment, system.catalog)
    photons = facts["photons"]
    assert photons.frequency.contains(100.0)
    assert photons.frequency == Interval(50.0, 200.0)


def test_every_registered_stream_gets_facts():
    system = make_system()
    for name in ("Q1", "Q2", "Q3", "Q4"):
        system.register_query(name, PAPER_QUERIES[name], "P1")
    facts = derive_stream_facts(system.deployment, system.catalog)
    assert set(facts) == set(system.deployment.streams)
    for stream_facts in facts.values():
        assert stream_facts.frequency.lo >= 0.0


def test_paper_workload_is_flow_clean():
    system = make_system()
    for name in ("Q1", "Q2", "Q3", "Q4"):
        system.register_query(name, PAPER_QUERIES[name], "P1")
    report = analyze_flow(system.deployment, system.catalog)
    assert report.ok, report.render()
    assert not [d for d in report.diagnostics if d.code in ("F400", "F401")]


def test_deterministic_counts_fall_inside_the_bounds():
    """A straight (non-hypothesis) soundness check on the paper workload."""
    from repro.engine import StreamSimulator

    system = make_system()
    for name in ("Q1", "Q2", "Q3", "Q4"):
        system.register_query(name, PAPER_QUERIES[name], "P1")
    facts = derive_stream_facts(system.deployment, system.catalog)
    duration = 5.0
    generators = {
        name: source.generator_factory() for name, source in system.sources.items()
    }
    simulator = StreamSimulator(system.net, system.deployment, generators, duration)
    simulator.run()
    for stream_id, measured in simulator.stream_counts().items():
        lo, hi = facts[stream_id].count_bounds(duration)
        assert lo <= measured <= hi, (stream_id, lo, measured, hi)


# ----------------------------------------------------------------------
# F400 — missing catalog statistics
# ----------------------------------------------------------------------
def test_f400_original_without_statistics():
    deployment = Deployment(example_topology())
    content = StreamProperties(stream="mystery", item_path=Path("m/i"))
    deployment.install_stream(
        InstalledStream("mystery", content, origin_node="SP0", route=("SP0",))
    )
    report = analyze_flow(deployment, StatisticsCatalog())
    assert "F400" in report.codes(), report.render()
    (f400,) = [d for d in report.diagnostics if d.code == "F400"]
    assert f400.severity == "warning"
    assert "mystery" in f400.subject
    assert report.ok  # warnings never fail the gate
    # No facts are derivable for the uncharted stream.
    assert derive_stream_facts(deployment, StatisticsCatalog()) == {}


# ----------------------------------------------------------------------
# F401 — committed estimate outside the derived interval
# ----------------------------------------------------------------------
def test_f401_content_disagreeing_with_derivation():
    system = make_system()
    system.register_query("Q1", PAPER_QUERIES["Q1"], "P1")
    parent = system.deployment.streams["photons"]
    window = WindowSpec("count", Fraction(10), Fraction(10))
    # The installed pipeline aggregates (≤ 20 items/s derivable), but
    # the content claims the raw stream — the planner would commit the
    # raw 100 items/s, provably outside the derived interval.
    bogus = InstalledStream(
        stream_id="bogus",
        content=parent.content,
        origin_node=parent.origin_node,
        route=parent.route,
        parent_id="photons",
        pipeline=(_aggregation(window),),
        query="Q1",
    )
    system.deployment.install_stream(bogus)
    report = analyze_flow(system.deployment, system.catalog)
    f401 = [d for d in report.diagnostics if d.code == "F401"]
    assert f401, report.render()
    assert all(d.severity == "error" for d in f401)
    assert any("bogus" in d.subject for d in f401)
    assert not report.ok


# ----------------------------------------------------------------------
# F402 — dead streams
# ----------------------------------------------------------------------
def test_f402_dead_administrative_stream_is_a_warning():
    system = make_system()
    system.register_query("Q1", PAPER_QUERIES["Q1"], "P1")
    system.install_derived_stream(
        "photons#udf", "photons", [UdfSpec(name="calibrate")], target="P2"
    )
    report = analyze_flow(system.deployment, system.catalog)
    f402 = [d for d in report.diagnostics if d.code == "F402"]
    assert [d.subject for d in f402] == ["stream photons#udf"]
    assert f402[0].severity == "warning"
    assert report.ok  # dead administrative streams must not block installs


# ----------------------------------------------------------------------
# F403 — missed sharing
# ----------------------------------------------------------------------
def test_f403_recomputation_despite_matching_stream():
    # Query shipping recomputes every subscription from the raw stream;
    # Q2 is subsumable by Q1's stream (the paper's running example), so
    # the analyzer must point out the missed reuse.
    system = make_system("query-shipping")
    system.register_query("Q1", PAPER_QUERIES["Q1"], "P1")
    system.register_query("Q2", PAPER_QUERIES["Q2"], "P2")
    report = analyze_flow(system.deployment, system.catalog)
    f403 = [d for d in report.diagnostics if d.code == "F403"]
    assert f403, report.render()
    assert all(d.severity == "warning" for d in f403)
    assert report.ok


def test_f403_silent_when_sharing_strategy_reuses():
    system = make_system("stream-sharing")
    system.register_query("Q1", PAPER_QUERIES["Q1"], "P1")
    system.register_query("Q2", PAPER_QUERIES["Q2"], "P2")
    report = analyze_flow(system.deployment, system.catalog)
    assert "F403" not in report.codes(), report.render()


# ----------------------------------------------------------------------
# Through churn
# ----------------------------------------------------------------------
def test_churn_runs_every_requested_pass():
    from repro.analysis.preflight import build_churned_system
    from repro.workload.scenarios import scenario_churn

    reports = build_churned_system(
        scenario_churn(), "stream-sharing", passes=("plan", "flow")
    )
    assert reports and len(reports) % 2 == 0  # both passes per fault event
    for report in reports:
        assert report.ok, report.render()
    with pytest.raises(ValueError, match="unknown churn passes"):
        build_churned_system(scenario_churn(), "stream-sharing", passes=("shards",))
