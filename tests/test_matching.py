"""Unit tests for MatchProperties (Algorithm 2) and MatchAggregations."""

from fractions import Fraction

import pytest

from repro.matching import (
    functions_compatible,
    match_aggregations,
    match_stream_properties,
)
from repro.predicates import PredicateGraph, normalize_comparison
from repro.properties import (
    RESULT_NODE,
    AggregationSpec,
    ProjectionSpec,
    Properties,
    SelectionSpec,
    StreamProperties,
    UdfSpec,
    WindowContentsSpec,
    WindowSpec,
)
from repro.xmlkit import Path

ITEM = Path("photons/photon")
EN = ITEM / "en"
RA = ITEM / "coord/cel/ra"
TIME = ITEM / "det_time"


def F(value):
    return Fraction(str(value))


def selection(*specs):
    atoms = []
    for path, op, const in specs:
        atoms.extend(normalize_comparison(path, op, None, F(const)))
    return SelectionSpec(PredicateGraph(atoms))


def result_filter(op, const):
    return PredicateGraph(normalize_comparison(RESULT_NODE, op, None, F(const)))


def stream_props(*operators, stream="photons"):
    return StreamProperties(stream=stream, item_path=ITEM, operators=tuple(operators))


def aggregation(function="avg", size=20, step=10, pre=None, filt=None):
    return AggregationSpec(
        function=function,
        aggregated_path=EN,
        window=WindowSpec("diff", F(size), F(step), TIME),
        pre_selection=pre if pre is not None else PredicateGraph(),
        result_filter=filt if filt is not None else PredicateGraph(),
    )


class TestMatchStreamProperties:
    def test_different_streams_never_match(self):
        assert not match_stream_properties(
            stream_props(stream="a"), stream_props(stream="b")
        )

    def test_different_item_paths_never_match(self):
        other = StreamProperties("photons", Path("photons/event"))
        assert not match_stream_properties(stream_props(), other)

    def test_raw_stream_matches_anything(self):
        subscription = stream_props(selection((EN, ">=", "1.3")))
        assert match_stream_properties(stream_props(), subscription)

    def test_selection_implication(self):
        stream = stream_props(selection((RA, "<=", 138)))
        tighter = stream_props(selection((RA, "<=", 135)))
        looser = stream_props(selection((RA, "<=", 140)))
        assert match_stream_properties(stream, tighter)
        assert not match_stream_properties(stream, looser)

    def test_selection_without_counterpart_fails(self):
        stream = stream_props(selection((RA, "<=", 138)))
        unfiltered = stream_props()
        assert not match_stream_properties(stream, unfiltered)

    def test_projection_superset_rule(self):
        stream = stream_props(
            ProjectionSpec(frozenset({EN, TIME}), frozenset({EN, TIME}))
        )
        narrower = stream_props(ProjectionSpec(frozenset({EN}), frozenset({EN})))
        wider = stream_props(
            ProjectionSpec(frozenset({EN, RA}), frozenset({EN, RA}))
        )
        assert match_stream_properties(stream, narrower)
        assert not match_stream_properties(stream, wider)

    def test_projection_subtree_semantics(self):
        cel = ITEM / "coord/cel"
        stream = stream_props(ProjectionSpec(frozenset({cel, EN}), frozenset({cel, EN})))
        needs_ra = stream_props(ProjectionSpec(frozenset({RA}), frozenset({RA, EN})))
        assert match_stream_properties(stream, needs_ra)

    def test_udf_requires_identical_parameters(self):
        stream = stream_props(UdfSpec("declination_correct", ("photons", "v2")))
        same = stream_props(UdfSpec("declination_correct", ("photons", "v2")))
        other_params = stream_props(UdfSpec("declination_correct", ("photons", "v3")))
        other_name = stream_props(UdfSpec("other", ("photons", "v2")))
        assert match_stream_properties(stream, same)
        assert not match_stream_properties(stream, other_params)
        assert not match_stream_properties(stream, other_name)

    def test_window_contents_requires_rebuildable_window(self):
        fine = stream_props(WindowContentsSpec(WindowSpec("count", F(10), F(5))))
        coarse = stream_props(WindowContentsSpec(WindowSpec("count", F(20), F(10))))
        assert match_stream_properties(fine, coarse)
        assert not match_stream_properties(coarse, fine)

    def test_aggregate_stream_vs_item_subscription_fails(self):
        stream = stream_props(aggregation())
        items = stream_props(selection((EN, ">=", 1)))
        assert not match_stream_properties(stream, items)


class TestMatchAggregations:
    def test_identical(self):
        assert match_aggregations(aggregation(), aggregation())

    def test_figure_5_windows(self):
        q3 = aggregation(size=20, step=10)
        q4 = aggregation(size=60, step=40, filt=result_filter(">=", "1.3"))
        assert match_aggregations(q3, q4)
        assert not match_aggregations(q4, q3)

    def test_function_compatibility_matrix(self):
        assert functions_compatible("avg", "sum")
        assert functions_compatible("avg", "count")
        assert functions_compatible("avg", "avg")
        assert not functions_compatible("sum", "avg")
        assert not functions_compatible("count", "sum")
        assert not functions_compatible("min", "max")
        assert functions_compatible("max", "max")

    def test_avg_stream_serves_sum_subscription(self):
        assert match_aggregations(aggregation("avg"), aggregation("sum"))

    def test_sum_stream_cannot_serve_avg(self):
        assert not match_aggregations(aggregation("sum"), aggregation("avg"))

    def test_different_aggregated_element_fails(self):
        other = AggregationSpec(
            "avg", ITEM / "phc", WindowSpec("diff", F(20), F(10), TIME),
            PredicateGraph(), PredicateGraph(),
        )
        assert not match_aggregations(aggregation(), other)

    def test_pre_selection_must_be_identical(self):
        vela = PredicateGraph(normalize_comparison(RA, "<=", None, F(138)))
        tighter = PredicateGraph(normalize_comparison(RA, "<=", None, F(130)))
        assert not match_aggregations(aggregation(pre=vela), aggregation(pre=tighter))
        assert match_aggregations(aggregation(pre=vela), aggregation(pre=vela))

    def test_filtered_stream_requires_equal_windows(self):
        filtered = aggregation(filt=result_filter(">=", "1.3"))
        coarser = aggregation(size=60, step=40, filt=result_filter(">=", "1.3"))
        assert not match_aggregations(filtered, coarser)

    def test_filtered_stream_requires_implied_filter(self):
        filtered = aggregation(filt=result_filter(">=", "1.3"))
        stricter = aggregation(filt=result_filter(">=", "1.5"))
        looser = aggregation(filt=result_filter(">=", "1.0"))
        unfiltered = aggregation()
        assert match_aggregations(filtered, stricter)
        assert not match_aggregations(filtered, looser)
        assert not match_aggregations(filtered, unfiltered)

    def test_unfiltered_stream_serves_filtered_subscription(self):
        assert match_aggregations(
            aggregation(), aggregation(filt=result_filter(">=", "1.3"))
        )
