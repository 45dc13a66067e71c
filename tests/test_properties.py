"""Unit tests for the properties model, windows, and extraction."""

import gc
import weakref
from fractions import Fraction

import pytest

from tests.conftest import PAPER_QUERIES, make_system
from repro.predicates import (
    PredicateGraph,
    UnsatisfiableError,
    interned_graph_count,
    normalize_comparison,
)
from repro.properties import (
    AggregationSpec,
    ProjectionSpec,
    ReAggregationSpec,
    SelectionSpec,
    WindowSpec,
    extract_properties,
    raw_stream_properties,
)
from repro.wxquery import AnalysisError, parse_query
from repro.xmlkit import Path


def F(value):
    return Fraction(str(value))


def props(name):
    return extract_properties(parse_query(PAPER_QUERIES[name]), name)


class TestWindowSpec:
    def test_from_clause_absolutizes_reference(self):
        from repro.wxquery import WindowClause

        clause = WindowClause("diff", F(20), F(10), Path("det_time"))
        spec = WindowSpec.from_clause(clause, Path("photons/photon"))
        assert spec.reference == Path("photons/photon/det_time")

    def test_default_step(self):
        from repro.wxquery import WindowClause

        clause = WindowClause("count", F(20))
        spec = WindowSpec.from_clause(clause, Path("a/b"))
        assert spec.step == F(20)

    def test_shareability_conditions(self):
        w_fine = WindowSpec("count", F(20), F(10))
        w_coarse = WindowSpec("count", F(60), F(40))
        assert w_coarse.shareable_from(w_fine)
        assert not w_fine.shareable_from(w_coarse)
        assert w_coarse.windows_per_new_window(w_fine) == 3

    def test_size_not_multiple_fails(self):
        assert not WindowSpec("count", F(50), F(10)).shareable_from(
            WindowSpec("count", F(20), F(10))
        )

    def test_reused_window_not_tiling_fails(self):
        # ∆ mod µ != 0 for the reused window.
        reused = WindowSpec("count", F(20), F(15))
        assert not WindowSpec("count", F(40), F(30)).shareable_from(reused)

    def test_step_not_multiple_fails(self):
        reused = WindowSpec("count", F(20), F(10))
        assert not WindowSpec("count", F(40), F(15)).shareable_from(reused)

    def test_different_kind_fails(self):
        count = WindowSpec("count", F(20), F(10))
        diff = WindowSpec("diff", F(20), F(10), Path("a/t"))
        assert not diff.shareable_from(count)

    def test_different_reference_fails(self):
        w1 = WindowSpec("diff", F(20), F(10), Path("a/t"))
        w2 = WindowSpec("diff", F(40), F(20), Path("a/u"))
        assert not w2.shareable_from(w1)

    def test_fractional_windows(self):
        fine = WindowSpec("diff", F("0.5"), F("0.25"), Path("a/t"))
        coarse = WindowSpec("diff", F("1.5"), F("0.5"), Path("a/t"))
        assert coarse.shareable_from(fine)

    def test_invalid_specs(self):
        with pytest.raises(ValueError):
            WindowSpec("count", F(0), F(1))
        with pytest.raises(ValueError):
            WindowSpec("diff", F(1), F(1))  # missing reference
        with pytest.raises(ValueError):
            WindowSpec("count", F(1), F(1), Path("x"))  # spurious reference


class TestSpecs:
    def test_projection_outputs_must_be_referenced(self):
        with pytest.raises(ValueError):
            ProjectionSpec(frozenset({Path("a/b")}), frozenset({Path("a/c")}))

    def test_projection_needs_outputs(self):
        with pytest.raises(ValueError):
            ProjectionSpec(frozenset(), frozenset())

    def test_aggregation_function_checked(self):
        with pytest.raises(ValueError):
            AggregationSpec(
                "median",
                Path("a/x"),
                WindowSpec("count", F(2), F(2)),
                PredicateGraph(),
                PredicateGraph(),
            )

    def test_reaggregation_requires_shareable_windows(self):
        fine = AggregationSpec(
            "avg", Path("a/x"), WindowSpec("count", F(20), F(10)),
            PredicateGraph(), PredicateGraph(),
        )
        incompatible = AggregationSpec(
            "avg", Path("a/x"), WindowSpec("count", F(30), F(10)),
            PredicateGraph(), PredicateGraph(),
        )
        with pytest.raises(ValueError):
            ReAggregationSpec(fine, incompatible)


class TestExtraction:
    def test_q1_operators(self):
        sp = props("Q1").single_input()
        assert [op.kind for op in sp.operators] == ["selection", "projection"]
        assert sp.item_path == Path("photons/photon")

    def test_q1_projection_matches_figure_3(self):
        projection = props("Q1").single_input().projection
        marked = {str(p.relative_to(Path("photons/photon"))) for p in projection.output_elements}
        assert marked == {"coord/cel/ra", "coord/cel/dec", "phc", "en", "det_time"}

    def test_q2_has_energy_bound(self):
        selection = props("Q2").single_input().selection
        lower, upper = selection.graph.derived_interval(Path("photons/photon/en"))
        assert lower == F("1.3") and upper is None

    def test_q3_operators(self):
        sp = props("Q3").single_input()
        assert [op.kind for op in sp.operators] == ["selection", "aggregation"]
        agg = sp.aggregation
        assert agg.function == "avg"
        assert agg.aggregated_path == Path("photons/photon/en")
        assert agg.window.size == 20 and agg.window.step == 10
        assert not agg.is_filtered

    def test_q4_result_filter(self):
        agg = props("Q4").single_input().aggregation
        assert agg.is_filtered
        assert agg.window.size == 60 and agg.window.step == 40

    def test_q3_q4_same_pre_selection(self):
        assert (
            props("Q3").single_input().aggregation.pre_selection
            == props("Q4").single_input().aggregation.pre_selection
        )

    def test_whole_item_query_has_no_projection(self):
        p = extract_properties(
            parse_query('<r>{ for $p in stream("s")/a/b where $p/x >= 1 return $p }</r>'),
            "whole",
        )
        assert [op.kind for op in p.single_input().operators] == ["selection"]

    def test_unfiltered_scan_is_raw(self):
        p = extract_properties(
            parse_query('<r>{ for $p in stream("s")/a/b return $p }</r>'), "scan"
        )
        assert p.single_input().is_raw

    def test_window_contents_query(self):
        p = extract_properties(
            parse_query('<r>{ for $w in stream("s")/a/b |count 10 step 5| return $w }</r>'),
            "wc",
        )
        kinds = [op.kind for op in p.single_input().operators]
        assert kinds == ["window"]

    def test_unsatisfiable_selection_rejected(self):
        with pytest.raises(UnsatisfiableError):
            extract_properties(
                parse_query(
                    '<r>{ for $p in stream("s")/a/b where $p/x >= 5 and $p/x < 5 return $p }</r>'
                ),
                "bad",
            )

    def test_raw_stream_properties(self):
        p = raw_stream_properties("photons", "photons/photon")
        assert p.single_input().is_raw
        assert p.is_variant_of(p.single_input())

    def test_multi_input_extraction(self):
        p = extract_properties(
            parse_query(
                '<r>{ for $p in stream("s")/a/b for $q in stream("t")/c/d '
                "where $p/x >= 1 return ($p, $q) }</r>"
            ),
            "multi",
        )
        assert len(p.inputs) == 2
        assert p.input_for("t").is_raw
        with pytest.raises(ValueError):
            p.single_input()
        with pytest.raises(KeyError):
            p.input_for("nope")


def _selection_query(where, returned):
    return f"""<photons>
{{ for $p in stream("photons")/photons/photon
  where {where}
  return <r> {{ $p/{returned} }} </r> }}
</photons>"""


#: A where clause no other test uses, so no other test holds its graph.
INTERN_WHERE = "$p/en >= 2.71 and $p/coord/cel/ra <= 101.25"


def _selection_graph(text):
    return extract_properties(parse_query(text), "S").single_input().selection.graph


class TestInternedGraphs:
    def test_same_where_clause_shares_one_graph(self):
        energy = _selection_graph(_selection_query(INTERN_WHERE, "en"))
        ra = _selection_graph(_selection_query(INTERN_WHERE, "coord/cel/ra"))
        assert energy is ra

    def test_aggregations_share_their_pre_selection(self):
        q3, q4 = props("Q3").single_input(), props("Q4").single_input()
        assert q3.aggregation.pre_selection is q4.aggregation.pre_selection

    def test_equal_graphs_built_in_another_order_stay_distinct(self):
        """The canonical instance is keyed on node and edge order too:
        selectivity multiplies its factors in node order, so sharing an
        equal graph of another order could move an estimate's last bit."""
        forward = _selection_graph(_selection_query(INTERN_WHERE, "en"))
        swapped = " and ".join(reversed(INTERN_WHERE.split(" and ")))
        backward = _selection_graph(_selection_query(swapped, "en"))
        assert forward == backward
        assert forward is not backward
        assert forward.nodes != backward.nodes

    def test_the_table_keeps_no_graph_alive(self):
        where = "$p/en >= 3.17 and $p/coord/cel/dec <= -41.5"
        system = make_system("stream-sharing")
        system.register_query("S", _selection_query(where, "en"), "P1")
        ((_, stream_id),) = system.deployment.queries["S"].delivered
        graph = system.deployment.streams[stream_id].content.selection.graph
        alive = weakref.ref(graph)
        entries = interned_graph_count()
        del system, graph
        gc.collect()
        assert alive() is None
        assert interned_graph_count() < entries
