"""Paper-conformance suite: direct checks of the paper's concrete
claims, figures, and running-example assertions, in one place."""

from fractions import Fraction

import pytest

from tests.conftest import PAPER_QUERIES, make_system, on_every_executor
from repro.predicates import ZERO, Bound
from repro.xmlkit import Path

ITEM = Path("photons/photon")
RA = ITEM / "coord/cel/ra"
DEC = ITEM / "coord/cel/dec"
EN = ITEM / "en"


class TestFigure3Properties:
    """'An abstract schematic illustration of the properties of Query 1
    ... described by a set of original input data streams, a set of
    operators ... and, for each operator, a set of conditions.'"""

    def test_q1_input_stream(self, paper_properties):
        p1 = paper_properties["Q1"]
        assert [sp.stream for sp in p1.inputs] == ["photons"]

    def test_q1_predicate_graph_structure(self, paper_properties):
        """Figure 3's graph: nodes {0, ra, dec}; edges ra→0 (138),
        0→ra (−120), dec→0 (−40), 0→dec (49)."""
        graph = paper_properties["Q1"].single_input().selection.graph
        assert set(graph.nodes) == {ZERO, RA, DEC}
        assert graph.bound(RA, ZERO) == Bound(Fraction(138))
        assert graph.bound(ZERO, RA) == Bound(Fraction(-120))
        assert graph.bound(DEC, ZERO) == Bound(Fraction(-40))
        assert graph.bound(ZERO, DEC) == Bound(Fraction(49))

    def test_q1_projection_elements_match_figure(self, paper_properties):
        projection = paper_properties["Q1"].single_input().projection
        marked = {str(p.relative_to(ITEM)) for p in projection.output_elements}
        assert marked == {"coord/cel/ra", "coord/cel/dec", "phc", "en", "det_time"}


class TestFigure4Matching:
    """'An example matching for the predicate graphs of Queries 1 and 2.'"""

    def test_q2_graph_has_en_node(self, paper_properties):
        graph = paper_properties["Q2"].single_input().selection.graph
        assert EN in graph.nodes
        assert graph.bound(ZERO, EN) == Bound(Fraction("-1.3"))

    def test_matching_direction(self, paper_properties):
        from repro.matching import match_stream_properties

        q1 = paper_properties["Q1"].single_input()
        q2 = paper_properties["Q2"].single_input()
        assert match_stream_properties(q1, q2)
        assert not match_stream_properties(q2, q1)


class TestFigure5WindowArithmetic:
    """'∆' mod ∆ = 0, ∆ mod µ = 0, and µ' mod µ = 0' over Q3/Q4."""

    def test_conditions_hold_for_q3_q4(self, paper_properties):
        q3 = paper_properties["Q3"].single_input().aggregation.window
        q4 = paper_properties["Q4"].single_input().aggregation.window
        assert q4.size % q3.size == 0          # 60 mod 20
        assert q3.size % q3.step == 0          # 20 mod 10
        assert q4.step % q3.step == 0          # 40 mod 10

    def test_sharing_only_one_direction(self, paper_properties):
        from repro.matching import match_aggregations

        q3 = paper_properties["Q3"].single_input().aggregation
        q4 = paper_properties["Q4"].single_input().aggregation
        assert match_aggregations(q3, q4)
        assert not match_aggregations(q4, q3)


class TestSection1Narrative:
    """The Figure 1 → Figure 2 story, executed."""

    @pytest.fixture(scope="class")
    def system(self):
        system = make_system("stream-sharing")
        for name, peer in [("Q1", "P1"), ("Q2", "P2"), ("Q3", "P3"), ("Q4", "P4")]:
            system.register_query(name, PAPER_QUERIES[name], peer)
        return system

    def test_q1_computed_at_sp4_not_sp1(self, system):
        """'its execution can be pushed into the network and computed at
        SP4 instead of SP1'."""
        plan = system.results[0].plan.inputs[0]
        assert plan.placement_node == "SP4"

    def test_q1_routed_via_sp5_and_sp1(self, system):
        """'The result is then routed to P1 via SP5 and SP1.'"""
        plan = system.results[0].plan.inputs[0]
        assert plan.delivered.route == ("SP4", "SP5", "SP1")

    def test_q2_reuses_q1(self, system):
        """'it can reuse the stream constituting the answer for Query 1
        ... because the result of Query 2 is completely contained in the
        answer for Query 1'."""
        plan = system.results[1].plan.inputs[0]
        assert plan.reused_id == "Q1:photons"

    def test_q2_compensation_is_selection_and_projection(self, system):
        """'One [copy] is used to answer Query 1, the other is filtered
        using the selection and projection specified by Query 2.'"""
        plan = system.results[1].plan.inputs[0]
        assert [s.kind for s in plan.delivered.pipeline] == ["selection", "projection"]

    @on_every_executor
    def test_sharing_reduces_traffic_vs_no_sharing(self, executor):
        mbit = {}
        for strategy in ("stream-sharing", "data-shipping"):
            system = executor.system(strategy)
            for name, peer in [("Q1", "P1"), ("Q2", "P2"), ("Q3", "P3"), ("Q4", "P4")]:
                system.register_query(name, PAPER_QUERIES[name], peer)
            mbit[strategy] = executor.run(system, duration=30.0).total_mbit()
        assert mbit["stream-sharing"] < mbit["data-shipping"] / 3


class TestSection2LanguageRules:
    def test_step_defaults_to_window_size(self):
        """'If omitted, the step size defaults to the value of ∆'."""
        from repro.wxquery import parse_query
        from repro.properties import extract_properties

        text = ('<r>{ for $w in stream("photons")/photons/photon |count 20| '
                "let $a := sum($w/en) return <s> { $a } </s> }</r>")
        window = extract_properties(parse_query(text), "t").single_input().aggregation.window
        assert window.step == window.size == 20

    def test_theta_excludes_not_equals(self):
        """'θ ∈ {=, <, ≤, >, ≥}' — no inequality."""
        from repro.wxquery import AnalysisError, analyze, parse_query

        with pytest.raises(AnalysisError):
            analyze(parse_query(
                '<r>{ for $p in stream("s")/a/b where $p/x != 3 return $p }</r>'
            ))

    def test_restructured_output_not_reused(self):
        """'The result of the post-processing ... is not considered for
        reuse in the network' — no installed stream carries a
        restructure operator."""
        system = make_system("stream-sharing")
        for name, peer in [("Q1", "P1"), ("Q2", "P2")]:
            system.register_query(name, PAPER_QUERIES[name], peer)
        for stream in system.deployment.streams.values():
            assert all(op.kind != "restructure" for op in stream.pipeline)
            assert all(op.kind != "restructure" for op in stream.content.operators)


class TestSection33AvgRepresentation:
    def test_avg_travels_as_sum_count(self):
        """'we internally represent such aggregates by their appropriate
        sum and count values. These values are actually transmitted in
        the super-peer network.'"""
        from repro.engine import PartialAggregate, partial_to_wire

        wire = partial_to_wire(PartialAggregate.of_values([1.0, 2.0]), "avg")
        assert {child.tag for child in wire.children} == {"sum", "count"}

    def test_final_value_computed_at_subscriber(self):
        """'The final aggregate value is computed at the super-peer at
        which the corresponding subscription is registered by evaluating
        (sum/count).'"""
        from repro.engine import PartialAggregate, Restructurer, partial_to_wire
        from repro.wxquery import analyze, parse_query

        restructurer = Restructurer(analyze(parse_query(PAPER_QUERIES["Q3"])))
        wire = partial_to_wire(PartialAggregate.of_values([1.0, 2.0, 3.0]), "avg")
        (result,) = restructurer.build(wire)
        assert result.text == "2"
