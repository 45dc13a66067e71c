"""Unit tests for post-processing (the restructuring step)."""

import pytest

from tests.conftest import PAPER_QUERIES
from repro.engine import PartialAggregate, Restructurer, partial_to_wire
from repro.wxquery import analyze, parse_query
from repro.xmlkit import Element, element


def restructurer(text):
    return Restructurer(analyze(parse_query(text)))


def photon(ra=130.0, dec=-45.0, en=1.5, det_time=1.0, phc=42):
    return element(
        "photon",
        element("phc", text=phc),
        element(
            "coord",
            element("cel", element("ra", text=ra), element("dec", text=dec)),
            element("det", element("dx", text=1), element("dy", text=2)),
        ),
        element("en", text=en),
        element("det_time", text=det_time),
    )


class TestPlainQueries:
    def test_q1_structure(self):
        builder = restructurer(PAPER_QUERIES["Q1"])
        (result,) = builder.build(photon())
        assert result.tag == "vela"
        assert [c.tag for c in result.children] == ["ra", "dec", "phc", "en", "det_time"]
        assert result.child("ra").text == "130.0"

    def test_q2_structure(self):
        builder = restructurer(PAPER_QUERIES["Q2"])
        (result,) = builder.build(photon())
        assert result.tag == "rxj"
        assert [c.tag for c in result.children] == ["ra", "dec", "en", "det_time"]

    def test_whole_item_output(self):
        builder = restructurer('<r>{ for $p in stream("s")/photons/photon return $p }</r>')
        (result,) = builder.build(photon())
        assert result == photon()
        assert result is not photon()  # a copy, not the input

    def test_missing_path_produces_no_output(self):
        builder = restructurer(
            '<r>{ for $p in stream("s")/photons/photon return <x> { $p/nope } </x> }</r>'
        )
        (result,) = builder.build(photon())
        assert result == Element("x")

    def test_sequence_output(self):
        builder = restructurer(
            '<r>{ for $p in stream("s")/photons/photon return ($p/en, $p/phc) }</r>'
        )
        results = builder.build(photon())
        assert [r.tag for r in results] == ["en", "phc"]

    def test_empty_element_constructor(self):
        builder = restructurer(
            '<r>{ for $p in stream("s")/photons/photon return <mark/> }</r>'
        )
        assert builder.build(photon()) == [Element("mark")]


class TestAggregateQueries:
    def test_q3_final_avg(self):
        builder = restructurer(PAPER_QUERIES["Q3"])
        wire = partial_to_wire(PartialAggregate.of_values([1.0, 2.0]), "avg")
        (result,) = builder.build(wire)
        assert result.tag == "avg_en"
        assert result.text == "1.5"

    def test_integer_rendering(self):
        builder = restructurer(PAPER_QUERIES["Q3"])
        wire = partial_to_wire(PartialAggregate.of_values([2.0, 2.0]), "avg")
        (result,) = builder.build(wire)
        assert result.text == "2"

    def test_non_finite_rendering(self):
        builder = restructurer(PAPER_QUERIES["Q3"])
        wire = partial_to_wire(PartialAggregate.of_values([1.0, float("inf")]), "avg")
        (result,) = builder.build(wire)
        assert result.text == "inf"

    def test_empty_window_produces_nothing(self):
        builder = restructurer(PAPER_QUERIES["Q3"])
        wire = partial_to_wire(PartialAggregate(), "avg")
        assert builder.build(wire) == []

    def test_if_expression_over_aggregate(self):
        builder = restructurer(
            '<r>{ for $w in stream("s")/photons/photon |count 2| '
            "let $a := avg($w/en) "
            "return if $a >= 1 then <hi/> else <lo/> }</r>"
        )
        high = partial_to_wire(PartialAggregate.of_values([2.0]), "avg")
        low = partial_to_wire(PartialAggregate.of_values([0.5]), "avg")
        assert builder.build(high) == [Element("hi")]
        assert builder.build(low) == [Element("lo")]


class TestWindowContents:
    def test_var_output_flattens_window(self):
        builder = restructurer(
            '<r>{ for $w in stream("s")/photons/photon |count 2| return <batch> { $w } </batch> }</r>'
        )
        window = Element("window", children=[photon(en=1.0), photon(en=2.0)])
        (result,) = builder.build(window)
        assert result.tag == "batch"
        assert len(result.children) == 2

    def test_path_output_over_window(self):
        builder = restructurer(
            '<r>{ for $w in stream("s")/photons/photon |count 2| return <ens> { $w/en } </ens> }</r>'
        )
        window = Element("window", children=[photon(en=1.0), photon(en=2.0)])
        (result,) = builder.build(window)
        assert [c.text for c in result.children] == ["1.0", "2.0"]
