"""Unit tests for selection, projection, evaluation, and pipelines."""

from fractions import Fraction

import pytest

from repro.engine import (
    Pipeline,
    ProjectOperator,
    SelectOperator,
    build_operator,
    item_number,
    satisfies,
)
from repro.engine.operators import EngineError, Operator
from repro.predicates import PredicateGraph, normalize_comparison
from repro.properties import ProjectionSpec, RestructureSpec, SelectionSpec
from repro.xmlkit import Element, Path, element

ITEM = Path("photons/photon")
RA = ITEM / "coord/cel/ra"
EN = ITEM / "en"


def photon(ra=130.0, en=1.5):
    return element(
        "photon",
        element("coord", element("cel", element("ra", text=ra), element("dec", text=-45.0))),
        element("en", text=en),
        element("det_time", text=1.0),
    )


def graph(*specs):
    atoms = []
    for path, op, const in specs:
        atoms.extend(normalize_comparison(path, op, None, Fraction(str(const))))
    return PredicateGraph(atoms)


class TestEval:
    def test_item_number(self):
        assert item_number(photon(), RA, ITEM) == 130.0
        assert item_number(photon(), ITEM / "missing", ITEM) is None

    def test_satisfies_bounds(self):
        g = graph((RA, ">=", 120), (RA, "<=", 138))
        assert satisfies(photon(ra=130.0), g, ITEM)
        assert not satisfies(photon(ra=150.0), g, ITEM)

    def test_boundary_inclusive_vs_strict(self):
        assert satisfies(photon(ra=138.0), graph((RA, "<=", 138)), ITEM)
        assert not satisfies(photon(ra=138.0), graph((RA, "<", 138)), ITEM)

    def test_missing_operand_fails_conjunction(self):
        g = graph((ITEM / "nope", ">=", 0))
        assert not satisfies(photon(), g, ITEM)

    def test_variable_comparison(self):
        g = PredicateGraph(normalize_comparison(EN, "<=", RA, Fraction(0)))
        assert satisfies(photon(ra=130.0, en=1.5), g, ITEM)

    def test_empty_graph_accepts_all(self):
        assert satisfies(photon(), PredicateGraph(), ITEM)


class TestSelectOperator:
    def test_filters(self):
        op = SelectOperator(graph((EN, ">=", "1.3")), ITEM)
        assert op.process(photon(en=1.5)) == [photon(en=1.5)]
        assert op.process(photon(en=1.0)) == []

    def test_observed_selectivity(self):
        op = SelectOperator(graph((EN, ">=", "1.3")), ITEM)
        for en in (1.5, 1.0, 2.0, 0.5):
            op.process(photon(en=en))
        assert op.observed_selectivity == 0.5

    def test_selectivity_before_input(self):
        assert SelectOperator(PredicateGraph(), ITEM).observed_selectivity == 1.0


class TestProjectOperator:
    def test_projects(self):
        op = ProjectOperator(frozenset({EN}), ITEM)
        (projected,) = op.process(photon())
        assert projected == element("photon", element("en", text=1.5))

    def test_drops_empty_items(self):
        op = ProjectOperator(frozenset({ITEM / "missing"}), ITEM)
        assert op.process(photon()) == []


class TestBuildOperator:
    def test_builds_selection(self):
        op = build_operator(SelectionSpec(graph((EN, ">=", 1))), ITEM)
        assert op.kind == "selection"

    def test_builds_projection(self):
        spec = ProjectionSpec(frozenset({EN}), frozenset({EN}))
        assert build_operator(spec, ITEM).kind == "projection"

    def test_restructure_needs_restructurer(self):
        with pytest.raises(EngineError):
            build_operator(RestructureSpec("Q1"), ITEM)

    def test_unknown_spec_rejected(self):
        with pytest.raises(EngineError):
            build_operator(object(), ITEM)

    def test_every_operator_implements_exactly_one_evaluation_method(self):
        """One implementation per operator (DESIGN.md §14): a subclass
        overrides ``process`` or ``process_columns`` and the base class
        derives the other, so a second copy of an operator's logic
        cannot grow back unnoticed."""
        import repro.engine.udf  # noqa: F401 - build_operator imports it lazily

        def subclasses(cls):
            for sub in cls.__subclasses__():
                yield sub
                yield from subclasses(sub)

        shipped = {
            cls for cls in subclasses(Operator) if cls.__module__.startswith("repro.engine.")
        }
        assert {cls.__name__ for cls in shipped} == {
            "SelectOperator",
            "ProjectOperator",
            "WindowAggregateOperator",
            "ReAggregateOperator",
            "WindowContentsOperator",
            "UdfOperator",
            "RestructureOperator",
        }
        for cls in shipped:
            overridden = [
                name
                for name in ("process", "process_columns")
                if getattr(cls, name) is not getattr(Operator, name)
            ]
            assert len(overridden) == 1, (cls.__name__, overridden)


class TestPipeline:
    def test_chains_operators(self):
        pipeline = Pipeline.from_specs(
            [
                SelectionSpec(graph((EN, ">=", "1.3"))),
                ProjectionSpec(frozenset({EN}), frozenset({EN})),
            ],
            ITEM,
        )
        assert pipeline.process(photon(en=1.5)) == [
            element("photon", element("en", text=1.5))
        ]
        assert pipeline.process(photon(en=1.0)) == []

    def test_input_counts_track_stage_inputs(self):
        pipeline = Pipeline.from_specs(
            [
                SelectionSpec(graph((EN, ">=", "1.3"))),
                ProjectionSpec(frozenset({EN}), frozenset({EN})),
            ],
            ITEM,
        )
        pipeline.process(photon(en=1.5))
        pipeline.process(photon(en=1.0))
        assert pipeline.input_counts == [2, 1]

    def test_empty_pipeline(self):
        pipeline = Pipeline([])
        item = photon()
        assert pipeline.process(item) == [item]
        assert len(pipeline) == 0

    def test_short_circuits_after_empty_stage(self):
        pipeline = Pipeline.from_specs(
            [
                SelectionSpec(graph((EN, ">=", 100))),  # drops everything
                ProjectionSpec(frozenset({EN}), frozenset({EN})),
            ],
            ITEM,
        )
        pipeline.process(photon())
        assert pipeline.input_counts == [1, 0]
