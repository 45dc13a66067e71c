"""Tests for stream widening (the Section 6 enhancement)."""

from fractions import Fraction

import pytest

from tests.conftest import (
    PAPER_QUERIES,
    assert_ledger_is_the_walk,
    make_system,
    on_every_executor,
)
from repro.analysis import verify_deployment
from repro.predicates import PredicateGraph, normalize_comparison
from repro.properties import (
    ProjectionSpec,
    SelectionSpec,
    StreamProperties,
    extract_properties,
)
from repro.sharing import plan_widening, widen_content
from repro.sharing.widening import widen_projection, widen_selection
from repro.wxquery import parse_query
from repro.xmlkit import Path

ITEM = Path("photons/photon")
RA = ITEM / "coord/cel/ra"
DEC = ITEM / "coord/cel/dec"
EN = ITEM / "en"
TIME = ITEM / "det_time"


def F(value):
    return Fraction(str(value))


def selection(*specs):
    atoms = []
    for path, op, const in specs:
        atoms.extend(normalize_comparison(path, op, None, F(const)))
    return SelectionSpec(PredicateGraph(atoms))


def sp(*operators):
    return StreamProperties("photons", ITEM, tuple(operators))


NARROW_QUERY = """<photons>{ for $p in stream("photons")/photons/photon
  where $p/coord/cel/ra >= 130.5 and $p/coord/cel/ra <= 135.5
  and $p/coord/cel/dec >= -48.0 and $p/coord/cel/dec <= -45.0
  return <rxj> { $p/coord/cel/ra } { $p/coord/cel/dec } { $p/en } { $p/det_time } </rxj> }</photons>"""

WIDE_QUERY = PAPER_QUERIES["Q1"]


class TestWidenSelection:
    def test_hull_takes_looser_bounds(self):
        narrow = selection((RA, ">=", "130.5"), (RA, "<=", "135.5"))
        wide = selection((RA, ">=", "120.0"), (RA, "<=", "138.0"))
        hull = widen_selection(narrow, wide)
        lower, upper = hull.graph.derived_interval(RA)
        assert (lower, upper) == (F("120"), F("138"))

    def test_disjoint_constraints_dropped(self):
        first = selection((RA, ">=", 120), (EN, ">=", "1.3"))
        second = selection((RA, ">=", 125), (DEC, "<=", -40))
        hull = widen_selection(first, second)
        # Only the shared RA lower bound survives, at the looser value.
        lower, upper = hull.graph.derived_interval(RA)
        assert lower == F(120)
        assert hull.graph.derived_interval(EN) == (None, None)

    def test_no_common_constraints_means_no_selection(self):
        first = selection((RA, ">=", 120))
        second = selection((DEC, "<=", -40))
        assert widen_selection(first, second) is None

    def test_missing_side_means_no_selection(self):
        assert widen_selection(None, selection((RA, ">=", 1))) is None
        assert widen_selection(selection((RA, ">=", 1)), None) is None


class TestWidenProjection:
    def test_union(self):
        first = ProjectionSpec(frozenset({EN}), frozenset({EN}))
        second = ProjectionSpec(frozenset({TIME}), frozenset({TIME, RA}))
        union = widen_projection(first, second)
        assert union.output_elements == {EN, TIME}
        assert union.referenced_elements == {EN, TIME, RA}

    def test_whole_item_side_drops_projection(self):
        first = ProjectionSpec(frozenset({EN}), frozenset({EN}))
        assert widen_projection(first, None) is None


class TestWidenContent:
    def q_props(self, text, name):
        return extract_properties(parse_query(text), name).single_input()

    def test_narrow_widens_to_cover_wide(self):
        narrow = self.q_props(NARROW_QUERY, "narrow")
        wide = self.q_props(WIDE_QUERY, "wide")
        widened = widen_content(narrow, wide)
        assert widened is not None
        from repro.matching import match_stream_properties

        assert match_stream_properties(widened, narrow)
        assert match_stream_properties(widened, wide)

    def test_already_matching_returns_none(self):
        wide = self.q_props(WIDE_QUERY, "wide")
        narrow = self.q_props(NARROW_QUERY, "narrow")
        # wide already matches narrow: widening must decline (nothing
        # changes).
        assert widen_content(wide, narrow) is None

    def test_aggregate_streams_never_widened(self):
        q3 = self.q_props(PAPER_QUERIES["Q3"], "Q3")
        wide = self.q_props(WIDE_QUERY, "wide")
        assert widen_content(q3, wide) is None
        assert widen_content(wide, q3) is None

    def test_different_streams_never_widened(self):
        other = StreamProperties("other", ITEM, (selection((RA, ">=", 1)),))
        wide = self.q_props(WIDE_QUERY, "wide")
        assert widen_content(other, wide) is None


class TestWideningEndToEnd:
    def _system(self):
        return make_system("stream-sharing", enable_widening=True)

    @on_every_executor
    def test_widening_considered_and_results_unchanged(self, executor):
        """Register a narrow query, then a wide one that the narrow
        stream cannot serve unwidened.  Whatever the optimizer picks,
        every query's results must equal the unwidened system's."""
        widened_system = executor.system("stream-sharing", enable_widening=True)
        widened_system.register_query("narrow", NARROW_QUERY, "P1")
        widened_system.register_query("wide", WIDE_QUERY, "P2")
        baseline = executor.system("stream-sharing")
        baseline.register_query("narrow", NARROW_QUERY, "P1")
        baseline.register_query("wide", WIDE_QUERY, "P2")

        widened_metrics = executor.run(widened_system, duration=30.0)
        baseline_metrics = executor.run(baseline, duration=30.0)
        assert widened_metrics.items_delivered == baseline_metrics.items_delivered

    def test_widening_commits_consistent_state(self):
        system = self._system()
        system.register_query("narrow", NARROW_QUERY, "P1")
        result = system.register_query("wide", WIDE_QUERY, "P2")
        assert result.accepted
        deployment = system.deployment
        # Every query's delivered stream must exist and match its needs.
        from repro.matching import match_stream_properties

        for record in deployment.queries.values():
            for input_stream, stream_id in record.delivered:
                delivered = deployment.stream(stream_id)
                needed = record.properties.input_for(input_stream)
                assert match_stream_properties(delivered.content, needed), (
                    record.name, stream_id,
                )

    def test_widening_disabled_by_default(self):
        """The sequence that widens when the enhancement is on (see
        ``test_widening_ledger_returns_to_baseline``) never does by
        default."""
        system = make_system("stream-sharing")
        system.register_query("narrow", NARROW_QUERY, "P2")
        system.register_query("wide", WIDE_QUERY, "P2")
        assert not any(
            plan.widening for result in system.results for plan in result.plan.inputs
        )

    def test_widening_ledger_returns_to_baseline(self):
        """A widening's delta is the ledger walk after minus the walk
        before, so what the widened streams release is what was
        committed (at PR 21: 1 463.76 units/s left at SP7, P132)."""
        system = self._system()
        usage = system.deployment.usage
        baseline = (dict(usage._peer_work), dict(usage._link_bits))
        system.register_query("narrow", NARROW_QUERY, "P2")
        wide = system.register_query("wide", WIDE_QUERY, "P2")
        assert wide.plan.inputs[0].widening is not None
        assert_ledger_is_the_walk(system)
        system.deregister_query("narrow")
        system.deregister_query("wide")
        assert sorted(system.deployment.streams) == ["photons"]
        for before, after in zip(baseline, (usage._peer_work, usage._link_bits)):
            assert {k: v for k, v in after.items() if v} == before
        assert verify_deployment(system.deployment, catalog=system.catalog).ok

    def test_no_widening_under_a_parent_that_cannot_supply_it(self):
        """A stream is only as wide as what it derives from: a candidate
        fed by a narrower stream (a widening's restoring stream, say)
        cannot be widened past it — at PR 21 scenario 1 did exactly
        that (P113; Q020 and Q023 delivered 395 items instead of 1 079)."""
        system = self._system()
        system.register_query("narrow", NARROW_QUERY, "P2")
        deployment = system.deployment
        narrow = deployment.stream("narrow:photons")
        child = system.install_derived_stream(
            "narrow:copy", "narrow:photons", (), "P1", tap_node=narrow.target_node
        )
        needed = extract_properties(parse_query(WIDE_QUERY), "wide").single_input()
        assert plan_widening(system.planner, deployment, narrow, needed, "wide") is not None
        assert plan_widening(system.planner, deployment, child, needed, "wide") is None

    def test_widening_used_when_it_wins(self):
        """On a path where the narrow stream flows right past the new
        subscriber, widening beats going back to the source."""
        system = self._system()
        # narrow at P2 (SP7): stream flows SP4 -> SP6 -> SP7.
        system.register_query("narrow", NARROW_QUERY, "P2")
        result = system.register_query("wide", WIDE_QUERY, "P2")
        plan = result.plan.inputs[0]
        if plan.widening is not None:
            widened = system.deployment.stream("narrow:photons")
            lower, upper = widened.content.selection.graph.derived_interval(RA)
            assert (lower, upper) == (F(120), F(138))
            # The narrow query's delivery now passes through a restore.
            record = system.deployment.queries["narrow"]
            assert record.delivered[0][1].startswith("narrow:photons#restore")


def test_scenario_one_with_widening_keeps_the_ledger_and_verifies():
    """The widened deployment of the ablation (benchmarks/): five
    widenings, each rewriting consumers and installing restores."""
    from repro.workload.scenarios import run_scenario, scenario_one

    run = run_scenario(
        scenario_one(), "stream-sharing", enable_widening=True, execute=False
    )
    assert any(
        plan.widening for result in run.registrations for plan in result.plan.inputs
    )
    system = run.system
    assert_ledger_is_the_walk(system)
    report = verify_deployment(system.deployment, catalog=system.catalog)
    assert report.ok, report.render()
