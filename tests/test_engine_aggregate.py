"""Unit tests for window aggregation, the wire format, and re-aggregation."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.engine import (
    PartialAggregate,
    ReAggregateOperator,
    WindowAggregateOperator,
    filter_accepts,
    partial_to_wire,
    wire_to_partial,
)
from repro.predicates import PredicateGraph, normalize_comparison
from repro.properties import (
    RESULT_NODE,
    AggregationSpec,
    ReAggregationSpec,
    WindowSpec,
)
from repro.xmlkit import Element, Path, element

ITEM = Path("s/item")
VALUE = ITEM / "v"
TIME = ITEM / "t"


def F(value):
    return Fraction(str(value))


def item(t, v):
    return element("item", Element("t", text=float(t)), Element("v", text=float(v)))


def agg_spec(function="avg", size=4, step=2, filt=None):
    return AggregationSpec(
        function=function,
        aggregated_path=VALUE,
        window=WindowSpec("diff", F(size), F(step), TIME),
        pre_selection=PredicateGraph(),
        result_filter=filt if filt is not None else PredicateGraph(),
    )


def result_filter(op, const):
    return PredicateGraph(normalize_comparison(RESULT_NODE, op, None, F(const)))


class TestPartialAggregate:
    def test_fold_and_final(self):
        partial = PartialAggregate.of_values([1.0, 2.0, 3.0])
        assert partial.final("count") == 3
        assert partial.final("sum") == 6.0
        assert partial.final("min") == 1.0
        assert partial.final("max") == 3.0
        assert partial.final("avg") == 2.0

    @given(
        st.lists(
            st.one_of(
                st.floats(allow_nan=False),
                st.sampled_from([0.0, -0.0, 1.5, -1.5, float("inf")]),
            ),
            max_size=12,
        )
    )
    def test_of_values_is_the_fold_loop_bit_for_bit(self, values):
        """Same running sum; of equal extrema (``-0.0 == 0.0``) the
        first seen is the one kept — ``repr`` tells the zeros apart."""
        folded = PartialAggregate()
        for value in values:
            folded.fold(value)
        assert repr(PartialAggregate.of_values(values)) == repr(folded)
        assert repr(PartialAggregate.of_values(tuple(values))) == repr(folded)

    def test_empty_window(self):
        empty = PartialAggregate()
        assert empty.final("count") == 0
        assert empty.final("sum") == 0.0
        assert empty.final("min") is None
        assert empty.final("avg") is None

    def test_merge(self):
        a = PartialAggregate.of_values([1.0, 5.0])
        b = PartialAggregate.of_values([3.0])
        a.merge(b)
        assert (a.count, a.total, a.minimum, a.maximum) == (3, 9.0, 1.0, 5.0)

    def test_merge_with_empty(self):
        a = PartialAggregate.of_values([2.0])
        a.merge(PartialAggregate())
        assert a.count == 1 and a.final("avg") == 2.0

    def test_unknown_function(self):
        from repro.engine.operators import EngineError

        with pytest.raises(EngineError):
            PartialAggregate().final("median")


class TestWireFormat:
    @pytest.mark.parametrize("function", ["min", "max", "sum", "count", "avg"])
    def test_roundtrip(self, function):
        partial = PartialAggregate.of_values([1.5, 2.5, 4.0])
        wire = partial_to_wire(partial, function)
        parsed = wire_to_partial(wire, function)
        assert parsed.count == partial.count
        assert parsed.final(function) == partial.final(function)

    def test_avg_carries_sum_and_count(self):
        """Section 3.3: avg aggregates travel as (sum, count) pairs."""
        wire = partial_to_wire(PartialAggregate.of_values([1.0, 3.0]), "avg")
        assert wire.child("sum").text == "4"
        assert wire.child("count").text == "2"

    def test_empty_minmax_window(self):
        wire = partial_to_wire(PartialAggregate(), "min")
        assert wire.child("min") is None
        assert wire_to_partial(wire, "min").final("min") is None

    @pytest.mark.parametrize("value", [float("inf"), float("-inf")])
    def test_non_finite_sum_round_trips(self, value):
        """A stream may carry ``inf``: the rendering must not choke on it."""
        wire = partial_to_wire(PartialAggregate.of_values([1.0, value]), "sum")
        assert wire.child("sum").text == repr(value)
        assert wire_to_partial(wire, "sum").final("sum") == value

    def test_bad_wire_item_rejected(self):
        from repro.engine.operators import EngineError

        with pytest.raises(EngineError):
            wire_to_partial(element("other"), "avg")


class TestResultFilter:
    def test_accepts_within_bounds(self):
        assert filter_accepts(result_filter(">=", "1.3"), 1.5)
        assert not filter_accepts(result_filter(">=", "1.3"), 1.0)
        assert filter_accepts(result_filter(">=", "1.3"), 1.3)

    def test_empty_filter_accepts_everything(self):
        assert filter_accepts(PredicateGraph(), None)
        assert filter_accepts(PredicateGraph(), -100.0)

    def test_none_value_fails_nonempty_filter(self):
        assert not filter_accepts(result_filter(">=", 0), None)


class TestWindowAggregateOperator:
    def test_emits_per_step(self):
        op = WindowAggregateOperator(agg_spec("avg", size=4, step=2), ITEM)
        out = []
        for t in range(9):
            out.extend(op.process(item(t, t)))
        # Windows [0,4),[2,6),[4,8) complete by position 8.
        assert len(out) == 3
        finals = [wire_to_partial(w, "avg").final("avg") for w in out]
        assert finals == [1.5, 3.5, 5.5]

    def test_empty_windows_emitted_when_unfiltered(self):
        op = WindowAggregateOperator(agg_spec("avg", size=2, step=2), ITEM)
        out = list(op.process(item(0, 1.0)))
        out.extend(op.process(item(9, 2.0)))
        counts = [wire_to_partial(w, "avg").count for w in out]
        assert counts == [1, 0, 0, 0]  # [0,2) full, then empty cadence

    def test_filtered_windows_suppressed(self):
        spec = agg_spec("avg", size=2, step=2, filt=result_filter(">=", "2.0"))
        op = WindowAggregateOperator(spec, ITEM)
        out = []
        for t, v in [(0, 1.0), (1, 1.0), (2, 3.0), (3, 3.0), (4, 0.0)]:
            out.extend(op.process(item(t, v)))
        # [0,2) avg 1.0 suppressed; [2,4) avg 3.0 passes.
        assert len(out) == 1
        assert wire_to_partial(out[0], "avg").final("avg") == 3.0

    def test_item_without_reference_ignored(self):
        op = WindowAggregateOperator(agg_spec(), ITEM)
        assert op.process(element("item", Element("v", text=1))) == []

    def test_missing_value_still_counts_position(self):
        op = WindowAggregateOperator(agg_spec("count", size=2, step=2), ITEM)
        out = list(op.process(item(0, 1.0)))
        out.extend(op.process(element("item", Element("t", text=1.0))))
        out.extend(op.process(item(2.5, 1.0)))
        assert len(out) == 1
        assert wire_to_partial(out[0], "count").count == 1  # NaN dropped

    def test_count_window(self):
        spec = AggregationSpec(
            "sum", VALUE, WindowSpec("count", F(3), F(3)),
            PredicateGraph(), PredicateGraph(),
        )
        op = WindowAggregateOperator(spec, ITEM)
        out = []
        for t in range(7):
            out.extend(op.process(item(t, 1.0)))
        assert len(out) == 2
        assert wire_to_partial(out[0], "sum").total == 3.0


class TestReAggregateOperator:
    def _partials(self, values_per_window, function="avg"):
        return [
            partial_to_wire(PartialAggregate.of_values(values), function)
            for values in values_per_window
        ]

    def test_figure_5_recombination(self):
        """Q3 (|diff 20 step 10|) windows rebuilt into Q4 (|diff 60 step 40|).

        New window n needs reused arrival indices (n·µ' + j·∆)/µ =
        4n + 2j for j = 0..2 — exactly the Figure 5 picture.
        """
        reused = agg_spec("avg", size=20, step=10)
        new = agg_spec("avg", size=60, step=40)
        op = ReAggregateOperator(ReAggregationSpec(reused, new))
        out = []
        # Reused windows: [0,20),[10,30),[20,40),... values = window index.
        for index in range(13):
            out.extend(op.process(self._partials([[float(index)]])[0]))
        # New window 0 = reused 0,2,4; window 1 = reused 4,6,8; window 2 = 8,10,12.
        finals = [wire_to_partial(w, "avg").final("avg") for w in out]
        assert finals == [2.0, 6.0, 10.0]

    def test_identical_windows_pass_through(self):
        spec = ReAggregationSpec(agg_spec("avg"), agg_spec("avg"))
        op = ReAggregateOperator(spec)
        (wire,) = self._partials([[1.0, 2.0]])
        (out,) = op.process(wire)
        assert wire_to_partial(out, "avg").final("avg") == 1.5

    def test_operator_conversion_avg_to_sum(self):
        spec = ReAggregationSpec(agg_spec("avg"), agg_spec("sum"))
        op = ReAggregateOperator(spec)
        (wire,) = self._partials([[1.0, 2.0]])
        (out,) = op.process(wire)
        assert wire_to_partial(out, "sum").total == 3.0

    def test_additional_filter_applied(self):
        spec = ReAggregationSpec(
            agg_spec("avg"), agg_spec("avg", filt=result_filter(">=", "2.0"))
        )
        op = ReAggregateOperator(spec)
        low, high = self._partials([[1.0], [3.0]])
        assert op.process(low) == []
        assert len(op.process(high)) == 1

    def test_empty_reused_windows_merge_neutrally(self):
        reused = agg_spec("avg", size=2, step=2)
        new = agg_spec("avg", size=4, step=4)
        op = ReAggregateOperator(ReAggregationSpec(reused, new))
        out = []
        for values in ([1.0], [], [3.0], []):
            out.extend(op.process(self._partials([values])[0]))
        assert len(out) == 2
        assert wire_to_partial(out[0], "avg").final("avg") == 1.0  # 1.0 + empty
