"""Unit tests for the sliding windower, reorder buffer, and window
contents operator."""

import signal
from fractions import Fraction

import pytest

from repro.engine import (
    ReorderBuffer,
    SlidingWindower,
    WindowAggregateOperator,
    WindowContentsOperator,
)
from repro.engine.columnar import ColumnBatch, GroupedBatch, RowBatch, encode_batch
from repro.engine.operators import EngineError
from repro.predicates import PredicateGraph
from repro.properties import AggregationSpec, WindowContentsSpec, WindowSpec
from repro.xmlkit import Element, Path, element

ITEM = Path("s/item")


class TestSlidingWindower:
    def test_tumbling_windows(self):
        windower = SlidingWindower(size=2.0, step=2.0)
        emitted = []
        for position in range(7):
            emitted.extend(windower.add(float(position), position))
        assert [w.contents for w in emitted] == [(0, 1), (2, 3), (4, 5)]

    def test_sliding_windows_figure_5(self):
        """Q3's window |diff 20 step 10| over positions 0..59."""
        windower = SlidingWindower(size=20.0, step=10.0)
        emitted = []
        for position in range(0, 60):
            emitted.extend(windower.add(float(position), position))
        assert [(w.start, w.end) for w in emitted] == [
            (0.0, 20.0), (10.0, 30.0), (20.0, 40.0), (30.0, 50.0),
        ]
        assert emitted[1].contents == tuple(range(10, 30))

    def test_window_indices_sequential(self):
        windower = SlidingWindower(size=1.0, step=1.0)
        emitted = []
        for position in range(5):
            emitted.extend(windower.add(float(position), position))
        assert [w.index for w in emitted] == [0, 1, 2, 3]

    def test_empty_windows_emitted(self):
        windower = SlidingWindower(size=1.0, step=1.0)
        emitted = windower.add(0.0, "a")
        assert emitted == []
        emitted = windower.add(5.0, "b")  # jumps over [1,2),[2,3),[3,4),[4,5)
        assert [len(w) for w in emitted] == [1, 0, 0, 0, 0]

    def test_out_of_order_rejected(self):
        windower = SlidingWindower(size=2.0, step=1.0)
        windower.add(5.0, "a")
        with pytest.raises(EngineError):
            windower.add(4.0, "b")

    def test_flush_emits_partial_windows(self):
        windower = SlidingWindower(size=4.0, step=2.0)
        for position in range(3):
            windower.add(float(position), position)
        flushed = windower.flush()
        assert flushed[0].contents == (0, 1, 2)

    def test_invalid_parameters(self):
        with pytest.raises(EngineError):
            SlidingWindower(size=0, step=1)
        with pytest.raises(EngineError):
            SlidingWindower(size=1, step=0)

    def test_overlapping_windows_share_items(self):
        windower = SlidingWindower(size=4.0, step=2.0)
        emitted = []
        for position in range(9):
            emitted.extend(windower.add(float(position), position))
        assert emitted[0].contents == (0, 1, 2, 3)
        assert emitted[1].contents == (2, 3, 4, 5)


class TestReorderBuffer:
    def test_orders_within_capacity(self):
        buffer = ReorderBuffer(capacity=3)
        released = []
        for position in (3.0, 1.0, 2.0, 4.0):
            released.extend(buffer.add(position, position))
        released.extend(buffer.flush())
        assert [p for p, _ in released] == [1.0, 2.0, 3.0, 4.0]

    def test_overflow_releases_smallest(self):
        buffer = ReorderBuffer(capacity=2)
        assert buffer.add(5.0, "a") == []
        assert buffer.add(3.0, "b") == []
        released = buffer.add(4.0, "c")
        assert released == [(3.0, "b")]
        assert len(buffer) == 2

    def test_stable_for_equal_positions(self):
        buffer = ReorderBuffer(capacity=1)
        buffer.add(1.0, "first")
        released = buffer.add(1.0, "second")
        assert released == [(1.0, "first")]

    def test_capacity_validated(self):
        with pytest.raises(EngineError):
            ReorderBuffer(capacity=0)


class TestWindowContentsOperator:
    def _items(self, count):
        return [
            element("item", Element("t", text=float(i)), Element("v", text=i))
            for i in range(count)
        ]

    def test_count_window(self):
        spec = WindowContentsSpec(WindowSpec("count", Fraction(2), Fraction(2)))
        op = WindowContentsOperator(spec, ITEM)
        out = []
        for item in self._items(5):
            out.extend(op.process(item))
        assert len(out) == 2
        assert out[0].tag == "window"
        assert [c.find(["v"]).text for c in out[0].children] == ["0", "1"]

    def test_time_window(self):
        spec = WindowContentsSpec(
            WindowSpec("diff", Fraction(2), Fraction(2), ITEM / "t")
        )
        op = WindowContentsOperator(spec, ITEM)
        out = []
        for item in self._items(5):
            out.extend(op.process(item))
        assert len(out) == 2  # [0,2) and [2,4) complete

    def test_item_without_reference_skipped(self):
        spec = WindowContentsSpec(
            WindowSpec("diff", Fraction(2), Fraction(2), ITEM / "t")
        )
        op = WindowContentsOperator(spec, ITEM)
        assert op.process(element("item", Element("v", text=1))) == []

    def test_flush(self):
        spec = WindowContentsSpec(WindowSpec("count", Fraction(10), Fraction(10)))
        op = WindowContentsOperator(spec, ITEM)
        for item in self._items(3):
            op.process(item)
        (window,) = op.flush()
        assert len(window.children) == 3


# ----------------------------------------------------------------------
# Non-finite positions: no window ends after inf or nan
# ----------------------------------------------------------------------
class _Spinning(Exception):
    pass


def _outcome(call):
    """``call()``'s value or the ``EngineError`` it raised.  A call still
    running after half a second is interrupted, so a windower that
    loops forever (emitting windows as it goes) fails the test instead
    of hanging the suite and filling memory."""

    def interrupt(signum, frame):
        raise _Spinning

    previous = signal.signal(signal.SIGALRM, interrupt)
    signal.setitimer(signal.ITIMER_REAL, 0.5)
    try:
        return call()
    except EngineError as error:
        return error
    except _Spinning:
        pytest.fail("the call did not return")
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


NON_FINITE = ("inf", "nan")
STORES = {"shape": ColumnBatch, "grouped": GroupedBatch, "row": RowBatch}


def _windows(batches):
    return [(w.start, w.end, w.contents) for w in batches]


class TestNonFinitePositions:
    @pytest.mark.parametrize("text", NON_FINITE)
    def test_windower_rejects_it_with_everything_before_it_added(self, text):
        windower = SlidingWindower(1.0, 1.0)
        windower.add(0.5, "a")
        error = _outcome(lambda: windower.add(float(text), "x"))
        assert isinstance(error, EngineError)
        assert f"window position {text} is not finite" in str(error)
        # The run goes on from where it was.
        assert _windows(windower.add(2.0, "b")) == [(0.0, 1.0, ("a",)), (1.0, 2.0, ())]

    @pytest.mark.parametrize("text", NON_FINITE)
    def test_windower_rejects_it_inside_a_run(self, text):
        windower = SlidingWindower(1.0, 1.0)
        run = [(0.5, "a"), (1.5, "b"), (float(text), "x"), (2.5, "c")]
        assert isinstance(_outcome(lambda: windower.add_run(run)), EngineError)
        assert windower._last_position == 1.5
        assert [payload for _, payload in windower._buffer] == ["b"]

    def test_minus_inf_completes_no_window(self):
        windower = SlidingWindower(1.0, 1.0)
        assert _outcome(lambda: windower.add(float("-inf"), "a")) == []
        windower.add(0.5, "b")
        assert _windows(windower.add(1.5, "c")) == [(0.0, 1.0, ("b",))]

    @pytest.mark.parametrize("store", ["shape", "grouped", "row"])
    @pytest.mark.parametrize("text", NON_FINITE)
    @pytest.mark.parametrize("operator", ["aggregate", "aggregate-reordered", "contents"])
    def test_operators_reject_it_on_every_store(self, operator, text, store):
        """A reference leaf reading ``inf`` or ``nan`` raises from the
        diff-window operators, whatever store the batch lives in and
        whether a reorder buffer sits in front of the windows (which
        hands the position on at the latest when flushed)."""
        window = WindowSpec("diff", Fraction(2), Fraction(2), ITEM / "t")
        if operator == "contents":
            op = WindowContentsOperator(WindowContentsSpec(window), ITEM)
        else:
            spec = AggregationSpec(
                function="sum",
                aggregated_path=ITEM / "v",
                window=window,
                pre_selection=PredicateGraph(),
                result_filter=PredicateGraph(),
            )
            capacity = 4 if operator == "aggregate-reordered" else 0
            op = WindowAggregateOperator(spec, ITEM, reorder_capacity=capacity)
        items = []
        for i in range(16):
            children = [Element("t", text=text if i == 10 else float(i)), Element("v", text=i)]
            if store == "grouped" and i % 2:
                children.append(Element("w", text=i))
            items.append(element("item", *children).freeze())
        batch = RowBatch(items) if store == "row" else encode_batch(items)
        assert isinstance(batch, STORES[store])

        def run():
            op.process_columns(batch)
            op.flush()

        error = _outcome(run)
        assert isinstance(error, EngineError)
        assert "is not finite" in str(error)
