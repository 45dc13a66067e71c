"""Property-based tests for windows and aggregate sharing (hypothesis).

Key invariant (Figure 5): re-aggregating a stream of fine-window partial
aggregates into compatible coarser windows yields *exactly* the values a
fresh aggregation with the coarse window would have produced.
"""

from fractions import Fraction
from itertools import starmap

from hypothesis import assume, given, settings, strategies as st

from repro.engine import (
    EngineError,
    ReAggregateOperator,
    SlidingWindower,
    WindowAggregateOperator,
    wire_to_partial,
)
from repro.engine.columnar import RowBatch, encode_batch
from repro.engine.window import ReorderBuffer, WindowBatch
from repro.predicates import PredicateGraph
from repro.properties import AggregationSpec, ReAggregationSpec, WindowSpec
from repro.xmlkit import Element, Path, element
from repro.xmlkit.serializer import serialize

ITEM = Path("s/item")
VALUE = ITEM / "v"
TIME = ITEM / "t"


def agg_spec(function, size, step):
    return AggregationSpec(
        function=function,
        aggregated_path=VALUE,
        window=WindowSpec("diff", Fraction(size), Fraction(step), TIME),
        pre_selection=PredicateGraph(),
        result_filter=PredicateGraph(),
    )


def item(t, v):
    return element("item", Element("t", text=float(t)), Element("v", text=float(v)))


#: Compatible (fine, coarse) window lattices: coarse = (k·fine, m·step)
#: with fine.size a multiple of fine.step.
@st.composite
def window_pairs(draw):
    fine_step = draw(st.integers(min_value=1, max_value=4))
    fine_size = fine_step * draw(st.integers(min_value=1, max_value=3))
    coarse_size = fine_size * draw(st.integers(min_value=1, max_value=3))
    coarse_step = fine_step * draw(st.integers(min_value=1, max_value=4))
    return (fine_size, fine_step, coarse_size, coarse_step)


VALUES = st.lists(
    st.floats(min_value=-100, max_value=100, allow_nan=False, width=32),
    min_size=5,
    max_size=60,
)


class TestWindowerInvariants:
    @given(st.integers(1, 5), st.integers(1, 5), st.integers(5, 40))
    @settings(max_examples=100, deadline=None)
    def test_every_position_lands_in_its_windows(self, size, step, count):
        windower = SlidingWindower(float(size), float(step))
        emitted = []
        for position in range(count):
            emitted.extend(windower.add(float(position), position))
        for window in emitted:
            assert all(window.start <= p < window.end for p in window.contents)
            expected = [p for p in range(count) if window.start <= p < window.end]
            assert list(window.contents) == expected

    @given(st.integers(1, 5), st.integers(1, 5), st.integers(5, 40))
    @settings(max_examples=100, deadline=None)
    def test_window_bounds_follow_lattice(self, size, step, count):
        windower = SlidingWindower(float(size), float(step))
        emitted = []
        for position in range(count):
            emitted.extend(windower.add(float(position), position))
        for window in emitted:
            assert window.start == window.index * step
            assert window.end == window.start + size


class TestReAggregationEquivalence:
    @given(window_pairs(), VALUES, st.sampled_from(["avg", "sum", "count", "min", "max"]))
    @settings(max_examples=150, deadline=None)
    def test_matches_fresh_coarse_aggregation(self, windows, values, function):
        fine_size, fine_step, coarse_size, coarse_step = windows
        fine = agg_spec(function, fine_size, fine_step)
        coarse = agg_spec(function, coarse_size, coarse_step)
        assume(coarse.window.shareable_from(fine.window))

        items = [item(t, v) for t, v in enumerate(values)]

        fresh = WindowAggregateOperator(coarse, ITEM)
        expected = []
        for i in items:
            expected.extend(fresh.process(i))

        fine_op = WindowAggregateOperator(fine, ITEM)
        rebuild = ReAggregateOperator(ReAggregationSpec(fine, coarse))
        actual = []
        for i in items:
            for partial in fine_op.process(i):
                actual.extend(rebuild.process(partial))

        assert len(actual) == len(expected)
        for got, want in zip(actual, expected):
            got_partial = wire_to_partial(got, function)
            want_partial = wire_to_partial(want, function)
            assert got_partial.count == want_partial.count
            got_final = got_partial.final(function)
            want_final = want_partial.final(function)
            if want_final is None:
                assert got_final is None
            else:
                assert abs(got_final - want_final) < 1e-6


class TestWindowSpecLattice:
    @given(window_pairs())
    def test_shareability_is_reflexive_on_tiling_windows(self, windows):
        fine_size, fine_step, _, _ = windows
        spec = WindowSpec("count", Fraction(fine_size), Fraction(fine_step))
        assert spec.shareable_from(spec)

    @given(window_pairs(), window_pairs())
    @settings(max_examples=100)
    def test_shareability_transitive(self, first, second):
        a = WindowSpec("count", Fraction(first[0]), Fraction(first[1]))
        b = WindowSpec("count", Fraction(first[2]), Fraction(first[3]))
        c = WindowSpec(
            "count",
            Fraction(first[2] * second[2]),
            Fraction(first[3] * second[3]),
        )
        if b.shareable_from(a) and c.shareable_from(b):
            assert c.shareable_from(a)


# ----------------------------------------------------------------------
# The run fold against the per-row add it replaced
# ----------------------------------------------------------------------
class _PerRowWindower:
    """``SlidingWindower`` as it was when ``add`` did the window
    arithmetic on every arrival: the reference :meth:`add_run` is
    compared with."""

    def __init__(self, size, step):
        self.size, self.step = size, step
        self.next_index = 0
        self.buffer = []
        self.last_position = None

    def add(self, position, payload):
        if self.last_position is not None and position < self.last_position:
            raise EngineError(
                f"out-of-order position {position} after {self.last_position}; "
                "time-based windows need a sorted reference element"
            )
        self.last_position = position
        out = []
        while True:
            start = self.next_index * self.step
            end = start + self.size
            if position < end:
                break
            contents = tuple(p for pos, p in self.buffer if start <= pos < end)
            out.append((self.next_index, start, end, contents))
            self.next_index += 1
            keep_from = self.next_index * self.step
            self.buffer = [(pos, p) for pos, p in self.buffer if pos >= keep_from]
        self.buffer.append((position, payload))
        return out

    def state(self):
        return self.next_index, self.last_position, self.buffer


def _windows(batches):
    return [(w.index, w.start, w.end, w.contents) for w in batches]


def _windower_state(windower):
    return windower._next_index, windower._last_position, windower._buffer


def _folded(fold, reference, run):
    """Both sides' outcome of one run: windows, or the error message."""
    outcomes = []
    for side in (fold, reference):
        try:
            outcomes.append(side(run))
        except EngineError as error:
            outcomes.append(str(error))
    return outcomes


#: Window geometries with ends the positions below land on, between
#: and far beyond (tumbling, sliding, gapped; fractional steps).
GEOMETRIES = st.sampled_from(
    [(1.0, 1.0), (4.0, 4.0), (6.0, 2.0), (2.0, 5.0), (0.75, 0.25), (10.0, 3.0)]
)

#: Gaps between consecutive positions: none, inside a window, across
#: one end, across many.
GAPS = st.sampled_from([0.0, 0.0, 0.25, 0.5, 1.0, 3.0, 40.0])


@st.composite
def sorted_runs(draw):
    position = draw(st.sampled_from([0.0, 0.5, 7.0]))
    run = []
    for gap in draw(st.lists(GAPS, max_size=40)):
        position += gap
        run.append(position)
    return run


class TestRunFold:
    @given(GEOMETRIES, sorted_runs(), st.lists(st.integers(0, 40), max_size=3))
    @settings(max_examples=200, deadline=None)
    def test_add_run_equals_per_row_add(self, geometry, positions, cuts):
        """Runs that cross no, one and many window ends, cut into
        batches anywhere."""
        windower = SlidingWindower(*geometry)
        reference = _PerRowWindower(*geometry)
        arrivals = [(position, index) for index, position in enumerate(positions)]
        bounds = [0, *sorted(cuts), len(arrivals)]
        for low, high in zip(bounds, bounds[1:]):
            run = arrivals[low:high]
            expected = [w for arrival in run for w in reference.add(*arrival)]
            assert _windows(windower.add_run(run)) == expected
            assert _windower_state(windower) == reference.state()
        # One more arrival, a few windows on, flushes what is buffered.
        beyond = (positions[-1] if positions else 0.0) + 3 * geometry[0]
        assert _windows(windower.add(beyond, "last")) == reference.add(beyond, "last")

    @given(GEOMETRIES, sorted_runs(), st.data())
    @settings(max_examples=100, deadline=None)
    def test_decreasing_position_raises_where_the_per_row_add_did(
        self, geometry, positions, data
    ):
        assume(len(positions) >= 2 and positions[-1] > positions[0])
        # Move one position in front of an earlier, smaller one.
        late = data.draw(st.integers(1, len(positions) - 1))
        assume(positions[late] > positions[0])
        positions = [*positions[:late], positions[0], *positions[late:]]
        assume(positions[late + 1] > positions[late])
        run = list(zip(positions, range(len(positions))))
        windower = SlidingWindower(*geometry)
        reference = _PerRowWindower(*geometry)

        def per_row(arrivals):
            return [w for arrival in arrivals for w in reference.add(*arrival)]

        with_error = [*run[: late + 1], (positions[late] - 1.0, "early"), *run[late + 1 :]]
        fold, expected = _folded(
            lambda arrivals: _windows(windower.add_run(arrivals)), per_row, with_error
        )
        assert isinstance(expected, str) and fold == expected
        # Everything before the offending row was added, nothing after.
        assert _windower_state(windower) == reference.state()

    @given(
        kind=st.sampled_from(["diff", "count"]),
        geometry=st.sampled_from([(4, 4), (6, 2), (2, 5), (3, 1)]),
        rows=st.lists(
            st.tuples(
                GAPS,
                st.booleans(),  # the row has a position
                st.one_of(st.none(), st.floats(-50, 50, width=32)),
                st.integers(-2, 2),  # local disorder, for the reorder buffer
            ),
            max_size=40,
        ),
        cuts=st.lists(st.integers(0, 40), max_size=3),
        function=st.sampled_from(["avg", "min", "max", "sum", "count"]),
        capacity=st.sampled_from([0, 0, 4]),
        columnar_store=st.booleans(),
    )
    @settings(max_examples=200, deadline=None)
    def test_aggregate_operator_folds_batches_like_rows(
        self, kind, geometry, rows, cuts, function, capacity, columnar_store
    ):
        """``process_columns`` against the per-row loop it replaced:
        missing positions are skipped, missing values advance the
        windows, the reorder buffer sits in front of the windows —
        same wires per batch, same ``EngineError`` when the disorder
        exceeds the buffer."""
        size, step = geometry
        spec = AggregationSpec(
            function=function,
            aggregated_path=VALUE,
            window=WindowSpec(
                kind, Fraction(size), Fraction(step), TIME if kind == "diff" else None
            ),
            pre_selection=PredicateGraph(),
            result_filter=PredicateGraph(),
        )
        position = 0.0
        items, arrivals = [], []
        for gap, has_position, value, jitter in rows:
            position += gap
            stamped = position + (jitter if capacity else 0)
            children = [Element("t", text=stamped)] if has_position else []
            if value is not None:
                children.append(Element("v", text=value))
            items.append(element("item", *children).freeze())
            arrivals.append((stamped if has_position else None, value))

        operator = WindowAggregateOperator(spec, ITEM, reorder_capacity=capacity)
        reference = _PerRowWindower(float(size), float(step))
        reorder = ReorderBuffer(capacity) if capacity and kind == "diff" else None
        seen = 0

        def per_row(batch):
            nonlocal seen
            completed = []
            for position, value in batch:
                if kind == "count":
                    position = float(seen)
                    seen += 1
                elif position is None:
                    continue
                payload = float("nan") if value is None else float(value)
                if reorder is None:
                    completed.extend(reference.add(position, payload))
                else:
                    for released in reorder.add(position, payload):
                        completed.extend(reference.add(*released))
            return [
                serialize(wire)
                for wire in map(operator._emit, starmap(WindowBatch, completed))
                if wire is not None
            ]

        def fold(batch_items):
            view = encode_batch(batch_items) if columnar_store else RowBatch(batch_items)
            return [serialize(wire) for wire in operator.process_columns(view).decode()]

        bounds = [0, *sorted(min(cut, len(items)) for cut in cuts), len(items)]
        for low, high in zip(bounds, bounds[1:]):
            got = _folded(fold, lambda _: per_row(arrivals[low:high]), items[low:high])
            assert got[0] == got[1]
            if isinstance(got[0], str):
                return  # the run is over: both raised the same error
        windower = operator._windower
        assert (windower._next_index, windower._last_position) == reference.state()[:2]
        assert [
            (position, repr(payload)) for position, payload in windower._buffer
        ] == [(position, repr(payload)) for position, payload in reference.buffer]
