"""Property tests: the three batch stores are observationally equal.

The engine has one implementation per operator, written against one
batch view over a shape store, a grouped store or a row store
(DESIGN.md §14).  What is left to hold is that the *stores* agree: the
same random batch through the same operator chain as a
:class:`ColumnBatch` (one shape) or a :class:`GroupedBatch` (a few) and
as a :class:`RowBatch` yields the same outputs, per-stage input counts,
``serialized_bytes``, operator state and wire round trip — also when
all three alternate on one operator instance — and that the store
ingest picks from the input changes nothing a caller can observe.
``repro.engine.eval.satisfies`` is the independent per-item reference
for the selection kernel.
"""

import math
import pickle
from fractions import Fraction
from unittest import mock

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.engine import Pipeline, columnar, satisfies
from repro.engine.columnar import (
    ColumnBatch,
    DeliveryKernel,
    GroupedBatch,
    RowBatch,
    encode_batch,
)
from repro.engine.aggregate import PartialAggregate, partial_to_wire
from repro.engine.operators import build_operator
from repro.predicates import ZERO, PredicateGraph, normalize_comparison
from repro.predicates.atoms import Bound
from repro.properties import (
    AggregationSpec,
    ProjectionSpec,
    SelectionSpec,
    WindowContentsSpec,
    WindowSpec,
)
from repro.xmlkit import Path, element
from repro.xmlkit.columns import signature_of
from repro.xmlkit.serializer import serialize

ITEM = Path("photons/photon")
RA = ITEM / "coord/cel/ra"
EN = ITEM / "en"
TIME = ITEM / "det_time"

finite = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)
#: ``det_time`` values: a time-based window operator emits every window
#: between two positions, so the span bounds the work per example.
times = st.floats(min_value=0.0, max_value=300.0)

#: Leaf texts a number column has to get right: small integers (so
#: that bounds are met exactly, where strict and non-strict edges part
#: ways) in several spellings ``float()`` accepts, text it rejects, no
#: text, arbitrary floats.
number_text = st.one_of(
    st.integers(-2, 2).map(str),
    st.sampled_from(["-0.0", "1e0", " 2 ", "2.0", "1_0", "nan", "inf", "-inf"]),
    st.sampled_from([None, "", "abc", "0x10", "1,5"]),
    finite,
)


def graph(path, op, const):
    return PredicateGraph(
        normalize_comparison(path, op, None, Fraction(str(const)))
    )


def chains():
    diff = WindowSpec("diff", Fraction(10), Fraction(5), TIME)
    count = WindowSpec("count", Fraction(3), Fraction(2), None)

    def aggregate(window):
        return AggregationSpec(
            function="avg",
            aggregated_path=EN,
            window=window,
            pre_selection=graph(EN, ">=", "-1000.0"),
            result_filter=PredicateGraph(),
        )

    return {
        "select_project": [
            SelectionSpec(graph(RA, ">=", "0.0")),
            ProjectionSpec(frozenset({RA, EN}), frozenset({RA, EN})),
        ],
        "aggregate": [aggregate(diff)],
        "select_count_aggregate": [
            SelectionSpec(graph(EN, "<=", "100.0")),
            aggregate(count),
        ],
        "project_window": [
            ProjectionSpec(frozenset({EN, TIME}), frozenset({EN, TIME})),
            WindowContentsSpec(count),
        ],
    }


# ----------------------------------------------------------------------
# One chain, the same batches, either store
# ----------------------------------------------------------------------
def regular_photon(ra, en, t):
    """One shape whatever the texts are (a textless leaf is still a leaf)."""
    return element(
        "photon",
        element("coord", element("cel", element("ra", text=ra))),
        element("en", text=en),
        element("det_time", text=t),
    ).freeze()


def shape_view(items):
    view = encode_batch(items)
    assert isinstance(view, ColumnBatch) or not items
    return view


def described(view):
    """Everything a consumer can observe of a stage's output view."""
    decoded = view.decode()
    for arrived in (pickle.loads(pickle.dumps(view)), view.detached()):
        assert arrived.decode() == decoded
        assert arrived.serialized_bytes() == view.serialized_bytes()
    assert all(item.frozen for item in decoded)
    assert view.serialized_bytes() == sum(item.serialized_size() for item in decoded)
    return len(view), [serialize(item) for item in decoded], view.serialized_bytes()


def state_of(operator):
    """The mutable state a kernel leaves behind, as comparable data."""
    windower = getattr(operator, "_windower", None)
    buffered = None
    if windower is not None:
        buffered = (
            windower._next_index,
            windower._last_position,
            [
                (position, repr(payload) if isinstance(payload, float) else serialize(payload))
                for position, payload in windower._buffer
            ],
        )
    return (
        getattr(operator, "seen", None),
        getattr(operator, "passed", None),
        getattr(operator, "_count", None),
        buffered,
    )


def run_chain(specs, batches, views):
    """Fold ``batches`` through fresh operators, batch ``k`` entering as
    ``views[k % len(views)]`` builds it; returns all that is observable."""
    operators = [build_operator(spec, ITEM) for spec in specs]
    trace = []
    for index, items in enumerate(batches):
        batch = views[index % len(views)](items)
        for operator in operators:
            if not batch:
                break
            inputs = len(batch)
            batch = operator.process_columns(batch)
            trace.append((type(operator).__name__, inputs, described(batch)))
    return trace, [state_of(operator) for operator in operators]


@settings(max_examples=60, deadline=None)
@given(
    data=st.lists(st.tuples(number_text, number_text, times), max_size=40),
    name=st.sampled_from(sorted(chains())),
    cuts=st.tuples(st.integers(0, 40), st.integers(0, 40)),
)
# A window whose sum is not finite used to die in the wire rendering.
@example(data=[("0", "inf", 0.0), ("0", "nan", 1.0), ("0", "0", 10.0)], name="aggregate", cuts=(0, 2))
def test_tree_vs_columnar_identity(data, name, cuts):
    """Row store (the trees) against shape store (their columns)."""
    # Time-based windows require a det_time-sorted stream.
    data = sorted(data, key=lambda row: row[2])
    items = [regular_photon(*row) for row in data]
    # Three batches, so stateful operators cross batch boundaries.
    low, high = sorted(cuts)
    batches = [items[:low], items[low:high], items[high:]]
    specs = chains()[name]
    reference = run_chain(specs, batches, [RowBatch])
    assert run_chain(specs, batches, [shape_view]) == reference
    # The two stores alternating on one operator instance.
    assert run_chain(specs, batches, [shape_view, RowBatch]) == reference
    assert run_chain(specs, batches, [RowBatch, shape_view]) == reference


# ----------------------------------------------------------------------
# Mixed shapes: the grouped store against the row store
# ----------------------------------------------------------------------
#: What a photon may lack or carry beyond the regular shape.  Each
#: variant is a shape of its own; a batch draws from two to four.
VARIANTS = [
    "regular",
    "no_ra",  # an optional leaf a predicate reads
    "note",  # an optional leaf nothing reads
    "no_time",  # the window reference is missing
    "no_en",  # the aggregated value is missing
    "two_en",  # an extra repeated child (navigation takes the first)
    "flag_only",  # a shape every projection here prunes to nothing
]


def variant_photon(ra, en, t, variant):
    if variant == "flag_only":
        return element("photon", element("flag", text=1)).freeze()
    children = []
    if variant != "no_ra":
        children.append(element("coord", element("cel", element("ra", text=ra))))
    if variant != "no_en":
        children.append(element("en", text=en))
    if variant == "two_en":
        children.append(element("en", text="7"))
    if variant != "no_time":
        children.append(element("det_time", text=t))
    if variant == "note":
        children.append(element("note", text="a<b"))
    return element("photon", *children).freeze()


def picked_view(items):
    """The store the batch itself picks once size is no object: a
    shape store for one shape, a grouped store for several."""
    with mock.patch.object(columnar, "AUTO_MIN_ROWS", 1):
        view = encode_batch(items)
    shapes = {signature_of(item) for item in items}
    expected = {0: RowBatch, 1: ColumnBatch}.get(len(shapes), GroupedBatch)
    assert type(view) is expected
    return view


mixed_rows = st.lists(
    st.tuples(number_text, number_text, times, st.integers(0, 3)), max_size=40
)


@settings(max_examples=80, deadline=None)
@given(
    data=mixed_rows,
    menu=st.lists(st.sampled_from(VARIANTS), min_size=2, max_size=4, unique=True),
    name=st.sampled_from(sorted(chains())),
    cuts=st.tuples(st.integers(0, 40), st.integers(0, 40), st.integers(0, 40)),
)
# Every variant under every chain, whatever the generator happens to draw
# (a group pruned to nothing only shows where projection comes first).
@example(data=[("1", "2", float(k), k) for k in range(12)], menu=["regular", "flag_only", "note"], name="project_window", cuts=(0, 0, 7))
@example(data=[("1", "2", float(k), k) for k in range(12)], menu=["no_ra", "two_en", "no_en", "regular"], name="select_project", cuts=(0, 0, 7))
@example(data=[("1", "2", float(k), k) for k in range(12)], menu=["no_time", "no_en", "two_en"], name="aggregate", cuts=(2, 5, 9))
@example(data=[("1", "2", float(k), k) for k in range(12)], menu=["no_en", "flag_only", "regular"], name="select_count_aggregate", cuts=(2, 5, 9))
def test_grouped_vs_row_store_identity(data, menu, name, cuts):
    """The same mixed batches as grouped stores and as row stores."""
    data = sorted(data, key=lambda row: row[2])
    low, mid, high = sorted(cuts)
    items = [
        # One slice is regular, so that a shape store takes part too.
        variant_photon(ra, en, t, "regular" if low <= k < mid else menu[pick % len(menu)])
        for k, (ra, en, t, pick) in enumerate(data)
    ]
    batches = [items[:low], items[low:mid], items[mid:high], items[high:]]
    specs = chains()[name]
    reference = run_chain(specs, batches, [RowBatch])
    assert run_chain(specs, batches, [picked_view]) == reference
    # All three stores alternating on one operator instance.
    assert run_chain(specs, batches, [picked_view, RowBatch]) == reference
    assert run_chain(specs, batches, [RowBatch, picked_view]) == reference


#: Return clauses whose result count per item is 1, the number of
#: ``en`` children (0, 1 or 2 by shape), and of two paths together.
COUNTED_RETURNS = [
    "<r> { $p/en } { $p/coord/cel/ra } </r>",
    "$p/en",
    "($p/en, $p/det_time, $p/note)",
]


@settings(max_examples=60, deadline=None)
@given(
    data=mixed_rows,
    menu=st.lists(st.sampled_from(VARIANTS), min_size=2, max_size=4, unique=True),
    returned=st.sampled_from(COUNTED_RETURNS),
    stride=st.integers(1, 3),
    keep=st.sampled_from([None, frozenset({EN}), frozenset({RA, TIME})]),
)
def test_delivery_count_on_grouped_store_equals_per_item_build(
    data, menu, returned, stride, keep
):
    from repro.engine.restructure import Restructurer
    from repro.wxquery import analyze, parse_query

    items = [variant_photon(ra, en, t, menu[pick % len(menu)]) for ra, en, t, pick in data]
    view = picked_view(items)
    view = view.derive(view.rows[::stride])
    if keep is not None:
        view = build_operator(ProjectionSpec(keep, keep), ITEM).process_columns(view)
    query = f'<out>{{ for $p in stream("photons")/photons/photon return {returned} }}</out>'
    restructurer = Restructurer(analyze(parse_query(query)))
    kernel = DeliveryKernel(restructurer)
    expected = sum(len(restructurer.build(item)) for item in view.decode())
    before = columnar.columnar_stats()
    counted = kernel.count(view)
    bumped = {
        key: value - before[key]
        for key, value in columnar.columnar_stats().items()
        if value != before[key]
    }
    if isinstance(view, RowBatch):
        assert counted is None and not bumped
    else:
        assert counted == expected
        # One kernel batch per feed, however many groups it spans.
        assert {k: v for k, v in bumped.items() if k.startswith("delivery")} == (
            {"delivery_kernel_batches": 1} if len(view) else {}
        )


@settings(max_examples=40, deadline=None)
@given(
    windows=st.lists(st.lists(finite, max_size=3), min_size=1, max_size=24),
    function=st.sampled_from(["min", "max", "avg", "sum", "count"]),
)
def test_delivery_count_on_mixed_aggregate_wires(windows, function):
    """``<agg>`` wire items of an empty and a filled window differ in
    shape under min / max: a grouped batch of ``agg``-tagged groups."""
    from repro.engine.restructure import Restructurer
    from repro.wxquery import analyze, parse_query

    query = (
        '<out>{ for $w in stream("photons")/photons/photon |det_time diff 4 step 4| '
        f"let $a := {function}($w/en) return <r> {{ $a }} </r> }}</out>"
    )
    restructurer = Restructurer(analyze(parse_query(query)))
    wires = [
        partial_to_wire(PartialAggregate.of_values(values), function).freeze()
        for values in windows
    ]
    view = picked_view(wires)
    expected = sum(len(restructurer.build(item)) for item in wires)
    assert DeliveryKernel(restructurer).count(view) == expected


# ----------------------------------------------------------------------
# Delivery groups: a relay closure counts once per return clause and
# credits every subscription what its own restructurer would build
# ----------------------------------------------------------------------
def _subscription(body):
    return f'<out>{{ for {body} }}</out>'


_PHOTONS = 'stream("photons")/photons/photon'

#: Per stream kind a closure may carry: the subscriptions that can be
#: delivered from it.  Equal return clauses under different texts
#: (another element around the FLWR, another ``where``) share a group;
#: another variable name or aggregation function does not.
CLOSURE_QUERIES = {
    "plain": [
        _subscription(f"$p in {_PHOTONS} return <r> {{ $p/en }} {{ $p/coord/cel/ra }} </r>"),
        f"<other>{{ for $p in {_PHOTONS} where $p/en >= 1.0 "
        "return <r> { $p/en } { $p/coord/cel/ra } </r> }</other>",
        _subscription(f"$q in {_PHOTONS} return <r> {{ $q/en }} {{ $q/coord/cel/ra }} </r>"),
        _subscription(f"$p in {_PHOTONS} return ($p/en, $p/det_time, $p/note)"),
        _subscription(f"$p in {_PHOTONS} return if $p/en >= 0 then <hi> {{ $p/en }} </hi> else <lo/>"),
    ],
    "aggregate": [
        _subscription(
            f"$w in {_PHOTONS} |det_time diff 4 step 4| let $a := {function}($w/en) return {returned}"
        )
        for function in ("avg", "min", "max")
        for returned in ("<r> { $a } </r>", "if $a >= 1 then <hi> { $a } </hi> else <lo/>")
    ],
    "window": [
        _subscription(f"$w in {_PHOTONS} |count 3 step 2| return <batch> {{ $w }} </batch>"),
        _subscription(f"$w in {_PHOTONS} |count 3 step 2| return <ens> {{ $w/en }} </ens>"),
        _subscription(f"$v in {_PHOTONS} |count 3 step 2| return <ens> {{ $v/en }} </ens>"),
    ],
}


@st.composite
def closure_batches(draw, kind):
    """A few batches of one stream kind, as item lists: long enough for
    a shape or grouped store, short enough for a row store, empty."""
    batches = []
    for _ in range(draw(st.integers(1, 4))):
        if kind == "aggregate":
            function = draw(st.sampled_from(["avg", "min", "max"]))
            windows = draw(st.lists(st.lists(finite, max_size=3), max_size=24))
            batches.append(
                [partial_to_wire(PartialAggregate.of_values(w), function).freeze() for w in windows]
            )
            continue
        menu = draw(st.lists(st.sampled_from(VARIANTS), min_size=1, max_size=3, unique=True))
        photons = [
            variant_photon(ra, en, t, menu[pick % len(menu)])
            for ra, en, t, pick in draw(mixed_rows)
        ]
        if kind == "plain":
            batches.append(photons)
        else:
            size = draw(st.integers(1, 3))
            batches.append(
                [
                    element("window", *photons[low : low + size]).freeze()
                    for low in range(0, len(photons), size)
                ]
            )
    return batches


@st.composite
def closures(draw):
    kind = draw(st.sampled_from(sorted(CLOSURE_QUERIES)))
    queries = CLOSURE_QUERIES[kind]
    # Member k hangs below an earlier member; chains stop at depth 4.
    parents = draw(st.lists(st.integers(0, 5), max_size=5))
    members = [
        (
            draw(st.booleans()),  # ships its items (has hops)
            draw(st.lists(st.integers(0, len(queries) - 1), max_size=3)),
        )
        for _ in range(len(parents) + 1)
    ]
    return kind, parents, members, draw(closure_batches(kind)), draw(st.booleans())


@settings(max_examples=120, deadline=None)
@given(closures())
def test_grouped_crediting_equals_per_delivery_builds(closure):
    """The pump over a random relay closure against what every member
    would have counted alone: ``Restructurer.build`` per item and
    subscription, one byte size per shipping stream."""
    from types import SimpleNamespace

    from repro.engine.columnar import batch_bytes, encode_ingest
    from repro.engine.executor import (
        Cell,
        _ClosureProgram,
        _DeliveryTable,
        _SingleDelivery,
        _StreamNode,
    )
    from repro.engine.restructure import Restructurer
    from repro.wxquery import analyze, parse_query

    kind, parents, members, batches, sniffed = closure
    analyzed = [analyze(parse_query(text)) for text in CLOSURE_QUERIES[kind]]
    nodes, depth, deliveries = [], [], []
    table = _DeliveryTable()
    for index, (hops, picks) in enumerate(members):
        route = ("SP0", "SP1") if hops else ("SP0",)
        node = _StreamNode(SimpleNamespace(stream_id=f"s{index}", route=route))
        if index:
            parent = parents[index - 1] % index
            while depth[parent] >= 4:
                parent -= 1
            nodes[parent].relay_children.append(node)
        depth.append(depth[parent] + 1 if index else 1)
        nodes.append(node)
        for pick in picks:
            record = SimpleNamespace(name=f"q{len(deliveries)}", analyzed=analyzed[pick])
            delivery = _SingleDelivery(record, table)
            node.countable.append(delivery)
            deliveries.append((delivery, pick))

    cell = Cell({}, None, 64)
    program = _ClosureProgram(nodes[0])
    assert len(program.members) == len(nodes) and max(depth) <= 4
    # Equal restructuring, not equal text, makes a group.
    signatures = {Restructurer(analyzed[pick]).signature for _, pick in deliveries}
    assert len(program.groups) == len(signatures) <= len({pick for _, pick in deliveries})

    views = [
        (encode_ingest(items) if sniffed else picked_view(items)) if items else RowBatch(())
        for items in batches
    ]
    before = columnar.columnar_stats()
    for view in views:
        cell._pump(program, view)
    fed = sum(1 for view in views if len(view))
    bumped = {
        key: value - before[key] for key, value in columnar.columnar_stats().items()
    }
    # At most one kernel batch or one fallback per group and batch.
    assert cell.pump_steps == fed and cell.delivery_counts == fed * len(program.groups)
    assert (
        bumped["delivery_kernel_batches"] + bumped["delivery_kernel_fallbacks"]
        <= cell.delivery_counts
    )

    rows = sum(len(view) for view in views)
    size = sum(batch_bytes(view) for view in views)
    for node, (hops, _) in zip(nodes, members):
        assert (node.produced_count, node.produced_bytes) == (rows, size if hops else 0)
    for delivery, pick in deliveries:
        alone = Restructurer(analyzed[pick])
        expected = sum(len(alone.build(item)) for view in views for item in view.decode())
        assert (delivery.inputs, delivery.results) == (rows, expected)


# ----------------------------------------------------------------------
# Ingest picks the store from the batch; nobody can tell which
# ----------------------------------------------------------------------
# A row is (ra, en, det_time, variant).  Variant 0 is the regular
# photon shape; 1 drops the selected path, 2 adds an extra child —
# either irregularity sends the whole batch to a row store.
rows = st.lists(
    st.tuples(finite, finite, times, st.integers(min_value=0, max_value=2)),
    min_size=0,
    max_size=40,
)


def photon(ra, en, t, variant):
    children = [
        element("coord", element("cel", element("ra", text=ra))),
        element("en", text=en),
        element("det_time", text=t),
    ]
    if variant == 1:
        children = children[1:]  # no coord/cel/ra: selection path missing
    elif variant == 2:
        children.append(element("flag", text=1))
    return element("photon", *children).freeze()


def run_pipeline(specs, batches):
    pipeline = Pipeline.from_specs(specs, ITEM)
    outputs = []
    for batch in batches:
        outputs.extend(serialize(out) for out in pipeline.process_batch(list(batch)))
    return outputs, list(pipeline.input_counts)


@settings(max_examples=40, deadline=None)
@given(data=rows, name=st.sampled_from(["select_project", "aggregate"]))
def test_auto_mode_matches_off(data, name):
    """The store ingest picks on its own — by batch size and regularity
    — against every batch in a row store (``AUTO_MIN_ROWS`` out of
    reach) and against the per-item API (one-row row stores)."""
    if name == "aggregate":
        data = sorted(data, key=lambda row: row[2])
    items = [photon(*row) for row in data]
    half = len(items) // 2
    batches = [items[:half], items[half:]]
    specs = chains()[name]
    picked = run_pipeline(specs, batches)
    with mock.patch.object(columnar, "AUTO_MIN_ROWS", 10**9):
        assert run_pipeline(specs, batches) == picked
    assert run_pipeline(specs, [[item] for item in items]) == picked


# ----------------------------------------------------------------------
# The selection kernel against the per-item reference
# ----------------------------------------------------------------------
LEAVES = ("a", "b", "c")
#: Operand paths: the three leaves, an interior node, a path no
#: document has, and the zero node.
OPERANDS = [ITEM / "a", ITEM / "wrap/b", ITEM / "wrap/c", ITEM / "wrap", ITEM / "ghost", ZERO]

bound_value = st.one_of(
    st.integers(-4, 4).map(float),
    st.sampled_from([-0.0, math.inf, -math.inf, math.nan, 1e308, 5e-324]),
    finite,
)

edges = st.lists(
    st.tuples(
        st.sampled_from(OPERANDS), st.sampled_from(OPERANDS), bound_value, st.booleans()
    ),
    max_size=4,
)


def predicate_graph(drawn):
    predicate = PredicateGraph()
    for source, target, value, strict in drawn:
        if source != target and (source, target) not in predicate.edges:
            predicate.add_edge(source, target, Bound(value, strict))
    return predicate


def document(texts, present):
    """``<item><a/><wrap><b/><c/></wrap></item>`` with the leaves of
    ``present`` (an empty ``wrap`` stays, as a textless leaf)."""
    a, b, c = (
        [element(tag, text=text)] if tag in present else []
        for tag, text in zip(LEAVES, texts)
    )
    return element("item", *a, element("wrap", *b, *c)).freeze()


def assert_selects_like_satisfies(predicate, view, items):
    operator = build_operator(SelectionSpec(predicate), ITEM)
    accepted = operator.process_columns(view).decode()
    expected = [item for item in items if satisfies(item, predicate, ITEM)]
    assert len(accepted) == len(expected)
    assert all(got is want for got, want in zip(accepted, expected))


#: Texts and bounds that meet exactly (where strict and non-strict
#: edges part ways), overflow, vanish, or are no number at all.
EDGE_TEXTS = ["-2", "0", "-0.0", "1e0", " 2 ", "1_0", "nan", "inf", "-inf", "1e308", "abc", "", None]
EDGE_BOUNDS = [0.0, -0.0, 1.0, -2.0, 4.0, 8.0, math.inf, -math.inf, math.nan, 1e308, -1e308, 5e-324]


def test_selection_kernel_equals_satisfies_edge_by_edge():
    """Every single edge over every pair of operands, bound and
    strictness, on a batch holding every pair of texts."""
    items = [
        document((a, b, "1"), set(LEAVES)) for a in EDGE_TEXTS for b in EDGE_TEXTS
    ]
    views = (shape_view(items), RowBatch(items))
    for source in OPERANDS:
        for target in OPERANDS:
            if source == target:
                continue
            for value in EDGE_BOUNDS:
                for strict in (False, True):
                    predicate = predicate_graph([(source, target, value, strict)])
                    for view in views:
                        assert_selects_like_satisfies(predicate, view, items)


masks = st.sets(st.sampled_from(LEAVES))


@settings(max_examples=150, deadline=None)
@given(
    drawn=edges,
    texts=st.lists(st.tuples(number_text, number_text, number_text), min_size=1, max_size=12),
    mask=masks,
    row_masks=st.lists(masks, min_size=12, max_size=12),
)
def test_selection_kernel_equals_satisfies_on_both_stores(drawn, texts, mask, row_masks):
    """Conjunctions of edges, over documents whose paths come and go."""
    predicate = predicate_graph(drawn)
    # One mask for all rows: a regular batch, offered to both stores.
    regular = [document(row, mask) for row in texts]
    assert_selects_like_satisfies(predicate, shape_view(regular), regular)
    assert_selects_like_satisfies(predicate, RowBatch(regular), regular)
    # A mask per row: only a row store can hold it.
    irregular = [document(row, present) for row, present in zip(texts, row_masks)]
    assert_selects_like_satisfies(predicate, encode_batch(irregular), irregular)


# ----------------------------------------------------------------------
# The wire form: a view ships its surviving columns and arrives as a
# column batch every kernel treats like a freshly encoded one
# ----------------------------------------------------------------------
def noted_photon(ra, dec, en, t):
    return element(
        "photon",
        element("coord", element("cel", element("ra", text=ra), element("dec", text=dec))),
        element("en", text=en),
        element("det_time", text=t),
        element("note", text="a<b&c>d" if en < 0 else None),
    ).freeze()


DEC = ITEM / "coord/cel/dec"
KEEPS = [
    frozenset({RA, EN}),
    frozenset({ITEM / "coord"}),
    frozenset({EN, TIME, ITEM / "note"}),
    frozenset({ITEM / "ghost"}),  # prunes every item away
]

#: One stage of a select/project chain: a selection threshold on ``ra``
#: (None: reject nothing, 2e6: reject all) or a projection keep-set.
stages = st.lists(
    st.one_of(
        st.sampled_from([None, 0.0, 2e6]).map(lambda c: ("select", c)),
        st.sampled_from(KEEPS).map(lambda keep: ("project", keep)),
    ),
    max_size=3,
)


def chain_view(items, chain):
    """The column view a select/project chain leaves of ``items``."""
    batch = encode_batch(items)
    for kind, arg in chain:
        if kind == "select":
            spec = SelectionSpec(
                PredicateGraph() if arg is None else graph(RA, ">=", str(arg))
            )
        else:
            spec = ProjectionSpec(arg, arg)
        batch = build_operator(spec, ITEM).process_columns(batch)
    return batch


def kernel_outputs(batch):
    """What every kernel makes of ``batch``, as comparable data."""
    from repro.engine.columnar import DeliveryKernel
    from repro.engine.restructure import Restructurer
    from repro.wxquery import analyze, parse_query

    window = WindowSpec("count", Fraction(3), Fraction(2), None)
    specs = [
        SelectionSpec(graph(EN, ">=", "0.0")),
        ProjectionSpec(frozenset({EN, TIME}), frozenset({EN, TIME})),
        AggregationSpec(
            function="avg",
            aggregated_path=EN,
            window=window,
            pre_selection=PredicateGraph(),
            result_filter=PredicateGraph(),
        ),
        WindowContentsSpec(window),
    ]
    outputs = []
    for spec in specs:
        out = build_operator(spec, ITEM).process_columns(batch)
        outputs.append([(serialize(e), e.serialized_size()) for e in out.decode()])
    query = (
        '<out>{ for $p in stream("photons")/photons/photon '
        "return <r> { $p/en } { $p/det_time } </r> }</out>"
    )
    kernel = DeliveryKernel(Restructurer(analyze(parse_query(query))))
    outputs.append(kernel.count(batch))
    return outputs


@settings(max_examples=60, deadline=None)
@given(
    data=st.lists(st.tuples(finite, finite, finite, finite), max_size=30),
    chain=stages,
)
def test_wire_round_trip_equals_sender_and_fresh_encode(data, chain):
    view = chain_view([noted_photon(*row) for row in data], chain)
    if not isinstance(view, ColumnBatch):
        return  # no shape to ship: an empty input is an empty row store
    sent = view.decode()
    for arrived in (pickle.loads(pickle.dumps(view)), view.detached()):
        assert isinstance(arrived, ColumnBatch) and arrived.store.elements is None
        assert len(arrived) == len(view)
        got = arrived.decode()
        assert got == sent
        assert [e.serialized_size() for e in got] == [
            e.serialized_size() for e in sent
        ]
        assert all(e.frozen for e in got)
        assert arrived.serialized_bytes() == view.serialized_bytes()
        # Filtered rows re-derive their bytes from the arrived columns.
        assert arrived.derive(arrived.rows[::2]).serialized_bytes() == sum(
            e.serialized_size() for e in sent[::2]
        )
        if sent:
            assert arrived.decode_row(0) == sent[0]
            assert kernel_outputs(arrived) == kernel_outputs(encode_batch(list(sent)))


# ----------------------------------------------------------------------
# Column-wise byte accounting: the rule is chosen per column from its
# content, the sizes are the frozen trees', on every kind of view
# ----------------------------------------------------------------------
#: Leaf texts of every class the size rule tells apart: plain ASCII
#: (canonical numbers among them), markup characters, non-ASCII, none.
leaf_text = st.one_of(
    st.none(),
    finite.map(repr),
    st.sampled_from(["", "7", "-0.0", "1e3", "nan", " 2 ", "1_0", "abc"]),
    st.text(alphabet="ab&<>é✓ ", max_size=6),
)


def loose_item(a, b, c):
    return element("item", element("a", text=a), element("wrap", element("b", text=b), element("ç", text=c)))


@settings(max_examples=120, deadline=None)
@given(
    data=st.lists(st.tuples(leaf_text, leaf_text, leaf_text), min_size=1, max_size=24),
    stride=st.integers(min_value=1, max_value=3),
    keep=st.sampled_from([None, (("a",),), (("wrap", "ç"),), (("a",), ("wrap", "b"))]),
)
def test_column_sizes_and_numbers_equal_the_tree_path(data, stride, keep):
    from repro.engine.columnar import _parse_number
    from repro.xmlkit.columns import leaf_size

    items = [loose_item(*row).freeze() for row in data]
    full = encode_batch(items)
    assert isinstance(full, ColumnBatch)
    view = full.derive(full.rows[::stride])
    if keep is not None:
        view = view.project(keep)
    for batch in (view, view.detached()):
        decoded = batch.decode()
        assert batch.serialized_bytes() == sum(e.serialized_size() for e in decoded)
        assert [serialize(e) for e in decoded] == [
            serialize(e) for e in view.decode()
        ]
        for tree in decoded:
            for node in tree.iter():
                assert node.frozen
                assert node._size == node.copy().serialized_size()
                assert node._size == len(serialize(node).encode())
        store = batch.store
        for leaf in batch.vshape.size_info()[1]:
            texts = store.text_col(leaf.column)
            assert store.size_col(leaf) == [leaf_size(t, leaf.tag_len) for t in texts]
            assert [repr(n) for n in store.number_col(leaf.column)] == [
                repr(_parse_number(t)) for t in texts
            ]
