"""Property test: tree and columnar evaluation are observationally equal.

For random photon batches — including irregular documents (missing
paths, extra children) that force the whole-batch tree fallback — a
pipeline run under ``REPRO_COLUMNAR=on`` must produce byte-identical
outputs and identical per-stage ``input_counts`` to the same pipeline
run under ``REPRO_COLUMNAR=off`` (see DESIGN.md §14).
"""

import os
from contextlib import contextmanager
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import Pipeline
from repro.predicates import PredicateGraph, normalize_comparison
from repro.properties import AggregationSpec, ProjectionSpec, SelectionSpec, WindowSpec
from repro.xmlkit import Path, element
from repro.xmlkit.serializer import serialize

ITEM = Path("photons/photon")
RA = ITEM / "coord/cel/ra"
EN = ITEM / "en"
TIME = ITEM / "det_time"

finite = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)

# A row is (ra, en, det_time, variant).  Variant 0 is the regular
# photon shape; 1 drops the selected path, 2 adds an extra child —
# either irregularity must force the encoder's whole-batch fallback.
rows = st.lists(
    st.tuples(finite, finite, finite, st.integers(min_value=0, max_value=2)),
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


def graph(path, op, const):
    return PredicateGraph(
        normalize_comparison(path, op, None, Fraction(str(const)))
    )


def pipelines():
    select_project = [
        SelectionSpec(graph(RA, ">=", "0.0")),
        ProjectionSpec(frozenset({RA, EN}), frozenset({RA, EN})),
    ]
    aggregate = [
        AggregationSpec(
            function="avg",
            aggregated_path=EN,
            window=WindowSpec("diff", Fraction(10), Fraction(5), TIME),
            pre_selection=graph(EN, ">=", "-1000.0"),
            result_filter=PredicateGraph(),
        )
    ]
    return {"select_project": select_project, "aggregate": aggregate}


@contextmanager
def columnar_env(mode):
    prior = os.environ.get("REPRO_COLUMNAR")
    os.environ["REPRO_COLUMNAR"] = mode
    try:
        yield
    finally:
        if prior is None:
            del os.environ["REPRO_COLUMNAR"]
        else:
            os.environ["REPRO_COLUMNAR"] = prior


def run(specs, batches, mode):
    with columnar_env(mode):
        pipeline = Pipeline.from_specs(specs, ITEM)
        outputs = []
        for batch in batches:
            outputs.extend(
                serialize(out) for out in pipeline.process_batch(list(batch))
            )
    return outputs, list(pipeline.input_counts)


@settings(max_examples=40, deadline=None)
@given(data=rows, name=st.sampled_from(["select_project", "aggregate"]))
def test_tree_vs_columnar_identity(data, name):
    if name == "aggregate":
        # Time-based windows require a det_time-sorted stream.
        data = sorted(data, key=lambda row: row[2])
    items = [photon(*row) for row in data]
    # Two batches so stateful (window) operators cross a batch boundary;
    # det_time order within the stream is whatever hypothesis drew.
    half = len(items) // 2
    batches = [items[:half], items[half:]]
    specs = pipelines()[name]
    tree_out, tree_counts = run(specs, batches, "off")
    cols_out, cols_counts = run(specs, batches, "on")
    assert cols_out == tree_out
    assert cols_counts == tree_counts


@settings(max_examples=25, deadline=None)
@given(data=rows)
def test_auto_mode_matches_off(data):
    items = [photon(*row) for row in data]
    specs = pipelines()["select_project"]
    tree_out, tree_counts = run(specs, [items], "off")
    auto_out, auto_counts = run(specs, [items], "auto")
    assert auto_out == tree_out
    assert auto_counts == tree_counts


# ----------------------------------------------------------------------
# The wire form: a view ships its surviving columns and arrives as a
# column batch every kernel treats like a freshly encoded one
# ----------------------------------------------------------------------
def regular_photon(ra, dec, en, t):
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
    from repro.engine.columnar import ColumnBatch, apply_operator, encode_batch
    from repro.engine.operators import build_operator

    batch = encode_batch(items)
    for kind, arg in chain:
        if not isinstance(batch, ColumnBatch):
            break  # a projection dropped every item: plain empty list
        if kind == "select":
            spec = SelectionSpec(
                PredicateGraph() if arg is None else graph(RA, ">=", str(arg))
            )
        else:
            spec = ProjectionSpec(arg, arg)
        batch = apply_operator(build_operator(spec, ITEM), batch)
    return batch


def kernel_outputs(batch):
    """What every columnar kernel makes of ``batch``, as comparable data."""
    from repro.engine.columnar import DeliveryKernel, apply_operator
    from repro.engine.operators import build_operator
    from repro.engine.restructure import Restructurer
    from repro.properties import WindowContentsSpec
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
        out = apply_operator(build_operator(spec, ITEM), batch)
        rows = out.decode() if hasattr(out, "decode") else out
        outputs.append([(serialize(e), e.freeze().serialized_size()) for e in rows])
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
    import pickle

    from repro.engine.columnar import ColumnBatch, encode_batch

    view = chain_view([regular_photon(*row) for row in data], chain)
    if not isinstance(view, ColumnBatch):
        return  # nothing columnar to ship (empty input or all pruned)
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
# content, the sizes are the tree path's, on every kind of view
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
    from repro.engine.columnar import ColumnBatch, _parse_number, encode_batch
    from repro.xmlkit.columns import leaf_size

    items = [loose_item(*row).freeze() for row in data]
    full = encode_batch(items)
    assert isinstance(full, ColumnBatch)
    view = full.derive(full.rows[::stride])
    if keep is not None:
        view = view.project(view.vshape.prune(keep))
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
