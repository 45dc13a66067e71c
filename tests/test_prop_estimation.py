"""Property-based tests on cost-model estimation invariants.

The second half pins the statistics sample held as shape columns
(:mod:`repro.costmodel.statistics`) against the tree reference it
replaced: every sample item walked node by node, every projection
pruned with ``prune_to_paths`` and measured with ``serialized_size``.
"""

import random
from fractions import Fraction
from functools import reduce
from operator import add

import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.costmodel import StreamStatistics, estimate_stream_rate
from repro.costmodel.statistics import PathStatistics, _build_histogram
from repro.predicates import PredicateGraph, normalize_comparison
from repro.properties import (
    AggregationSpec,
    ProjectionSpec,
    SelectionSpec,
    StreamProperties,
    WindowSpec,
)
from repro.workload.photons import PhotonGenerator, PhotonStreamConfig
from repro.xmlkit import Element, Path, prune_to_paths
from repro.xmlkit.columns import MAX_SHAPE_DEPTH, MAX_SHAPE_NODES, signature_of

from tests.test_dblp_corpus import corpus

ITEM = Path("photons/photon")
LEAVES = [
    ITEM / "phc",
    ITEM / "coord/cel/ra",
    ITEM / "coord/cel/dec",
    ITEM / "coord/det/dx",
    ITEM / "coord/det/dy",
    ITEM / "en",
    ITEM / "det_time",
]

ra_bounds = st.tuples(
    st.floats(min_value=90, max_value=170, allow_nan=False),
    st.floats(min_value=90, max_value=170, allow_nan=False),
).map(lambda pair: (min(pair), max(pair)))

leaf_subsets = st.lists(st.sampled_from(LEAVES), min_size=1, max_size=7, unique=True)


def selection_of(low, high):
    atoms = []
    atoms.extend(
        normalize_comparison(ITEM / "coord/cel/ra", ">=", None, Fraction(str(low)))
    )
    atoms.extend(
        normalize_comparison(ITEM / "coord/cel/ra", "<=", None, Fraction(str(high)))
    )
    return SelectionSpec(PredicateGraph(atoms))


def _props(operators):
    return StreamProperties("photons", ITEM, tuple(operators))


@given(ra_bounds)
@settings(max_examples=80, deadline=None)
def test_selectivity_in_unit_interval(catalog, bounds):
    low, high = bounds
    stats = catalog.for_stream("photons")
    spec = selection_of(low, high)
    selectivity = stats.selectivity(spec.graph)
    assert 0.0 < selectivity <= 1.0


@given(ra_bounds)
@settings(max_examples=80, deadline=None)
def test_selection_never_raises_frequency(catalog, bounds):
    low, high = bounds
    assume(high > low)
    raw = estimate_stream_rate(_props([]), catalog)
    selected = estimate_stream_rate(_props([selection_of(low, high)]), catalog)
    assert selected.frequency <= raw.frequency + 1e-9
    assert selected.size == raw.size


@given(ra_bounds, ra_bounds)
@settings(max_examples=80, deadline=None)
def test_tighter_selection_is_rarer(catalog, outer, inner):
    (outer_low, outer_high) = outer
    inner_low = max(inner[0], outer_low)
    inner_high = min(inner[1], outer_high)
    assume(inner_high > inner_low)
    wide = estimate_stream_rate(_props([selection_of(outer_low, outer_high)]), catalog)
    narrow = estimate_stream_rate(_props([selection_of(inner_low, inner_high)]), catalog)
    assert narrow.frequency <= wide.frequency + 1e-9


@given(leaf_subsets)
@settings(max_examples=80, deadline=None)
def test_projection_never_grows_items(catalog, leaves):
    spec = ProjectionSpec(frozenset(leaves), frozenset(leaves))
    raw = estimate_stream_rate(_props([]), catalog)
    projected = estimate_stream_rate(_props([spec]), catalog)
    assert projected.size <= raw.size + 1e-9
    assert projected.frequency == raw.frequency


@given(leaf_subsets, leaf_subsets)
@settings(max_examples=60, deadline=None)
def test_projection_monotone_in_outputs(catalog, first, second):
    smaller = frozenset(first) & frozenset(second)
    larger = frozenset(first) | frozenset(second)
    assume(smaller)
    small_rate = estimate_stream_rate(
        _props([ProjectionSpec(smaller, larger)]), catalog
    )
    large_rate = estimate_stream_rate(
        _props([ProjectionSpec(larger, larger)]), catalog
    )
    assert small_rate.size <= large_rate.size + 1e-9


@given(
    st.integers(min_value=1, max_value=20),
    st.integers(min_value=1, max_value=4),
    st.sampled_from(["min", "max", "sum", "count", "avg"]),
)
@settings(max_examples=80, deadline=None)
def test_aggregate_frequency_scales_with_step(catalog, step, multiplier, function):
    def agg(step_value):
        return AggregationSpec(
            function,
            ITEM / "en",
            WindowSpec(
                "diff",
                Fraction(step_value) * 4,
                Fraction(step_value),
                ITEM / "det_time",
            ),
            PredicateGraph(),
            PredicateGraph(),
        )

    fine = estimate_stream_rate(_props([agg(step)]), catalog)
    coarse = estimate_stream_rate(_props([agg(step * multiplier)]), catalog)
    assert coarse.frequency <= fine.frequency + 1e-9
    # Aggregate item size is input-independent.
    assert coarse.size == fine.size


# ----------------------------------------------------------------------
# The column sample against the tree reference
# ----------------------------------------------------------------------
def reference_paths(items, item_path):
    """Per-path statistics measured by walking every sample tree."""
    sizes, counts, values = {}, {}, {}
    for item in items:
        stack = [(child, item_path.steps + (child.tag,)) for child in item.children]
        while stack:
            node, steps = stack.pop()
            path = Path(steps)
            sizes.setdefault(path, []).append(node.serialized_size())
            counts[path] = counts.get(path, 0) + 1
            if node.text is not None:
                try:
                    values.setdefault(path, []).append(float(node.text))
                except ValueError:
                    pass
            stack.extend((child, steps + (child.tag,)) for child in node.children)
    paths = {}
    for path, path_sizes in sizes.items():
        entry = PathStatistics(
            occurrence=counts[path] / len(items),
            avg_size=sum(path_sizes) / len(path_sizes),
        )
        path_values = values.get(path)
        if path_values:
            entry.minimum = min(path_values)
            entry.maximum = max(path_values)
            if len(path_values) > 1:
                increments = [b - a for a, b in zip(path_values, path_values[1:])]
                entry.avg_increment = reduce(add, increments, 0) / len(increments)
                entry.max_increment = max(increments)
                entry.nondecreasing = all(step >= 0 for step in increments)
            entry.histogram = _build_histogram(path_values, entry.minimum, entry.maximum)
        paths[path] = entry
    return paths


def reference_projected_size(items, item_path, output_paths):
    relative = [path.relative_to(item_path) for path in output_paths]
    total = 0
    for item in items:
        pruned = prune_to_paths(item, relative)
        if pruned is not None:
            total += pruned.serialized_size()
    return total / len(items)


def assert_matches_the_trees(items, item_path, projections):
    stats = StreamStatistics.from_sample("s", item_path, items, 1.0)
    expected = reference_paths(items, item_path)
    assert list(stats.paths) == list(expected)  # first-seen order too
    for path, entry in expected.items():
        assert stats.paths[path] == entry, path
    assert stats.avg_item_size == sum(item.serialized_size() for item in items) / len(items)
    for outputs in projections:
        assert stats.projected_size(outputs) == reference_projected_size(
            items, item_path, outputs
        ), outputs


def projections_of(items, item_path, count=40, seed=0):
    """Every single path, the item itself, nothing, a path the sample
    lacks, and ``count`` random sets of up to four paths."""
    paths = sorted(reference_paths(items, item_path))
    rng = random.Random(seed)
    singles = [frozenset([path]) for path in paths]
    odd = [frozenset(), frozenset([item_path]), frozenset([item_path / "absent"])]
    mixed = [
        frozenset(rng.sample(paths, rng.randint(1, min(4, len(paths)))))
        for _ in range(count)
    ]
    return singles + odd + mixed


PHOTONS = Path("photons/photon")
DBLP = Path("dblp/record")


def photons(count, irregular_every=None):
    items = PhotonGenerator(PhotonStreamConfig(seed=20060326, frequency=100.0)).take(count)
    if irregular_every:
        for item in items[irregular_every - 1 :: irregular_every]:
            coord = item.children[1]
            coord.children = coord.children[:1]  # drop coord/det
    return items


def _chain(depth, leaf_text):
    node = Element("z", text=leaf_text)
    for _ in range(depth):
        node = Element("z", children=[node])
    return node


def beyond_bounds(items):
    """``items`` with a too-deep and a too-wide item spliced in."""
    deep = Element(items[0].tag, children=[_chain(MAX_SHAPE_DEPTH + 1, "7.5")])
    wide = Element(
        items[0].tag,
        children=[Element("w", text=str(k)) for k in range(MAX_SHAPE_NODES + 2)],
    )
    assert signature_of(deep) is None and signature_of(wide) is None
    spliced = list(items)
    spliced.insert(3, deep)
    spliced.insert(len(spliced) // 2, wide)
    spliced.insert(len(spliced) // 2, items[0].copy())  # same shape after a loose item
    return spliced


SAMPLES = {
    "regular photons": lambda: (photons(400), PHOTONS),
    "every 7th irregular": lambda: (photons(400, irregular_every=7), PHOTONS),
    "repeated siblings (DBLP)": lambda: (
        corpus(5, 120, max_authors=3, max_ee=2, orcids=True),
        DBLP,
    ),
    "photons beyond the bounds": lambda: (beyond_bounds(photons(60)), PHOTONS),
    "DBLP beyond the bounds": lambda: (
        beyond_bounds(corpus(6, 60, max_authors=9, max_ee=3, orcids=False)),
        DBLP,
    ),
}


@pytest.mark.parametrize("name", list(SAMPLES))
def test_column_sample_equals_the_tree_walk(name):
    items, item_path = SAMPLES[name]()
    assert_matches_the_trees(items, item_path, projections_of(items, item_path))


TAGS = ["a", "b", "author", "ñ"]
TEXTS = st.one_of(
    st.none(),
    st.integers(-50, 50).map(str),
    st.floats(-1e6, 1e6, allow_nan=False).map(repr),
    st.sampled_from(["", "x", "Größe", "a&b", "<t/>", " 3 ", "1e3"]),
)
templates = st.recursive(
    st.sampled_from(TAGS).map(Element),
    lambda kids: st.builds(
        lambda tag, children: Element(tag, children=children),
        st.sampled_from(TAGS),
        st.lists(kids, min_size=1, max_size=4),
    ),
    max_leaves=12,
)


def _refill(template, draw):
    """A copy of ``template`` with freshly drawn leaf texts."""
    if not template.children:
        return Element(template.tag, text=draw(TEXTS))
    return Element(template.tag, children=[_refill(child, draw) for child in template.children])


@st.composite
def samples(draw):
    """Items over a few shapes (repeated sibling tags included), some
    of them too deep for the sniffing bounds."""
    shapes = draw(st.lists(templates, min_size=1, max_size=3))
    if draw(st.booleans()):
        shapes.append(_chain(MAX_SHAPE_DEPTH + 1, None))
    picks = draw(st.lists(st.integers(0, len(shapes) - 1), min_size=1, max_size=25))
    return [Element("item", children=[_refill(shapes[pick], draw)]) for pick in picks]


@given(samples(), st.data())
@settings(max_examples=150, deadline=None)
def test_generated_samples_equal_the_tree_walk(items, data):
    item_path = Path("s/item")
    known = sorted(reference_paths(items, item_path))
    extra = [item_path, item_path / "absent"]
    projections = data.draw(
        st.lists(
            st.frozensets(st.sampled_from(known + extra), max_size=4), min_size=1, max_size=6
        )
    )
    assert_matches_the_trees(items, item_path, projections)
