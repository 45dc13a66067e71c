"""Ingest: what a source batch is checked for and how it is frozen.

A cell hands each source batch to :func:`~repro.engine.columnar.encode_ingest`
as the generator produced it — unfrozen, frozen, or frozen in part.
Every row comes back frozen, most rows by the shape validator that
accepted them, in the same walk (DESIGN.md §7), and nothing a caller
observes differs from freezing every row first: not the store, not the
bytes, not the per-stage input counts.  Then the cell checks the rows'
root tag against the stream's item path: once per shape of a shape or
grouped store, once per row of a row store, and alike on every
executor.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tests.conftest import pinned_cells
from tests.test_dblp_corpus import FEW, UNBOUNDED, record
from repro.engine import Pipeline
from repro.engine.columnar import ColumnBatch, GroupedBatch, RowBatch, encode_ingest
from repro.engine.executor import ExecutionError
from repro.network.topology import example_topology
from repro.predicates import PredicateGraph, normalize_comparison
from repro.properties import ProjectionSpec, SelectionSpec
from repro.sharing import StreamGlobe
from repro.workload import PhotonGenerator, PhotonStreamConfig
from repro.xmlkit import Path
from repro.xmlkit.columns import shape_of, signature_of
from repro.xmlkit.serializer import serialize

# ----------------------------------------------------------------------
# The freezing contract
# ----------------------------------------------------------------------
PHOTON = Path("photons/photon")
DBLP = Path("dblp/article")


def photon_rows(seed, count):
    generator = PhotonGenerator(PhotonStreamConfig(seed=seed))
    return [generator.next_item() for _ in range(count)]


def dblp_rows(seed, count):
    rng = random.Random(seed)
    return [record(rng, **FEW) for _ in range(count)]


def drop_det(item):
    """``coord/det`` dropped: the irregular photon of sharebench."""
    coord = item.children[1]
    coord.children = coord.children[:1]


def cut_det(item):
    """``coord/det`` keeps one of its two children: the photon shape's
    validator passes the root, ``coord`` and ``cel`` before it fails."""
    det = item.children[1].children[1]
    det.children = det.children[:1]


#: How much of a row was frozen before ingest.
FREEZES = {
    "none": lambda item: None,
    "frozen": lambda item: item.freeze(),
    "part-frozen": lambda item: item.children[-1 if len(item.children) < 2 else 1].freeze(),
}
#: How every ``every``-th photon of a batch is restructured before
#: that (DBLP records keep their own irregularity).
RESHAPES = {None: lambda item: None, "irregular": drop_det, "fails-midway": cut_det}


def rows_for(family, seed, freezes, reshape=None, every=7):
    """The batch these arguments describe, built afresh: one row per
    entry of ``freezes``."""
    count = len(freezes)
    if family == "photon":
        rows = photon_rows(seed, count)
    elif family == "dblp":
        rows = dblp_rows(seed, count)
    else:
        pairs = zip(photon_rows(seed, count), dblp_rows(seed, count))
        rows = [item for pair in pairs for item in pair][:count]
    for index, (item, freeze) in enumerate(zip(rows, freezes)):
        if item.tag == "photon" and index % every == every - 1:
            RESHAPES[reshape](item)
        FREEZES[freeze](item)
    return rows


def nodes(item):
    """Every node of ``item`` beside the same node of an unfrozen copy."""
    return zip(item.iter(), item.copy().iter())


def store_of(batch):
    views = batch.shape_views()
    return type(batch).__name__, None if views is None else len(views)


def through_pipeline(rows, item_path):
    """Outputs and per-stage input counts of a selection and projection."""
    steps = Path(item_path.steps + ("year" if item_path == DBLP else "en",))
    graph = PredicateGraph(normalize_comparison(steps, ">=", None, Fraction(1)))
    pipeline = Pipeline.from_specs(
        [SelectionSpec(graph), ProjectionSpec(frozenset({steps}), frozenset({steps}))],
        item_path,
    )
    outputs = pipeline.process_batch(rows)
    return [serialize(out) for out in outputs], list(pipeline.input_counts)


batches = st.tuples(
    st.sampled_from(["photon", "dblp", "mixed"]),
    st.integers(min_value=0, max_value=2**16),
    st.lists(st.sampled_from(sorted(FREEZES)), min_size=1, max_size=200),
    st.sampled_from(sorted(RESHAPES, key=str)),
    st.integers(min_value=2, max_value=12),
)


@settings(max_examples=60, deadline=None)
@given(batch=batches)
# A shape store, a grouped store of photons (one restructured every
# 7th, or failing the photon validator after three levels every 5th)
# and of DBLP records, and a row store of too many shapes.
@example(batch=("photon", 1, ["none", "frozen", "part-frozen"] * 20, None, 7))
@example(batch=("photon", 2, ["none", "part-frozen"] * 40, "irregular", 7))
@example(batch=("photon", 3, ["none"] * 64, "fails-midway", 5))
@example(batch=("dblp", 4, ["none", "part-frozen"] * 100, None, 7))
@example(batch=("mixed", 5, ["none"] * 40, "irregular", 3))
def test_ingest_freezes_every_row_as_a_freeze_would(batch):
    rows = rows_for(*batch)
    reference = [item.freeze() for item in rows_for(*batch)]

    ingested = encode_ingest(rows)
    expected = encode_ingest(reference)
    for item in rows:
        for node, fresh in nodes(item):
            assert node.frozen
            assert node._size == fresh._compute_size()
    assert store_of(ingested) == store_of(expected)
    assert ingested.serialized_bytes() == expected.serialized_bytes()
    assert [serialize(item) for item in ingested.decode()] == [
        serialize(item) for item in expected.decode()
    ]

    item_path = PHOTON if batch[0] == "photon" else DBLP
    frozen_first = [item.freeze() for item in rows_for(*batch)]
    assert through_pipeline(rows_for(*batch), item_path) == through_pipeline(
        frozen_first, item_path
    )


def test_a_frozen_node_keeps_its_size():
    """The validator pins only what is not pinned: a node frozen before
    ingest keeps the size it had (a frozen subtree is immutable)."""
    rows = photon_rows(3, 16)
    for item in rows:
        item.children[2]._size = 999  # ``en``, pinned to a size of its own
    encode_ingest(rows)
    assert {item.children[2]._size for item in rows} == {999}


def test_the_validator_freezes_what_it_accepts_and_only_that():
    """An accepted item leaves the validator frozen at every node, with
    ``freeze``'s sizes; a rejected one as it came — also when only an
    interior node's text (mixed content, outside the element model)
    tells it apart."""
    accepted, mixed = photon_rows(5, 2)
    shape = shape_of(accepted)
    mixed.children[1].text = "x"  # ``coord``, set past the constructor's check
    assert signature_of(mixed) == shape.signature
    assert shape.validator(accepted)
    assert all(node._size == fresh._compute_size() for node, fresh in nodes(accepted))
    assert not shape.validator(mixed)
    assert [node.frozen for node in mixed.iter()] == [
        not node.children for node in mixed.iter()  # the born-frozen leaves only
    ]


# ----------------------------------------------------------------------
# The item path's tag
# ----------------------------------------------------------------------
class Records:
    """DBLP records on a clock: ``article`` and ``inproceedings`` mixed,
    or articles only."""

    def __init__(self, seed, bounds, articles_only=False):
        self._rng = random.Random(seed)
        self._bounds = bounds
        self._articles_only = articles_only
        self.clock = 0.0

    def next_item(self):
        self.clock += 0.02
        item = record(self._rng, **self._bounds)
        while self._articles_only and item.tag != "article":
            item = record(self._rng, **self._bounds)
        return item


RECENT = """<recent>
{ for $r in stream("dblp")/dblp/article
  where $r/year >= 2012
  return $r/title }
</recent>"""

EXECUTORS = ["sequential", "inline", "process"]


def dblp_system(bounds, articles_only=False):
    system = StreamGlobe(example_topology())
    system.register_stream(
        "dblp",
        "dblp/article",
        lambda: Records(7, bounds, articles_only),
        frequency=50.0,
        source_peer="P0",
    )
    assert system.register_query("recent", RECENT, "P3").accepted
    return system


def run_on(system, executor, duration=20.0):
    if executor == "sequential":
        return system.run(duration)
    with pinned_cells(executor):
        metrics = system.run(duration, workers=2)
    assert system.last_simulator.mode_used == executor
    return metrics


@pytest.mark.parametrize("executor", EXECUTORS)
@pytest.mark.parametrize("bounds", [FEW, UNBOUNDED], ids=["grouped", "rows"])
def test_a_source_item_of_another_tag_is_an_error(bounds, executor):
    """Before the check, every ``inproceedings`` record was selected,
    windowed and counted as an ``article``."""
    system = dblp_system(bounds)
    with pytest.raises(
        ExecutionError,
        match="stream 'dblp': item path expects <article> items, "
        "the source produced <inproceedings>",
    ):
        run_on(system, executor)


@pytest.mark.parametrize("executor", EXECUTORS)
def test_items_of_the_item_paths_tag_run(executor):
    metrics = run_on(dblp_system(FEW, articles_only=True), executor)
    generated = metrics.items_generated["dblp"]
    assert generated >= 1000  # 20 s at 50 items/s
    assert 0 < metrics.items_delivered["recent"] < generated


def test_the_tags_a_store_answers():
    """One tag per shape of a shape or grouped store, one per row of a
    row store."""
    shape = encode_ingest(photon_rows(1, 12))
    assert isinstance(shape, ColumnBatch)
    assert shape.root_tags() == ("photon",)
    records = dblp_rows(1, 200)
    shapes = dict.fromkeys(signature_of(item) for item in records)
    grouped = encode_ingest(records)
    assert isinstance(grouped, GroupedBatch)
    assert grouped.root_tags() == [tag for tag, _ in shapes]
    assert {"article", "inproceedings"} == set(grouped.root_tags())
    rows = encode_ingest(photon_rows(1, 3))
    assert isinstance(rows, RowBatch)
    assert rows.root_tags() == ["photon"] * 3
