"""A DBLP-shaped corpus: irregular XML as it occurs outside astrophysics.

Bibliography records are irregular by default — two record types,
optional ``volume`` / ``number`` / ``pages``, repeated ``author`` and
``ee``, entities in titles.  The corpus here is generated (seeded), in
the paper's attribute-free form (Section 2: ``key``, ``mdate`` and
``orcid`` are child elements), written out with numeric character
references, read back through ``parse_stream`` and pushed through a
selection on ``year`` and a projection to ``title``.  Which store the
batch lands in follows from the input alone — a handful of shapes is a
grouped store, unbounded author lists are a row store, a record past
the sniffing bounds sends its batch to a row store — and never shows in
the outputs, the bytes or the per-stage input counts.
"""

import random
from fractions import Fraction
from unittest import mock

import pytest

from repro.engine import Pipeline, columnar
from repro.engine.columnar import GroupedBatch, RowBatch, columnar_stats, encode_ingest
from repro.predicates import PredicateGraph, normalize_comparison
from repro.properties import ProjectionSpec, SelectionSpec
from repro.xmlkit import Path, XmlParseError, element, parse, parse_stream, serialize
from repro.xmlkit.columns import MAX_SHAPE_DEPTH, MAX_SHAPE_NODES, registry_size, signature_of

ITEM = Path("dblp/record")
YEAR = ITEM / "year"
TITLE = ITEM / "title"

NAMES = ["Thomas Hütter", "Christine Schäler", "Nikolaus Augsten", "Chen Li 0001", "Willi Mann"]
TITLES = [
    "A Fast Index for Exact & Flexible Density-Based Clustering.",
    "Stable Set Similarity Joins: a <two-level> Signature Scheme.",
    "Größenordnungen schneller — Datenströme teilen.",
    "These aren't the JSON documents you're looking for?",
]


def record(rng, max_authors, max_ee, orcids):
    """One ``article`` or ``inproceedings``; the arguments bound how
    many shapes a corpus can have."""
    article = rng.random() < 0.5
    serial = rng.randrange(10**6)
    children = [
        element("key", text=f"{'journals' if article else 'conf'}/x/{serial}"),
        element("mdate", text=f"20{rng.randrange(10, 25)}-0{rng.randrange(1, 10)}-15"),
    ]
    for _ in range(rng.randint(1, max_authors)):
        author = [element("name", text=rng.choice(NAMES))]
        if orcids and rng.random() < 0.4:
            author.append(element("orcid", text=f"0000-000{rng.randrange(10)}-{serial:04d}-0000"))
        children.append(element("author", *author))
    children.append(element("title", text=rng.choice(TITLES)))
    if rng.random() < 0.5:
        children.append(element("pages", text=f"{serial % 900}-{serial % 900 + 12}"))
    children.append(element("year", text=rng.randrange(2000, 2025)))
    if article:
        numbered = rng.random() < 0.5  # a volume, and then perhaps a number
        if numbered:
            children.append(element("volume", text=rng.randrange(1, 40)))
        children.append(element("journal", text="Proc. VLDB Endow."))
        if numbered and rng.random() < 0.5:
            children.append(element("number", text=rng.randrange(1, 13)))
    else:
        children.append(element("booktitle", text="SIGMOD Conference"))
    for k in range(rng.randint(1, max_ee)):
        children.append(element("ee", text=f"https://doi.org/10.1145/{serial}.{k}"))
    children.append(element("url", text=f"db/x/{serial}.html#a&b"))
    return element("article" if article else "inproceedings", *children)


def corpus(seed, count, **bounds):
    rng = random.Random(seed)
    return [record(rng, **bounds) for _ in range(count)]


#: One or two authors without ORCID and one ``ee``: 2 (authors) × 2
#: (pages) × 3 (no volume, volume, volume + number) article shapes and
#: 2 × 2 for ``inproceedings`` — sixteen, a handful for 200 records.
FEW = dict(max_authors=2, max_ee=1, orcids=False)
COUNT = 200
#: Author lists of any length, ORCIDs and links at will: more shapes
#: than a batch of this size amortizes.
UNBOUNDED = dict(max_authors=9, max_ee=3, orcids=True)


def on_the_wire(records):
    """The corpus as a stream of items: canonical serialization, with
    every non-ASCII character as a numeric reference, decimal and
    hexadecimal in turn (``&amp;`` / ``&lt;`` come from ``serialize``)."""
    out = []
    for index, item in enumerate(records):
        form = "&#{};" if index % 2 else "&#x{:X};"
        out.append(
            "".join(ch if ch.isascii() else form.format(ord(ch)) for ch in serialize(item))
        )
    return "\n".join(out)


def specs():
    recent = PredicateGraph(normalize_comparison(YEAR, ">=", None, Fraction(2012)))
    return [SelectionSpec(recent), ProjectionSpec(frozenset({TITLE}), frozenset({TITLE}))]


def run(records):
    """Outputs, their bytes and the per-stage input counts, with the
    columnar counters the run moved."""
    pipeline = Pipeline.from_specs(specs(), ITEM)
    before = columnar_stats()
    outputs = pipeline.process_batch(records)
    moved = {k: v - before[k] for k, v in columnar_stats().items() if v != before[k]}
    return (
        [serialize(out) for out in outputs],
        sum(out.serialized_size() for out in outputs),
        list(pipeline.input_counts),
    ), moved


def run_in_a_row_store(records):
    with mock.patch.object(columnar, "AUTO_MIN_ROWS", 10**9):
        observed, moved = run(records)
    assert not moved  # unexamined
    return observed


def read_back(records):
    wire = on_the_wire(records)
    assert wire.isascii() and "&amp;" in wire and "&#x" in wire and "&lt;" in wire
    parsed = parse_stream(wire)
    assert parsed == records
    return parsed


def test_a_handful_of_shapes_is_a_grouped_store():
    records = read_back(corpus(20, COUNT, **FEW))
    shapes = {signature_of(item) for item in records}
    assert 8 <= len(shapes) <= COUNT // columnar.AUTO_MIN_ROWS
    assert isinstance(encode_ingest(records), GroupedBatch)
    observed, moved = run(records)
    assert moved["batches_grouped"] == 1 and moved["rows_grouped"] == COUNT
    assert moved["batches_bypassed_irregular"] == 1 and "batches_encoded" not in moved
    assert observed == run_in_a_row_store(records)
    outputs, _, counts = observed
    assert counts[0] == COUNT and 0 < counts[1] < COUNT and len(outputs) == counts[1]
    assert all("<title>" in out and "<year>" not in out for out in outputs)
    assert any("&amp;" in out for out in outputs) and any("ö" in out for out in outputs)


def test_unbounded_author_lists_are_a_row_store():
    records = read_back(corpus(21, COUNT, **UNBOUNDED))
    assert len({signature_of(item) for item in records}) > COUNT // columnar.AUTO_MIN_ROWS
    assert isinstance(encode_ingest(records), RowBatch)
    observed, moved = run(records)
    assert moved == {"batches_bypassed_irregular": 1}  # sniffed, nothing kept
    assert observed == run_in_a_row_store(records)


def _deep(levels):
    node = element("note", text="errata")
    for _ in range(levels - 1):
        node = element("note", node)
    return node


@pytest.mark.parametrize(
    "overrun",
    [
        # A consortium paper: more nodes than the sniffer walks.
        lambda: element(
            "article",
            *[element("author", element("name", text="A")) for _ in range(MAX_SHAPE_NODES // 2)],
            element("title", text="ATLAS & CMS"),
            element("year", text=2012),
        ),
        # One more level than it descends (the item root is level 0).
        lambda: element(
            "article", element("title", text="Nested"), element("year", text=2020), _deep(MAX_SHAPE_DEPTH + 1)
        ),
    ],
    ids=["MAX_SHAPE_NODES", "MAX_SHAPE_DEPTH"],
)
@pytest.mark.parametrize("position", [0, 77], ids=["first-row", "later-row"])
def test_a_record_past_the_sniffing_bounds_keeps_its_batch_in_a_row_store(overrun, position):
    from repro.xmlkit import columns

    records = corpus(20, COUNT, **FEW)
    outsized = overrun()
    assert signature_of(outsized) is None
    assert signature_of(element("article", _deep(MAX_SHAPE_DEPTH))) is not None
    records.insert(position, outsized)
    records = read_back(records)
    interned = columns.registry_size()
    assert isinstance(encode_ingest(records), RowBatch)
    observed, moved = run(records)
    bypass = "batches_bypassed_shape" if position == 0 else "batches_bypassed_irregular"
    assert moved == {bypass: 1}
    assert columns.registry_size() == interned
    assert observed == run_in_a_row_store(records)
    assert serialize(element("article", outsized.child("title").copy())) in observed[0]


@pytest.mark.parametrize(
    "text, message",
    [
        # DBLP as published: attributes, and names beside an ORCID child.
        ('<article mdate="2024-02-05" key="journals/pvldb/S23"><year>2023</year></article>', "attributes"),
        ('<article><author orcid="0000-0002-3036-6201">N. Augsten</author></article>', "attributes"),
        ("<article><author>N. Augsten<orcid>0000-0002-3036-6201</orcid></author></article>", "mixed content"),
    ],
)
def test_the_published_form_is_rejected_with_a_position(text, message):
    records = corpus(20, 3, **FEW)
    wire = on_the_wire(records) + "\n" + text
    for parser, source in ((parse, text), (parse_stream, wire)):
        with pytest.raises(XmlParseError, match=message) as caught:
            parser(source)
        assert caught.value.line == source.count("\n") + 1


class CorpusGenerator:
    """The corpus as a source: one record per ``next_item``."""

    def __init__(self, seed, **bounds):
        self._rng = random.Random(seed)
        self._bounds = bounds

    def next_item(self):
        return record(self._rng, **self._bounds)


@pytest.mark.parametrize("bounds", [FEW, UNBOUNDED], ids=["few", "unbounded"])
def test_registering_a_corpus_stream_interns_no_shape(bounds):
    """The statistics sample is grouped by shape outside the engine's
    registry: registration leaves it as it found it."""
    from repro.network.topology import example_topology
    from repro.sharing import StreamGlobe

    system = StreamGlobe(example_topology())
    before = registry_size()
    system.register_stream(
        "dblp", "dblp/record", lambda: CorpusGenerator(30, **bounds),
        frequency=10.0, source_peer="P0",
    )
    stats = system.catalog.for_stream("dblp")
    stats.projected_size([TITLE, YEAR])
    assert registry_size() == before
    assert stats.paths[ITEM / "author"].occurrence > 1  # repeated siblings
