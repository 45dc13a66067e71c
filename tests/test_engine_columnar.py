"""Unit tests for the engine's batch form (DESIGN.md §14).

Covers the shape machinery (sniffing, validation, pruning, what gets
interned), the views (decode/size/pickle), what picks the store, each
operator kernel on the shape and the row store, the delivery count
kernel, and the end-to-end executor identity between runs whose batches
land in different stores (the grouped store's own identity is a
property test, ``tests/test_prop_columnar.py``).
"""

import pickle
from fractions import Fraction

import pytest

from tests.conftest import PAPER_QUERIES, make_system
from repro.engine import (
    PartialAggregate,
    Pipeline,
    SelectOperator,
    WindowAggregateOperator,
    partial_to_wire,
    satisfies,
)
from repro.engine import columnar
from repro.engine.columnar import (
    AUTO_MIN_ROWS,
    ColumnBatch,
    DeliveryKernel,
    GroupedBatch,
    RowBatch,
    columnar_stats,
    encode_batch,
    encode_ingest,
)
from repro.engine.operators import Operator
from repro.engine.restructure import Restructurer
from repro.predicates import PredicateGraph, normalize_comparison
from repro.properties import (
    AggregationSpec,
    ProjectionSpec,
    SelectionSpec,
    WindowSpec,
)
from repro.wxquery import analyze, parse_query
from repro.xmlkit import Path, element, prune_to_paths, shape_of
from repro.xmlkit.columns import shape_for_signature
from repro.xmlkit.serializer import serialize

ITEM = Path("photons/photon")
RA = ITEM / "coord/cel/ra"
EN = ITEM / "en"


def photon(ra=130.0, dec=-45.0, en=1.5, t=1.0):
    return element(
        "photon",
        element(
            "coord", element("cel", element("ra", text=ra), element("dec", text=dec))
        ),
        element("en", text=en),
        element("det_time", text=t),
    ).freeze()


def graph(*specs):
    atoms = []
    for path, op, const in specs:
        atoms.extend(normalize_comparison(path, op, None, Fraction(str(const))))
    return PredicateGraph(atoms)


def batch_of(n=12):
    return [photon(ra=120.0 + i, en=1.0 + 0.1 * i, t=float(i)) for i in range(n)]


class TestShapes:
    def test_regular_batch_encodes(self):
        batch = encode_batch(batch_of())
        assert isinstance(batch, ColumnBatch)
        assert len(batch) == 12
        assert batch.store.shape.column_count == 4  # ra, dec, en, det_time

    def test_irregular_batch_bypasses_whole_batch(self):
        items = batch_of(5)
        odd = element("photon", element("en", text=1.0)).freeze()
        before = columnar_stats()
        out = encode_batch(items + [odd])
        assert isinstance(out, RowBatch)
        assert list(out.decode()) == items + [odd]
        assert out.decode()[0] is items[0]  # the trees themselves
        assert out.serialized_bytes() == sum(e.serialized_size() for e in items + [odd])
        before["batches_bypassed_irregular"] += 1
        assert columnar_stats() == before  # bypassed, and nothing encoded

    def test_auto_skips_small_batches(self):
        """A batch below ``AUTO_MIN_ROWS`` goes to a row store unexamined:
        neither encoded nor counted as bypassed."""
        pipeline = Pipeline.from_specs(
            [SelectionSpec(graph((EN, ">=", "1.0")))], ITEM
        )
        small = batch_of(AUTO_MIN_ROWS - 1)
        before = columnar_stats()
        assert pipeline.process_batch(small) == small
        assert isinstance(encode_ingest(small), RowBatch)
        assert columnar_stats() == before
        assert isinstance(encode_ingest(batch_of(AUTO_MIN_ROWS)), ColumnBatch)

    def test_interned_shapes_share_nodes(self):
        a, b = photon(), photon(ra=99.0)
        assert shape_of(a) is shape_of(b)

    def test_unprojected_decode_returns_original_elements(self):
        items = batch_of(8)
        batch = encode_batch(items)
        assert list(batch.decode()) == items
        assert batch.decode()[0] is items[0]

    def test_decode_row_and_serialized_bytes_match_trees(self):
        batch = encode_batch(batch_of(10))
        keep = (("coord", "cel", "ra"), ("en",))
        pruned = batch.project(keep)
        decoded = pruned.decode()
        expected = [
            prune_to_paths(item, [Path("coord/cel/ra"), Path("en")])
            for item in batch.decode()
        ]
        assert [serialize(d) for d in decoded] == [serialize(e) for e in expected]
        assert pruned.serialized_bytes() == sum(
            e.freeze().serialized_size() for e in expected
        )
        assert pruned.decode_row(pruned.rows[3]).serialized_size() == (
            decoded[3].serialized_size()
        )

    def test_shape_prune_mirrors_prune_to_paths_drop(self):
        batch = encode_batch(batch_of(4))
        assert batch.vshape.prune((("nope",),)) is None
        assert batch.vshape.prune(((),)) is batch.vshape  # empty path: keep all

    def test_pickle_round_trip(self):
        batch = encode_batch(batch_of(9))
        pruned = batch.project((("en",),))
        clone = pickle.loads(pickle.dumps(pruned))
        assert isinstance(clone, ColumnBatch)
        assert [serialize(e) for e in clone.decode()] == [
            serialize(e) for e in pruned.decode()
        ]
        assert clone.serialized_bytes() == pruned.serialized_bytes()

    def test_arrival_interns_in_the_registry_shape_of_uses(self):
        pruned = encode_batch(batch_of(5)).project((("en",),))
        clone = pickle.loads(pickle.dumps(pruned))
        # The shipped (pruned) shape is the receiver's root shape: the
        # very one sniffing an equal item yields.
        assert clone.vshape is clone.store.shape.root
        assert clone.store.shape is shape_of(pruned.decode()[0])
        assert clone.store.shape is shape_for_signature(pruned.vshape.signature())

    def test_full_registry_on_arrival_yields_the_equal_tree_batch(self, monkeypatch):
        from repro.xmlkit import columns

        batch = encode_batch(batch_of(6))
        rows = SelectOperator(graph((RA, ">=", "123.0")), ITEM).process_columns(batch)
        pruned = rows.project((("coord",), ("det_time",)))
        wire = pickle.dumps(pruned)
        # A receiver whose registry is full and has never seen the shape.
        monkeypatch.setattr(columns, "_REGISTRY", {})
        monkeypatch.setattr(columns, "MAX_SHAPES", 0)
        arrived = pickle.loads(wire)
        assert isinstance(arrived, RowBatch)
        assert arrived.decode() == pruned.decode()
        assert all(item.frozen for item in arrived.decode())
        assert arrived.serialized_bytes() == pruned.serialized_bytes()
        assert columns.registry_size() == 0

    def test_a_batch_that_ends_in_a_row_store_interns_nothing(self, monkeypatch):
        """The registry never evicts, so only a batch stored under a
        shape may intern it: ``shape_of(items[0])`` used to intern ahead
        of validation, and 256 irregular batches with distinct first
        rows shut every later regular batch out of the shape store."""
        from repro.xmlkit import columns

        monkeypatch.setattr(columns, "_REGISTRY", {})
        before = columnar_stats()
        for k in range(300):
            first = element("photon", element(f"junk{k}", text=k)).freeze()
            out = encode_ingest([first] + batch_of(AUTO_MIN_ROWS))
            assert isinstance(out, RowBatch)  # two shapes, too few rows
        assert columns.registry_size() == 0
        assert isinstance(encode_ingest(batch_of(AUTO_MIN_ROWS)), ColumnBatch)
        assert columns.registry_size() == 1
        before["batches_bypassed_irregular"] += 300
        before["batches_encoded"] += 1
        before["rows_encoded"] += AUTO_MIN_ROWS
        assert columnar_stats() == before

    def test_a_mixed_batch_interns_all_its_shapes_or_none(self, monkeypatch):
        from repro.xmlkit import columns

        monkeypatch.setattr(columns, "_REGISTRY", {})
        odd = [element("photon", element("en", text=k)).freeze() for k in range(8)]
        items = [item for pair in zip(batch_of(8), odd) for item in pair]
        monkeypatch.setattr(columns, "MAX_SHAPES", 1)  # room for one of the two
        before = columnar_stats()
        assert isinstance(encode_ingest(items), RowBatch)
        assert columns.registry_size() == 0
        before["batches_bypassed_irregular"] += 1
        assert columnar_stats() == before
        monkeypatch.setattr(columns, "MAX_SHAPES", 2)
        grouped = encode_ingest(items)
        assert isinstance(grouped, GroupedBatch)
        assert columns.registry_size() == 2
        assert list(grouped.decode()) == items
        assert grouped.decode()[1] is items[1]  # the trees themselves
        before["batches_bypassed_irregular"] += 1
        before["batches_grouped"] += 1
        before["rows_grouped"] += 16
        before["batches_decoded"] += 2  # one shape-store view per group
        before["rows_decoded"] += 16
        assert columnar_stats() == before
        # One more shape in the batch than its rows amortize: a row store.
        third = element("photon", element("det_time", text=1)).freeze()
        assert isinstance(encode_ingest(items[:-1] + [third]), RowBatch)
        assert columns.registry_size() == 2

    def test_row_view_ships_its_surviving_trees(self):
        items = batch_of(6)
        view = RowBatch(items)
        kept = view.derive([1, 4])
        for arrived in (pickle.loads(pickle.dumps(kept)), kept.detached()):
            assert isinstance(arrived, RowBatch)
            assert list(arrived.decode()) == [items[1], items[4]]
            assert len(arrived.elements) == 2  # the rest stayed home
            assert arrived.serialized_bytes() == kept.serialized_bytes()
        assert view.detached() is view


def both_stores(items):
    """The same items as a shape-store and as a row-store view."""
    shaped = encode_batch(items)
    assert isinstance(shaped, ColumnBatch)
    return shaped, RowBatch(items)


class TestKernels:
    def test_select_kernel_matches_tree(self):
        """On either store, the rows ``satisfies`` accepts per item."""
        predicate = graph((RA, ">=", "125.0"), (EN, "<=", "1.8"))
        items = batch_of(20)
        expected = [item for item in items if satisfies(item, predicate, ITEM)]
        assert 0 < len(expected) < len(items)
        for view in both_stores(items):
            op = SelectOperator(predicate, ITEM)
            assert list(op.process_columns(view).decode()) == expected
            assert (op.seen, op.passed) == (len(items), len(expected))
        op = SelectOperator(predicate, ITEM)
        assert [out for item in items for out in op.process(item)] == expected
        assert (op.seen, op.passed) == (len(items), len(expected))

    def test_select_kernel_missing_path_rejects_all(self):
        for view in both_stores(batch_of(6)):
            op = SelectOperator(graph((ITEM / "ghost", ">=", "0.0")), ITEM)
            out = op.process_columns(view)
            assert len(out) == 0 and op.seen == 6 and op.passed == 0

    def test_pipeline_identity_with_counts(self, monkeypatch):
        specs = [
            SelectionSpec(graph((RA, ">=", "123.0"))),
            ProjectionSpec(frozenset({RA, EN}), frozenset({RA, EN})),
        ]
        items = batch_of(16)
        encoded = columnar_stats()["batches_encoded"]
        cols = Pipeline.from_specs(specs, ITEM)
        cols_out = cols.process_batch(list(items))
        assert columnar_stats()["batches_encoded"] == encoded + 1
        monkeypatch.setattr(columnar, "AUTO_MIN_ROWS", len(items) + 1)
        rows = Pipeline.from_specs(specs, ITEM)
        rows_out = rows.process_batch(list(items))
        assert columnar_stats()["batches_encoded"] == encoded + 1
        expected = [
            prune_to_paths(item, [Path("coord/cel/ra"), Path("en")])
            for item in items[3:]
        ]
        assert [serialize(e) for e in cols_out] == [serialize(e) for e in expected]
        assert [serialize(e) for e in rows_out] == [serialize(e) for e in expected]
        assert cols.input_counts == rows.input_counts == [16, 13]

    def test_aggregate_kernel_shares_state_with_tree_path(self):
        spec = AggregationSpec(
            function="avg",
            aggregated_path=EN,
            window=WindowSpec("diff", Fraction(4), Fraction(2), ITEM / "det_time"),
            pre_selection=PredicateGraph(),
            result_filter=PredicateGraph(),
        )
        reference = WindowAggregateOperator(spec, ITEM)
        mixed = WindowAggregateOperator(spec, ITEM)
        first = batch_of(10)
        second = [photon(en=2.0 + i, t=float(10 + i)) for i in range(10)]
        third = [photon(en=0.5 * i, t=float(20 + i)) for i in range(10)]
        ref_out = [
            o for item in first + second + third for o in reference.process(item)
        ]
        # A shape-store batch, a row-store batch over the trees, then
        # single items: the windower state must carry over exactly.
        shaped = encode_batch(first)
        assert isinstance(shaped, ColumnBatch)
        mixed_out = list(mixed.process_columns(shaped).decode())
        mixed_out += mixed.process_columns(RowBatch(second)).decode()
        mixed_out += [o for item in third for o in mixed.process(item)]
        assert [serialize(e) for e in mixed_out] == [serialize(e) for e in ref_out]
        assert len(ref_out) > 10

    def test_apply_operator_decodes_for_tree_only_operators(self):
        """Applying a per-item operator to a batch: the base class
        decodes the view, loops, and wraps what came out, frozen."""

        class Doubler(Operator):
            def process(self, item):
                return [item, item.copy()]

        decoded = columnar_stats()["batches_decoded"]
        projected = encode_batch(batch_of(4)).project((("en",),))
        out = Doubler().process_columns(projected)
        assert isinstance(out, RowBatch) and len(out) == 8
        assert all(item.frozen for item in out.decode())
        assert columnar_stats()["batches_decoded"] == decoded + 1


class TestDeliveryKernel:
    def _restructurer(self, text):
        return Restructurer(analyze(parse_query(text)))

    def test_plain_count_matches_per_item_build(self):
        restructurer = self._restructurer(PAPER_QUERIES["Q1"])
        kernel = DeliveryKernel(restructurer)
        items = [photon(ra=121.0 + i, dec=-45.0) for i in range(7)]
        batch = encode_batch(items)
        assert isinstance(batch, ColumnBatch)
        expected = sum(len(restructurer.build(item)) for item in items)
        assert kernel.count(batch) == expected

    def test_aggregate_wire_counts(self):
        for function, partials, per_item in (
            ("count", [PartialAggregate.of_values([2.0] * 5), PartialAggregate()], [1, 1]),
            ("avg", [PartialAggregate.of_values([1.0] * 3), PartialAggregate()], [1, 0]),
        ):
            query = (
                '<out>{ for $w in stream("photons")/photons/photon '
                "|det_time diff 4 step 4| "
                f"let $a := {function}($w/en) "
                "return <r> { $a } </r> }</out>"
            )
            restructurer = self._restructurer(query)
            kernel = DeliveryKernel(restructurer)
            wire = [partial_to_wire(p, function).freeze() for p in partials]
            batch = encode_batch(wire)
            assert isinstance(batch, ColumnBatch)
            expected = sum(len(restructurer.build(item)) for item in wire)
            assert kernel.count(batch) == expected
            assert expected == sum(per_item)

    def test_conditional_return_falls_back(self):
        query = (
            '<r>{ for $w in stream("s")/photons/photon |count 2| '
            "let $a := avg($w/en) "
            "return if $a >= 1 then <hi/> else <lo/> }</r>"
        )
        kernel = DeliveryKernel(self._restructurer(query))
        assert kernel.countable is False
        wire = [
            partial_to_wire(PartialAggregate.of_values([2.0]), "avg").freeze()
            for _ in range(5)
        ]
        before = columnar_stats()["delivery_kernel_fallbacks"]
        assert kernel.count(encode_batch(wire)) is None
        assert columnar_stats()["delivery_kernel_fallbacks"] == before + 1

    def test_row_store_is_not_vouched_for_and_is_no_fallback(self):
        kernel = DeliveryKernel(self._restructurer(PAPER_QUERIES["Q1"]))
        before = columnar_stats()
        assert kernel.count(RowBatch(batch_of(9))) is None
        assert columnar_stats() == before


class _DetectorLess:
    """Every 7th photon lacks ``coord/det`` — a subtree no paper query
    reads — so every source batch mixes two shapes and lands in a
    grouped store."""

    def __init__(self, inner):
        self.inner = inner
        self.count = 0

    @property
    def clock(self):
        return self.inner.clock

    def next_item(self):
        item = self.inner.next_item()
        self.count += 1
        if self.count % 7 == 0:
            coord = item.children[1]
            assert coord.tag == "coord" and coord.children[1].tag == "det"
            coord.children = coord.children[:1]
        return item


class TestExecutorIdentity:
    def _run(self, workers, wrap=None, **kwargs):
        system = make_system(verify=True, **kwargs)
        if wrap is not None:
            for source in system.sources.values():
                source.generator_factory = (
                    lambda factory=source.generator_factory: wrap(factory())
                )
        for name in ("Q1", "Q3"):
            system.register_query(name, PAPER_QUERIES[name], f"P{name[1]}")
        outputs = []
        before = columnar_stats()
        metrics = system.run(
            8.0,
            capture=lambda query, item: outputs.append((query, serialize(item))),
            workers=workers,
        )
        stats = {k: v - before[k] for k, v in columnar_stats().items()}
        return metrics, outputs, stats

    def test_metrics_and_results_identical(self, inline_cells, monkeypatch):
        """The store is picked by the input, never by the environment:
        the same run with every batch forced into a row store, and with
        input whose irregularity no query can see — over one cell and
        over two (in-process: the counters are process-local)."""
        for workers in (1, 2):
            with monkeypatch.context() as patch:
                self._check_identical(workers, patch)

    def _check_identical(self, workers, monkeypatch):
        cols_metrics, cols_out, cols_stats = self._run(workers)
        assert cols_stats["batches_encoded"] > 0
        irregular_metrics, irregular_out, irregular_stats = self._run(
            workers, _DetectorLess
        )
        assert irregular_stats["batches_encoded"] == 0
        assert irregular_stats["batches_bypassed_irregular"] > 0
        assert irregular_stats["batches_grouped"] > 0
        assert irregular_out == cols_out
        assert irregular_metrics == cols_metrics
        # A traced run reports which store engaged: the same counters,
        # as ``columnar.*`` in the run log and ``obs summarize``'s table.
        from repro.obs.cli import _columnar_table
        from repro.obs.recorder import Recorder

        recorder = Recorder()
        _, _, traced_stats = self._run(workers, _DetectorLess, recorder=recorder)
        assert traced_stats["batches_grouped"] > 0
        assert {
            name[len("columnar."):]: value
            for name, value in recorder.counters.items()
            if name.startswith("columnar.")
        } == {key: value for key, value in traced_stats.items() if value}
        table = _columnar_table(recorder.counters)
        assert "batches_grouped" in table and "rows_grouped" in table
        monkeypatch.setattr(columnar, "AUTO_MIN_ROWS", 10**9)
        for wrap in (None, _DetectorLess):
            rows_metrics, rows_out, rows_stats = self._run(workers, wrap)
            assert not any(rows_stats.values())
            assert rows_metrics == cols_metrics
            assert rows_out == cols_out
