"""Unit tests for the columnar batch accelerator (DESIGN.md §14).

Covers the shape machinery (sniffing, validation, pruning), the
ColumnBatch view (decode/size/pickle), each operator kernel's identity
with its tree path, the delivery count kernel, and the end-to-end
executor identity under ``REPRO_COLUMNAR=on`` vs ``off``.
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
)
from repro.engine.columnar import (
    AUTO_MIN_ROWS,
    ColumnBatch,
    DeliveryKernel,
    apply_operator,
    columnar_mode,
    columnar_stats,
    encode_batch,
)
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
        before = columnar_stats()["batches_bypassed_irregular"]
        out = encode_batch(items + [odd])
        assert out == items + [odd]  # the original list, untouched
        assert columnar_stats()["batches_bypassed_irregular"] == before + 1

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
        pruned = batch.project(batch.vshape.prune(keep))
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
        keep = (("en",),)
        pruned = batch.project(batch.vshape.prune(keep))
        clone = pickle.loads(pickle.dumps(pruned))
        assert isinstance(clone, ColumnBatch)
        assert [serialize(e) for e in clone.decode()] == [
            serialize(e) for e in pruned.decode()
        ]
        assert clone.serialized_bytes() == pruned.serialized_bytes()

    def test_arrival_interns_in_the_registry_shape_of_uses(self):
        pruned = encode_batch(batch_of(5))
        pruned = pruned.project(pruned.vshape.prune((("en",),)))
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
        pruned = rows.project(rows.vshape.prune((("coord",), ("det_time",))))
        wire = pickle.dumps(pruned)
        # A receiver whose registry is full and has never seen the shape.
        monkeypatch.setattr(columns, "_REGISTRY", {})
        monkeypatch.setattr(columns, "MAX_SHAPES", 0)
        arrived = pickle.loads(wire)
        assert not isinstance(arrived, ColumnBatch)
        assert list(arrived) == list(pruned.decode())
        assert all(item.frozen for item in arrived)
        assert [item.serialized_size() for item in arrived] == [
            item.serialized_size() for item in pruned.decode()
        ]
        assert columns.registry_size() == 0


class TestModeSwitch:
    def test_mode_parsing(self, monkeypatch):
        monkeypatch.delenv("REPRO_COLUMNAR", raising=False)
        assert columnar_mode() == "auto"
        for value, mode in (("on", "on"), ("1", "on"), ("off", "off"), ("0", "off")):
            monkeypatch.setenv("REPRO_COLUMNAR", value)
            assert columnar_mode() == mode
        monkeypatch.setenv("REPRO_COLUMNAR", "sideways")
        with pytest.raises(ValueError):
            columnar_mode()

    def test_auto_skips_small_batches(self, monkeypatch):
        monkeypatch.setenv("REPRO_COLUMNAR", "auto")
        pipeline = Pipeline.from_specs(
            [SelectionSpec(graph((EN, ">=", "1.0")))], ITEM
        )
        small = batch_of(AUTO_MIN_ROWS - 1)
        before = columnar_stats()["batches_encoded"]
        assert pipeline.process_batch(small) == small
        assert columnar_stats()["batches_encoded"] == before


class TestKernels:
    def test_select_kernel_matches_tree(self):
        op_tree = SelectOperator(graph((RA, ">=", "125.0"), (EN, "<=", "1.8")), ITEM)
        op_cols = SelectOperator(graph((RA, ">=", "125.0"), (EN, "<=", "1.8")), ITEM)
        items = batch_of(20)
        tree_out = [out for item in items for out in op_tree.process(item)]
        cols_out = op_cols.process_columns(encode_batch(items))
        assert list(cols_out.decode()) == tree_out
        assert (op_cols.seen, op_cols.passed) == (op_tree.seen, op_tree.passed)

    def test_select_kernel_missing_path_rejects_all(self):
        op = SelectOperator(graph((ITEM / "ghost", ">=", "0.0")), ITEM)
        out = op.process_columns(encode_batch(batch_of(6)))
        assert len(out) == 0 and op.seen == 6 and op.passed == 0

    def test_pipeline_identity_with_counts(self, monkeypatch):
        specs = [
            SelectionSpec(graph((RA, ">=", "123.0"))),
            ProjectionSpec(frozenset({RA, EN}), frozenset({RA, EN})),
        ]
        items = batch_of(16)
        monkeypatch.setenv("REPRO_COLUMNAR", "off")
        tree = Pipeline.from_specs(specs, ITEM)
        tree_out = tree.process_batch(list(items))
        monkeypatch.setenv("REPRO_COLUMNAR", "on")
        cols = Pipeline.from_specs(specs, ITEM)
        cols_out = cols.process_batch(list(items))
        assert [serialize(e) for e in cols_out] == [serialize(e) for e in tree_out]
        assert cols.input_counts == tree.input_counts

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
        first, second = batch_of(10), [
            photon(en=2.0 + i, t=float(10 + i)) for i in range(10)
        ]
        ref_out = [o for item in first + second for o in reference.process(item)]
        # Columnar batch, then a tree batch across the fallback boundary:
        # the windower state must carry over exactly.
        mixed_out = list(mixed.process_columns(encode_batch(first)))
        mixed_out += [o for item in second for o in mixed.process(item)]
        assert [serialize(e) for e in mixed_out] == [serialize(e) for e in ref_out]

    def test_apply_operator_decodes_for_tree_only_operators(self):
        class Doubler:
            columnar = False

            def process(self, item):
                return [item, item]

        out = apply_operator(Doubler(), encode_batch(batch_of(4)))
        assert isinstance(out, list) and len(out) == 8


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
        assert kernel.count(encode_batch(wire)) is None


class TestExecutorIdentity:
    def _run(self, monkeypatch, mode):
        monkeypatch.setenv("REPRO_COLUMNAR", mode)
        system = make_system(verify=True)
        for name in ("Q1", "Q3"):
            system.register_query(name, PAPER_QUERIES[name], f"P{name[1]}")
        outputs = []
        metrics = system.run(
            8.0, capture=lambda query, item: outputs.append((query, serialize(item)))
        )
        return metrics, outputs

    def test_metrics_and_results_identical(self, monkeypatch):
        tree_metrics, tree_out = self._run(monkeypatch, "off")
        cols_metrics, cols_out = self._run(monkeypatch, "on")
        assert cols_metrics == tree_metrics
        assert cols_out == tree_out
