"""Tests for user-defined operators: registry, execution, sharing."""

import pytest

from tests.conftest import make_system, on_every_executor
from repro.costmodel import DEFAULT_DESCRIPTIONS, UdfDescription, base_load
from repro.engine import (
    DEFAULT_UDF_REGISTRY,
    Pipeline,
    UdfOperator,
    UdfRegistry,
    clear_default_registry,
)
from repro.engine.operators import EngineError, build_operator
from repro.properties import UdfSpec
from repro.xmlkit import Element, Path, element

ITEM = Path("photons/photon")


@pytest.fixture(autouse=True)
def clean_registry():
    clear_default_registry()
    yield
    clear_default_registry()


def scale_energy(item, factor):
    clone = item.copy()
    node = clone.find(["en"])
    if node is None:
        return []
    node.text = repr(float(node.text) * float(factor))
    return [clone]


def photon(en=1.0):
    return element("photon", element("en", text=en))


class TestRegistry:
    def test_register_and_resolve(self):
        registry = UdfRegistry()
        registry.register("scale", scale_energy)
        assert "scale" in registry
        assert registry.resolve("scale") is scale_energy
        assert registry.names() == ["scale"]

    def test_duplicate_rejected(self):
        registry = UdfRegistry()
        registry.register("scale", scale_energy)
        with pytest.raises(EngineError):
            registry.register("scale", scale_energy)

    def test_unknown_rejected(self):
        with pytest.raises(EngineError):
            UdfRegistry().resolve("nope")


class TestUdfOperator:
    def test_executes_with_parameters(self):
        DEFAULT_UDF_REGISTRY.register("scale", scale_energy)
        op = build_operator(UdfSpec("scale", ("2.0",)), ITEM)
        assert isinstance(op, UdfOperator)
        (out,) = op.process(photon(en=1.5))
        assert float(out.find(["en"]).text) == 3.0

    def test_non_list_return_rejected(self):
        DEFAULT_UDF_REGISTRY.register("bad", lambda item: item)
        op = UdfOperator(UdfSpec("bad"))
        with pytest.raises(EngineError):
            op.process(photon())

    def test_in_pipeline(self):
        DEFAULT_UDF_REGISTRY.register("scale", scale_energy)
        pipeline = Pipeline.from_specs([UdfSpec("scale", ("10",))], ITEM)
        (out,) = pipeline.process(photon(en=0.5))
        assert float(out.find(["en"]).text) == 5.0


class TestUdfStreamSharing:
    def test_install_and_find_shareable(self):
        DEFAULT_UDF_REGISTRY.register("scale", scale_energy)
        system = make_system("stream-sharing")
        spec = UdfSpec("scale", ("2.0",))
        installed = system.install_derived_stream(
            "photons-x2", "photons", [spec], target="P1"
        )
        assert installed.content.operators[-1] == spec

        # The identical UDF request is shareable; different parameters
        # are not (Algorithm 2, unknown operators).
        from repro.matching import match_stream_properties
        from repro.properties import StreamProperties

        same = StreamProperties("photons", ITEM, (spec,))
        other = StreamProperties("photons", ITEM, (UdfSpec("scale", ("3.0",)),))
        assert match_stream_properties(installed.content, same)
        assert not match_stream_properties(installed.content, other)

    def test_udf_stream_never_serves_wxquery(self):
        """A WXQuery subscription has no UDF operator, so Algorithm 2
        refuses the UDF stream and the optimizer uses the original."""
        DEFAULT_UDF_REGISTRY.register("scale", scale_energy)
        system = make_system("stream-sharing")
        system.install_derived_stream("photons-x2", "photons", [UdfSpec("scale", ("2.0",))], target="P1")
        result = system.register_query(
            "q",
            '<photons>{ for $p in stream("photons")/photons/photon '
            "where $p/en >= 1.0 return <r> { $p/en } </r> }</photons>",
            "P1",
        )
        assert result.plan.inputs[0].reused_id == "photons"

    @on_every_executor
    def test_udf_stream_executes_in_simulation(self, executor):
        if "scale" not in DEFAULT_UDF_REGISTRY:
            DEFAULT_UDF_REGISTRY.register("scale", scale_energy)
        system = executor.system("stream-sharing")
        system.install_derived_stream(
            "photons-x2", "photons", [UdfSpec("scale", ("2.0",))], target="P1"
        )
        metrics = executor.run(system, duration=5.0)
        # UDF work is charged at the source super-peer.
        assert metrics.peer_work["SP4"] > 0

    def test_bad_tap_node_rejected(self):
        system = make_system("stream-sharing")
        with pytest.raises(ValueError):
            system.install_derived_stream(
                "x", "photons", [UdfSpec("f")], target="P1", tap_node="SP0"
            )


class TestFuzzyOrderAggregation:
    def test_reorder_buffer_fixes_fuzzy_input(self):
        """Section 2's relaxation: a fixed-size buffer suffices to derive
        the total order before windowing."""
        from fractions import Fraction

        from repro.engine import WindowAggregateOperator, wire_to_partial
        from repro.predicates import PredicateGraph
        from repro.properties import AggregationSpec, WindowSpec

        spec = AggregationSpec(
            "sum",
            ITEM / "v",
            WindowSpec("diff", Fraction(2), Fraction(2), ITEM / "t"),
            PredicateGraph(),
            PredicateGraph(),
        )

        def item(t, v):
            return element("photon", element("t", text=float(t)), element("v", text=float(v)))

        # Slightly shuffled positions (swap distance 1).
        fuzzy = [item(t, 1.0) for t in (1, 0, 3, 2, 5, 4, 7, 6, 9, 8)]

        strict_op = WindowAggregateOperator(spec, ITEM)
        with pytest.raises(EngineError):
            for it in fuzzy:
                strict_op.process(it)

        buffered_op = WindowAggregateOperator(spec, ITEM, reorder_capacity=2)
        out = []
        for it in fuzzy:
            out.extend(buffered_op.process(it))
        out.extend(buffered_op.flush())
        sums = [wire_to_partial(w, "sum").total for w in out]
        assert sums == [2.0, 2.0, 2.0, 2.0, 2.0]


class TestDeclaredUdfLoad:
    """§3.2: a declared ``bload`` prices the UDF wherever work is
    estimated — at commit and at release as in the planner and the
    executor's accounting."""

    @pytest.fixture(autouse=True)
    def heavy(self):
        DEFAULT_UDF_REGISTRY.register("heavy", lambda item: [item])
        DEFAULT_DESCRIPTIONS.register(UdfDescription("heavy", base_load=400.0))
        yield
        DEFAULT_DESCRIPTIONS._descriptions.clear()

    def test_committed_measured_and_released_with_the_declared_load(self):
        system = make_system("stream-sharing")
        usage = system.deployment.usage
        peers = system.net.super_peer_names()
        before = {peer: usage.peer_work(peer) for peer in peers}

        stream = system.install_derived_stream(
            "photons-heavy", "photons", [UdfSpec("heavy")], target="P1"
        )
        origin = stream.origin_node
        pindex = system.net.super_peer(origin).pindex
        per_item = 400.0 + base_load("duplicate") + base_load("transfer")
        committed = usage.peer_work(origin) - before[origin]
        assert committed == pytest.approx(per_item * pindex * 100.0)

        # The estimate is what the run then bills (ingest is measured,
        # never committed).
        duration = 10.0
        metrics = system.run(duration)
        ingest = base_load("ingest") * pindex * metrics.items_generated["photons"]
        measured = (metrics.peer_work[origin] - ingest) / duration
        assert committed == pytest.approx(measured, rel=0.05)

        # No subscription owns the stream: the next deregistration
        # collects it and returns the ledger to what it was.
        system.register_query(
            "q",
            '<photons>{ for $p in stream("photons")/photons/photon '
            "where $p/en >= 1.0 return <r> { $p/en } </r> }</photons>",
            "P2",
        )
        assert "photons-heavy" in system.deregister_query("q")
        for peer in peers:
            assert usage.peer_work(peer) == pytest.approx(before[peer], abs=1e-6)
