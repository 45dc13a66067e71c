"""Tests for UDF operator descriptions feeding the cost model."""

import pytest

from repro.costmodel import (
    DEFAULT_DESCRIPTIONS,
    DescriptionRegistry,
    UdfDescription,
    base_load,
    estimate_stream_rate,
)
from repro.properties import ProjectionSpec, StreamProperties, UdfSpec
from repro.xmlkit import Path
from tests.conftest import make_system

ITEM = Path("photons/photon")


@pytest.fixture(autouse=True)
def clean_default_descriptions():
    DEFAULT_DESCRIPTIONS._descriptions.clear()
    yield
    DEFAULT_DESCRIPTIONS._descriptions.clear()


def udf_props(name):
    return StreamProperties("photons", ITEM, (UdfSpec(name, ("x",)),))


class TestUdfDescription:
    def test_defaults(self):
        description = UdfDescription("f")
        assert description.selectivity == 1.0
        assert description.size_factor == 1.0
        assert description.base_load is None

    def test_validation(self):
        with pytest.raises(ValueError):
            UdfDescription("f", selectivity=-0.1)
        with pytest.raises(ValueError):
            UdfDescription("f", size_factor=0.0)
        with pytest.raises(ValueError):
            UdfDescription("f", base_load=-1.0)


class TestDescriptionRegistry:
    def test_register_and_lookup(self):
        registry = DescriptionRegistry()
        description = UdfDescription("calibrate", selectivity=0.5)
        registry.register(description)
        assert registry.lookup("calibrate") is description
        assert "calibrate" in registry
        assert registry.lookup("other") is None

    def test_duplicate_rejected(self):
        registry = DescriptionRegistry()
        registry.register(UdfDescription("f"))
        with pytest.raises(ValueError):
            registry.register(UdfDescription("f"))


class TestEstimationWithDescriptions:
    def test_undeclared_udf_is_rate_neutral(self, catalog, photon_stats):
        rate = estimate_stream_rate(udf_props("mystery"), catalog)
        assert rate.size == photon_stats.avg_item_size
        assert rate.frequency == photon_stats.frequency

    def test_declared_selectivity_applied(self, catalog, photon_stats):
        DEFAULT_DESCRIPTIONS.register(UdfDescription("thin", selectivity=0.25))
        rate = estimate_stream_rate(udf_props("thin"), catalog)
        assert rate.frequency == pytest.approx(photon_stats.frequency * 0.25)

    def test_declared_size_factor_applied(self, catalog, photon_stats):
        DEFAULT_DESCRIPTIONS.register(UdfDescription("annotate", size_factor=1.5))
        rate = estimate_stream_rate(udf_props("annotate"), catalog)
        assert rate.size == pytest.approx(photon_stats.avg_item_size * 1.5)

    def test_combined_with_selection(self, catalog, photon_stats):
        from fractions import Fraction

        from repro.predicates import PredicateGraph, normalize_comparison
        from repro.properties import SelectionSpec

        DEFAULT_DESCRIPTIONS.register(UdfDescription("thin", selectivity=0.5))
        selection = SelectionSpec(
            PredicateGraph(
                normalize_comparison(ITEM / "en", ">=", None, Fraction(1))
            )
        )
        props = StreamProperties(
            "photons", ITEM, (selection, UdfSpec("thin", ("x",)))
        )
        plain = StreamProperties("photons", ITEM, (selection,))
        with_udf = estimate_stream_rate(props, catalog)
        without = estimate_stream_rate(plain, catalog)
        assert with_udf.frequency == pytest.approx(without.frequency * 0.5)


class TestDescribedUdfInPipelines:
    def test_stages_after_a_described_udf_are_charged_at_its_output_rate(self):
        """The projection after a UDF that keeps a quarter of the items
        runs on 25 items/s, not on the 100 the UDF reads."""
        DEFAULT_DESCRIPTIONS.register(UdfDescription("thin", selectivity=0.25))
        system = make_system("stream-sharing")
        usage = system.deployment.usage
        before = {peer: usage.peer_work(peer) for peer in system.net.super_peer_names()}
        en = ITEM / "en"
        stream = system.install_derived_stream(
            "d",
            "photons",
            [UdfSpec("thin"), ProjectionSpec(frozenset({en}), frozenset({en}))],
            target="P1",
        )
        assert system.planner.stream_rate(stream.content).frequency == 25.0
        origin = stream.origin_node
        assert stream.route[0] == origin and len(stream.route) > 1
        per_second = (
            (base_load("duplicate") + base_load("udf", "thin")) * 100.0
            + (base_load("projection") + base_load("transfer")) * 25.0
        )
        committed = usage.peer_work(origin) - before[origin]
        assert committed == pytest.approx(per_second * system.net.super_peer(origin).pindex)
