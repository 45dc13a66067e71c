"""Unit tests for the photon generator, templates, and scenarios."""

import dataclasses
import hashlib
import math

import pytest

from repro.wxquery import analyze, parse_query
from repro.workload import (
    HotSpot,
    PhotonGenerator,
    PhotonStreamConfig,
    QueryTemplateGenerator,
    RXJ_REGION,
    VELA_REGION,
    scenario_churn_hotspots,
    scenario_drift,
    scenario_one,
    scenario_two,
)
from repro.xmlkit import PHOTON_SCHEMA, Element, Schema, SchemaNode, serialize


def drifting_config():
    """``scenario_drift``'s rate step plus a hot-spot schedule whose
    last mixture has a spot outside the strip (the 16-try fall-through
    to the background)."""
    return dataclasses.replace(
        scenario_drift(duration=12.0).sources[0].config,
        hot_spot_schedule=(
            (2.0, (HotSpot(ra=150.0, dec=-30.0, sigma=2.0, weight=0.5, mean_energy=1.4),)),
            (
                4.5,
                (
                    HotSpot(ra=210.0, dec=-5.0, sigma=1.2, weight=0.40, mean_energy=2.1),
                    HotSpot(ra=112.0, dec=-33.0, sigma=3.0, weight=0.25, mean_energy=1.1),
                ),
            ),
        ),
    )


class ConstructorPhotons(PhotonGenerator):
    """The reference the compiled builder replaced: the same draws in
    the same order (``randint`` spelled as before), the tree built
    through the public validating ``Element(...)`` constructor."""

    def _build_photon(self, ra, dec, energy):
        rng = self._rng
        band = self.config.energy_max - self.config.energy_min
        phc = max(1, min(255, int(256 * (energy - self.config.energy_min) / band)
                         + rng.randint(-8, 8)))
        dx = rng.randint(0, 8191)
        dy = rng.randint(0, 8191)
        return Element(
            "photon",
            children=(
                Element("phc", text=phc),
                Element(
                    "coord",
                    children=(
                        Element("cel", children=(Element("ra", text=ra), Element("dec", text=dec))),
                        Element("det", children=(Element("dx", text=dx), Element("dy", text=dy))),
                    ),
                ),
                Element("en", text=energy),
                Element("det_time", text=round(self._clock, 4)),
            ),
        )


class TestPhotonGenerator:
    def test_deterministic_for_seed(self):
        first = PhotonGenerator(PhotonStreamConfig(seed=5)).take(50)
        second = PhotonGenerator(PhotonStreamConfig(seed=5)).take(50)
        assert first == second

    def test_different_seeds_differ(self):
        first = PhotonGenerator(PhotonStreamConfig(seed=5)).take(50)
        second = PhotonGenerator(PhotonStreamConfig(seed=6)).take(50)
        assert first != second

    def test_items_conform_to_schema(self):
        for item in PhotonGenerator(PhotonStreamConfig(seed=7)).take(100):
            PHOTON_SCHEMA.validate(item)

    def test_det_time_strictly_increasing(self):
        generator = PhotonGenerator(PhotonStreamConfig(seed=7))
        times = [float(item.find(["det_time"]).text) for item in generator.items(200)]
        assert all(b > a for a, b in zip(times, times[1:]))

    def test_clock_tracks_frequency(self):
        generator = PhotonGenerator(PhotonStreamConfig(seed=7, frequency=50.0))
        generator.take(500)
        # 500 items at 50/s ≈ 10 virtual seconds.
        assert generator.clock == pytest.approx(10.0, rel=0.15)
        assert generator.emitted == 500

    def test_positions_inside_strip(self):
        config = PhotonStreamConfig(seed=7)
        for item in PhotonGenerator(config).take(200):
            ra = float(item.find(["coord", "cel", "ra"]).text)
            dec = float(item.find(["coord", "cel", "dec"]).text)
            assert config.strip.contains(ra, dec)

    def test_energies_in_band(self):
        config = PhotonStreamConfig(seed=7)
        for item in PhotonGenerator(config).take(200):
            energy = float(item.find(["en"]).text)
            assert config.energy_min <= energy <= config.energy_max

    def test_hot_spot_overdensity(self):
        """The vela region must be photon-rich (its hot spot drives the
        paper's example queries)."""
        sample = PhotonGenerator(PhotonStreamConfig(seed=7)).take(2000)
        in_vela = sum(
            1 for item in sample
            if VELA_REGION.contains(
                float(item.find(["coord", "cel", "ra"]).text),
                float(item.find(["coord", "cel", "dec"]).text),
            )
        )
        strip_area = (160 - 100) * (60 - 20)
        vela_area = (VELA_REGION.ra_max - VELA_REGION.ra_min) * (
            VELA_REGION.dec_max - VELA_REGION.dec_min
        )
        uniform_expectation = len(sample) * vela_area / strip_area
        assert in_vela > 2 * uniform_expectation

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            PhotonStreamConfig(frequency=0)

    @pytest.mark.parametrize(
        "config, digest, clock",
        [
            (
                PhotonStreamConfig(),
                "416d25705094acba1bebf14b4a330a5ac11b1b26e6048a6b50332b8dc629a9fb",
                9.987996754722694,
            ),
            (
                drifting_config(),
                "de25e68c119c5cff2d55d3731d03de10548b0736428e6267807f0e3204608df4",
                5.518781626175259,
            ),
        ],
        ids=["default", "drift"],
    )
    def test_draw_order_is_pinned(self, config, digest, clock):
        """The seeded stream is a contract (sharebench's seed-0 pins,
        every golden RunMetrics): digests of the first 1 000 serialized
        photons, recorded before the compiled builder replaced the
        ``Element(...)`` literal."""
        generator = PhotonGenerator(config)
        seen = hashlib.sha256()
        for item in generator.items(1000):
            seen.update(serialize(item).encode())
        assert seen.hexdigest() == digest
        assert generator.clock == clock

    @pytest.mark.parametrize("config", [PhotonStreamConfig(seed=s) for s in (1, 7, 20060327)]
                             + [drifting_config()])
    def test_built_photons_equal_constructed_ones_node_for_node(self, config):
        built = PhotonGenerator(config)
        constructed = ConstructorPhotons(config)
        for _ in range(300):
            item, reference = built.next_item(), constructed.next_item()
            coord = item.children[1]
            # Born frozen at the leaves only: a wrapper may still
            # restructure the item before the executor's freeze().
            assert not item.frozen and not coord.frozen
            assert all(not node.frozen for node in coord.children)
            assert all(node.frozen for node in item.iter() if not node.children)
            assert type(item.children) is list and type(coord.children) is list
            assert not any(node.frozen for node in reference.iter())
            assert serialize(item) == serialize(reference)
            item.freeze()
            reference.freeze()
            nodes, expected = list(item.iter()), list(reference.iter())
            assert len(nodes) == len(expected) == 11
            for node, other in zip(nodes, expected):
                assert (node.tag, node.text, len(node.children), node._size) == (
                    other.tag, other.text, len(other.children), other._size
                )
                assert node._size == len(serialize(node).encode())
        assert built.clock == constructed.clock

    def test_schema_of_another_shape_rejected(self):
        flat = Schema(SchemaNode("photon", (SchemaNode("en", value_type="decimal"),)), "photons")
        with pytest.raises(ValueError, match="leaves"):
            PhotonGenerator(PhotonStreamConfig(schema=flat))

    def test_region_helpers(self):
        assert RXJ_REGION.ra_min >= VELA_REGION.ra_min
        assert VELA_REGION.contains(*RXJ_REGION.center)


class TestQueryTemplates:
    def test_deterministic(self):
        first = QueryTemplateGenerator(seed=3).generate(20)
        second = QueryTemplateGenerator(seed=3).generate(20)
        assert first == second

    def test_all_generated_queries_are_valid_wxquery(self):
        for generated in QueryTemplateGenerator(seed=3).generate(60):
            analyzed = analyze(parse_query(generated.text))
            assert analyzed.streams() == ["photons"]

    def test_kinds_cover_all_templates(self):
        kinds = {g.kind for g in QueryTemplateGenerator(seed=3).generate(60)}
        assert kinds == {"selection", "projection", "aggregation"}

    def test_names_unique(self):
        names = [g.name for g in QueryTemplateGenerator(seed=3).generate(40)]
        assert len(names) == len(set(names))

    def test_stream_parameter_respected(self):
        generated = QueryTemplateGenerator(stream="other", seed=3).generate(10)
        for g in generated:
            assert 'stream("other")' in g.text

    def test_shareability_engineered(self):
        """Pool-drawn constants must actually collide: some pair of
        generated selection queries shares an identical predicate."""
        from repro.properties import extract_properties

        generated = QueryTemplateGenerator(seed=3).generate(40)
        graphs = []
        for g in generated:
            if g.kind == "aggregation":
                continue
            p = extract_properties(parse_query(g.text), g.name).single_input()
            if p.selection is not None:
                graphs.append(p.selection.graph)
        collisions = sum(
            1
            for i, a in enumerate(graphs)
            for b in graphs[i + 1:]
            if a == b
        )
        assert collisions > 0


class TestScenarios:
    def test_scenario_one_shape(self):
        scenario = scenario_one()
        assert len(scenario.queries) == 25
        assert len(scenario.sources) == 1
        net = scenario.build_network()
        assert len(net) == 8

    def test_scenario_two_shape(self):
        scenario = scenario_two()
        assert len(scenario.queries) == 100
        assert len(scenario.sources) == 2
        net = scenario.build_network()
        assert len(net) == 16
        assert net.home_of("T0") == "SP0"
        assert net.home_of("T1") == "SP15"

    def test_scenarios_deterministic(self):
        assert [q.text for q in scenario_one().queries] == [
            q.text for q in scenario_one().queries
        ]

    def test_scenario_two_uses_both_streams(self):
        streams = set()
        for query in scenario_two().queries:
            streams.update(analyze(parse_query(query.text)).streams())
        assert streams == {"photons", "photons2"}

    @pytest.mark.xfail(
        strict=True,
        reason="ROADMAP item 1(c): scenario_churn_hotspots puts its three hot spots "
        "outside SKY_STRIP, so every hot-spot photon falls back to the uniform "
        "background; the fix moves the hotspots-rolling-churn seed-0 pins",
    )
    def test_churn_hot_spots_emit_photons(self):
        config = scenario_churn_hotspots().sources[0].config
        near = 0
        for item in PhotonGenerator(config).take(2000):
            ra = float(item.find(["coord", "cel", "ra"]).text)
            dec = float(item.find(["coord", "cel", "dec"]).text)
            near += any(
                math.hypot(ra - spot.ra, dec - spot.dec) <= 2 * spot.sigma
                for spot in config.hot_spots
            )
        assert near > 0

    def test_all_scenario_queries_parse(self):
        for scenario in (scenario_one(), scenario_two()):
            for query in scenario.queries:
                analyze(parse_query(query.text))
