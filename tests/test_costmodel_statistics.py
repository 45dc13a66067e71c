"""Unit tests for the statistics catalog and selectivity estimation."""

from fractions import Fraction

import pytest

from repro.costmodel import MIN_SELECTIVITY, StatisticsCatalog, StreamStatistics
from repro.predicates import PredicateGraph, normalize_comparison
from repro.workload.photons import PhotonGenerator, PhotonStreamConfig, VELA_REGION
from repro.xmlkit import Path

ITEM = Path("photons/photon")
RA = ITEM / "coord/cel/ra"
DEC = ITEM / "coord/cel/dec"
EN = ITEM / "en"
TIME = ITEM / "det_time"


def paper_projected_size(stats, outputs):
    """The paper's formula: ``size(s) − Σ_{n∉Π} occ(n)·size(n)``, the
    reference the measured :meth:`StreamStatistics.projected_size` is
    compared against.

    The subtraction runs over the *maximal* dropped subtrees (top-most
    paths neither inside an output subtree nor an ancestor of one), so
    nested elements are not double-counted.
    """

    def retained(path):
        return any(path.starts_with(out) or out.starts_with(path) for out in outputs)

    def parent_kept(path):
        parent = path.parent
        return len(parent.steps) <= len(stats.item_path.steps) or retained(parent)

    dropped = sum(
        entry.occurrence * entry.avg_size
        for path, entry in stats.paths.items()
        if not retained(path) and parent_kept(path)
    )
    return stats.avg_item_size - dropped


def selection_graph(*specs):
    atoms = []
    for path, op, const in specs:
        atoms.extend(normalize_comparison(path, op, None, Fraction(str(const))))
    return PredicateGraph(atoms)


class TestFromSample:
    def test_basic_shape(self, photon_stats):
        assert photon_stats.stream == "photons"
        assert photon_stats.frequency == 100.0
        assert photon_stats.avg_item_size > 100

    def test_occurrences_are_one_for_dtd_elements(self, photon_stats):
        for path in (RA, DEC, EN, TIME, ITEM / "phc"):
            assert photon_stats.paths[path].occurrence == 1.0

    def test_value_ranges_inside_configured_strip(self, photon_stats):
        low, high = photon_stats.value_range(RA)
        assert 100.0 <= low < high <= 160.0

    def test_avg_increment_positive_for_det_time(self, photon_stats):
        increment = photon_stats.avg_increment(TIME)
        assert increment is not None and increment > 0
        # frequency 100 items/s → mean increment ≈ 0.01
        assert increment == pytest.approx(0.01, rel=0.2)

    def test_no_increment_for_structural_path(self, photon_stats):
        assert photon_stats.avg_increment(ITEM / "coord") is None

    def test_unknown_path_raises(self, photon_stats):
        with pytest.raises(KeyError):
            photon_stats.paths[ITEM / "nope"]
        assert not photon_stats.has_path(ITEM / "nope")

    def test_empty_sample_rejected(self):
        with pytest.raises(ValueError):
            StreamStatistics.from_sample("s", ITEM, [], 1.0)

    def test_nonpositive_frequency_rejected(self, photon_sample):
        with pytest.raises(ValueError):
            StreamStatistics.from_sample("s", ITEM, photon_sample, 0.0)


class TestProjectedSize:
    def test_projection_shrinks(self, photon_stats):
        projected = photon_stats.projected_size({EN, TIME})
        assert projected < photon_stats.avg_item_size

    def test_full_projection_equals_item_size(self, photon_stats):
        all_paths = {
            ITEM / "phc", ITEM / "coord", EN, TIME,
        }
        assert photon_stats.projected_size(all_paths) == pytest.approx(
            photon_stats.avg_item_size
        )

    def test_matches_paper_formula(self, photon_stats):
        """Measured pruning and the paper's subtraction formula agree."""
        for outputs in (
            {EN, TIME},
            {RA, DEC, EN, TIME},
            {ITEM / "coord/cel", EN},
            {ITEM / "phc"},
        ):
            measured = photon_stats.projected_size(outputs)
            formula = paper_projected_size(photon_stats, outputs)
            assert measured == pytest.approx(formula, rel=0.01), outputs

    def test_path_outside_item_rejected(self, photon_stats):
        with pytest.raises(KeyError):
            photon_stats.projected_size({Path("other/stream/x")})


class TestSelectivity:
    def test_empty_graph_is_one(self, photon_stats):
        assert photon_stats.selectivity(PredicateGraph()) == 1.0

    def test_full_range_is_near_one(self, photon_stats):
        graph = selection_graph((RA, ">=", 0), (RA, "<=", 1000))
        # Histogram mass summation accumulates float rounding.
        assert photon_stats.selectivity(graph) == pytest.approx(1.0, abs=1e-9)

    def test_vela_region_underestimated_but_usable(self, photon_stats, photon_config):
        """The uniform-independence model underestimates hot-spot regions
        (the generator concentrates photons at the vela remnant) but
        stays within usable planning bounds — the same estimator error
        the paper's catalog-based system would exhibit."""
        graph = selection_graph(
            (RA, ">=", VELA_REGION.ra_min),
            (RA, "<=", VELA_REGION.ra_max),
            (DEC, ">=", VELA_REGION.dec_min),
            (DEC, "<=", VELA_REGION.dec_max),
        )
        estimated = photon_stats.selectivity(graph)
        sample = PhotonGenerator(photon_config).take(2000)
        observed = sum(
            1 for item in sample
            if VELA_REGION.contains(
                float(item.find(["coord", "cel", "ra"]).text),
                float(item.find(["coord", "cel", "dec"]).text),
            )
        ) / len(sample)
        assert 0.0 < estimated < observed  # underestimates the hot spot
        assert estimated > 0.01            # but not absurdly so

    def test_tighter_predicate_has_smaller_selectivity(self, photon_stats):
        wide = selection_graph((RA, ">=", 120), (RA, "<=", 138))
        narrow = selection_graph((RA, ">=", 130), (RA, "<=", 132))
        assert photon_stats.selectivity(narrow) < photon_stats.selectivity(wide)

    def test_impossible_range_floors_at_minimum(self, photon_stats):
        graph = selection_graph((RA, ">=", 1000))
        assert photon_stats.selectivity(graph) == MIN_SELECTIVITY

    def test_unknown_variable_contributes_half(self, photon_stats):
        graph = selection_graph((ITEM / "coord", "<=", 1))  # no numeric stats
        assert photon_stats.selectivity(graph) == pytest.approx(0.5)

    def test_variable_comparison_contributes_half(self, photon_stats):
        atoms = normalize_comparison(RA, "<=", DEC, Fraction(0))
        graph = PredicateGraph(atoms)
        assert photon_stats.selectivity(graph) <= 0.5

    def test_cached_results_consistent(self, photon_stats):
        graph = selection_graph((EN, ">=", "1.3"))
        assert photon_stats.selectivity(graph) == photon_stats.selectivity(graph)


class TestCatalog:
    def test_register_and_lookup(self, photon_stats):
        catalog = StatisticsCatalog()
        catalog.register(photon_stats)
        assert catalog.for_stream("photons") is photon_stats
        assert "photons" in catalog
        assert catalog.streams() == ["photons"]

    def test_duplicate_registration_rejected(self, photon_stats):
        catalog = StatisticsCatalog()
        catalog.register(photon_stats)
        with pytest.raises(ValueError):
            catalog.register(photon_stats)

    def test_unknown_stream_raises(self):
        with pytest.raises(KeyError):
            StatisticsCatalog().for_stream("missing")
