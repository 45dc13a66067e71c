"""Tests for histogram-based selectivity (the catalog's skew model)."""

import pytest

from repro.costmodel.statistics import HISTOGRAM_BUCKETS, PathStatistics, _build_histogram


class TestBuildHistogram:
    def test_bucket_count_and_total(self):
        values = [float(v) for v in range(100)]
        histogram = _build_histogram(values, 0.0, 99.0)
        assert len(histogram) == HISTOGRAM_BUCKETS
        assert sum(histogram) == 100

    def test_degenerate_range(self):
        assert _build_histogram([5.0, 5.0], 5.0, 5.0) is None

    def test_single_value(self):
        assert _build_histogram([5.0], 5.0, 5.0) is None

    def test_subnormal_range_is_degenerate(self):
        """A range whose bucket width rounds to zero builds no histogram
        (it used to divide by that width)."""
        assert _build_histogram([0.0, 5e-324], 0.0, 5e-324) is None

    def test_maximum_lands_in_last_bucket(self):
        histogram = _build_histogram([0.0, 10.0], 0.0, 10.0)
        assert histogram[-1] == 1

    def test_skew_captured(self):
        values = [1.0] * 90 + [float(v) for v in range(2, 12)]
        histogram = _build_histogram(values, 1.0, 11.0)
        assert histogram[0] >= 90


class TestMassFraction:
    def _entry(self, values, low, high):
        return PathStatistics(
            occurrence=1.0,
            avg_size=10.0,
            minimum=low,
            maximum=high,
            histogram=_build_histogram(values, low, high),
        )

    def test_full_range_is_one(self):
        entry = self._entry([float(v) for v in range(100)], 0.0, 99.0)
        assert entry.mass_fraction(None, None) == pytest.approx(1.0)

    def test_half_range_uniform(self):
        values = [v / 10 for v in range(1000)]
        entry = self._entry(values, 0.0, 99.9)
        assert entry.mass_fraction(0.0, 49.95) == pytest.approx(0.5, abs=0.03)

    def test_hot_spot_weighted(self):
        # 90% of mass at the low end.
        values = [1.0 + v * 0.001 for v in range(900)] + [
            50.0 + v * 0.01 for v in range(100)
        ]
        entry = self._entry(values, 1.0, 50.99)
        low_mass = entry.mass_fraction(0.0, 10.0)
        assert low_mass > 0.8
        high_mass = entry.mass_fraction(45.0, 60.0)
        assert high_mass < 0.2

    def test_outside_range_is_zero(self):
        entry = self._entry([1.0, 2.0, 3.0], 1.0, 3.0)
        assert entry.mass_fraction(10.0, 20.0) == 0.0
        assert entry.mass_fraction(-5.0, 0.0) == 0.0

    def test_no_histogram_falls_back_to_uniform(self):
        entry = PathStatistics(minimum=0.0, maximum=10.0)
        assert entry.mass_fraction(0.0, 5.0) == pytest.approx(0.5)

    def test_constant_element(self):
        entry = PathStatistics(minimum=5.0, maximum=5.0)
        assert entry.mass_fraction(5.0, 5.0) == 1.0
        assert entry.mass_fraction(0.0, 1.0) == 0.0

    def test_no_statistics_is_neutral(self):
        assert PathStatistics().mass_fraction(0.0, 1.0) == 1.0

    def test_monotone_in_interval(self):
        values = [v / 7 for v in range(700)]
        entry = self._entry(values, 0.0, values[-1])
        narrow = entry.mass_fraction(10.0, 20.0)
        wide = entry.mass_fraction(5.0, 25.0)
        assert narrow <= wide


class TestSelectivityWithHistograms:
    def test_hot_spot_region_better_estimated(self, photon_stats, photon_config):
        """The histogram model must land much closer to the observed
        vela selectivity than the uniform model would."""
        from fractions import Fraction

        from repro.predicates import PredicateGraph, normalize_comparison
        from repro.workload.photons import PhotonGenerator, VELA_REGION
        from repro.xmlkit import Path

        item = Path("photons/photon")
        atoms = []
        for path, op, const in [
            (item / "coord/cel/ra", ">=", VELA_REGION.ra_min),
            (item / "coord/cel/ra", "<=", VELA_REGION.ra_max),
            (item / "coord/cel/dec", ">=", VELA_REGION.dec_min),
            (item / "coord/cel/dec", "<=", VELA_REGION.dec_max),
        ]:
            atoms.extend(normalize_comparison(path, op, None, Fraction(str(const))))
        estimated = photon_stats.selectivity(PredicateGraph(atoms))

        sample = PhotonGenerator(photon_config).take(2000)
        observed = sum(
            1 for i in sample
            if VELA_REGION.contains(
                float(i.find(["coord", "cel", "ra"]).text),
                float(i.find(["coord", "cel", "dec"]).text),
            )
        ) / len(sample)
        # Uniform would say ~0.07 for observed ~0.40; histograms must be
        # within a factor of ~2.
        assert estimated > observed / 2
        assert estimated < observed * 2
