"""Unit tests for operator loads and the registration latency model."""

import pytest

from repro.costmodel import (
    DEFAULT_LATENCY_MODEL,
    LatencyModel,
    base_load,
)


class TestOperatorLoad:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            base_load("teleportation")

    def test_all_engine_kinds_priced(self):
        for kind in (
            "selection", "projection", "aggregation", "window",
            "reaggregation", "restructure", "transfer", "duplicate", "ingest",
        ):
            assert base_load(kind) > 0

    def test_relative_magnitudes(self):
        # Forwarding and duplication are cheap relative to evaluation.
        assert base_load("transfer") < base_load("selection")
        assert base_load("duplicate") < base_load("transfer") * 2
        assert base_load("reaggregation") < base_load("aggregation")


class TestLatencyModel:
    def test_fixed_strategies_have_no_search_cost(self):
        model = LatencyModel()
        time = model.registration_time_ms(0, 0, 2, 3)
        expected = (
            model.base_ms + 2 * model.per_operator_install_ms + 3 * model.per_route_hop_ms
        )
        assert time == expected

    def test_search_terms_add_up(self):
        model = LatencyModel()
        base = model.registration_time_ms(0, 0, 0, 0)
        searched = model.registration_time_ms(5, 10, 0, 0)
        assert searched - base == pytest.approx(
            5 * model.per_visited_node_ms + 10 * model.per_candidate_match_ms
        )

    def test_cpu_time_added(self):
        model = LatencyModel()
        assert model.registration_time_ms(0, 0, 0, 0, optimizer_cpu_ms=12.5) == (
            model.base_ms + 12.5
        )

    def test_negative_inputs_rejected(self):
        with pytest.raises(ValueError):
            LatencyModel().registration_time_ms(-1, 0, 0, 0)

    def test_default_model_in_paper_band(self):
        """Data/query-shipping-like registrations land in the paper's
        hundreds-of-ms band (Table 1: 250–2100 ms)."""
        time = DEFAULT_LATENCY_MODEL.registration_time_ms(0, 0, 3, 3)
        assert 250 <= time <= 2100
