"""Unit tests for size/freq estimation, usage bookkeeping, and C(P)."""

import math

import pytest

from tests.conftest import PAPER_QUERIES
from repro.costmodel import (
    AGGREGATE_ITEM_SIZE,
    CostModel,
    NetworkUsage,
    PlanEffects,
    estimate_stream_rate,
)
from repro.costmodel.model import _overload_penalty
from repro.network.topology import example_topology
from repro.properties import extract_properties
from repro.wxquery import parse_query


def rate_of(name, catalog):
    properties = extract_properties(parse_query(PAPER_QUERIES[name]), name)
    return estimate_stream_rate(properties.single_input(), catalog)


class TestEstimateStreamRate:
    def test_raw_stream(self, catalog, photon_stats):
        from repro.properties import raw_stream_properties

        rate = estimate_stream_rate(
            raw_stream_properties("photons", "photons/photon").single_input(), catalog
        )
        assert rate.size == photon_stats.avg_item_size
        assert rate.frequency == 100.0

    def test_selection_scales_frequency_not_size(self, catalog, photon_stats):
        rate = rate_of("Q1", catalog)
        assert rate.frequency < photon_stats.frequency
        # Q1 also projects, so compare against the projected size.
        projection = extract_properties(
            parse_query(PAPER_QUERIES["Q1"]), "Q1"
        ).single_input().projection
        assert rate.size == pytest.approx(
            photon_stats.projected_size(projection.output_elements)
        )

    def test_q2_rarer_than_q1(self, catalog):
        assert rate_of("Q2", catalog).frequency < rate_of("Q1", catalog).frequency

    def test_aggregate_size_independent_of_input(self, catalog):
        rate = rate_of("Q3", catalog)
        assert rate.size == AGGREGATE_ITEM_SIZE["avg"]

    def test_time_window_update_frequency(self, catalog):
        # det_time advances ~1 unit/s; Q3 steps every 10 units → ~0.1/s.
        assert rate_of("Q3", catalog).frequency == pytest.approx(0.1, rel=0.15)

    def test_filtered_aggregate_is_rarer(self, catalog):
        q4 = rate_of("Q4", catalog)
        # Unfiltered Q4 would emit at ~1/40 per second.
        assert q4.frequency < 1.0 / 40.0

    def test_bits_per_second(self, catalog):
        rate = rate_of("Q1", catalog)
        assert rate.bits_per_second == pytest.approx(rate.size * 8 * rate.frequency)

    def test_count_window_frequency(self, catalog):
        text = (
            '<photons>{ for $w in stream("photons")/photons/photon '
            "|count 50 step 25| let $a := sum($w/en) "
            "return <s> { $a } </s> }</photons>"
        )
        properties = extract_properties(parse_query(text), "cw")
        rate = estimate_stream_rate(properties.single_input(), catalog)
        assert rate.frequency == pytest.approx(100.0 / 25.0)

    def test_window_contents_rate(self, catalog, photon_stats):
        text = (
            '<photons>{ for $w in stream("photons")/photons/photon '
            "|count 50 step 25| return $w }</photons>"
        )
        properties = extract_properties(parse_query(text), "wc")
        rate = estimate_stream_rate(properties.single_input(), catalog)
        assert rate.frequency == pytest.approx(100.0 / 25.0)
        assert rate.size > 40 * photon_stats.avg_item_size


class TestNetworkUsage:
    def test_fresh_usage_fully_available(self, example_net):
        usage = NetworkUsage(example_net)
        link = example_net.links()[0]
        assert usage.available_bandwidth_fraction(link) == 1.0
        assert usage.available_load_fraction("SP0") == 1.0

    def test_accumulation(self, example_net):
        usage = NetworkUsage(example_net)
        link = example_net.link("SP4", "SP5")
        usage.add_link_traffic(link, 25_000_000.0)
        usage.add_link_traffic(link, 25_000_000.0)
        assert usage.used_bandwidth_fraction(link) == pytest.approx(0.5)
        assert usage.available_bandwidth_fraction(link) == pytest.approx(0.5)

    def test_overcommit_clamps_availability(self, example_net):
        usage = NetworkUsage(example_net)
        usage.add_peer_work("SP0", 2_000_000.0)
        assert usage.available_load_fraction("SP0") == 0.0

    def test_copy_is_independent(self, example_net):
        usage = NetworkUsage(example_net)
        clone = usage.copy()
        clone.add_peer_work("SP0", 1000.0)
        assert usage.peer_work("SP0") == 0.0


class TestCostFunction:
    def test_gamma_validated(self, example_net):
        with pytest.raises(ValueError):
            CostModel(example_net, gamma=1.5)

    def test_empty_plan_costs_nothing(self, example_net):
        model = CostModel(example_net)
        assert model.plan_cost(PlanEffects(), NetworkUsage(example_net)) == 0.0

    def test_cost_proportional_to_traffic(self, example_net):
        model = CostModel(example_net, gamma=1.0)
        usage = NetworkUsage(example_net)
        link = example_net.link("SP4", "SP5")
        small, large = PlanEffects(), PlanEffects()
        small.add_link(link, 1_000_000.0)
        large.add_link(link, 2_000_000.0)
        assert model.plan_cost(large, usage) == pytest.approx(
            2 * model.plan_cost(small, usage)
        )

    def test_added_cost_floor_bounds_what_effects_add(self, example_net):
        """Non-negative effects add at least their floor to any plan's
        cost, overload penalties or not; a negative entry bounds nothing."""
        model = CostModel(example_net)
        usage = NetworkUsage(example_net)
        usage.add_peer_work("SP4", 900_000.0)
        link = example_net.link("SP4", "SP5")
        base, delta, combined = PlanEffects(), PlanEffects(), PlanEffects()
        base.add_link(link, 40_000_000.0)
        base.add_peer("SP4", 50_000.0)
        delta.add_link(link, 30_000_000.0)
        delta.add_peer("SP4", 200_000.0)
        delta.add_peer("SP5", 10_000.0)
        combined.merge(base)
        combined.merge(delta)
        added = model.plan_cost(combined, usage) - model.plan_cost(base, usage)
        assert 0.0 < model.added_cost_floor(delta) < added
        delta.add_peer("SP5", -20_000.0)
        assert model.added_cost_floor(delta) == -math.inf

    def test_gamma_weights_components(self, example_net):
        usage = NetworkUsage(example_net)
        link = example_net.link("SP4", "SP5")
        effects = PlanEffects()
        effects.add_link(link, 10_000_000.0)
        effects.add_peer("SP4", 100_000.0)
        traffic_only = CostModel(example_net, gamma=1.0).plan_cost(effects, usage)
        load_only = CostModel(example_net, gamma=0.0).plan_cost(effects, usage)
        balanced = CostModel(example_net, gamma=0.5).plan_cost(effects, usage)
        assert balanced == pytest.approx(0.5 * traffic_only + 0.5 * load_only)

    def test_overload_penalty_exponential(self):
        assert _overload_penalty(0.5, 0.6) == 0.0
        over = 0.3
        assert _overload_penalty(0.8, 0.5) == pytest.approx(over * math.exp(over))

    def test_penalty_applied_beyond_available(self, example_net):
        model = CostModel(example_net, gamma=1.0)
        usage = NetworkUsage(example_net)
        link = example_net.link("SP4", "SP5")
        usage.add_link_traffic(link, 90_000_000.0)  # 90% used
        effects = PlanEffects()
        effects.add_link(link, 20_000_000.0)  # pushes to 110%
        cost = model.plan_cost(effects, usage)
        u_b = 0.2
        over = 0.1
        assert cost == pytest.approx(u_b + over * math.exp(over))

    def test_overloads_predicate(self, example_net):
        model = CostModel(example_net)
        usage = NetworkUsage(example_net)
        link = example_net.link("SP4", "SP5")
        fine, too_much = PlanEffects(), PlanEffects()
        fine.add_link(link, 50_000_000.0)
        too_much.add_link(link, 150_000_000.0)
        assert not model.overloads(fine, usage)
        assert model.overloads(too_much, usage)

    def test_peer_overload_detected(self, example_net):
        model = CostModel(example_net)
        usage = NetworkUsage(example_net)
        usage.add_peer_work("SP4", 900_000.0)
        effects = PlanEffects()
        effects.add_peer("SP4", 200_000.0)
        assert model.overloads(effects, usage)

    def test_effects_merge(self, example_net):
        link = example_net.link("SP4", "SP5")
        first, second = PlanEffects(), PlanEffects()
        first.add_link(link, 10.0)
        first.add_peer("SP4", 1.0)
        second.add_link(link, 5.0)
        second.add_peer("SP5", 2.0)
        first.merge(second)
        assert first.link_bits[link] == 15.0
        assert first.peer_work == {"SP4": 1.0, "SP5": 2.0}
