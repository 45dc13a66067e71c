"""Unit tests for topology and routing."""

import pytest

from repro.network import (
    Link,
    Network,
    NoRouteError,
    TopologyError,
    all_distances,
    example_topology,
    grid_topology,
    hop_distance,
    path_links,
    shortest_path,
)


class TestLink:
    def test_canonical_orientation(self):
        assert Link("SP2", "SP1") == Link("SP1", "SP2")
        assert Link("SP2", "SP1").ends == ("SP1", "SP2")

    def test_other_endpoint(self):
        link = Link("A", "B")
        assert link.other("A") == "B"
        assert link.other("B") == "A"
        with pytest.raises(TopologyError):
            link.other("C")

    def test_self_loop_rejected(self):
        with pytest.raises(TopologyError):
            Link("A", "A")

    def test_nonpositive_bandwidth_rejected(self):
        with pytest.raises(TopologyError):
            Link("A", "B", bandwidth=0)


class TestNetwork:
    def test_duplicate_super_peer(self):
        net = Network()
        net.add_super_peer("SP0")
        with pytest.raises(TopologyError):
            net.add_super_peer("SP0")

    def test_duplicate_link(self):
        net = Network()
        net.add_super_peer("A")
        net.add_super_peer("B")
        net.add_link("A", "B")
        with pytest.raises(TopologyError):
            net.add_link("B", "A")

    def test_link_requires_known_peers(self):
        net = Network()
        net.add_super_peer("A")
        with pytest.raises(TopologyError):
            net.add_link("A", "X")

    def test_thin_peer_registration(self):
        net = Network()
        net.add_super_peer("SP0")
        net.add_thin_peer("P0", "SP0")
        assert net.home_of("P0") == "SP0"
        assert net.home_of("SP0") == "SP0"
        with pytest.raises(TopologyError):
            net.add_thin_peer("P0", "SP0")
        with pytest.raises(TopologyError):
            net.add_thin_peer("P1", "SPX")

    def test_neighbors(self):
        net = example_topology()
        assert set(net.neighbors("SP4")) == {"SP6", "SP5"}

    def test_capacity_validation(self):
        net = Network()
        with pytest.raises(TopologyError):
            net.add_super_peer("X", capacity=-1)

    def test_connectivity_check(self):
        net = Network()
        net.add_super_peer("A")
        net.add_super_peer("B")
        with pytest.raises(TopologyError):
            net.check_connected()


class TestExampleTopology:
    def test_shape(self):
        net = example_topology()
        assert len(net) == 8
        assert len(net.links()) == 11
        assert len(net.thin_peers()) == 5

    def test_paper_route_q1(self):
        """Query 1's result is routed SP4 → SP5 → SP1 (Section 1)."""
        assert shortest_path(example_topology(), "SP4", "SP1") == ["SP4", "SP5", "SP1"]

    def test_source_is_sp4(self):
        assert example_topology().home_of("P0") == "SP4"


class TestGridTopology:
    def test_shape(self):
        net = grid_topology(4, 4)
        assert len(net) == 16
        assert len(net.links()) == 24  # 2 * 4 * 3

    def test_corner_distance(self):
        assert hop_distance(grid_topology(4, 4), "SP0", "SP15") == 6

    def test_invalid_dimensions(self):
        with pytest.raises(TopologyError):
            grid_topology(0, 4)

    def test_rectangular(self):
        net = grid_topology(2, 3)
        assert len(net) == 6
        assert len(net.links()) == 7


class TestRouting:
    def test_trivial_route(self):
        assert shortest_path(example_topology(), "SP4", "SP4") == ["SP4"]

    def test_route_is_shortest(self):
        net = grid_topology(4, 4)
        path = shortest_path(net, "SP0", "SP15")
        assert len(path) == 7

    def test_route_traverses_links(self):
        net = example_topology()
        path = shortest_path(net, "SP4", "SP3")
        for link in path_links(net, path):
            assert net.has_link(link.a, link.b)

    def test_unknown_endpoint(self):
        with pytest.raises(TopologyError):
            shortest_path(example_topology(), "SP4", "SPX")

    def test_disconnected(self):
        net = Network()
        net.add_super_peer("A")
        net.add_super_peer("B")
        with pytest.raises(NoRouteError):
            shortest_path(net, "A", "B")

    def test_all_distances(self):
        distances = all_distances(example_topology(), "SP4")
        assert distances["SP4"] == 0
        assert distances["SP5"] == 1
        assert len(distances) == 8

    def test_deterministic_tie_breaking(self):
        net = example_topology()
        assert shortest_path(net, "SP4", "SP1") == shortest_path(net, "SP4", "SP1")
