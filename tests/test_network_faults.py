"""Tests for topology churn: crashes, link failures, and rejoins."""

import pytest

from repro.network.topology import Network, TopologyError, example_topology
from repro.workload.scenarios import run_scenario, scenario_one


def triangle() -> Network:
    net = Network()
    for name in ("A", "B", "C"):
        net.add_super_peer(name, capacity=1000.0, pindex=2.0)
    net.add_link("A", "B", bandwidth=5000.0)
    net.add_link("B", "C", bandwidth=6000.0)
    net.add_link("A", "C", bandwidth=7000.0)
    return net


class TestSuperPeerRemoval:
    def test_crash_detaches_peer_and_links(self):
        net = triangle()
        torn_down = net.remove_super_peer("B")
        assert "B" not in net
        assert sorted(str(link) for link in torn_down) == ["A-B", "B-C"]
        assert not net.has_link("A", "B")
        assert not net.has_link("B", "C")
        assert net.has_link("A", "C")
        assert net.neighbors("A") == ["C"]

    def test_removed_peer_lookup(self):
        net = triangle()
        peer = net.super_peer("B")
        net.remove_super_peer("B")
        with pytest.raises(TopologyError):
            net.super_peer("B")
        assert net.super_peer("B", include_removed=True) is peer
        assert net.removed_super_peer_names() == ["B"]

    def test_unknown_and_double_removal_rejected(self):
        net = triangle()
        with pytest.raises(TopologyError):
            net.remove_super_peer("Z")
        net.remove_super_peer("B")
        with pytest.raises(TopologyError):
            net.remove_super_peer("B")

    def test_add_refuses_removed_name(self):
        net = triangle()
        net.remove_super_peer("B")
        with pytest.raises(TopologyError, match="restore_super_peer"):
            net.add_super_peer("B")

    def test_thin_peers_stay_registered(self):
        net = example_topology()
        net.remove_super_peer("SP4")
        assert net.thin_peer("P0").super_peer == "SP4"
        assert net.home_of("P0") == "SP4"


class TestSuperPeerRestore:
    def test_rejoin_restores_record_and_links(self):
        net = triangle()
        net.remove_super_peer("B")
        restored = net.restore_super_peer("B")
        assert net.super_peer("B").capacity == 1000.0
        assert net.super_peer("B").pindex == 2.0
        assert sorted(str(link) for link in restored) == ["A-B", "B-C"]
        assert net.link("A", "B").bandwidth == 5000.0
        assert net.link("B", "C").bandwidth == 6000.0

    def test_restore_of_live_peer_rejected(self):
        net = triangle()
        with pytest.raises(TopologyError):
            net.restore_super_peer("A")

    def test_link_waits_for_both_endpoints(self):
        net = triangle()
        net.remove_super_peer("A")
        net.remove_super_peer("B")
        net.restore_super_peer("A")
        # A-C comes back (C is alive), A-B cannot yet.
        assert net.has_link("A", "C")
        assert not net.has_link("A", "B")
        net.restore_super_peer("B")
        assert net.has_link("A", "B")
        assert net.has_link("B", "C")

    def test_independent_failure_not_resurrected_by_rejoin(self):
        net = triangle()
        net.remove_link("A", "B")
        net.remove_super_peer("B")
        net.restore_super_peer("B")
        # B-C crashed with B and comes back; A-B failed on its own and
        # needs an explicit restore_link.
        assert net.has_link("B", "C")
        assert not net.has_link("A", "B")
        net.restore_link("A", "B")
        assert net.has_link("A", "B")


class TestLinkChurn:
    def test_remove_and_restore_link(self):
        net = triangle()
        link = net.remove_link("B", "A")  # either orientation works
        assert str(link) == "A-B"
        assert not net.has_link("A", "B")
        assert net.removed_links() == [link]
        assert net.restore_link("A", "B") is link
        assert net.has_link("A", "B")

    def test_removed_link_lookup(self):
        net = triangle()
        link = net.remove_link("A", "B")
        with pytest.raises(TopologyError):
            net.link("A", "B")
        assert net.link("A", "B", include_removed=True) is link

    def test_double_removal_and_unknown_rejected(self):
        net = triangle()
        net.remove_link("A", "B")
        with pytest.raises(TopologyError):
            net.remove_link("A", "B")
        with pytest.raises(TopologyError):
            net.remove_link("A", "Z")

    def test_add_refuses_removed_link(self):
        net = triangle()
        net.remove_link("A", "B")
        with pytest.raises(TopologyError, match="restore_link"):
            net.add_link("A", "B")

    def test_restore_requires_live_endpoints(self):
        net = triangle()
        net.remove_link("A", "B")
        net.remove_super_peer("A")
        with pytest.raises(TopologyError, match="still removed"):
            net.restore_link("A", "B")


class TestVersionCounter:
    def test_every_mutation_bumps_version(self):
        net = triangle()
        version = net.version
        net.remove_link("A", "B")
        assert net.version == version + 1
        net.restore_link("A", "B")
        assert net.version == version + 2
        net.remove_super_peer("B")
        assert net.version == version + 3
        net.restore_super_peer("B")
        assert net.version == version + 4
        net.add_super_peer("D")
        assert net.version == version + 5
        net.add_thin_peer("P", "D")
        assert net.version == version + 6
        net.add_link("C", "D")
        assert net.version == version + 7

    def test_routes_and_profiles_follow_a_grown_network(self):
        """A link added under a registered system re-routes the next
        lookups, and the route's cost-floor profile sums the new hop."""
        system = run_scenario(scenario_one(), "stream-sharing", execute=False).system
        routes = system.planner.routes
        assert routes.path("SP4", "SP3") == ("SP4", "SP5", "SP1", "SP3")
        routes.profile("SP4", "SP3")
        link = system.net.add_link("SP4", "SP3", bandwidth=2_000_000.0)
        assert routes.path("SP4", "SP3") == ("SP4", "SP3")
        profile = routes.profile("SP4", "SP3")
        assert profile.inverse_bandwidth == 1.0 / link.bandwidth
        source = system.net.super_peer("SP4")
        assert profile.sender_share == source.pindex / source.capacity
