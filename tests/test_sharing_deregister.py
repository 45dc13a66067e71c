"""Tests for query deregistration and stream garbage collection."""

import pytest

from tests.conftest import (
    PAPER_QUERIES,
    assert_ledger_is_the_walk,
    make_system,
    on_every_executor,
)
from repro.sharing.deregister import DeregistrationError, live_stream_ids, tear_down
from repro.analysis import verify_deployment


class TestBasicDeregistration:
    def test_unknown_query_rejected(self):
        system = make_system()
        with pytest.raises(DeregistrationError):
            system.deregister_query("ghost")

    def test_sole_query_fully_cleaned(self):
        system = make_system()
        system.register_query("Q1", PAPER_QUERIES["Q1"], "P1")
        removed = system.deregister_query("Q1")
        assert set(removed) >= {"Q1:photons"}
        assert list(system.deployment.streams) == ["photons"]
        assert system.deployment.queries == {}

    def test_original_stream_always_survives(self):
        system = make_system()
        system.register_query("Q1", PAPER_QUERIES["Q1"], "P1")
        system.deregister_query("Q1")
        assert "photons" in system.deployment.streams

    def test_usage_ledger_released(self):
        system = make_system()
        system.register_query("Q1", PAPER_QUERIES["Q1"], "P1")
        system.deregister_query("Q1")
        usage = system.deployment.usage
        for link in system.net.links():
            assert usage.link_traffic(link) == pytest.approx(0.0, abs=1e-6)
        for peer in system.net.super_peer_names():
            assert usage.peer_work(peer) == pytest.approx(0.0, abs=1e-6)


class TestSharedStreamSurvival:
    def test_shared_stream_survives_producer_departure(self):
        """Q2 consumes Q1's stream: deregistering Q1 must keep the
        stream alive for Q2."""
        system = make_system()
        system.register_query("Q1", PAPER_QUERIES["Q1"], "P1")
        system.register_query("Q2", PAPER_QUERIES["Q2"], "P2")
        assert system.deployment.stream("Q2:photons").parent_id == "Q1:photons"

        removed = system.deregister_query("Q1")
        assert "Q1:photons" not in removed
        assert "Q1:photons" in system.deployment.streams
        assert "Q2:photons" in system.deployment.streams
        assert verify_deployment(system.deployment).ok

    def test_cascade_when_last_consumer_leaves(self):
        system = make_system()
        system.register_query("Q1", PAPER_QUERIES["Q1"], "P1")
        system.register_query("Q2", PAPER_QUERIES["Q2"], "P2")
        system.deregister_query("Q1")
        removed = system.deregister_query("Q2")
        # Both the Q2 delivery and the orphaned Q1 chain disappear.
        assert "Q2:photons" in removed
        assert "Q1:photons" in removed
        assert list(system.deployment.streams) == ["photons"]

    @on_every_executor
    def test_execution_after_deregistration(self, executor):
        system = executor.system()
        system.register_query("Q1", PAPER_QUERIES["Q1"], "P1")
        system.register_query("Q2", PAPER_QUERIES["Q2"], "P2")
        system.deregister_query("Q1")
        metrics = executor.run(system, duration=10.0)
        assert "Q1" not in metrics.items_delivered
        assert metrics.items_delivered["Q2"] > 0

    @on_every_executor
    def test_q2_results_unchanged_by_q1_departure(self, executor):
        keep = executor.system()
        keep.register_query("Q1", PAPER_QUERIES["Q1"], "P1")
        keep.register_query("Q2", PAPER_QUERIES["Q2"], "P2")
        baseline = executor.run(keep, duration=10.0).items_delivered["Q2"]

        churn = executor.system()
        churn.register_query("Q1", PAPER_QUERIES["Q1"], "P1")
        churn.register_query("Q2", PAPER_QUERIES["Q2"], "P2")
        churn.deregister_query("Q1")
        assert executor.run(churn, duration=10.0).items_delivered["Q2"] == baseline


class TestLedgerParity:
    def test_release_restores_pre_registration_ledger(self):
        """Register A, snapshot, register B, deregister B: the ledger
        returns to the snapshot."""
        system = make_system()
        system.register_query("Q1", PAPER_QUERIES["Q1"], "P1")
        usage = system.deployment.usage
        snapshot_links = {
            link.ends: usage.link_traffic(link) for link in system.net.links()
        }
        snapshot_peers = {
            peer: usage.peer_work(peer) for peer in system.net.super_peer_names()
        }
        system.register_query("Q3", PAPER_QUERIES["Q3"], "P3")
        system.deregister_query("Q3")
        for link in system.net.links():
            assert usage.link_traffic(link) == pytest.approx(
                snapshot_links[link.ends], abs=1e-6
            )
        for peer in system.net.super_peer_names():
            assert usage.peer_work(peer) == pytest.approx(
                snapshot_peers[peer], abs=1e-6
            )


class TestLedgerDrift:
    def test_thousand_cycles_accumulate_no_residue(self):
        """Regression for float residue: 1000 register/deregister
        cycles must leave the ledger exactly where a fresh registration
        of the surviving workload would put it, never negative."""
        system = make_system()
        system.register_query("Q1", PAPER_QUERIES["Q1"], "P1")
        usage = system.deployment.usage
        reference_links = {
            link.ends: usage.link_traffic(link) for link in system.net.links()
        }
        reference_peers = {
            peer: usage.peer_work(peer) for peer in system.net.super_peer_names()
        }
        cycled = ("Q2", "Q3", "Q4")
        subscribers = {"Q2": "P2", "Q3": "P3", "Q4": "P4"}
        for cycle in range(1000):
            name = cycled[cycle % len(cycled)]
            system.register_query(name, PAPER_QUERIES[name], subscribers[name])
            system.deregister_query(name)
        from repro.costmodel import RESIDUE_TOLERANCE

        for link in system.net.links():
            residue = usage.link_traffic(link) - reference_links[link.ends]
            assert abs(residue) <= RESIDUE_TOLERANCE
        for peer in system.net.super_peer_names():
            residue = usage.peer_work(peer) - reference_peers[peer]
            assert abs(residue) <= RESIDUE_TOLERANCE
            assert usage.peer_work(peer) >= 0.0


class TestLiveStreamAnalysis:
    def test_live_set_contents(self):
        system = make_system()
        system.register_query("Q1", PAPER_QUERIES["Q1"], "P1")
        system.register_query("Q2", PAPER_QUERIES["Q2"], "P2")
        live = live_stream_ids(system.deployment)
        assert live == {"photons", "Q1:photons", "Q2:photons"}

    def test_ancestors_of_deliveries_are_live(self):
        system = make_system()
        system.register_query("Q3", PAPER_QUERIES["Q3"], "P3")
        system.register_query("Q4", PAPER_QUERIES["Q4"], "P4")
        system.deployment.pop_query("Q3")
        live = live_stream_ids(system.deployment)
        # Q4's re-aggregation feeds on Q3's stream: it must stay live.
        assert "Q3:photons" in live
        assert "Q3:photons" not in system.deployment.unreferenced


def deployment_state(system):
    deployment, usage = system.deployment, system.deployment.usage
    return (
        dict(deployment.queries),
        dict(deployment.streams),
        deployment.version,
        dict(deployment.refcounts),
        set(deployment.unreferenced),
        dict(usage._peer_work),
        dict(usage._link_bits),
    )


class TestAtomicTearDown:
    @pytest.mark.parametrize(
        "names", [["Q1", "nope"], ["Q1", "Q1"], ["Q2", "Q1", "Q2"], ["nope"]]
    )
    def test_failed_call_changes_nothing(self, names):
        """Every name is checked before any record is popped: a call
        naming an unknown or repeated query must not strand the known
        ones' streams and restructure charges."""
        system = make_system()
        system.register_query("Q1", PAPER_QUERIES["Q1"], "P1")
        system.register_query("Q2", PAPER_QUERIES["Q2"], "P2")
        before = deployment_state(system)
        with pytest.raises(DeregistrationError):
            tear_down(system.planner, system.deployment, names)
        assert deployment_state(system) == before
        assert_ledger_is_the_walk(system)
        # The records are still there to be removed for real.
        tear_down(system.planner, system.deployment, ["Q1", "Q2"])
        assert list(system.deployment.streams) == ["photons"]
        assert_ledger_is_the_walk(system)


def _unwalked(method):
    def walk(self):
        assert not self.armed, "the tear-down walked the whole mapping"
        return method(self)

    return walk


class WalkFree(dict):
    """A dict that fails if anything iterates it while ``armed``."""

    armed = True
    __iter__ = _unwalked(dict.__iter__)
    keys = _unwalked(dict.keys)
    values = _unwalked(dict.values)
    items = _unwalked(dict.items)


def test_tear_down_walks_neither_streams_nor_queries():
    """A deregistration reads the counts: it looks streams and queries
    up by id, never iterates them."""
    system = make_system()
    for name, peer in (("Q1", "P1"), ("Q2", "P2"), ("Q3", "P3"), ("Q4", "P4")):
        system.register_query(name, PAPER_QUERIES[name], peer)
    deployment = system.deployment
    deployment.streams = WalkFree(deployment.streams)
    deployment.queries = WalkFree(deployment.queries)
    _, removed = tear_down(system.planner, deployment, ["Q2", "Q4"])
    assert removed == ["Q2:photons", "Q4:photons"]
    _, removed = tear_down(system.planner, deployment, ["Q1", "Q3"])
    assert removed == ["Q1:photons", "Q3:photons"]
    deployment.streams.armed = deployment.queries.armed = False
    assert list(deployment.streams) == ["photons"]
    assert_ledger_is_the_walk(system)


class TestScenarioChurn:
    @on_every_executor
    def test_mass_churn_leaves_consistent_state(self, executor):
        from repro.workload.scenarios import run_scenario, scenario_one

        run = run_scenario(
            scenario_one(), "stream-sharing", execute=False, recorder=executor.recorder()
        )
        system = run.system
        # Deregister every other query, then audit.
        for result in run.registrations[::2]:
            system.deregister_query(result.query)
        assert verify_deployment(system.deployment).ok
        metrics = executor.run(system, duration=10.0)
        remaining = {r.query for r in run.registrations[1::2]}
        assert set(metrics.items_delivered) <= remaining
        assert_ledger_is_the_walk(system)


def test_reregistering_a_name_whose_stream_is_still_shared():
    """Found by sharebench: Q's delivered stream outlives Q while another
    query shares it, so registering the name again used to collide with
    "stream 'Q025:photons' already installed"."""
    from repro.analysis import verify_deployment
    from repro.workload.scenarios import run_scenario, scenario_grid

    scenario = scenario_grid(4, 4, 60)
    system = run_scenario(scenario, "stream-sharing", execute=False).system
    victims = scenario.queries[::3]
    for spec in victims:
        system.deregister_query(spec.name)
    survivors = set(system.deployment.streams)
    assert any(f"{spec.name}:photons" in survivors for spec in victims)
    for spec in victims:
        system.register_query(spec.name, spec.text, spec.subscriber_peer)
    assert set(system.deployment.queries) == {spec.name for spec in scenario.queries}
    # Every collision got a fresh id; no survivor was replaced.
    assert survivors <= set(system.deployment.streams)
    assert verify_deployment(system.deployment, catalog=system.catalog).ok
    # And the names can go away again without orphaning anything.
    for spec in scenario.queries:
        system.deregister_query(spec.name)
    assert set(system.deployment.streams) == {s.name for s in scenario.sources}


def test_reregistered_name_tapping_its_own_predecessor_releases_its_tap():
    """Found by the executor state machine (P132): Q1's stream outlives
    Q1 while Q2 shares it; Q1 registered again taps that stream, which
    still carries Q1's name.  The new stream paid a tap duplication like
    any other consumer and must give it back — whether it did is a fact
    of how it was created, not of who is called what."""
    # Q2's region and energy cut, but keeping ``phc``: only Q1's stream
    # can serve it.
    narrow = PAPER_QUERIES["Q2"].replace("{ $p/en }", "{ $p/phc } { $p/en }")
    system = make_system()
    system.register_query("Q1", PAPER_QUERIES["Q1"], "P1")
    system.register_query("Q2", PAPER_QUERIES["Q2"], "P2")
    system.deregister_query("Q1")
    system.register_query("Q1", narrow, "P1")
    again = system.deployment.stream("Q1:photons~2")
    assert again.parent_id == "Q1:photons" and again.taps_parent
    system.deregister_query("Q1")
    system.deregister_query("Q2")
    assert list(system.deployment.streams) == ["photons"]
    usage = system.deployment.usage
    for peer in system.net.super_peer_names():
        assert usage.peer_work(peer) == pytest.approx(0.0, abs=1e-6)
