"""Tests for plan repair after super-peer crashes and link failures."""

import pytest

from tests.conftest import PAPER_QUERIES, assert_ledger_is_the_walk, make_system
from repro.faults import LinkFailure, SuperPeerCrash, SuperPeerRejoin
from repro.analysis import verify_deployment


def register_all(system, names=("Q1", "Q2", "Q3", "Q4")):
    subscribers = {"Q1": "P1", "Q2": "P2", "Q3": "P3", "Q4": "P4"}
    return [
        system.register_query(name, PAPER_QUERIES[name], subscribers[name])
        for name in names
    ]


class TestCrashRepair:
    def test_on_route_crash_replans_affected_queries(self):
        system = make_system(verify=True)
        register_all(system)
        # SP5 carries Q1's delivery (SP4 -> SP5 -> SP1) and hosts Q2's
        # shared selection.
        report = system.apply_fault(SuperPeerCrash(5.0, "SP5"))
        assert "Q1" in report.torn_down_queries
        assert set(report.repaired_queries) == set(report.torn_down_queries)
        assert report.pending == []
        assert verify_deployment(system.deployment).ok
        # Every surviving route avoids the crashed peer.
        for stream in system.deployment.streams.values():
            assert "SP5" not in stream.route

    def test_unaffected_queries_keep_their_plans(self):
        system = make_system(verify=True)
        register_all(system)
        before = dict(system.deployment.streams)
        report = system.apply_fault(SuperPeerCrash(5.0, "SP6"))
        # SP6 only carries Q4's delivery toward SP0.
        assert report.torn_down_queries == ["Q4"]
        for stream_id, stream in system.deployment.streams.items():
            if stream.query in (None, "Q1", "Q2", "Q3"):
                assert before.get(stream_id) is stream

    def test_repair_report_summary_and_recovery_time(self):
        system = make_system()
        register_all(system)
        report = system.apply_fault(SuperPeerCrash(5.0, "SP5"))
        assert report.context in report.summary()
        expected = max(r.registration_ms for r in report.reregistered if r.accepted)
        assert report.recovery_time_ms() == expected

    def test_recovery_time_zero_without_reregistrations(self):
        system = make_system()
        register_all(system, names=("Q3",))
        # SP2 carries no installed route.
        report = system.apply_fault(SuperPeerCrash(5.0, "SP2"))
        assert report.torn_down_queries == []
        assert report.recovery_time_ms() == 0.0


class TestLinkFailureRepair:
    def test_failed_link_forces_detour(self):
        system = make_system(verify=True)
        register_all(system, names=("Q1",))
        report = system.apply_fault(LinkFailure(5.0, "SP4", "SP5"))
        assert report.torn_down_queries == ["Q1"]
        assert report.repaired_queries == ["Q1"]
        for stream in system.deployment.streams.values():
            assert ("SP4", "SP5") not in stream.links()
        assert verify_deployment(system.deployment).ok


class TestPendingSubscriptions:
    def test_subscriber_home_crash_parks_query_until_rejoin(self):
        system = make_system(verify=True)
        register_all(system, names=("Q1",))
        report = system.apply_fault(SuperPeerCrash(5.0, "SP1"))
        assert report.repaired_queries == []
        assert report.pending == [
            ("Q1", "subscriber super-peer SP1 is removed")
        ]
        assert "Q1" not in system.deployment.queries

        healed = system.apply_fault(SuperPeerRejoin(15.0, "SP1"))
        assert healed.repaired_queries == ["Q1"]
        assert healed.pending == []
        assert "Q1" in system.deployment.queries

    def test_source_home_crash_parks_everything_and_clears_ledger(self):
        system = make_system(verify=True)
        register_all(system)
        report = system.apply_fault(SuperPeerCrash(5.0, "SP4"))
        assert "photons" in report.removed_streams
        assert [reason for _, reason in report.pending] == [
            "original stream(s) unavailable: photons"
        ] * 4
        assert system.deployment.streams == {}
        # Regression: tearing down the whole deployment — including the
        # damaged original — must release every commitment exactly once.
        usage = system.deployment.usage
        for link in system.net.links():
            assert usage.link_traffic(link) == pytest.approx(0.0, abs=1e-6)
        for peer in system.net.super_peer_names():
            assert usage.peer_work(peer) == pytest.approx(0.0, abs=1e-6)

    def test_source_home_rejoin_reinstalls_and_heals(self):
        system = make_system(verify=True)
        register_all(system)
        system.apply_fault(SuperPeerCrash(5.0, "SP4"))
        healed = system.apply_fault(SuperPeerRejoin(15.0, "SP4"))
        assert healed.reinstalled_sources == ["photons"]
        assert sorted(healed.repaired_queries) == ["Q1", "Q2", "Q3", "Q4"]
        assert verify_deployment(system.deployment).ok


    def test_a_parked_name_is_taken_until_its_owner_deregisters_it(self):
        """Found by the executor state machine: a parked subscription is
        registered again at the rejoin, so registering its name in the
        meantime used to blow up there, mid-run, and deregistering it
        was refused as unknown while it waited to come back."""
        system = make_system(verify=True)
        register_all(system, names=("Q1", "Q2"))
        system.apply_fault(SuperPeerCrash(5.0, "SP1"))
        assert sorted(system.parked) == ["Q1"]
        streams = set(system.deployment.streams)
        with pytest.raises(ValueError, match="'Q1' already registered"):
            system.register_query("Q1", PAPER_QUERIES["Q3"], "P3")
        with pytest.raises(ValueError, match="'Q2' already registered"):
            system.register_query("Q2", PAPER_QUERIES["Q3"], "P3")
        assert set(system.deployment.streams) == streams  # refused up front

        assert system.deregister_query("Q1") == []
        assert system.parked == {}
        system.register_query("Q1", PAPER_QUERIES["Q3"], "P3")
        healed = system.apply_fault(SuperPeerRejoin(15.0, "SP1"))
        assert healed.repaired_queries == []
        assert system.deployment.queries["Q1"].subscriber_node == "SP3"


class TestTeardownParity:
    @pytest.mark.parametrize("strategy", ["data-shipping", "stream-sharing"])
    def test_full_churn_returns_ledger_to_baseline(self, strategy):
        """Regression: relay-based plans used to release the tap
        duplication twice (once for the relay, once for the delivered
        stream), leaving the ledger negative after mass teardown."""
        system = make_system(strategy)
        usage = system.deployment.usage
        baseline = {
            peer: usage.peer_work(peer) for peer in system.net.super_peer_names()
        }
        register_all(system)
        for name in ("Q1", "Q2", "Q3", "Q4"):
            system.deregister_query(name)
        for peer in system.net.super_peer_names():
            assert usage.peer_work(peer) == pytest.approx(
                baseline[peer], abs=1e-6
            )
            assert usage.peer_work(peer) >= 0.0


@pytest.mark.parametrize("scenario", ["scenario_churn", "scenario_churn_hotspots"])
def test_ledger_is_the_walk_after_every_scheduled_fault(scenario):
    """Repair releases through the walk that committed — also what was
    committed on peers and links the fault has since removed."""
    from repro.workload import scenarios

    built = getattr(scenarios, scenario)()
    system = scenarios.run_scenario(built, "stream-sharing", execute=False).system
    events = built.faults.events()
    assert len(events) >= 2
    for event in events:
        system.apply_fault(event)
        assert_ledger_is_the_walk(system)


def test_damage_set_is_the_closure_over_each_streams_ancestors():
    """After every fault of the churn schedule, repair's damage set is
    every installed stream whose own route or some ancestor's route
    touches a removed node or link."""
    from repro.workload import scenarios

    built = scenarios.scenario_churn()
    system = scenarios.run_scenario(built, "stream-sharing", execute=False).system
    net, streams = system.net, system.deployment.streams

    def broken(stream):
        return any(node not in net for node in stream.route) or any(
            not net.has_link(a, b) for a, b in stream.links()
        )

    damaged_somewhere = False
    for event in built.faults.events():
        event.apply(net)
        expected = set()
        for stream_id, stream in streams.items():
            link = stream
            while link is not None:
                if broken(link):
                    expected.add(stream_id)
                    break
                link = streams.get(link.parent_id) if link.parent_id else None
        report = system.repair(context=event.describe())
        assert report.damaged_streams == sorted(expected)
        damaged_somewhere = damaged_somewhere or bool(expected)
    assert damaged_somewhere


def test_planning_toward_a_crashed_super_peer_still_raises():
    """The ledger walk resolves removed peers and links (it releases
    what was committed before a fault); a *plan* never reaches one,
    because its routes come from ``RouteCache`` over the live topology."""
    from repro.network.topology import TopologyError
    from repro.sharing.planner import PlanningError

    system = make_system()
    register_all(system, names=("Q3",))
    system.apply_fault(SuperPeerCrash(5.0, "SP1"))  # P1's home
    with pytest.raises(TopologyError):
        system.planner.routes.path("SP4", "SP1")
    streams = dict(system.deployment.streams)
    with pytest.raises((PlanningError, TopologyError)):
        system.register_query("Q1", PAPER_QUERIES["Q1"], "P1")
    assert system.deployment.streams == streams
    assert "Q1" not in system.deployment.queries
    assert_ledger_is_the_walk(system)


def test_repair_builds_few_variants_per_registration():
    """Search effort on a loaded network under repair: registering the
    hot-spot churn scenario and applying its staggered crashes builds
    at most four placement variants per registration and
    re-registration (196 over 24 + 34).  The exact floors skip every
    candidate that cannot beat the incumbent; a floor half as tight
    builds more than four."""
    from repro.workload import scenarios

    built = scenarios.scenario_churn_hotspots()
    run = scenarios.run_scenario(built, "stream-sharing", execute=False)
    system = run.system
    registrations = len(run.registrations)
    for event in built.faults.events():
        registrations += len(system.apply_fault(event).reregistered)
    assert registrations > len(run.registrations)  # repair re-registered
    assert system.planner.plans_costed <= 4 * registrations
