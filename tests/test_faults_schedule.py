"""Tests for deterministic fault schedules."""

import pytest

from repro.faults import (
    FaultError,
    FaultSchedule,
    LinkFailure,
    LinkRestore,
    SuperPeerCrash,
    SuperPeerRejoin,
    single_crash,
)
from repro.network.topology import Network


def line() -> Network:
    net = Network()
    for name in ("A", "B", "C"):
        net.add_super_peer(name)
    net.add_link("A", "B")
    net.add_link("B", "C")
    return net


class TestEventValidation:
    def test_negative_time_rejected(self):
        with pytest.raises(FaultError):
            SuperPeerCrash(time=-1.0, peer="A")

    def test_non_finite_time_rejected(self):
        with pytest.raises(FaultError):
            SuperPeerCrash(time=float("nan"), peer="A")

    def test_missing_names_rejected(self):
        with pytest.raises(FaultError):
            SuperPeerCrash(time=1.0)
        with pytest.raises(FaultError):
            SuperPeerRejoin(time=1.0)
        with pytest.raises(FaultError):
            LinkFailure(time=1.0, a="A")
        with pytest.raises(FaultError):
            LinkRestore(time=1.0, b="B")

    def test_non_event_rejected_by_schedule(self):
        with pytest.raises(FaultError):
            FaultSchedule(["not an event"])


class TestEventApplication:
    def test_crash_and_rejoin(self):
        net = line()
        SuperPeerCrash(1.0, "B").apply(net)
        assert "B" not in net
        SuperPeerRejoin(2.0, "B").apply(net)
        assert "B" in net
        assert net.has_link("A", "B")

    def test_link_failure_and_restore(self):
        net = line()
        LinkFailure(1.0, "A", "B").apply(net)
        assert not net.has_link("A", "B")
        LinkRestore(2.0, "A", "B").apply(net)
        assert net.has_link("A", "B")

    def test_describe_mentions_time_and_subject(self):
        assert SuperPeerCrash(10.0, "SP1").describe() == "t=10: super-peer SP1 crashes"
        assert "A-B" in LinkFailure(3.5, "B", "A").describe()


class TestSchedule:
    def test_events_sorted_by_time(self):
        schedule = FaultSchedule(
            [SuperPeerRejoin(20.0, "A"), SuperPeerCrash(10.0, "A")]
        )
        assert [event.time for event in schedule.events()] == [10.0, 20.0]

    def test_simultaneous_events_keep_written_order(self):
        crash = SuperPeerCrash(5.0, "A")
        rejoin = SuperPeerRejoin(5.0, "A")
        schedule = FaultSchedule([crash, rejoin])
        assert schedule.events() == [crash, rejoin]

    def test_len_bool_iter_describe(self):
        empty = FaultSchedule()
        assert not empty and len(empty) == 0
        schedule = FaultSchedule([SuperPeerCrash(1.0, "A")])
        assert schedule and len(schedule) == 1
        assert [event.peer for event in schedule] == ["A"]
        assert schedule.describe() == ["t=1: super-peer A crashes"]


class TestSingleCrash:
    def test_without_rejoin(self):
        schedule = single_crash(10.0, "SP1")
        assert [type(e).__name__ for e in schedule] == ["SuperPeerCrash"]

    def test_with_rejoin(self):
        schedule = single_crash(10.0, "SP1", rejoin_at=20.0)
        assert [type(e).__name__ for e in schedule] == [
            "SuperPeerCrash",
            "SuperPeerRejoin",
        ]

    def test_rejoin_before_crash_ignored(self):
        assert len(single_crash(10.0, "SP1", rejoin_at=5.0)) == 1
