"""Edge-case tests for the StreamGlobe facade."""

import pytest

from tests.conftest import PAPER_QUERIES, available_at, make_system, on_every_executor
from repro.network.topology import example_topology
from repro.sharing import StreamGlobe
from repro.workload.photons import PhotonGenerator, PhotonStreamConfig


class TestStreamRegistration:
    def test_duplicate_stream_rejected(self):
        system = make_system()
        config = PhotonStreamConfig(seed=9)
        with pytest.raises(ValueError):
            system.register_stream(
                "photons", "photons/photon", lambda: PhotonGenerator(config),
                frequency=10.0, source_peer="P0",
            )

    def test_stream_available_at_home_only(self):
        system = make_system()
        original = system.deployment.stream("photons")
        assert original.route == ("SP4",)
        assert available_at(system.deployment, "SP4") == ["photons"]
        assert available_at(system.deployment, "SP0") == []

    def test_statistics_registered(self):
        system = make_system()
        stats = system.catalog.for_stream("photons")
        assert stats.frequency == 100.0
        assert stats.avg_item_size > 0


class TestQueryRegistration:
    def test_duplicate_query_name_rejected(self):
        system = make_system()
        system.register_query("Q1", PAPER_QUERIES["Q1"], "P1")
        with pytest.raises(ValueError):
            system.register_query("Q1", PAPER_QUERIES["Q2"], "P2")

    def test_accepts_parsed_query_object(self):
        from repro.wxquery import parse_query

        system = make_system()
        result = system.register_query("q", parse_query(PAPER_QUERIES["Q1"]), "P1")
        assert result.accepted

    def test_subscriber_may_be_super_peer(self):
        system = make_system()
        result = system.register_query("q", PAPER_QUERIES["Q1"], "SP3")
        assert result.plan.inputs[0].delivered.target_node == "SP3"

    def test_unknown_subscriber_rejected(self):
        system = make_system()
        from repro.network.topology import TopologyError

        with pytest.raises(TopologyError):
            system.register_query("q", PAPER_QUERIES["Q1"], "P99")

    def test_result_bookkeeping(self):
        system = make_system()
        system.register_query("a", PAPER_QUERIES["Q1"], "P1")
        system.register_query("b", PAPER_QUERIES["Q2"], "P2")
        assert system.accepted_queries() == ["a", "b"]
        assert system.rejected_queries() == []
        assert len(system.registration_times_ms()) == 2


class TestRunBehaviour:
    @on_every_executor
    def test_run_without_queries(self, executor):
        system = executor.system()
        metrics = executor.run(system, duration=2.0)
        assert metrics.items_delivered == {}
        assert metrics.items_generated["photons"] > 0

    @on_every_executor
    def test_run_is_repeatable_after_new_registration(self, executor):
        system = executor.system()
        system.register_query("a", PAPER_QUERIES["Q1"], "P1")
        first = executor.run(system, duration=5.0)
        system.register_query("b", PAPER_QUERIES["Q2"], "P2")
        second = executor.run(system, duration=5.0)
        # Q1's results are unaffected by Q2's registration.
        assert second.items_delivered["a"] == first.items_delivered["a"]

    def test_invalid_gamma_rejected(self):
        with pytest.raises(ValueError):
            StreamGlobe(example_topology(), gamma=-0.1)
