"""Tests for plan explanations."""

import pytest

from tests.conftest import PAPER_QUERIES, make_system
from repro.sharing.explain import (
    describe_operator,
    explain_deployment,
    explain_registration,
)


@pytest.fixture()
def system_with_queries():
    system = make_system("stream-sharing")
    for name, peer in [("Q1", "P1"), ("Q2", "P2"), ("Q3", "P3"), ("Q4", "P4")]:
        system.register_query(name, PAPER_QUERIES[name], peer)
    return system


class TestExplainRegistration:
    def test_original_stream_use(self, system_with_queries):
        text = explain_registration(
            system_with_queries.results[0], system_with_queries.deployment
        )
        assert "subscription 'Q1'" in text
        assert "original stream at SP4" in text
        assert "selection" in text and "projection" in text
        assert "SP4 -> SP5 -> SP1" in text

    def test_sharing_explained(self, system_with_queries):
        text = explain_registration(
            system_with_queries.results[1], system_with_queries.deployment
        )
        assert "SHARES stream 'Q1:photons'" in text
        assert "(created for Q1)" in text

    def test_reaggregation_explained(self, system_with_queries):
        text = explain_registration(
            system_with_queries.results[3], system_with_queries.deployment
        )
        assert "re-aggregation" in text
        assert "merge 3 reused window(s)" in text

    def test_search_telemetry_included(self, system_with_queries):
        text = explain_registration(
            system_with_queries.results[1], system_with_queries.deployment
        )
        assert "search visited" in text
        assert "ms (simulated)" in text

    def test_rejection_explained(self):
        from repro.network.topology import example_topology
        from repro.sharing import StreamGlobe
        from repro.workload.photons import PhotonGenerator, PhotonStreamConfig

        net = example_topology().scaled(link_bandwidth=50_000.0)
        config = PhotonStreamConfig(seed=1, frequency=100.0)
        system = StreamGlobe(net, strategy="data-shipping", admission_control=True)
        system.register_stream(
            "photons", "photons/photon", lambda: PhotonGenerator(config),
            frequency=100.0, source_peer="P0",
        )
        result = system.register_query("q", PAPER_QUERIES["Q1"], "P1")
        text = explain_registration(result, system.deployment)
        assert "REJECTED" in text


class TestExplainDeployment:
    def test_lists_all_streams(self, system_with_queries):
        text = explain_deployment(system_with_queries.deployment)
        assert "photons: original" in text
        assert "Q1:photons" in text
        assert "registered subscriptions: Q1, Q2, Q3, Q4" in text

    def test_empty_deployment(self):
        from repro.network.topology import example_topology
        from repro.sharing.plan import Deployment

        text = explain_deployment(Deployment(example_topology()))
        assert "none" in text


class TestDescribeOperator:
    def test_all_spec_kinds_described(self, paper_properties):
        q1 = paper_properties["Q1"].single_input()
        q3 = paper_properties["Q3"].single_input()
        assert "σ" in describe_operator(q1.selection)
        assert "π" in describe_operator(q1.projection)
        assert "Φ" in describe_operator(q3.aggregation)

    def test_udf_described(self):
        from repro.properties import UdfSpec

        assert "user-defined" in describe_operator(UdfSpec("f", ("a",)))
