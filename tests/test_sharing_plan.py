"""Unit tests for plans and the deployment state."""

import pytest

from repro.costmodel import PlanEffects
from repro.network.topology import example_topology
from repro.properties import raw_stream_properties
from repro.sharing.plan import (
    Deployment,
    EvaluationPlan,
    InputPlan,
    InstalledStream,
)

from .conftest import available_at


def raw_content(name="photons"):
    return raw_stream_properties(name, "photons/photon").single_input()


def make_stream(stream_id="photons", origin="SP4", route=("SP4",), parent=None, **kw):
    return InstalledStream(
        stream_id=stream_id,
        content=raw_content(),
        origin_node=origin,
        route=route,
        parent_id=parent,
        **kw,
    )


class TestInstalledStream:
    def test_route_must_start_at_origin(self):
        with pytest.raises(ValueError):
            make_stream(route=("SP5", "SP1"))

    def test_empty_route_rejected(self):
        with pytest.raises(ValueError):
            make_stream(route=())

    def test_target_and_links(self):
        stream = make_stream(route=("SP4", "SP5", "SP1"))
        assert stream.target_node == "SP1"
        assert stream.links() == [("SP4", "SP5"), ("SP5", "SP1")]

    def test_originality(self):
        assert make_stream().is_original
        parent = make_stream()
        child = make_stream(stream_id="d", origin="SP4", route=("SP4", "SP5"), parent="photons")
        assert not child.is_original
        del parent


class TestDeployment:
    @pytest.fixture()
    def deployment(self):
        deployment = Deployment(example_topology())
        deployment.install_stream(make_stream(route=("SP4",)))
        return deployment

    def test_duplicate_stream_rejected(self, deployment):
        with pytest.raises(ValueError):
            deployment.install_stream(make_stream())

    def test_unknown_parent_rejected(self, deployment):
        with pytest.raises(ValueError):
            deployment.install_stream(
                make_stream(stream_id="child", parent="ghost", route=("SP4", "SP5"))
            )

    def test_availability_along_route(self, deployment):
        deployment.install_stream(
            make_stream(stream_id="derived", parent="photons", route=("SP4", "SP5", "SP1"))
        )
        for node in ("SP4", "SP5", "SP1"):
            assert "derived" in available_at(deployment, node)
        assert "derived" not in available_at(deployment, "SP7")

    def test_find_original(self, deployment):
        assert deployment.find_original("photons").stream_id == "photons"
        with pytest.raises(KeyError):
            deployment.find_original("missing")

    def test_commit_effects_accumulates(self, deployment):
        link = deployment.net.link("SP4", "SP5")
        effects = PlanEffects()
        effects.add_link(link, 1000.0)
        effects.add_peer("SP4", 10.0)
        deployment.commit_effects(effects)
        deployment.commit_effects(effects)
        assert deployment.usage.link_traffic(link) == 2000.0
        assert deployment.usage.peer_work("SP4") == 20.0

    def test_stream_lookup(self, deployment):
        assert deployment.stream("photons").stream_id == "photons"
        with pytest.raises(KeyError):
            deployment.stream("nope")


class TestReleaseStream:
    @pytest.fixture()
    def deployment(self):
        deployment = Deployment(example_topology())
        deployment.install_stream(make_stream(route=("SP4",)))
        deployment.install_stream(
            make_stream(stream_id="derived", parent="photons", route=("SP4", "SP5", "SP1"))
        )
        return deployment

    def test_release_removes_stream_and_index_entries(self, deployment):
        assert deployment.release_stream("derived") is True
        assert "derived" not in deployment.streams
        for node in ("SP4", "SP5", "SP1"):
            assert "derived" not in available_at(deployment, node)

    def test_release_is_idempotent(self, deployment):
        assert deployment.release_stream("derived") is True
        assert deployment.release_stream("derived") is False
        assert deployment.release_stream("never-installed") is False

    def test_release_survives_missing_index_entries(self, deployment):
        """Atomicity: a partially missing availability index must not
        abort the release half way through."""
        index = deployment.sharing_index
        signature, selection, content = index.keys_of("derived")
        index._nodes["SP5"][signature][selection][content].discard("derived")
        del index._nodes["SP1"]
        assert deployment.release_stream("derived") is True
        assert "derived" not in deployment.streams
        assert "derived" not in available_at(deployment, "SP4")
        assert index.keys_of("derived") is None

    def test_reinstall_after_release(self, deployment):
        deployment.release_stream("derived")
        deployment.install_stream(
            make_stream(stream_id="derived", parent="photons", route=("SP4", "SP5"))
        )
        assert deployment.stream("derived").route == ("SP4", "SP5")


class TestEvaluationPlan:
    def _input_plan(self, pipeline=(), relay=None):
        delivered = InstalledStream(
            stream_id="q:photons",
            content=raw_content(),
            origin_node="SP4",
            route=("SP4", "SP5", "SP1"),
            parent_id="photons",
            pipeline=pipeline,
        )
        return InputPlan(
            input_stream="photons",
            reused_id="photons",
            tap_node="SP4",
            placement_node="SP4",
            relay=relay,
            delivered=delivered,
            effects=PlanEffects(),
            cost=1.0,
        )

    def test_operator_and_hop_counts(self):
        plan = EvaluationPlan(query="q", inputs=[self._input_plan()])
        assert plan.installed_operator_count() == 1  # just restructuring
        assert plan.route_hop_count() == 2

    def test_relay_counts_included(self):
        relay = InstalledStream(
            stream_id="q:photons:relay",
            content=raw_content(),
            origin_node="SP4",
            route=("SP4", "SP6"),
            parent_id="photons",
        )
        plan = EvaluationPlan(query="q", inputs=[self._input_plan(relay=relay)])
        assert plan.route_hop_count() == 3

    def test_total_cost_sums_inputs(self):
        plan = EvaluationPlan(query="q", inputs=[self._input_plan(), self._input_plan()])
        assert plan.total_cost() == 2.0

    def test_new_streams_order(self):
        relay = InstalledStream(
            stream_id="r",
            content=raw_content(),
            origin_node="SP4",
            route=("SP4", "SP6"),
            parent_id="photons",
        )
        input_plan = self._input_plan(relay=relay)
        assert [s.stream_id for s in input_plan.new_streams()] == ["r", "q:photons"]
