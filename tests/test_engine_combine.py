"""Tests for multi-input combination (latest-value post-processing)."""

import pytest

from repro.engine.combine import LatestValueCombiner
from repro.network.topology import Network
from repro.sharing import StreamGlobe
from repro.workload.photons import PhotonGenerator, PhotonStreamConfig
from repro.wxquery import analyze, parse_query
from repro.xmlkit import Element, element

from .conftest import on_every_executor

TWO_STREAM_QUERY = """
<pair>{ for $p in stream("left")/photons/photon
        for $q in stream("right")/photons/photon
        return <both> { $p/en } { $q/en } </both> }</pair>
"""


def analyzed_two_stream():
    return analyze(parse_query(TWO_STREAM_QUERY))


def photon(en):
    return element("photon", element("en", text=float(en)))


class TestLatestValueCombiner:
    def test_requires_multi_input(self):
        single = analyze(
            parse_query('<r>{ for $p in stream("s")/a/b return $p }</r>')
        )
        with pytest.raises(ValueError):
            LatestValueCombiner(single)

    def test_no_output_until_all_inputs_seen(self):
        combiner = LatestValueCombiner(analyzed_two_stream())
        assert combiner.push("left", photon(1.0)) == []
        assert combiner.latest("right") is None
        results = combiner.push("right", photon(2.0))
        assert len(results) == 1
        assert [c.text for c in results[0].children] == ["1.0", "2.0"]

    def test_latest_value_semantics(self):
        combiner = LatestValueCombiner(analyzed_two_stream())
        combiner.push("left", photon(1.0))
        combiner.push("right", photon(2.0))
        (result,) = combiner.push("left", photon(3.0))
        # New left pairs with the most recent right.
        assert [c.text for c in result.children] == ["3.0", "2.0"]

    def test_unknown_stream_rejected(self):
        combiner = LatestValueCombiner(analyzed_two_stream())
        with pytest.raises(ValueError):
            combiner.push("middle", photon(1.0))

    def test_every_push_after_warmup_emits(self):
        combiner = LatestValueCombiner(analyzed_two_stream())
        combiner.push("left", photon(0.0))
        combiner.push("right", photon(0.0))
        emitted = 0
        for index in range(10):
            stream = "left" if index % 2 == 0 else "right"
            emitted += len(combiner.push(stream, photon(index)))
        assert emitted == 10


def _two_stream_network():
    net = Network()
    for name in ("SPL", "SPM", "SPR"):
        net.add_super_peer(name)
    net.add_link("SPL", "SPM")
    net.add_link("SPM", "SPR")
    net.add_thin_peer("L", "SPL")
    net.add_thin_peer("R", "SPR")
    net.add_thin_peer("U", "SPM")
    return net


class TestMultiInputEndToEnd:
    @on_every_executor
    def test_two_stream_subscription_executes(self, executor):
        system = StreamGlobe(
            _two_stream_network(), strategy="stream-sharing", recorder=executor.recorder()
        )
        left_config = PhotonStreamConfig(seed=1, frequency=40.0)
        right_config = PhotonStreamConfig(seed=2, frequency=40.0)
        system.register_stream(
            "left", "photons/photon", lambda: PhotonGenerator(left_config),
            frequency=40.0, source_peer="L",
        )
        system.register_stream(
            "right", "photons/photon", lambda: PhotonGenerator(right_config),
            frequency=40.0, source_peer="R",
        )
        result = system.register_query("pair", TWO_STREAM_QUERY, "U")
        assert result.accepted
        assert len(result.plan.inputs) == 2
        metrics = executor.run(system, duration=5.0)
        generated = metrics.items_generated
        # Round-robin latest-value combination: one result per input
        # item except the very first (warm-up).
        expected = generated["left"] + generated["right"] - 1
        assert metrics.items_delivered["pair"] == expected

    def test_multi_input_deployment_healthy(self):
        from repro.analysis import verify_deployment

        system = StreamGlobe(_two_stream_network(), strategy="stream-sharing")
        for name, seed, peer in [("left", 1, "L"), ("right", 2, "R")]:
            config = PhotonStreamConfig(seed=seed, frequency=40.0)
            system.register_stream(
                name, "photons/photon",
                (lambda cfg: (lambda: PhotonGenerator(cfg)))(config),
                frequency=40.0, source_peer=peer,
            )
        system.register_query("pair", TWO_STREAM_QUERY, "U")
        assert verify_deployment(system.deployment).ok
