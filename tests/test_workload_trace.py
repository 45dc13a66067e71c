"""Tests for stream trace recording and replay."""

import pytest

from repro.workload.photons import PhotonGenerator, PhotonStreamConfig
from repro.workload.trace import (
    TraceError,
    TraceReplayGenerator,
    load_trace,
    record_trace,
    save_trace,
)
from repro.xmlkit import Path, parse_stream

from .conftest import on_every_executor


@pytest.fixture()
def photons():
    return PhotonGenerator(PhotonStreamConfig(seed=11, frequency=50.0)).take(40)


class TestRecording:
    def test_roundtrip_text(self, photons):
        text = record_trace(photons)
        assert parse_stream(text) == photons

    def test_roundtrip_file(self, photons, tmp_path):
        path = str(tmp_path / "trace.xml")
        count = save_trace(photons, path)
        assert count == 40
        assert load_trace(path) == photons


class TestReplay:
    def test_empty_trace_rejected(self):
        with pytest.raises(TraceError):
            TraceReplayGenerator([])

    def test_replays_in_order(self, photons):
        replay = TraceReplayGenerator(photons)
        replayed = [replay.next_item() for _ in range(len(photons))]
        assert replayed == photons
        assert replayed[0] is not photons[0]  # defensive copies

    def test_clock_follows_reference(self, photons):
        replay = TraceReplayGenerator(photons)
        first = replay.next_item()
        assert replay.clock == 0.0  # rebased to zero
        replay.next_item()
        expected = (
            float(photons[1].find(["det_time"]).text)
            - float(photons[0].find(["det_time"]).text)
        )
        assert replay.clock == pytest.approx(expected)
        del first

    def test_exhaustion_without_loop(self, photons):
        replay = TraceReplayGenerator(photons[:3])
        for _ in range(3):
            replay.next_item()
        assert replay.remaining == 0
        with pytest.raises(TraceError):
            replay.next_item()

    def test_looping_keeps_clock_monotone(self, photons):
        replay = TraceReplayGenerator(photons[:5], loop=True)
        clocks = []
        for _ in range(17):
            replay.next_item()
            clocks.append(replay.clock)
        assert all(b > a for a, b in zip(clocks, clocks[1:]))

    def test_fallback_frequency_without_reference(self, photons):
        replay = TraceReplayGenerator(photons, reference=None, frequency=10.0)
        replay.next_item()
        replay.next_item()
        assert replay.clock == pytest.approx(0.2)

    def test_from_file(self, photons, tmp_path):
        path = str(tmp_path / "trace.xml")
        save_trace(photons, path)
        replay = TraceReplayGenerator.from_file(path)
        assert replay.next_item() == photons[0]


class TestReplayDrivesTheSystem:
    @on_every_executor
    def test_trace_as_stream_source(self, photons, tmp_path, executor):
        """A recorded trace can back a registered stream end to end."""
        from repro.network.topology import example_topology
        from repro.sharing import StreamGlobe

        path = str(tmp_path / "trace.xml")
        save_trace(photons, path)

        system = StreamGlobe(
            example_topology(), strategy="stream-sharing", recorder=executor.recorder()
        )
        system.register_stream(
            "photons",
            "photons/photon",
            lambda: TraceReplayGenerator.from_file(path, loop=True),
            frequency=50.0,
            source_peer="P0",
        )
        result = system.register_query(
            "all",
            '<photons>{ for $p in stream("photons")/photons/photon '
            "where $p/en >= 0.0 return <r> { $p/en } </r> }</photons>",
            "P1",
        )
        assert result.accepted
        metrics = executor.run(system, duration=2.0)
        assert metrics.items_delivered["all"] > 0
        assert metrics.items_delivered["all"] == metrics.items_generated["photons"]
