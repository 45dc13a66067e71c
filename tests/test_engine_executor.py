"""Integration tests for the measured stream simulator."""

import os
import subprocess
import sys

import pytest

from tests.conftest import PAPER_QUERIES, make_system, on_every_executor
from repro.engine.executor import ExecutionError, StreamSimulator
from repro.network.topology import example_topology
from repro.properties import raw_stream_properties
from repro.sharing.plan import Deployment, InstalledStream
from repro.workload.photons import PhotonGenerator, PhotonStreamConfig
from repro.xmlkit import Element


class _SteppedSource:
    """Items on a clock advancing an exact 1/8 s per item."""

    def __init__(self):
        self.clock = 0.0
        self.emitted = 0

    def next_item(self):
        self.clock += 0.125
        self.emitted += 1
        return Element("photon", children=[Element("en", text=self.emitted)])


class _EverySeventhWithoutDet:
    """Drops ``coord/det`` from every 7th photon before the executor
    freezes it: by slicing ``coord.children`` on the generator's tree
    (sharebench's irregular source), or — the reference — by building
    the irregular tree anew through ``Element(...)``."""

    def __init__(self, inner, rebuild):
        self.inner = inner
        self.rebuild = rebuild
        self.count = 0

    @property
    def clock(self):
        return self.inner.clock

    def next_item(self):
        item = self.inner.next_item()
        self.count += 1
        if self.count % 7:
            return item
        if not self.rebuild:
            coord = item.children[1]
            coord.children = coord.children[:1]
            return item
        phc, coord, en, det_time = item.children
        ra, dec = coord.children[0].children
        return Element(
            "photon",
            children=(
                Element("phc", text=phc.text),
                Element(
                    "coord",
                    children=(
                        Element(
                            "cel",
                            children=(Element("ra", text=ra.text), Element("dec", text=dec.text)),
                        ),
                    ),
                ),
                Element("en", text=en.text),
                Element("det_time", text=det_time.text),
            ),
        )


class TestSimulatorBasics:
    def test_duration_validated(self, example_net):
        with pytest.raises(ExecutionError):
            StreamSimulator(example_net, Deployment(example_net), {}, duration=0)

    def test_missing_generator_detected(self, example_net):
        deployment = Deployment(example_net)
        deployment.install_stream(
            InstalledStream(
                stream_id="photons",
                content=raw_stream_properties("photons", "photons/photon").single_input(),
                origin_node="SP4",
                route=("SP4",),
            )
        )
        simulator = StreamSimulator(example_net, deployment, {}, duration=1.0)
        with pytest.raises(ExecutionError):
            simulator.run()

    def test_source_only_run(self, example_net):
        deployment = Deployment(example_net)
        deployment.install_stream(
            InstalledStream(
                stream_id="photons",
                content=raw_stream_properties("photons", "photons/photon").single_input(),
                origin_node="SP4",
                route=("SP4",),
            )
        )
        generator = PhotonGenerator(PhotonStreamConfig(seed=1, frequency=50.0))
        metrics = StreamSimulator(
            example_net, deployment, {"photons": generator}, duration=2.0
        ).run()
        # ~100 items generated; ingest work at SP4 only; no link traffic.
        assert metrics.items_generated["photons"] == pytest.approx(100, abs=20)
        assert metrics.peer_work.get("SP4", 0) > 0
        assert metrics.link_bits == {}

    def test_max_items_cap(self, example_net):
        deployment = Deployment(example_net)
        deployment.install_stream(
            InstalledStream(
                stream_id="photons",
                content=raw_stream_properties("photons", "photons/photon").single_input(),
                origin_node="SP4",
                route=("SP4",),
            )
        )
        generator = PhotonGenerator(PhotonStreamConfig(seed=1, frequency=50.0))
        metrics = StreamSimulator(
            example_net, deployment, {"photons": generator}, duration=10.0,
            max_items_per_source=7,
        ).run()
        assert metrics.items_generated["photons"] == 7

    @pytest.mark.parametrize(
        "max_items, batch_size, expected",
        [
            (None, 3, 8),  # the until boundary, in a short final batch
            (None, 8, 8),  # ... and on a batch boundary
            (None, 64, 8),
            (5, 3, 5),  # the cap inside a batch
            (6, 3, 6),  # ... and on a batch boundary
            (0, 3, 0),
        ],
    )
    def test_source_limits_draw_no_item_too_many(
        self, example_net, max_items, batch_size, expected
    ):
        deployment = Deployment(example_net)
        deployment.install_stream(
            InstalledStream(
                stream_id="photons",
                content=raw_stream_properties("photons", "photons/photon").single_input(),
                origin_node="SP4",
                route=("SP4",),
            )
        )
        source = _SteppedSource()
        simulator = StreamSimulator(
            example_net, deployment, {"photons": source}, duration=1.0,
            max_items_per_source=max_items, batch_size=batch_size,
        )
        metrics = simulator.run()
        assert metrics.items_generated.get("photons", 0) == expected
        assert source.emitted == expected
        assert simulator.peak_live_items == min(batch_size, expected)


class TestEndToEndExecution:
    @on_every_executor
    def test_q1_delivery_matches_direct_filtering(self, executor):
        """Items delivered through the network equal direct evaluation."""
        system = executor.system("stream-sharing")
        system.register_query("Q1", PAPER_QUERIES["Q1"], "P1")
        metrics = executor.run(system, duration=20.0)

        from repro.workload.photons import VELA_REGION

        generator = PhotonGenerator(PhotonStreamConfig(seed=20060326, frequency=100.0))
        expected = 0
        while generator.clock < 20.0:
            item = generator.next_item()
            ra = float(item.find(["coord", "cel", "ra"]).text)
            dec = float(item.find(["coord", "cel", "dec"]).text)
            if VELA_REGION.contains(ra, dec):
                expected += 1
        assert metrics.items_delivered["Q1"] == expected

    @on_every_executor
    def test_q2_subset_of_q1(self, executor):
        system = executor.system("stream-sharing")
        system.register_query("Q1", PAPER_QUERIES["Q1"], "P1")
        system.register_query("Q2", PAPER_QUERIES["Q2"], "P2")
        metrics = executor.run(system, duration=20.0)
        assert 0 < metrics.items_delivered["Q2"] <= metrics.items_delivered["Q1"]

    @on_every_executor
    def test_sharing_strategies_deliver_identical_results(self, executor):
        """The optimizer must never change *what* is delivered."""
        deliveries = {}
        for strategy in ("data-shipping", "query-shipping", "stream-sharing"):
            system = executor.system(strategy)
            for name, peer in [("Q1", "P1"), ("Q2", "P2"), ("Q3", "P3"), ("Q4", "P4")]:
                system.register_query(name, PAPER_QUERIES[name], peer)
            deliveries[strategy] = executor.run(system, duration=30.0).items_delivered
        assert deliveries["data-shipping"] == deliveries["query-shipping"]
        assert deliveries["data-shipping"] == deliveries["stream-sharing"]

    def test_restructure_before_freeze_equals_rebuilding(self):
        """The ``ItemGenerator.next_item`` contract (DESIGN.md §7): the
        photon generator's leaves are born frozen, its interior nodes
        are not, so a wrapper that slices ``coord.children`` is billed
        exactly like one that builds the irregular tree from scratch.
        Data shipping sends whole photons, so their sizes are billed."""
        system = make_system("data-shipping")
        for name, peer in [("Q1", "P1"), ("Q2", "P2"), ("Q3", "P3"), ("Q4", "P4")]:
            system.register_query(name, PAPER_QUERIES[name], peer)

        def run(wrap):
            generators = {
                name: wrap(source.generator_factory())
                for name, source in system.sources.items()
            }
            return StreamSimulator(system.net, system.deployment, generators, 30.0).run()

        sliced = run(lambda inner: _EverySeventhWithoutDet(inner, rebuild=False))
        rebuilt = run(lambda inner: _EverySeventhWithoutDet(inner, rebuild=True))
        regular = run(lambda inner: inner)
        assert sliced == rebuilt
        # No paper query reads coord/det: same results, fewer bytes.
        assert sliced.items_delivered == regular.items_delivered
        assert 0 < sliced.total_mbit() < regular.total_mbit()

    @on_every_executor
    def test_repeated_runs_identical(self, executor):
        system = executor.system("stream-sharing")
        system.register_query("Q1", PAPER_QUERIES["Q1"], "P1")
        first = executor.run(system, duration=10.0)
        second = executor.run(system, duration=10.0)
        assert first.items_delivered == second.items_delivered
        assert first.link_bits == second.link_bits
        assert first.peer_work == second.peer_work

    @on_every_executor
    def test_metrics_derivations(self, executor):
        system = executor.system("data-shipping")
        system.register_query("Q1", PAPER_QUERIES["Q1"], "P1")
        metrics = executor.run(system, duration=10.0)
        net = system.net
        total_kbps = sum(metrics.link_kbps(link) for link in net.links())
        assert total_kbps > 0
        assert metrics.total_mbit() == pytest.approx(
            total_kbps * 10.0 / 1000.0, rel=1e-6
        )
        cpu = dict(metrics.cpu_series(net))
        assert cpu["SP4"] > 0  # ingest at the source super-peer
        acc = metrics.peer_accumulated_mbit(net, "SP4")
        assert acc > 0


def test_sequential_run_imports_nothing_of_the_sharded_plane():
    """The loop and the cell live in ``repro.engine.executor``: a
    sequential run pays for neither ``multiprocessing`` nor the shard
    analysis (this is what keeps its resident memory where it was)."""
    script = (
        "import sys\n"
        "from repro.bench.harness import run_scenario\n"
        "from repro.workload.scenarios import scenario_one\n"
        "run = run_scenario(scenario_one(), 'stream-sharing')\n"
        "assert run.metrics.items_generated\n"
        "heavy = ('multiprocessing', 'repro.analysis', 'repro.engine.parallel')\n"
        "print(sorted(m for m in sys.modules if m.startswith(heavy)))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.path.join(os.path.dirname(__file__), "..", "src"))
    result = subprocess.run(
        [sys.executable, "-c", script],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    assert result.stdout.strip() == "[]"
