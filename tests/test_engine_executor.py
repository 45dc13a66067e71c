"""Integration tests for the measured stream simulator."""

import gc
import math
import os
import subprocess
import sys
import weakref
from fractions import Fraction

import pytest

from tests.conftest import PAPER_QUERIES, make_system, on_every_executor
from tests.pins_executor import UNPINNED_PREFIXES
from tests.test_engine_combine import TWO_STREAM_QUERY
from tests.test_engine_streaming import ITEM, _selection
from repro.engine.columnar import RowBatch, batch_bytes, columnar_stats, encode_ingest
from repro.engine.executor import SOURCE_BATCH, Cell, ExecutionError, StreamSimulator
from repro.network.topology import example_topology
from repro.obs import Recorder
from repro.predicates import PredicateGraph
from repro.properties import AggregationSpec, WindowSpec, raw_stream_properties
from repro.sharing import StreamGlobe
from repro.sharing.plan import Deployment, InstalledStream, RegisteredQuery
from repro.workload.photons import PhotonGenerator, PhotonStreamConfig
from repro.workload.scenarios import scenario_grid
from repro.wxquery import analyze, parse_query
from repro.xmlkit import Element
from repro.xmlkit.serializer import serialize


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
    sequential run pays for neither ``multiprocessing`` nor the sharded
    plane (this is what keeps its resident memory where it was), and a
    sharded run, inline or forked, for nothing of the analysis passes:
    its partition needs no certificate."""
    script = (
        "import os, sys\n"
        "from repro.workload.scenarios import run_scenario, scenario_one\n"
        "workers, cores = int(sys.argv[1]), int(sys.argv[2])\n"
        "os.cpu_count = lambda: cores\n"
        "run = run_scenario(scenario_one(), 'stream-sharing', workers=workers)\n"
        "assert run.metrics.items_generated\n"
        "simulator = run.system.last_simulator\n"
        "heavy = ('multiprocessing', 'repro.analysis', 'repro.engine.parallel')\n"
        "print(simulator.mode_used, simulator.workers_used,"
        " sorted(m for m in sys.modules if m.startswith(heavy)))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.path.join(os.path.dirname(__file__), "..", "src"))

    def imported(workers, cores):
        result = subprocess.run(
            [sys.executable, "-c", script, str(workers), str(cores)],
            env=env, capture_output=True, text=True, timeout=120, check=True,
        )
        mode, used, modules = result.stdout.strip().split(" ", 2)
        return mode, int(used), modules

    assert imported(1, 2) == ("sequential", 1, "[]")
    for mode, cores in (("inline", 1), ("process", 2)):
        used_mode, used, modules = imported(2, cores)
        assert (used_mode, used) == (mode, 2)
        assert "repro.engine.parallel" in modules
        assert "repro.analysis" not in modules


# ----------------------------------------------------------------------
# The closure program against the stream-by-stream pump it replaced
# ----------------------------------------------------------------------
def _stream_by_stream(cell, program, batch):
    """``Cell._pump`` as it was before closure programs, over the same
    nodes: every stream accounts, delivers and fans out for itself and
    reaches its relays by recursion — the reference."""
    gauge = cell._gauge

    def pump(node, batch):
        count = len(batch)
        gauge.add(count)
        node.produced_count += count
        if node.has_hops:
            node.produced_bytes += batch_bytes(batch)
        for delivery in node.countable:
            delivery.feed(batch)
        for feed in node.deliveries:
            feed(batch)
        for relay in node.relay_children:
            pump(relay, batch)
        for _, trie, _ in node.trie_groups:
            trie.evaluate(batch, lambda stream_id, out: pump(cell._nodes[stream_id], out), gauge)
        gauge.sub(count)

    pump(program.members[0], batch)


def _installed(stream_id, parent_id=None, pipeline=(), hops=True):
    return InstalledStream(
        stream_id=stream_id,
        content=raw_stream_properties("photons", "photons/photon").single_input(),
        origin_node="SP4",
        route=("SP4", "SP5") if hops else ("SP4",),
        parent_id=parent_id,
        pipeline=tuple(pipeline),
    )


def _record(name, text, *delivered):
    return RegisteredQuery(
        name=name,
        properties=None,
        analyzed=analyze(parse_query(text)),
        subscriber_node="SP4",
        delivered=tuple(delivered),
    )


def _single(name, body, stream_id, source="left"):
    text = f'<out>{{ for $p in stream("{source}")/photons/photon {body} }}</out>'
    return name, _record(name, text, (source, stream_id))


def _diff(streams=(), rewire=(), gate=None):
    return {
        "repair": gate is not None,
        "stale": [],
        "add": [(stream, False, 0) for stream in streams],
        "exports": {},
        "gate": gate,
        "park": [],
        "rewire": list(rewire),
    }


PLAIN = "return <r> { $p/en } </r>"
AVERAGE = "|det_time diff 1 step 1| let $a := avg($p/en) return <r> { $a } </r>"

#: Two sources; below ``left`` relay chains three and four deep — the
#: deepest with nothing but count-only subscriptions, so only the
#: in-flight gauge ever sees it —, tries at the root and at relays, a
#: pipelined stream with a relay of its own.
CLOSURE_PLAN = [
    _installed("left"),
    _installed("right"),
    _installed("A", "left"),
    _installed("B", "A", hops=False),
    _installed("C", "left"),
    _installed("E", "C", hops=False),
    _installed("F", "E"),
    _installed("S1", "left", [_selection("en", ">=", "1.0")]),
    _installed("S2", "B", [_selection("en", ">=", "1.5")]),
    _installed("S2r", "S2"),
    _installed(
        "agg",
        "A",
        [
            AggregationSpec(
                function="avg",
                aggregated_path=ITEM / "en",
                window=WindowSpec("diff", Fraction(1), Fraction(1), ITEM / "det_time"),
                pre_selection=PredicateGraph(),
                result_filter=PredicateGraph(),
            )
        ],
    ),
    _installed("aggr", "agg"),
]


def _closure_run(reference):
    """Drive one cell through the plan: capturing, count-only and
    multi-input subscriptions first; mid-run a repair adds a relay and
    wires three subscriptions behind a closed gate, which opens later."""
    config = {"left": PhotonStreamConfig(seed=5, frequency=40.0),
              "right": PhotonStreamConfig(seed=6, frequency=25.0)}
    captured = []
    capture = lambda name, item: captured.append((name, serialize(item)))  # noqa: E731
    cell = Cell({name: PhotonGenerator(c) for name, c in config.items()}, None, 16, capture)
    if reference:
        cell._pump = lambda program, batch: _stream_by_stream(cell, program, batch)
    cell.apply_reconcile(
        _diff(
            CLOSURE_PLAN,
            [
                _single("cap_left", PLAIN, "left"),
                _single("cap_B", PLAIN, "B"),
                _single("cap_S2r", "return $p/en", "S2r"),
                ("pair", _record("pair", TWO_STREAM_QUERY, ("left", "B"), ("right", "right"))),
            ],
        )
    )
    cell.capture = None
    cell.apply_reconcile(
        _diff(
            rewire=[
                _single("n1", PLAIN, "A"),
                _single("n2", PLAIN, "B"),
                _single("n3", "where $p/en >= 0.5 " + PLAIN, "C"),
                _single("n4", "return ($p/en, $p/det_time)", "B"),
                _single("n5", "return if $p/en >= 1.2 then <hi/> else <lo> { $p/en } </lo>", "C"),
                _single("n6", PLAIN, "S2"),
                _single("n8", PLAIN, "F"),
                _single("n7", PLAIN, "S2r"),
                _single("a1", AVERAGE, "agg"),
                _single("a2", AVERAGE, "aggr"),
                _single("a3", AVERAGE.replace("avg", "min"), "aggr"),
            ]
        )
    )
    cell.step(2.0)
    name, moved = _single("n2", PLAIN, "D")
    cell.capture = capture
    cell.apply_reconcile(
        _diff([_installed("D", "A")], [(name, moved), _single("g1", PLAIN, "D")], gate=(0, False))
    )
    cell.capture = None
    cell.apply_reconcile(_diff(rewire=[_single("g2", PLAIN, "B")], gate=(1, False)))
    cell.step(3.0)
    cell.open_gate(0)
    cell.step(4.5)
    cell.open_gate(1)
    cell.step(6.0)
    return cell, captured


def _plain(state):
    """A cell state as plain comparable data."""
    state = dict(state)
    state["counters"] = {
        stream_id: [getattr(counted, field) for field in counted.__slots__]
        for stream_id, counted in state["counters"].items()
    }
    return state


def _comparable(state):
    """A cell state without what describes the execution only; a gate
    that lost nothing says so with or without an entry."""
    state = _plain(state)
    del state["exec"]
    state["query_lost"] = {name: lost for name, lost in state["query_lost"].items() if lost}
    return state


class TestClosureProgram:
    def test_mixed_closure_equals_the_stream_by_stream_pump(self):
        """Captures in the old pump order, counters, lost items and
        the in-flight peak — also around the gates of a mid-run repair
        next to grouped siblings."""
        cell, captured = _closure_run(reference=False)
        twin, expected = _closure_run(reference=True)
        state, twin_state = cell.finish(), twin.finish()
        assert captured == expected
        assert _comparable(state) == _comparable(twin_state)
        # The run was worth comparing: relays three deep, a group that
        # spans nodes, a multi-input feed on a relay, gates that lost
        # and then delivered.
        left = cell._programs["left"]
        members = [node.stream.stream_id for node in left.members]
        assert members == ["left", "A", "B", "D", "C", "E", "F"]
        assert (4, None, None) in left.steps
        groups = sorted(
            sorted(member.record.name for member in members) for _, members in left.groups
        )
        assert groups == [["n1", "n3", "n8"], ["n4"], ["n5"]]  # gated g1, g2, n2 feed alone
        assert sorted(len(members) for _, members in cell._programs["agg"].groups) == [1, 2]
        deliveries = state["deliveries"]
        assert 0 < state["query_lost"]["g1"] < state["query_lost"]["g2"]
        assert state["query_lost"]["n2"] == state["query_lost"]["g1"]
        assert 0 < deliveries["g2"][1] < deliveries["g1"][1] < deliveries["n1"][1]
        assert deliveries["a1"] == deliveries["a2"] and deliveries["a1"][2] > 0
        assert deliveries["pair"][2] > 0 and len(captured) > 500
        # ... at no more than one program per closure and source batch.
        counts = state["exec"]
        assert len(cell._programs) == 5 and len(cell._nodes) == 13
        assert counts["pump_steps"] <= 5 * counts["source_batches"]

    def test_empty_batch_touches_nothing(self):
        cell, captured = _closure_run(reference=False)
        cell.state()  # restarts the in-flight window peak

        def everything():
            return _plain(cell.state()), columnar_stats(), len(captured)

        before = everything()
        for program in cell._programs.values():
            cell._pump(program, RowBatch(()))
            cell._pump(program, encode_ingest([]))
        assert everything() == before

    def test_a_finished_cell_is_freed_without_the_collector(self):
        """Programs point at nodes and feeds, never back: the plan of a
        finished run goes when its cell goes (peak RSS of back-to-back
        runs stays one plan's worth)."""
        cell, _ = _closure_run(reference=False)
        _, trie, _ = cell._nodes["B"].trie_groups[0]
        probe = weakref.ref(trie)
        del trie
        gc.disable()
        try:
            del cell
            assert probe() is None
        finally:
            gc.enable()


def test_pump_cost_follows_closures_not_streams():
    """The always-on pumping counters on the grid plan, exactly (they
    are counts, not timings): per source batch the cell runs at most
    one program per relay closure, whatever the number of streams,
    relays and subscriptions.  A source batch ends after
    ``SOURCE_BATCH`` items or at an epoch boundary (a traced run samples
    eight), so the batch count follows the constant."""
    scenario = scenario_grid(4, 4, 200)
    recorder = Recorder()
    system = StreamGlobe(scenario.build_network(), strategy="stream-sharing", recorder=recorder)
    scenario.register_on(system)
    metrics = system.run(10.0)
    streams = system.deployment.streams.values()
    relays = sum(1 for s in streams if s.parent_id is not None and not s.pipeline)
    closures = len(streams) - relays
    counts = system.last_simulator.exec_counts
    assert (len(streams), relays, closures) == (203, 90, 113)
    assert counts == {"source_batches": 8, "pump_steps": 534, "delivery_counts": 526}
    (generated,) = metrics.items_generated.values()  # the grid's one source
    per_epoch = [epoch.items_generated for epoch in recorder.epochs]
    assert sum(per_epoch) == generated
    assert counts["source_batches"] == sum(math.ceil(n / SOURCE_BATCH) for n in per_epoch)
    assert counts["pump_steps"] / counts["source_batches"] <= closures
    assert counts["delivery_counts"] < 200 * counts["source_batches"]
    assert {
        name: value for name, value in recorder.counters.items() if name in UNPINNED_PREFIXES
    } == {f"exec.{name}": value for name, value in counts.items()}


def test_sharded_simulator_draws_source_batches_of_the_constant(inline_cells):
    """A ``ShardedSimulator`` built by hand draws what ``StreamGlobe.run``
    draws: ``SOURCE_BATCH`` items per source batch, ended early only at
    an epoch boundary (exchange barriers and samples coincide here)."""
    from repro.engine.parallel import ShardedSimulator

    recorder = Recorder()
    system = make_system(recorder=recorder)
    for name, text in PAPER_QUERIES.items():
        system.register_query(name, text, subscriber_peer=f"P{name[1]}")
    generators = {
        name: source.generator_factory() for name, source in system.sources.items()
    }
    simulator = ShardedSimulator(
        system.net,
        system.deployment,
        generators,
        8.0,
        workers=2,
        recorder=recorder,
    )
    simulator.run()
    assert (simulator.mode_used, simulator.workers_used) == ("inline", 2)
    per_cell_epoch = [epoch.items_generated for epoch in recorder.epochs]
    assert simulator.exec_counts["source_batches"] == sum(
        math.ceil(n / SOURCE_BATCH) for n in per_cell_epoch
    )


class TestDeliveryTable:
    """A cell compiles one restructurer and count kernel per analyzed
    query, shared by that query's deliveries; the table goes with the
    run's cell."""

    @staticmethod
    def _system():
        system = make_system()
        for name, peer in (("Q1", "P1"), ("Q1b", "P2"), ("Q1c", "P3"), ("Q3", "P3"), ("Q3b", "P4")):
            system.register_query(name, PAPER_QUERIES[name[:2]], subscriber_peer=peer)
        queries = system.deployment.queries
        assert queries["Q1"].analyzed is queries["Q1b"].analyzed is queries["Q1c"].analyzed
        return system

    @staticmethod
    def _spy(monkeypatch):
        """Weak references to every table built, and per delivery the
        ids of its analysis, restructurer and kernel."""
        from repro.engine import executor

        tables, deliveries = [], []
        table_init = executor._DeliveryTable.__init__
        delivery_init = executor._SingleDelivery.__init__

        def spy_table(self):
            table_init(self)
            tables.append(weakref.ref(self))

        def spy_delivery(self, record, *args):
            delivery_init(self, record, *args)
            deliveries.append(
                (id(record.analyzed), id(self.restructurer), id(self._kernel))
            )

        monkeypatch.setattr(executor._DeliveryTable, "__init__", spy_table)
        monkeypatch.setattr(executor._SingleDelivery, "__init__", spy_delivery)
        return tables, deliveries

    def test_deliveries_of_one_analysis_share_one_kernel(self, monkeypatch):
        from repro.engine import executor

        system = self._system()
        tables, deliveries = self._spy(monkeypatch)
        metrics = system.run(10.0)
        assert len(tables) == 1 and len(deliveries) == 5
        compiled = {}
        for analyzed, restructurer, kernel in deliveries:
            compiled.setdefault(analyzed, set()).add((restructurer, kernel))
        assert len(compiled) == 2
        assert all(len(pairs) == 1 for pairs in compiled.values())
        # Nothing of the table outlives the run.
        assert tables[0]() is None
        # A delivery compiling its own kernel counts the same.
        monkeypatch.setattr(
            executor._DeliveryTable,
            "compiled",
            lambda self, analyzed: executor._compile_delivery(analyzed),
        )
        assert system.run(10.0) == metrics

    def test_a_capture_run_builds_per_item(self, monkeypatch):
        system = self._system()
        counted = system.run(10.0)
        (state,) = system.last_simulator._final_states
        results = {name: entry[2] for name, entry in state["deliveries"].items()}
        tables, deliveries = self._spy(monkeypatch)
        captured = {}
        before = columnar_stats()["delivery_kernel_batches"]
        metrics = system.run(
            10.0, capture=lambda name, item: captured.update({name: captured.get(name, 0) + 1})
        )
        assert columnar_stats()["delivery_kernel_batches"] == before
        assert metrics == counted
        # Every result built and captured, as many as the kernels counted.
        assert captured == {name: n for name, n in results.items() if n}
        assert len(deliveries) == 5 and tables[0]() is None
