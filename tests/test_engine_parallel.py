"""The sharded executor: byte-identical metrics at every worker count.

Every test compares :class:`~repro.engine.parallel.ShardedSimulator`
output against the sequential :class:`StreamSimulator` on identically
seeded systems — equality below is full ``RunMetrics`` equality (exact
floats, not approximate), which is the PR's core guarantee.
"""

import multiprocessing
import os
import pickle
import signal
import subprocess
import sys
import time

import pytest

from repro.engine import DEFAULT_UDF_REGISTRY, clear_default_registry, parallel
from repro.engine.columnar import (
    batch_bytes,
    columnar_stats,
    reset_columnar_stats,
)
from repro.engine.executor import ExecutionError, StreamSimulator
from repro.engine.parallel import ShardedSimulator
from repro.engine.partition import _handovers, node_weights, partition_cells, query_lags
from repro.faults import (
    FaultSchedule,
    LinkFailure,
    SuperPeerCrash,
    SuperPeerRejoin,
    single_crash,
    staggered_crashes,
)
from repro.network.topology import Network
from repro.properties import UdfSpec
from repro.sharing import StreamGlobe
from repro.workload.photons import PhotonGenerator, PhotonStreamConfig
from repro.workload.scenarios import run_scenario, scenario_grid, scenario_one, scenario_two
from repro.obs.recorder import NULL_RECORDER, Recorder
from repro.xmlkit import Element, serialize

from .conftest import PAPER_QUERIES, make_system, pinned_cells

DURATION = 8.0
MAX_ITEMS = 150

#: Fault schedules over the example topology (SP1..SP8 backbone).
FAULT_CASES = {
    "crash": lambda: single_crash(3.0, "SP6"),
    "crash_rejoin": lambda: single_crash(3.0, "SP5", rejoin_at=6.0),
    "link": lambda: FaultSchedule([LinkFailure(3.0, "SP4", "SP5")]),
    "rolling": lambda: staggered_crashes(3.0, ("SP6", "SP5"), spacing=2.0, downtime=3.0),
}


def deployed_system(**kwargs):
    system = make_system(**kwargs)
    for name, text in PAPER_QUERIES.items():
        system.register_query(name, text, subscriber_peer=f"P{name[1]}")
    return system


def run_system(workers, cells="inline", faults_key=None, traced=False):
    """One full run; returns (metrics, per-query capture, simulator)."""
    system = deployed_system(recorder=Recorder() if traced else NULL_RECORDER)
    captured = {}
    with pinned_cells(cells):
        metrics = system.run(
            DURATION,
            max_items_per_source=MAX_ITEMS,
            faults=FAULT_CASES[faults_key]() if faults_key else None,
            capture=lambda name, item: captured.setdefault(name, []).append(
                serialize(item)
            ),
            workers=workers,
        )
    return metrics, captured, system.last_simulator


# ----------------------------------------------------------------------
# Identity: fault-free
# ----------------------------------------------------------------------
@pytest.mark.parametrize("workers", [2, 4, 8])
def test_identity_inline(workers):
    seq_metrics, seq_cap, _ = run_system(1)
    for traced in (False, True):
        par_metrics, par_cap, simulator = run_system(workers, traced=traced)
        assert par_metrics == seq_metrics
        assert par_cap == seq_cap
        assert simulator.mode_used == "inline"
        assert 1 < simulator.workers_used <= workers


def test_identity_process():
    seq_metrics, seq_cap, _ = run_system(1)
    for traced in (False, True):
        par_metrics, par_cap, simulator = run_system(2, cells="process", traced=traced)
        assert par_metrics == seq_metrics
        assert par_cap == seq_cap
        assert simulator.mode_used == "process"


# ----------------------------------------------------------------------
# Identity: under churn (faults applied at drained epoch barriers, the
# run keeping its cells)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("case", sorted(FAULT_CASES))
def test_identity_under_faults_inline(case):
    seq_metrics, seq_cap, _ = run_system(1, faults_key=case)
    for traced in (False, True):
        par_metrics, par_cap, _ = run_system(4, faults_key=case, traced=traced)
        assert par_metrics == seq_metrics
        assert par_cap == seq_cap
        assert par_metrics.faults_applied > 0


def test_identity_under_faults_process():
    seq_metrics, seq_cap, _ = run_system(1, faults_key="crash_rejoin")
    for traced in (False, True):
        par_metrics, par_cap, simulator = run_system(
            2, cells="process", faults_key="crash_rejoin", traced=traced
        )
        assert par_metrics == seq_metrics
        assert par_cap == seq_cap
        assert simulator.mode_used == "process"


def test_a_super_peer_new_to_the_run_joins_the_least_loaded_cell(inline_cells):
    """SP5 is down when the run is partitioned and rejoins mid-run: it
    gets the cell holding the fewest streams; every other super-peer
    keeps its cell, and the run stays identical."""

    def down_at_start():
        system = deployed_system()
        system.apply_fault(SuperPeerCrash(0.0, "SP5"))
        return system

    def schedule():
        return FaultSchedule([SuperPeerRejoin(3.0, "SP5")])

    reference = down_at_start()
    seq_metrics = reference.run(
        DURATION, max_items_per_source=MAX_ITEMS, faults=schedule()
    )
    system = down_at_start()
    built = {}

    def spy(deployment, workers):
        built.update(partition_cells(deployment, workers))
        return dict(built)

    owners = []
    place = ShardedSimulator._place

    def spying_place(simulator):
        owners.append(sorted(simulator._owner.values()))
        place(simulator)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(parallel, "partition_cells", spy)
        patch.setattr(ShardedSimulator, "_place", spying_place)
        metrics = system.run(
            DURATION, max_items_per_source=MAX_ITEMS, faults=schedule(), workers=4
        )
    simulator = system.last_simulator
    assert metrics == seq_metrics and metrics.faults_applied == 1
    assert "SP5" not in built
    final = simulator._node_cell
    assert {node: final[node] for node in built} == built
    (before,) = owners
    loads = [before.count(cell) for cell in range(simulator.workers_used)]
    assert final["SP5"] == loads.index(min(loads))


# ----------------------------------------------------------------------
# One cell, and clamps
# ----------------------------------------------------------------------
def check_one_cell_runs_sequentially(faults_key, net=None, workers=1):
    system = deployed_system() if net is None else make_system(net=net)
    generators = {
        name: source.generator_factory()
        for name, source in system.sources.items()
    }
    captured = {}
    simulator = ShardedSimulator(
        system.net,
        system.deployment,
        generators,
        DURATION,
        workers=workers,
        max_items_per_source=MAX_ITEMS,
        schedule=FAULT_CASES[faults_key]() if faults_key else None,
        repair=system.repair if faults_key else None,
        capture=lambda name, item: captured.setdefault(name, []).append(
            serialize(item)
        ),
    )
    metrics = simulator.run()
    assert simulator.mode_used == "sequential"
    assert simulator.workers_used == 1
    assert simulator.exchange_items == 0 and simulator.query_lags == {}
    return metrics, captured


def test_one_worker_runs_the_sequential_loop():
    """One worker, or one live super-peer whatever the workers: one
    cell, nothing added."""
    metrics, captured = check_one_cell_runs_sequentially(None)
    assert (metrics, captured) == run_system(1)[:2]
    lone = Network()
    lone.add_super_peer("SP0")
    lone.add_thin_peer("P0", "SP0")
    metrics, _ = check_one_cell_runs_sequentially(None, net=lone, workers=4)
    assert metrics.items_generated["photons"] == MAX_ITEMS


def test_one_worker_runs_the_sequential_loop_under_faults():
    """One cell is the one loop, not a second simulator: faults,
    repair and reconcile included."""
    metrics, captured = check_one_cell_runs_sequentially("crash_rejoin")
    seq_metrics, seq_cap, _ = run_system(1, faults_key="crash_rejoin")
    assert metrics == seq_metrics and captured == seq_cap
    assert metrics.faults_applied == 2


@pytest.mark.parametrize("sharded", [False, True])
def test_non_positive_batch_size_is_rejected(sharded):
    """Validated once, where both simulators are built: with no items
    per pump the clock would never advance."""
    system = deployed_system()
    extra = {"workers": 2} if sharded else {}
    with pytest.raises(ExecutionError, match="batch size must be positive"):
        (ShardedSimulator if sharded else StreamSimulator)(
            system.net, system.deployment, {}, DURATION, batch_size=0, **extra
        )


def test_single_worker_request_stays_sequential():
    _, _, simulator = run_system(1)
    assert not isinstance(simulator, ShardedSimulator)


def test_worker_count_clamped_to_shard_count():
    """A shard is one live super-peer: no more cells than those."""
    _, _, simulator = run_system(64)
    assert 1 < simulator.workers_used <= len(simulator.net.super_peer_names())


# ----------------------------------------------------------------------
# Exchange accounting and per-shard telemetry
# ----------------------------------------------------------------------
def test_exchange_counters_and_per_shard_peaks():
    _, _, simulator = run_system(2)
    assert simulator.exchange_batches > 0
    assert simulator.exchange_items > 0
    assert simulator.exchange_bytes > 0
    for (src, dst), items in simulator.exchange_pairs.items():
        assert src != dst
        assert items > 0
    peaks = simulator.peak_live_items_per_shard
    assert sorted(peaks) == list(range(simulator.workers_used))
    assert simulator.peak_live_items == max(peaks.values())


@pytest.mark.parametrize("workers", [2, 4])
@pytest.mark.parametrize("case", sorted(FAULT_CASES))
def test_slo_lags_cover_every_deployment_of_the_run(case, workers, inline_cells):
    """A repair or a migration re-routes delivery chains: each query's
    ``epoch_lag`` is the most cell crossings of any deployment it ran
    on, at least the build-time count and the final one."""
    system = deployed_system()
    built = partition_cells(system.deployment, workers)
    at_build = query_lags(system.deployment, built)
    system.run(
        DURATION,
        max_items_per_source=MAX_ITEMS,
        faults=FAULT_CASES[case](),
        workers=workers,
    )
    simulator = system.last_simulator
    at_end = query_lags(system.deployment, simulator._node_cell)
    width = DURATION / simulator.exchange_epochs
    for slo in simulator.last_query_slos:
        assert slo.epoch_lag >= at_build.get(slo.query, 0)
        assert slo.epoch_lag >= at_end.get(slo.query, 0)
        assert slo.delivery_latency_s == slo.epoch_lag * width
    assert simulator.query_lags == {
        slo.query: slo.epoch_lag for slo in simulator.last_query_slos
    }


# ----------------------------------------------------------------------
# Partition conflicts (one policy on both backends: keep the partition)
# ----------------------------------------------------------------------
def direct_simulator(system, generators=None, **kwargs):
    """A 2-worker ShardedSimulator built by hand."""
    if generators is None:
        generators = {
            name: source.generator_factory()
            for name, source in system.sources.items()
        }
    return ShardedSimulator(
        system.net,
        system.deployment,
        generators,
        DURATION,
        workers=2,
        max_items_per_source=MAX_ITEMS,
        **kwargs,
    )


@pytest.mark.parametrize("mode", ["inline", "process"])
@pytest.mark.parametrize("case", ["crash", "rolling"])
def test_partition_conflict_keeps_the_partition_in_both_modes(mode, case):
    """The same run must not succeed or fail by backend.

    After SP6 goes down the repaired Q4 window pipeline is fed across
    the two cells.  The run keeps its partition on both backends and
    stays byte-identical.
    """
    seq_metrics, _, _ = run_system(1, faults_key=case)
    system = deployed_system()
    simulator = direct_simulator(
        system,
        schedule=FAULT_CASES[case](),
        repair=system.repair,
    )
    built = partition_cells(system.deployment, 2)
    with pinned_cells(mode):
        metrics = simulator.run()
    assert simulator.mode_used == mode
    assert {node: simulator._node_cell[node] for node in built} == built
    assert query_lags(system.deployment, simulator._node_cell)["Q4"] > 0
    assert metrics == seq_metrics


# ----------------------------------------------------------------------
# The packer: load first, then hand-overs
# ----------------------------------------------------------------------
#: fig7-sharded-w2's deployment (scenario 2, stream-sharing) at two
#: workers: where the packer puts every super-peer.  The sharded
#: benchmark's exchange volume depends on this map.
SCENARIO_TWO_CELLS = {
    "SP0": 0, "SP1": 1, "SP2": 1, "SP3": 1, "SP4": 1, "SP5": 1, "SP6": 1,
    "SP7": 1, "SP8": 1, "SP9": 0, "SP10": 0, "SP11": 1, "SP12": 0,
    "SP13": 1, "SP14": 0, "SP15": 1,
}


def scenario_system(scenario):
    return run_scenario(scenario, "stream-sharing", execute=False).system


def test_scenario_two_packs_as_before():
    system = scenario_system(scenario_two())
    assert partition_cells(system.deployment, 2) == SCENARIO_TWO_CELLS


def assert_packs_alike(build):
    """Twice the same deployment, twice the same map, in name order."""
    first, second = build(), build()
    cells = partition_cells(first.deployment, 3)
    assert partition_cells(second.deployment, 3) == cells
    assert list(cells) == sorted(first.net.super_peer_names())


def test_partition_cells_is_deterministic():
    assert_packs_alike(deployed_system)


def test_paper_scenario_partition_is_deterministic():
    assert_packs_alike(lambda: scenario_system(scenario_one()))


def test_grid_scenario_packs_into_several_cells():
    system = scenario_system(scenario_grid(rows=3, cols=3, query_count=24))
    cells = partition_cells(system.deployment, 4)
    assert sorted(cells) == sorted(system.net.super_peer_names())
    assert set(cells.values()) == {0, 1, 2, 3}


def test_partition_is_independent_of_the_hash_seed():
    """The cut-aware refinement walks sets and dicts; its result must
    not depend on their iteration order (workers partition alike)."""
    script = (
        "from repro.engine.partition import partition_cells\n"
        "from repro.workload.scenarios import run_scenario, scenario_two\n"
        "system = run_scenario(scenario_two(query_count=40), 'stream-sharing', execute=False).system\n"
        "for workers in (2, 3):\n"
        "    print(sorted(partition_cells(system.deployment, workers).items()))\n"
    )
    outputs = set()
    for seed in ("0", "1", "4242"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=os.pathsep.join(sys.path))
        outputs.add(
            subprocess.run(
                [sys.executable, "-c", script],
                env=env, capture_output=True, text=True, check=True, timeout=120,
            ).stdout
        )
    assert len(outputs) == 1 and outputs.pop().strip()


def _packed_loads(deployment, cells):
    nodes = sorted(cells)
    weights = node_weights(deployment, nodes)
    loads = [0] * (max(cells.values()) + 1)
    for node, weight in zip(nodes, weights):
        loads[cells[node]] += weight
    return weights, loads


def test_refinement_cuts_handovers_within_the_lpt_load_guarantee():
    system = scenario_system(scenario_two())
    deployment = system.deployment
    nodes = sorted(system.net.super_peer_names())
    cells = partition_cells(deployment, 2)
    weights, loads = _packed_loads(deployment, cells)
    handovers = _handovers(deployment, nodes)

    def crossing(place):
        return sum(
            count * len({place[node] for node in foreign} - {place[home]})
            for home, foreign, count in handovers
        )

    # Plain LPT, recomputed here: the refinement's starting point.
    lpt_loads, lpt = [0, 0], [0] * len(nodes)
    for node in sorted(range(len(nodes)), key=lambda node: (-weights[node], node)):
        target = lpt_loads.index(min(lpt_loads))
        lpt_loads[target] += weights[node]
        lpt[node] = target
    assert crossing([cells[node] for node in nodes]) < crossing(lpt)
    ideal = max(sum(weights) / 2, max(weights))
    assert max(loads) <= (4 / 3 - 1 / 6) * ideal
    assert len(loads) == 2


def test_partition_places_every_live_super_peer_once():
    system = deployed_system()
    nodes = sorted(system.net.super_peer_names())
    for workers in (2, 3, 4, len(nodes), len(nodes) + 5):
        cells = partition_cells(system.deployment, workers)
        assert sorted(cells) == nodes
        used = sorted(set(cells.values()))
        # Weight-0 super-peers coalesce, so the cap is an upper bound.
        assert 1 < len(used) <= min(workers, len(nodes))
        # Cells are numbered by their first super-peer.
        firsts = [cells[node] for node in nodes]
        assert sorted(set(firsts), key=firsts.index) == used


def test_partition_balances_by_stream_weight():
    system = deployed_system()
    weights, loads = _packed_loads(
        system.deployment, partition_cells(system.deployment, 2)
    )
    # LPT greedy: no cell may carry everything while another is empty.
    assert len(loads) == 2 and min(loads) > 0
    assert max(loads) <= (4 / 3 - 1 / 6) * max(sum(weights) / 2, max(weights))


def test_query_lags_never_exceed_the_finest_partition():
    """Packing super-peers together only removes crossings; one cell
    has none."""
    system = deployed_system()
    deployment = system.deployment
    finest = every_link_cut(deployment, 0)
    bound = query_lags(deployment, finest)
    assert set(bound) == set(deployment.queries) and max(bound.values()) > 0
    for workers in (2, 4):
        lags = query_lags(deployment, partition_cells(deployment, workers))
        assert set(lags) == set(bound)
        assert all(0 <= lag <= bound[query] for query, lag in lags.items())
    assert set(query_lags(deployment, dict.fromkeys(finest, 0)).values()) == {0}


# ----------------------------------------------------------------------
# Cut anywhere: forked cells with every link between two of them
# ----------------------------------------------------------------------
def every_link_cut(deployment, workers):
    """The finest partition, whatever ``workers``: each live
    super-peer a cell of its own."""
    return {
        node: cell
        for cell, node in enumerate(sorted(deployment.net.super_peer_names()))
    }


class _Rising:
    """An order-sensitive UDF: a photon passes only when its energy
    exceeds the one before it in the stream."""

    def __init__(self):
        self.last = None

    def __call__(self, item):
        energy = float(item.find(["en"]).text)
        rising = self.last is not None and energy > self.last
        self.last = energy
        return [item] if rising else []


@pytest.fixture()
def rising_udf():
    """Registers a fresh ``rising`` UDF per run (its state is the
    stream's history)."""

    def fresh():
        clear_default_registry()
        DEFAULT_UDF_REGISTRY.register("rising", _Rising())

    yield fresh
    clear_default_registry()


def udf_tap_system():
    """Q1's delivered stream, tapped at the far end of its route by the
    ``rising`` UDF and routed on to P4: the UDF's feed crosses cells,
    and what it lets through is billed on the links after it."""
    system = deployed_system()
    delivered_id = system.deployment.queries["Q1"].delivered[0][1]
    route = system.deployment.streams[delivered_id].route
    assert len(route) >= 2
    udf = system.install_derived_stream(
        "Q1:rising", delivered_id, [UdfSpec(name="rising")],
        target="P4", tap_node=route[-1],
    )
    assert len(udf.route) >= 2
    return system


TWO_STREAM_QUERY = """
<pair>{ for $p in stream("left")/photons/photon
        for $q in stream("right")/photons/photon
        return <both> { $p/en } { $q/en } </both> }</pair>
"""


def two_source_join_system():
    """Two sources at either end of a three-super-peer line and a
    subscription pairing them in the middle."""
    net = Network()
    for name in ("SPL", "SPM", "SPR"):
        net.add_super_peer(name)
    net.add_link("SPL", "SPM")
    net.add_link("SPM", "SPR")
    net.add_thin_peer("L", "SPL")
    net.add_thin_peer("R", "SPR")
    net.add_thin_peer("U", "SPM")
    system = StreamGlobe(net, strategy="stream-sharing")
    for name, seed, peer in [("left", 1, "L"), ("right", 2, "R")]:
        config = PhotonStreamConfig(seed=seed, frequency=40.0)
        system.register_stream(
            name, "photons/photon",
            (lambda cfg: (lambda: PhotonGenerator(cfg)))(config),
            frequency=40.0, source_peer=peer,
        )
    result = system.register_query("pair", TWO_STREAM_QUERY, "U")
    assert result.accepted and len(result.plan.inputs) == 2
    return system


@pytest.mark.parametrize("build", [udf_tap_system, two_source_join_system])
def test_every_link_cut_runs_like_one_cell(build, rising_udf):
    """The two deployments where a cut is most delicate — the feed path
    of an order-sensitive UDF, the inputs of a multi-input
    subscription — on forked cells, one per super-peer, in source
    batches small enough that a stream crosses in several batches per
    exchange epoch: metrics and captures are the one-cell run's."""

    def run(workers):
        rising_udf()
        system = build()
        captured = {}
        generators = {
            name: source.generator_factory()
            for name, source in system.sources.items()
        }
        simulator = (ShardedSimulator if workers > 1 else StreamSimulator)(
            system.net,
            system.deployment,
            generators,
            DURATION,
            max_items_per_source=MAX_ITEMS,
            batch_size=16,
            capture=lambda name, item: captured.setdefault(name, []).append(
                serialize(item)
            ),
            **({"workers": workers} if workers > 1 else {}),
        )
        with pytest.MonkeyPatch.context() as patch, pinned_cells("process"):
            patch.setattr(parallel, "partition_cells", every_link_cut)
            metrics = simulator.run()
        return metrics, captured, simulator

    seq_metrics, seq_cap, _ = run(1)
    metrics, captured, simulator = run(2)
    live = simulator.net.super_peer_names()
    assert (simulator.mode_used, simulator.workers_used) == ("process", len(live))
    assert len(set(simulator._node_cell.values())) == len(live)
    assert simulator.exchange_batches > simulator.exchange_epochs
    assert max(simulator.query_lags.values()) > 0
    assert metrics == seq_metrics
    assert captured == seq_cap and any(captured.values())


# ----------------------------------------------------------------------
# The wire: frames, headers, a pass-through parent
# ----------------------------------------------------------------------
def test_headers_equal_a_recount_of_the_unpickled_frames(monkeypatch):
    frames = []
    step_all = ShardedSimulator._step_all

    def spying_step_all(simulator, until, pending):
        merged = step_all(simulator, until, pending)
        frames.extend(frame for group in merged.values() for frame in group)
        return merged

    monkeypatch.setattr(ShardedSimulator, "_step_all", spying_step_all)
    _, _, simulator = run_system(2, cells="process")
    assert frames and all(isinstance(frame, bytes) for frame in frames)
    batches = [batch for frame in frames for _, batch in pickle.loads(frame)]
    assert simulator.exchange_batches == len(batches)
    assert simulator.exchange_items == sum(len(batch) for batch in batches)
    assert simulator.exchange_bytes == sum(batch_bytes(batch) for batch in batches)
    assert all(len(batch) for batch in batches)  # empty batches stay home


def test_parent_neither_decodes_nor_encodes_exchanged_rows():
    seq_metrics, _, _ = run_system(1)
    system = deployed_system()
    reset_columnar_stats()
    with pinned_cells("process"):
        metrics = system.run(DURATION, max_items_per_source=MAX_ITEMS, workers=2)
    assert system.last_simulator.mode_used == "process"
    assert system.last_simulator.exchange_items > 0
    assert metrics == seq_metrics
    stats = columnar_stats()
    assert stats["rows_decoded"] == 0 and stats["rows_encoded"] == 0


class _EverySeventhIrregular:
    """Drops the first child of every 7th item: each source batch then
    fails shape validation and lands in a row store."""

    def __init__(self, inner):
        self.inner = inner
        self.count = 0

    @property
    def clock(self):
        return self.inner.clock

    def next_item(self):
        item = self.inner.next_item()
        self.count += 1
        if self.count % 7 == 0:
            item = Element(item.tag, None, item.children[1:])
        return item


@pytest.mark.parametrize("mode", ["inline", "process"])
def test_irregular_stream_ships_trees_and_stays_identical(mode):
    def run(workers):
        system = deployed_system()
        generators = {
            name: _EverySeventhIrregular(source.generator_factory())
            for name, source in system.sources.items()
        }
        if workers == 1:
            simulator = StreamSimulator(
                system.net, system.deployment, generators, DURATION,
                max_items_per_source=MAX_ITEMS,
            )
        else:
            simulator = direct_simulator(system, generators)
        with pinned_cells(mode):
            return simulator.run(), simulator

    before = columnar_stats()["batches_bypassed_irregular"]
    seq_metrics, _ = run(1)
    assert columnar_stats()["batches_bypassed_irregular"] > before
    par_metrics, simulator = run(2)
    assert simulator.mode_used == mode and simulator.exchange_items > 0
    assert par_metrics == seq_metrics


# ----------------------------------------------------------------------
# Real worker failure: bounded, structured, nothing left behind
# ----------------------------------------------------------------------
class _Saboteur:
    """A generator that misbehaves after ``after`` items — in a worker
    process only, never in the process running the tests."""

    def __init__(self, inner, after, act):
        self.inner = inner
        self.after = after
        self.act = act
        self.count = 0
        self.parent = os.getpid()

    @property
    def clock(self):
        return self.inner.clock

    def next_item(self):
        self.count += 1
        if self.count == self.after and os.getpid() != self.parent:
            self.act()
        return self.inner.next_item()


def sabotaged_run(act, recorder):
    system = deployed_system()
    generators = {
        name: _Saboteur(source.generator_factory(), MAX_ITEMS // 2, act)
        for name, source in system.sources.items()
    }
    simulator = direct_simulator(system, generators, recorder=recorder)
    started = time.monotonic()
    with pinned_cells("process"), pytest.raises(ExecutionError) as info:
        simulator.run()
    elapsed = time.monotonic() - started
    errors = [e["fields"] for e in recorder.events if e["name"] == "cell.error"]
    return info.value, errors, elapsed


def test_killed_worker_fails_fast_with_one_structured_event():
    error, events, elapsed = sabotaged_run(
        lambda: os.kill(os.getpid(), signal.SIGKILL), Recorder()
    )
    assert "worker died" in str(error)
    assert [event["exc_type"] for event in events] == ["WorkerDied"]
    assert events[0]["shard"] in (0, 1)
    assert elapsed < 10.0
    assert multiprocessing.active_children() == []


def test_hung_worker_fails_at_the_deadline_and_siblings_are_reaped(monkeypatch):
    monkeypatch.setattr(parallel, "BARRIER_DEADLINE_S", 0.5)
    error, events, elapsed = sabotaged_run(lambda: time.sleep(60.0), Recorder())
    assert "worker hung" in str(error)
    assert [event["exc_type"] for event in events] == ["WorkerHung"]
    assert 0.5 <= elapsed < 10.0
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("workers", [0, -3])
def test_run_rejects_a_worker_count_below_one(workers):
    """Like ``ShardedSimulator(workers=0)``: not a silent sequential run."""
    system = deployed_system()
    with pytest.raises(ExecutionError, match="workers must be >= 1"):
        system.run(DURATION, max_items_per_source=MAX_ITEMS, workers=workers)
