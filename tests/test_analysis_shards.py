"""The S5xx shard certifier: effect lattice, partition, certificates."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction

from tests.conftest import PAPER_QUERIES, make_system
from repro.analysis import (
    KEYED_STATE,
    ORDER_SENSITIVE,
    STATELESS,
    AnalysisReport,
    certify_shards,
    operator_effect,
    stream_effect,
)
from repro.analysis.preflight import build_churned_system, certify_system
from repro.network.topology import Network
from repro.predicates import PredicateGraph
from repro.properties import (
    AggregationSpec,
    ProjectionSpec,
    RestructureSpec,
    SelectionSpec,
    UdfSpec,
    WindowSpec,
)
from repro.sharing import StreamGlobe
from repro.sharing.plan import InstalledStream
from repro.workload.photons import PhotonGenerator, PhotonStreamConfig
from repro.workload.scenarios import run_scenario, scenario_churn, scenario_grid, scenario_one
from repro.xmlkit import Path

EN = Path("photons/photon/en")
DET_TIME = Path("photons/photon/det_time")

TWO_STREAM_QUERY = """
<pair>{ for $p in stream("left")/photons/photon
        for $q in stream("right")/photons/photon
        return <both> { $p/en } { $q/en } </both> }</pair>
"""


def _shard_plan(scenario):
    system = run_scenario(scenario, "stream-sharing", execute=False).system
    return certify_system(system)


def _aggregation(window):
    return AggregationSpec(
        function="avg",
        aggregated_path=EN,
        window=window,
        pre_selection=PredicateGraph(),
        result_filter=PredicateGraph(),
    )


# ----------------------------------------------------------------------
# The effect lattice
# ----------------------------------------------------------------------
def test_per_item_operators_are_stateless(catalog):
    assert operator_effect(SelectionSpec(PredicateGraph()), catalog, "photons") == STATELESS
    projection = ProjectionSpec(
        output_elements=frozenset({EN}), referenced_elements=frozenset({EN})
    )
    assert operator_effect(projection, catalog, "photons") == STATELESS
    assert operator_effect(RestructureSpec("Q1"), catalog, "photons") == STATELESS


def test_count_windows_are_keyed_state(catalog):
    window = WindowSpec("count", Fraction(10), Fraction(10))
    assert operator_effect(_aggregation(window), catalog, "photons") == KEYED_STATE


def test_certified_diff_window_is_keyed_state(catalog):
    # The catalog certifies det_time as nondecreasing, so the window's
    # reorder buffering is provably segmentation-independent.
    assert catalog.for_stream("photons").is_nondecreasing(DET_TIME)
    window = WindowSpec("diff", Fraction(20), Fraction(10), reference=DET_TIME)
    assert operator_effect(_aggregation(window), catalog, "photons") == KEYED_STATE


def test_uncertified_diff_window_is_order_sensitive(catalog):
    window = WindowSpec("diff", Fraction(20), Fraction(10), reference=DET_TIME)
    # No catalog: the reference ordering cannot be certified.
    assert operator_effect(_aggregation(window), None, "photons") == ORDER_SENSITIVE
    # Non-monotone reference (photon energies are random).
    jitter = WindowSpec("diff", Fraction(20), Fraction(10), reference=EN)
    assert operator_effect(_aggregation(jitter), catalog, "photons") == ORDER_SENSITIVE


def test_udf_is_order_sensitive(catalog):
    assert operator_effect(UdfSpec(name="calibrate"), catalog, "photons") == ORDER_SENSITIVE


@dataclass(frozen=True)
class _TeleportSpec:
    """An operator kind the certifier has never heard of."""

    kind: str = field(default="teleport", init=False)


def test_unknown_kind_reports_s501(catalog):
    assert operator_effect(_TeleportSpec(), catalog, "photons") is None
    system = make_system()
    parent = system.deployment.streams["photons"]
    stream = InstalledStream(
        stream_id="weird",
        content=parent.content,
        origin_node=parent.origin_node,
        route=parent.route,
        parent_id="photons",
        pipeline=(_TeleportSpec(),),
        query="QX",
    )
    report = AnalysisReport()
    assert stream_effect(stream, catalog, report) == ORDER_SENSITIVE
    (diag,) = report.diagnostics
    assert diag.code == "S501" and diag.severity == "error"
    # An unclassifiable plan must never certify.
    system.deployment.install_stream(stream)
    plan, shard_report = certify_shards(system.deployment, system.catalog)
    assert "S501" in shard_report.codes()
    assert not plan.certified
    assert not json.loads(plan.to_json())["certified"]


# ----------------------------------------------------------------------
# The certified partition
# ----------------------------------------------------------------------
def test_grid_scenario_certifies_multiple_shards():
    scenario = scenario_grid(rows=3, cols=3, query_count=24)
    plan, report = _shard_plan(scenario)
    assert report.ok, report.render()
    assert plan.certified
    assert plan.shard_count >= 2  # the acceptance bar: real parallelism
    # The shards partition the live super-peers exactly.
    seen = [node for shard in plan.shards for node in shard.nodes]
    assert sorted(seen) == sorted(set(seen))
    for shard in plan.shards:
        assert plan.shard_of(shard.nodes[0]) == shard.shard_id
    assert plan.shard_of("no-such-node") is None


def test_paper_scenario_partition_is_deterministic():
    scenario = scenario_one()
    first, _ = _shard_plan(scenario)
    second, _ = _shard_plan(scenario_one())
    assert first.to_json() == second.to_json()


def test_shard_plan_json_schema():
    plan, _ = _shard_plan(scenario_grid(rows=3, cols=3, query_count=24))
    data = json.loads(plan.to_json())
    assert data["version"] == 1
    assert data["network_version"] == plan.network_version
    assert set(data) == {
        "version",
        "network_version",
        "certified",
        "shards",
        "cut_edges",
        "blocked_edges",
        "epoch_lag",
    }
    for shard in data["shards"]:
        assert set(shard) == {"id", "nodes", "streams", "queries"}
    for edge in data["cut_edges"]:
        assert set(edge) == {"link", "from_shard", "to_shard", "streams", "effect"}
        assert edge["effect"] in (STATELESS, KEYED_STATE, ORDER_SENSITIVE)
        assert edge["from_shard"] != edge["to_shard"]
    # Every query has a lag; no cut on a path means lag 0.
    assert set(data["epoch_lag"]) == set(q for s in data["shards"] for q in s["queries"])
    assert all(lag >= 0 for lag in data["epoch_lag"].values())


def test_cut_edges_connect_distinct_shards():
    plan, _ = _shard_plan(scenario_grid(rows=3, cols=3, query_count=24))
    assert plan.cut_edges  # a 3×3 grid with local queries always cuts
    for edge in plan.cut_edges:
        assert plan.shard_of(edge.link[0]) == edge.from_shard
        assert plan.shard_of(edge.link[1]) == edge.to_shard
        assert edge.from_shard != edge.to_shard


# ----------------------------------------------------------------------
# S510 — order-sensitive consumers pin their feed path
# ----------------------------------------------------------------------
def test_s510_udf_pins_its_feed_path():
    system = make_system()
    system.register_query("Q1", PAPER_QUERIES["Q1"], "P1")
    delivered_id = system.deployment.queries["Q1"].delivered[0][1]
    route = system.deployment.streams[delivered_id].route
    assert len(route) >= 2  # the delivered stream crosses links
    # Tap the delivered stream at the far end of its route: the whole
    # multi-hop feed now ends in an order-sensitive (UDF) pipeline.
    system.install_derived_stream(
        "Q1:udf", delivered_id, [UdfSpec(name="calibrate")],
        target=route[-1], tap_node=route[-1],
    )
    plan, report = certify_shards(system.deployment, system.catalog)
    s510 = [d for d in report.diagnostics if d.code == "S510"]
    assert s510, report.render()
    assert all(d.severity == "warning" for d in s510)
    assert plan.certified  # blocked edges coarsen the plan, not fail it
    blocked = [e for e in plan.blocked_edges if e.code == "S510"]
    assert {e.link for e in blocked} == set(
        tuple(sorted(pair)) for pair in zip(route, route[1:])
    )
    # Blocked edges were honoured: both endpoints share a shard.
    for edge in blocked:
        assert plan.shard_of(edge.link[0]) == plan.shard_of(edge.link[1])


def test_stateless_pipelines_do_not_block():
    system = make_system()
    system.register_query("Q1", PAPER_QUERIES["Q1"], "P1")
    plan, report = certify_shards(system.deployment, system.catalog)
    assert report.ok and not report.diagnostics, report.render()
    assert plan.blocked_edges == ()


# ----------------------------------------------------------------------
# S511 — multi-input subscriptions need uniform epoch lag
# ----------------------------------------------------------------------
def _two_stream_system():
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
    return system


def test_s511_multi_input_subscription_pins_both_inputs():
    system = _two_stream_system()
    result = system.register_query("pair", TWO_STREAM_QUERY, "U")
    assert result.accepted and len(result.plan.inputs) == 2
    plan, report = certify_shards(system.deployment, system.catalog)
    s511 = [d for d in report.diagnostics if d.code == "S511"]
    assert s511, report.render()
    assert all(d.severity == "warning" for d in s511)
    assert plan.certified
    # The combiner pairs r-th items: everything collapses to one shard.
    assert plan.shard_count == 1
    assert plan.cut_edges == ()
    assert {e.code for e in plan.blocked_edges} == {"S511"}
    assert dict(plan.epoch_lag) == {"pair": 0}


def test_single_input_queries_cut_freely():
    system = _two_stream_system()
    single = '<r>{ for $p in stream("left")/photons/photon return $p/en }</r>'
    system.register_query("solo", single, "U")
    plan, report = certify_shards(system.deployment, system.catalog)
    assert "S511" not in report.codes()
    # The unused right source's island may split off.
    assert plan.shard_count >= 2


# ----------------------------------------------------------------------
# Certificates through churn and the system facade
# ----------------------------------------------------------------------
def test_certificates_revalidate_through_churn():
    reports = build_churned_system(
        scenario_churn(), "stream-sharing", passes=("shards",)
    )
    assert reports  # one report per fault event
    for report in reports:
        assert report.ok, report.render()


def test_churn_runs_every_requested_pass():
    reports = build_churned_system(
        scenario_churn(), "stream-sharing", passes=("plan", "flow", "shards")
    )
    for report in reports:
        assert report.ok, report.render()


def test_shard_plan_facade_caches_per_plan_state():
    system = make_system()
    system.register_query("Q1", PAPER_QUERIES["Q1"], "P1")
    plan = system.shard_plan()
    assert plan.network_version == system.net.version
    assert system.shard_plan() is plan  # cached: same certificate object
    system.register_query("Q2", PAPER_QUERIES["Q2"], "P2")
    fresh = system.shard_plan()
    assert fresh is not plan  # a plan mutation invalidates the cache
    assert system.shard_plan() is fresh


def test_shard_plan_follows_a_name_registered_again_elsewhere():
    """Names are reused, so the installed ids are not a cache key: the
    same subscription at another peer is another plan."""
    system = make_system()
    system.register_query("Q", PAPER_QUERIES["Q1"], "P1")
    stale = system.shard_plan()
    system.deregister_query("Q")
    system.register_query("Q", PAPER_QUERIES["Q1"], "P3")
    assert sorted(system.deployment.streams) == ["Q:photons", "photons"]
    fresh, _ = certify_system(system)
    assert fresh.to_dict() != stale.to_dict()
    assert system.shard_plan().to_dict() == fresh.to_dict()


def test_verify_flag_runs_the_certifier():
    # An unclassifiable operator must abort the registration pre-flight.
    import pytest

    from repro.analysis import InvariantViolation

    system = make_system(verify=True)
    system.register_query("Q1", PAPER_QUERIES["Q1"], "P1")
    parent = system.deployment.streams["photons"]
    system.deployment.install_stream(
        InstalledStream(
            stream_id="weird",
            content=parent.content,
            origin_node=parent.origin_node,
            route=parent.route,
            parent_id="photons",
            pipeline=(_TeleportSpec(),),
            query="Q1",
        )
    )
    with pytest.raises(InvariantViolation) as exc:
        system.register_query("Q2", PAPER_QUERIES["Q2"], "P2")
    assert "S501" in exc.value.report.codes()


# ----------------------------------------------------------------------
# Runtime partition (ShardPlan -> worker cells)
# ----------------------------------------------------------------------
def certified_plan():
    system = make_system()
    for name, text in PAPER_QUERIES.items():
        system.register_query(name, text, subscriber_peer=f"P{name[1]}")
    plan = system.shard_plan()
    assert plan.certified
    return plan, system.deployment


def test_partition_for_workers_is_deterministic():
    from repro.analysis import partition_for_workers

    plan, deployment = certified_plan()
    first = partition_for_workers(plan, deployment, 3)
    second = partition_for_workers(plan, deployment, 3)
    assert first.cells == second.cells
    assert first.node_cell == second.node_cell


def test_partition_is_independent_of_the_hash_seed():
    """The cut-aware refinement walks sets and dicts; its result must
    not depend on their iteration order (workers partition alike)."""
    import os
    import subprocess
    import sys

    script = (
        "from repro.analysis import partition_for_workers\n"
        "from repro.workload.scenarios import run_scenario, scenario_two\n"
        "system = run_scenario(scenario_two(query_count=40), 'stream-sharing', execute=False).system\n"
        "for workers in (2, 3):\n"
        "    print(partition_for_workers(system.shard_plan(), system.deployment, workers).cells)\n"
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


def test_refinement_cuts_handovers_within_the_lpt_load_guarantee():
    from repro.analysis import partition_for_workers
    from repro.analysis.shards import _handovers, shard_weights
    from repro.workload.scenarios import scenario_two

    system = run_scenario(scenario_two(), "stream-sharing", execute=False).system
    plan, deployment = system.shard_plan(), system.deployment
    weights = shard_weights(plan, deployment)
    partition = partition_for_workers(plan, deployment, 2)
    cell_of = {s: c for c, cell in enumerate(partition.cells) for s in cell}

    def crossing(place):
        return sum(
            count * len({place[s] for s in foreign} - {place[home]})
            for home, foreign, count in _handovers(plan, deployment)
        )

    # Plain LPT, recomputed here: the refinement's starting point.
    loads, lpt = [0, 0], {}
    for shard_id in sorted(weights, key=lambda s: (-weights[s], s)):
        target = loads.index(min(loads))
        loads[target] += weights[shard_id]
        lpt[shard_id] = target
    assert crossing(cell_of) < crossing(lpt)
    ideal = max(sum(weights.values()) / 2, max(weights.values()))
    heaviest = max(sum(weights[s] for s in cell) for cell in partition.cells)
    assert heaviest <= (4 / 3 - 1 / 6) * ideal
    assert partition.cell_count == 2


def test_partition_never_splits_a_certified_shard():
    from repro.analysis import partition_for_workers

    plan, deployment = certified_plan()
    for workers in (2, 3, 4, plan.shard_count, plan.shard_count + 5):
        partition = partition_for_workers(plan, deployment, workers)
        # Weight-0 shards coalesce, so the cap is an upper bound.
        assert 1 < partition.cell_count <= min(workers, plan.shard_count)
        for shard in plan.shards:
            holders = [
                cell_index
                for cell_index, shard_ids in enumerate(partition.cells)
                if shard.shard_id in shard_ids
            ]
            assert len(holders) == 1  # coarsening only, never splitting


def test_partition_balances_by_stream_weight():
    from repro.analysis import partition_for_workers
    from repro.analysis.shards import shard_weights

    plan, deployment = certified_plan()
    partition = partition_for_workers(plan, deployment, 2)
    weights = shard_weights(plan, deployment)
    loads = [
        sum(weights[shard_id] for shard_id in shard_ids)
        for shard_ids in partition.cells
    ]
    # LPT greedy: no cell may carry everything while another is empty.
    assert min(loads) > 0
    assert max(loads) <= sum(loads) - min(loads) or partition.cell_count == 1


def test_query_lags_never_exceed_certificate():
    from repro.analysis import partition_for_workers

    plan, deployment = certified_plan()
    certified = dict(plan.epoch_lag)
    for workers in (2, 4):
        partition = partition_for_workers(plan, deployment, workers)
        for query, lag in partition.query_lags(deployment).items():
            assert 0 <= lag <= certified[query]
