"""Property tests: reference-counted garbage collection vs a brute-force
oracle.

The tear-down collects what ``Deployment``'s reference counts say
nothing needs; ``live_stream_ids`` is the reference walk the analyses
read.  Both are checked here against an independently written
reachability oracle over random register / deregister / hand-installed
stream / sweep / fault sequences, widening included (it moves a
delivery to a restoring stream).
"""

from types import SimpleNamespace

from hypothesis import given, settings
from hypothesis import strategies as st

import repro.sharing.deregister as deregister_module
from tests.conftest import PAPER_QUERIES, assert_ledger_is_the_walk, make_system
from tests.test_sharing_widening import NARROW_QUERY
from repro.faults import SuperPeerCrash, SuperPeerRejoin
from repro.network.topology import TopologyError
from repro.obs.drift import DriftAlert
from repro.properties import UdfSpec
from repro.sharing.deregister import live_stream_ids, tear_down
from repro.sharing.planner import PlanningError
from repro.sharing.rebalance import Rebalancer

QUERY_NAMES = tuple(PAPER_QUERIES)
SUBSCRIBERS = {"Q1": "P1", "Q2": "P2", "Q3": "P3", "Q4": "P4"}
#: Texts a step may register: the paper's four, plus a narrow selection
#: that the paper's Q1 widens when it is subscribed after it at P2 (the
#: ``widen`` step).
TEXTS = dict(PAPER_QUERIES, narrow=NARROW_QUERY)
NAMES = ("A", "B", "C")


def oracle_live_ids(deployment):
    """Brute force: originals, plus every stream some delivery can
    reach by walking parent pointers."""

    def ancestors(stream_id):
        chain = []
        while stream_id is not None:
            chain.append(stream_id)
            stream = deployment.streams.get(stream_id)
            stream_id = stream.parent_id if stream is not None else None
        return chain

    live = {
        stream.stream_id
        for stream in deployment.streams.values()
        if stream.is_original
    }
    for record in deployment.queries.values():
        for _, delivered_id in record.delivered:
            live.update(ancestors(delivered_id))
    return live


def oracle_dead_ids(deployment, without=()):
    """What a tear-down of the queries ``without`` must remove."""
    queries = {
        name: record
        for name, record in deployment.queries.items()
        if name not in without
    }
    view = SimpleNamespace(streams=deployment.streams, queries=queries)
    return set(deployment.streams) - oracle_live_ids(view)


def oracle_unreferenced(deployment):
    """Derived streams that no delivery names and no stream derives from."""
    delivered = {
        stream_id
        for record in deployment.queries.values()
        for _, stream_id in record.delivered
    }
    parents = {stream.parent_id for stream in deployment.streams.values()}
    return {
        stream.stream_id
        for stream in deployment.streams.values()
        if not stream.is_original
        and stream.stream_id not in delivered
        and stream.stream_id not in parents
    }


@settings(max_examples=20, deadline=None)
@given(
    register=st.permutations(QUERY_NAMES),
    keep=st.integers(min_value=1, max_value=len(QUERY_NAMES)),
    deregister=st.sets(st.sampled_from(QUERY_NAMES)),
    crash=st.sampled_from([None, "SP5", "SP6", "SP7"]),
    rejoin=st.booleans(),
)
def test_live_set_matches_oracle(register, keep, deregister, crash, rejoin):
    system = make_system()
    for name in register[:keep]:
        system.register_query(name, PAPER_QUERIES[name], SUBSCRIBERS[name])
    for name in deregister:
        if name in system.deployment.queries:
            system.deregister_query(name)
    if crash is not None:
        system.apply_fault(SuperPeerCrash(5.0, crash))
        if rejoin:
            system.apply_fault(SuperPeerRejoin(15.0, crash))

    deployment = system.deployment
    live = live_stream_ids(deployment)
    assert live == oracle_live_ids(deployment)
    # Garbage collection ran after every mutation above, so nothing
    # dead may remain installed.
    assert set(deployment.streams) == live


_STEPS = st.lists(
    st.one_of(
        st.tuples(
            st.just("register"),
            st.sampled_from(NAMES),
            st.sampled_from(sorted(TEXTS)),
            st.sampled_from(sorted(SUBSCRIBERS.values())),
        ),
        st.tuples(st.just("widen"), st.permutations(NAMES)),
        st.tuples(st.just("deregister"), st.sampled_from(NAMES)),
        st.tuples(st.just("udf"), st.integers(min_value=0, max_value=7)),
        st.tuples(st.just("sweep")),
        st.tuples(st.just("crash"), st.sampled_from(["SP5", "SP6", "SP7"])),
        st.tuples(st.just("rejoin")),
    ),
    max_size=10,
)


@settings(max_examples=25, deadline=None)
@given(steps=_STEPS)
def test_sweep_removes_exactly_the_oracles_dead_set(steps):
    """After every step the counts name exactly the unreferenced derived
    streams, and every tear-down removes exactly what the oracle calls
    dead once its queries are gone — a hand-installed stream lingers
    until one sweeps it."""
    system = make_system("stream-sharing", enable_widening=True)
    deployment = system.deployment
    down, clock, udfs = [], 0.0, 0

    def register(name, text, subscriber):
        if name not in deployment.queries and name not in system.parked:
            try:
                system.register_query(name, TEXTS[text], subscriber)
            except (PlanningError, TopologyError):
                pass  # the subscriber or the source is cut off

    for step in steps:
        kind, swept = step[0], False
        if kind == "register":
            register(*step[1:])
        elif kind == "widen":
            register(step[1][0], "narrow", "P2")
            register(step[1][1], "Q1", "P2")
        elif kind == "deregister" and step[1] in deployment.queries:
            dead = oracle_dead_ids(deployment, without=(step[1],))
            assert system.deregister_query(step[1]) == sorted(dead)
            swept = True
        elif kind == "udf":
            parent = sorted(deployment.streams)[step[1] % len(deployment.streams)]
            udfs += 1
            try:
                system.install_derived_stream(
                    f"udf{udfs}", parent, [UdfSpec("scale", ("2.0",))], target="P3"
                )
            except TopologyError:
                continue  # no route to the target
            assert f"udf{udfs}" in oracle_dead_ids(deployment)
        elif kind == "sweep":
            dead = oracle_dead_ids(deployment)
            _, removed = tear_down(system.planner, deployment, [])
            assert removed == sorted(dead)
            swept = True
        elif kind == "crash" and step[1] not in down:
            clock += 1.0
            down.append(step[1])
            system.apply_fault(SuperPeerCrash(clock, step[1]))
            swept = True
        elif kind == "rejoin" and down:
            clock += 1.0
            system.apply_fault(SuperPeerRejoin(clock, down.pop(0)))
            swept = True
        assert deployment.unreferenced == oracle_unreferenced(deployment)
        if swept:
            # Every tear-down collects everything dead, not only what
            # its own queries held.
            assert set(deployment.streams) == oracle_live_ids(deployment)
    assert live_stream_ids(deployment) == oracle_live_ids(deployment)
    assert_ledger_is_the_walk(system)


def test_tear_down_never_walks_the_deployment(monkeypatch):
    """Deregistration, plan repair and rebalancing all tear down through
    the counts: with the reference walk made to fail they still pass,
    and leave nothing dead behind."""

    def walk(deployment):
        raise AssertionError("tear_down walked the whole deployment")

    system = make_system()
    for name in QUERY_NAMES:
        system.register_query(name, PAPER_QUERIES[name], SUBSCRIBERS[name])
    system.install_derived_stream(
        "photons#udf", "photons", [UdfSpec("scale", ("2.0",))], target="P2"
    )
    monkeypatch.setattr(deregister_module, "live_stream_ids", walk)

    assert "photons#udf" in system.deregister_query("Q4")
    report = system.apply_fault(SuperPeerCrash(5.0, "SP5"))
    assert report.torn_down_queries
    system.apply_fault(SuperPeerRejoin(15.0, "SP5"))
    migration = Rebalancer(system).migrate(DriftAlert(0, 0.0, (("SP4", 99.0),)))
    assert migration is not None and migration.moved_queries

    monkeypatch.undo()
    assert set(system.deployment.streams) == live_stream_ids(system.deployment)
    assert_ledger_is_the_walk(system)
