"""One differential state machine: how a run executes is invisible.

Twin systems are driven in lock-step through the control plane's whole
vocabulary — ``register`` (a name in use is re-registered under the
same name at another peer), ``deregister``, ``install_udf`` (a
hand-installed stream), and ``run``, inside which super-peers crash and
rejoin, links fail and the rebalancer migrates — and differ only in
*how* they execute a run:
over one cell or 2 / 4 inline cells, in source batches of another size,
into a live recorder or the null one.  After every step the reference
twin verifies clean (P1xx/T2xx/F4xx/S5xx; index and reference counts
P140–144), its cached shard certificate is the one a fresh
certification issues, its usage
ledger is the walk over what is installed, and every twin holds the
same deployment; after every run ``RunMetrics``, the captured
deliveries and the SLO counters agree on all twins, and the
partition-free part of the run log on the traced ones.  The kind of
input (regular, mixed-shape, row-store) is drawn per machine, so the
store behind the batch view is one more thing nothing may depend on.

This replaces replaying the whole suite under executor switches
(ROADMAP item 7a); ``tests/test_engine_pins.py`` anchors the same runs
to absolute records, and ``test_identity_process*`` in
``tests/test_engine_parallel.py`` cover forked cells.  Mutation-checked
(CHANGES.md, PR 21): a quiescent boundary left undrained, a proxy that
inherits its retired predecessor's count, and per-cell epochs reported
cumulatively each fail it within the CI profile's examples.
"""

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.analysis import certify_system, flow_system, verify_system
from repro.engine import DEFAULT_UDF_REGISTRY, clear_default_registry
from repro.engine.executor import SOURCE_BATCH, StreamSimulator
from repro.engine.parallel import ShardedSimulator
from repro.faults import (
    FaultSchedule,
    LinkFailure,
    SuperPeerCrash,
    SuperPeerRejoin,
)
from repro.network.topology import TopologyError, example_topology
from repro.obs.drift import DriftConfig
from repro.obs.recorder import NULL_RECORDER, Recorder
from repro.properties import UdfSpec
from repro.sharing import StreamGlobe
from repro.sharing.planner import PlanningError
from repro.sharing.rebalance import Rebalancer
from repro.workload.photons import PhotonGenerator, PhotonStreamConfig
from repro.workload.templates import QueryTemplateGenerator
from repro.xmlkit import Element, serialize

from .conftest import PAPER_QUERIES, assert_ledger_is_the_walk, pinned_cells
from .pins_executor import partition_free, run_log_projection, slo_counters

#: Subscription texts: the paper's four (selection, selection over a
#: shared stream, two window aggregates) plus template queries.
_POOL = list(PAPER_QUERIES.values())
_POOL += [g.text for g in QueryTemplateGenerator(seed=7).generate(6)]

#: Few names, so a deregistered name is soon registered again.
NAMES = ("A", "B", "C", "D")
SUBSCRIBERS = ("P1", "P2", "P3", "P4")
#: Super-peers a fault may take down (SP4 hosts the source).
CRASHABLE = ("SP0", "SP1", "SP5", "SP6", "SP7")
LINKS = (("SP4", "SP5"), ("SP6", "SP7"), ("SP5", "SP1"), ("SP0", "SP1"))
#: What a run may be put through, drawn as a list: ``rejoin`` brings
#: back the peer longest down.
CHURN = (
    *(("crash", peer) for peer in CRASHABLE),
    ("rejoin", None),
    *(("link", link) for link in LINKS),
)

#: A detector that alerts on the first sampled epoch with any load, so
#: a ``migrate`` step migrates mid-run.
EAGER_DRIFT = DriftConfig(
    cpu_threshold=0.5, clear_threshold=0.1, window=1, sustain=1, cooldown=2
)


def _double_energy(item: Element) -> List[Element]:
    clone = item.copy()
    node = clone.find(["en"])
    node.text = repr(float(node.text) * 2.0)
    return [clone]


class _Shaped:
    """A photon source whose batches land in a chosen store: ``mixed``
    drops ``coord/det`` from every 7th photon (a few interned shapes: a
    grouped store), ``rows`` pads each photon with one of eleven tags
    (too many shapes to group: a row store).  No query reads either."""

    def __init__(self, inner: PhotonGenerator, kind: str) -> None:
        self.inner = inner
        self.kind = kind
        self.count = 0

    @property
    def clock(self) -> float:
        return self.inner.clock

    def next_item(self) -> Element:
        item = self.inner.next_item()
        self.count += 1
        if self.kind == "mixed" and self.count % 7 == 0:
            coord = item.children[1]
            coord.children = coord.children[:1]
        elif self.kind == "rows":
            pad = Element(f"pad{self.count % 11}")
            item = Element(item.tag, None, (*item.children, pad))
        return item


def _source(kind: str):
    config = PhotonStreamConfig(seed=20060326, frequency=100.0)
    if kind == "regular":
        return lambda: PhotonGenerator(config)
    return lambda: _Shaped(PhotonGenerator(config), kind)


@dataclass
class Twin:
    """One system and how its runs execute."""

    system: StreamGlobe
    workers: int
    batch_size: int

    @property
    def traced(self) -> bool:
        return self.system.recorder.enabled

    def run(self, duration: float, faults: Optional[FaultSchedule], migrate: bool):
        """What ``StreamGlobe.run`` does, at this twin's batch size and
        always on inline cells; returns what a subscriber and an
        operator can see of the run."""
        system = self.system
        captured: Dict[str, List[str]] = {}
        common: Dict[str, Any] = dict(
            batch_size=self.batch_size,
            schedule=faults,
            repair=system.plan_repairer().repair if faults else None,
            capture=lambda name, item: captured.setdefault(name, []).append(
                serialize(item)
            ),
            recorder=system.recorder,
            rebalancer=(
                Rebalancer(system, config=EAGER_DRIFT, max_migrations=1)
                if migrate
                else None
            ),
        )
        generators = {
            name: source.generator_factory()
            for name, source in system.sources.items()
        }
        if self.workers == 1:
            simulator = StreamSimulator(
                system.net, system.deployment, generators, duration, **common
            )
        else:
            simulator = ShardedSimulator(
                system.net,
                system.deployment,
                generators,
                duration,
                plan=system.shard_plan(),
                workers=self.workers,
                replan=system.shard_plan,
                **common,
            )
        with pinned_cells("inline"):
            metrics = simulator.run()
        slos = [slo.to_dict() for slo in simulator.last_query_slos]
        return metrics, captured, slo_counters(slos)


def _deployment_facts(system: StreamGlobe):
    deployment = system.deployment
    return (
        {
            stream_id: (s.content, s.origin_node, s.route, s.parent_id, s.pipeline)
            for stream_id, s in deployment.streams.items()
        },
        {
            name: (record.subscriber_node, record.delivered)
            for name, record in deployment.queries.items()
        },
        sorted(system.net.super_peer_names()),
    )


class ExecutorIdentity(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        self.twins: List[Twin] = []
        self.down: List[str] = []
        self.cut: List[Tuple[str, str]] = []
        self.udfs = 0

    # ------------------------------------------------------------------
    @initialize(
        kind=st.sampled_from(["regular", "mixed", "rows"]),
        cells=st.sampled_from([(2, 4), (4, 2)]),
        batch_sizes=st.lists(
            st.sampled_from([5, 16, 64, 200]), min_size=2, max_size=2, unique=True
        ),
        paper=st.booleans(),
    )
    def build(self, kind, cells, batch_sizes, paper):
        def twin(workers, batch, traced):
            system = StreamGlobe(
                example_topology(),
                recorder=Recorder() if traced else NULL_RECORDER,
            )
            system.register_stream(
                "photons", "photons/photon", _source(kind), 100.0, "P0"
            )
            return Twin(system, workers, batch)

        #: The reference first: one cell, default batches, untraced.
        #: {one cell, several} x {untraced, traced}; the traced pair
        #: runs at two other batch sizes, which the partition-free part
        #: of their run logs must not tell apart either.
        self.twins = [
            twin(1, SOURCE_BATCH, False),
            twin(cells[0], SOURCE_BATCH, False),
            twin(1, batch_sizes[0], True),
            twin(cells[1], batch_sizes[1], True),
        ]
        if paper:
            # Figure 2: Q2 taps Q1's stream and Q4 re-aggregates Q3's,
            # so churn strikes streams that other streams depend on.
            for name, pick, peer in zip(NAMES, range(4), SUBSCRIBERS):
                self.register(name, pick, peer)

    def _each(self, act):
        """``act`` on every twin; all must fare alike.  A peer cut off
        by churn cannot be reached: every twin must say so, and leave
        nothing behind (the invariant checks)."""

        def outcome(system):
            try:
                return act(system)
            except (PlanningError, TopologyError) as error:
                return type(error)

        outcomes = [outcome(twin.system) for twin in self.twins]
        assert all(other == outcomes[0] for other in outcomes), outcomes
        return outcomes[0]

    # ------------------------------------------------------------------
    # Control plane
    # ------------------------------------------------------------------
    def _registered(self):
        """The names in use: installed, or parked by plan repair."""
        system = self.twins[0].system
        parked = [name for name, _ in system.plan_repairer().pending]
        return [*system.deployment.queries, *parked]

    @rule(
        name=st.sampled_from(NAMES),
        pick=st.integers(0, len(_POOL) - 1),
        peer=st.sampled_from(SUBSCRIBERS),
    )
    def register(self, name, pick, peer):
        """Register ``name``; a name in use is re-registered: taken
        down and registered again, with whatever text came up, at
        another peer — the same ids, a different plan."""
        if name in self._registered():
            system = self.twins[0].system
            record = system.deployment.queries.get(name)
            if record and record.subscriber_node == system.net.home_of(peer):
                peer = SUBSCRIBERS[SUBSCRIBERS.index(peer) - 1]
            self._each(lambda system: system.deregister_query(name))
        self._each(
            lambda system: system.register_query(name, _POOL[pick], peer).accepted
        )

    @precondition(lambda self: self._registered())
    @rule(data=st.data())
    def deregister(self, data):
        name = data.draw(st.sampled_from(sorted(self._registered())))
        self._each(lambda system: system.deregister_query(name))

    @precondition(lambda self: self.udfs < 3)
    @rule(peer=st.sampled_from(SUBSCRIBERS))
    def install_udf(self, peer):
        """A hand-installed stream no subscription owns: it runs and is
        billed until the next deregistration collects it."""
        self.udfs += 1
        stream_id = f"doubled{self.udfs}"
        self._each(
            lambda system: system.install_derived_stream(
                stream_id, "photons", [UdfSpec("double")], peer
            ).route
        )

    # ------------------------------------------------------------------
    # The run: churn and migration happen inside it
    # ------------------------------------------------------------------
    def _schedule(self, churn, duration):
        """The drawn events that apply to the topology as it will be,
        spread over the run.  At most two peers are down at a time."""
        events = []
        for kind, target in churn:
            if kind == "crash" and target not in self.down and len(self.down) < 2:
                self.down.append(target)
                events.append(lambda t, peer=target: SuperPeerCrash(t, peer))
            elif kind == "rejoin" and self.down:
                peer = self.down.pop(0)
                events.append(lambda t, peer=peer: SuperPeerRejoin(t, peer))
            elif (
                kind == "link"
                and target not in self.cut
                and not set(target) & set(self.down)
            ):
                self.cut.append(target)
                events.append(lambda t, link=target: LinkFailure(t, *link))
        step = duration / (len(events) + 1)
        return [make(step * (k + 1)) for k, make in enumerate(events)]

    @rule(
        duration=st.sampled_from([2.0, 3.0, 4.5]),
        churn=st.lists(st.sampled_from(CHURN), max_size=3),
        migrate=st.booleans(),
    )
    def run(self, duration, churn, migrate):
        events = self._schedule(churn, duration)
        outcomes = [
            twin.run(duration, FaultSchedule(events) if events else None, migrate)
            for twin in self.twins
        ]
        for twin, outcome in zip(self.twins, outcomes):
            for part, expected, observed in zip(
                ("metrics", "captures", "slo counters"), outcomes[0], outcome
            ):
                assert observed == expected, (part, twin.workers, twin.batch_size)
        logs = [
            partition_free(run_log_projection(twin.system.recorder))
            for twin in self.twins
            if twin.traced
        ]
        assert logs[1] == logs[0], "the traced twins' run logs differ"

    # ------------------------------------------------------------------
    @invariant()
    def twins_agree_and_verify_clean(self):
        if not self.twins:
            return
        facts = [_deployment_facts(twin.system) for twin in self.twins]
        assert all(other == facts[0] for other in facts)
        reference = self.twins[0].system
        report = verify_system(reference)
        report.merge(flow_system(reference))
        certificate, shard_report = certify_system(reference)
        report.merge(shard_report)
        assert report.ok, report.render()
        assert reference.shard_plan().to_dict() == certificate.to_dict()
        assert_ledger_is_the_walk(reference)


@pytest.fixture(autouse=True)
def _udf_registered():
    DEFAULT_UDF_REGISTRY.register("double", _double_energy)
    yield
    clear_default_registry()


ExecutorIdentity.TestCase.settings = settings(
    max_examples=30, stateful_step_count=12, deadline=None
)
TestExecutorIdentity = ExecutorIdentity.TestCase
