"""Integration tests for Algorithm 1 and the strategy registrars.

These tests assert the *decisions* of the paper's running example
(Section 1, Figure 2): Query 1 pushed to the source super-peer, Query 2
answered from Query 1's stream, Query 4 answered from Query 3's
aggregates via re-aggregation.
"""

from collections import deque

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tests.conftest import PAPER_QUERIES, make_system
from repro.faults import LinkFailure, SuperPeerCrash
from repro.matching import match_stream_properties
from repro.network.topology import example_topology
from repro.predicates import PredicateGraph, UnsatisfiableError
from repro.properties import extract_properties
from repro.sharing.planner import Planner, PlanningError
from repro.sharing.index import SubscriptionProbe
from repro.sharing.subscribe import FLOOR_MARGIN, Subscriber
from repro.workload.scenarios import (
    run_scenario,
    scenario_churn_hotspots,
    scenario_grid,
    scenario_one,
)
from repro.workload.templates import QueryTemplateGenerator
from repro.wxquery import WXQueryError, parse_query


class TestStreamSharingDecisions:
    def test_q1_pushed_into_network(self):
        """'its execution can be pushed into the network and computed at
        SP4 instead of SP1' (Section 1)."""
        system = make_system("stream-sharing")
        result = system.register_query("Q1", PAPER_QUERIES["Q1"], "P1")
        plan = result.plan.inputs[0]
        assert plan.reused_id == "photons"
        assert plan.placement_node == "SP4"
        assert plan.delivered.route == ("SP4", "SP5", "SP1")

    def test_q2_reuses_q1_stream(self):
        """'it can reuse the stream constituting the answer for Query 1
        ... because the result of Query 2 is completely contained in the
        answer for Query 1'."""
        system = make_system("stream-sharing")
        system.register_query("Q1", PAPER_QUERIES["Q1"], "P1")
        result = system.register_query("Q2", PAPER_QUERIES["Q2"], "P2")
        plan = result.plan.inputs[0]
        assert plan.reused_id == "Q1:photons"
        assert {s.kind for s in plan.delivered.pipeline} <= {"selection", "projection"}

    def test_q4_reuses_q3_aggregates(self):
        """Figure 5: Q4's coarser windows rebuilt from Q3's aggregates."""
        system = make_system("stream-sharing")
        system.register_query("Q3", PAPER_QUERIES["Q3"], "P3")
        result = system.register_query("Q4", PAPER_QUERIES["Q4"], "P4")
        plan = result.plan.inputs[0]
        assert plan.reused_id == "Q3:photons"
        assert [s.kind for s in plan.delivered.pipeline] == ["reaggregation"]

    def test_q3_does_not_reuse_q4(self):
        """The reverse direction is not shareable (finer windows and a
        filtered aggregate): Q3 must fall back to the original stream."""
        system = make_system("stream-sharing")
        system.register_query("Q4", PAPER_QUERIES["Q4"], "P4")
        result = system.register_query("Q3", PAPER_QUERIES["Q3"], "P3")
        assert result.plan.inputs[0].reused_id == "photons"

    def test_identical_query_fully_reused(self):
        system = make_system("stream-sharing")
        system.register_query("Q1", PAPER_QUERIES["Q1"], "P1")
        result = system.register_query("Q1b", PAPER_QUERIES["Q1"], "P2")
        plan = result.plan.inputs[0]
        assert plan.reused_id == "Q1:photons"
        assert plan.delivered.pipeline == ()

    def test_search_telemetry_populated(self):
        system = make_system("stream-sharing")
        system.register_query("Q1", PAPER_QUERIES["Q1"], "P1")
        result = system.register_query("Q2", PAPER_QUERIES["Q2"], "P2")
        assert result.plan.visited_nodes >= 1
        assert result.plan.candidate_matches >= 1

    def test_unknown_stream_rejected(self):
        system = make_system("stream-sharing")
        with pytest.raises(PlanningError):
            system.register_query(
                "bad",
                '<r>{ for $p in stream("nonexistent")/a/b return $p }</r>',
                "P1",
            )

    def test_registration_time_reported(self):
        system = make_system("stream-sharing")
        result = system.register_query("Q1", PAPER_QUERIES["Q1"], "P1")
        assert result.registration_ms > 0


class TestBaselineStrategies:
    def test_data_shipping_evaluates_at_subscriber(self):
        system = make_system("data-shipping")
        result = system.register_query("Q1", PAPER_QUERIES["Q1"], "P1")
        plan = result.plan.inputs[0]
        assert plan.placement_node == "SP1"
        assert plan.relay is not None
        assert plan.relay.content.is_raw

    def test_query_shipping_evaluates_at_source(self):
        system = make_system("query-shipping")
        result = system.register_query("Q1", PAPER_QUERIES["Q1"], "P1")
        plan = result.plan.inputs[0]
        assert plan.placement_node == "SP4"
        assert plan.relay is None

    def test_baselines_never_share(self):
        for strategy in ("data-shipping", "query-shipping"):
            system = make_system(strategy)
            system.register_query("Q1", PAPER_QUERIES["Q1"], "P1")
            result = system.register_query("Q1b", PAPER_QUERIES["Q1"], "P2")
            assert result.plan.inputs[0].reused_id == "photons"

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ValueError):
            make_system("carrier-pigeon")


class TestDfsVariant:
    def test_dfs_finds_valid_plans(self):
        system = make_system("stream-sharing", search_order="dfs")
        system.register_query("Q1", PAPER_QUERIES["Q1"], "P1")
        result = system.register_query("Q2", PAPER_QUERIES["Q2"], "P2")
        assert result.accepted
        assert result.plan.inputs[0].reused_id in ("photons", "Q1:photons")

    def test_invalid_order_rejected(self):
        with pytest.raises(ValueError):
            make_system("stream-sharing", search_order="sideways")


class TestAdmissionControl:
    def test_rejection_under_tight_bandwidth(self):
        from repro.network.topology import example_topology
        from repro.sharing import StreamGlobe
        from repro.workload.photons import PhotonGenerator, PhotonStreamConfig

        # 100 kbit/s links cannot carry the raw 100-items/s XML stream.
        net = example_topology().scaled(link_bandwidth=100_000.0)
        config = PhotonStreamConfig(seed=1, frequency=100.0)
        system = StreamGlobe(net, strategy="data-shipping", admission_control=True)
        system.register_stream(
            "photons", "photons/photon", lambda: PhotonGenerator(config),
            frequency=100.0, source_peer="P0",
        )
        result = system.register_query("Q1", PAPER_QUERIES["Q1"], "P1")
        assert not result.accepted
        assert result.rejection_reason is not None
        assert system.rejected_queries() == ["Q1"]

    def test_rejected_query_leaves_no_streams(self):
        from repro.network.topology import example_topology
        from repro.sharing import StreamGlobe
        from repro.workload.photons import PhotonGenerator, PhotonStreamConfig

        net = example_topology().scaled(link_bandwidth=100_000.0)
        config = PhotonStreamConfig(seed=1, frequency=100.0)
        system = StreamGlobe(net, strategy="data-shipping", admission_control=True)
        system.register_stream(
            "photons", "photons/photon", lambda: PhotonGenerator(config),
            frequency=100.0, source_peer="P0",
        )
        system.register_query("Q1", PAPER_QUERIES["Q1"], "P1")
        assert list(system.deployment.streams) == ["photons"]
        assert system.deployment.queries == {}


# ----------------------------------------------------------------------
# The cost floor (branch and bound over matched candidates)
# ----------------------------------------------------------------------
_POOL = [g.text for g in QueryTemplateGenerator(seed=7).generate(10)]
_POOL += list(PAPER_QUERIES.values())

SUBSCRIBERS = ("P1", "P2", "P3", "P4")

#: Churn the example topology survives connected; each leaves a removed
#: peer or link in the topology's stash.
_FAULTS = (
    None,
    SuperPeerCrash(5.0, "SP5"),
    SuperPeerCrash(5.0, "SP7"),
    LinkFailure(5.0, "SP4", "SP5"),
    LinkFailure(5.0, "SP6", "SP7"),
)


#: Generated deployments: up to eight registrations over peers and
#: links scaled down until costs carry overload penalties, then churn;
#: ``probe`` adds one more subscription to plan, ``subscriber`` where.
DEPLOYMENTS = dict(
    picks=st.lists(st.integers(0, len(_POOL) - 1), min_size=1, max_size=8),
    capacity=st.sampled_from([1.0, 0.05, 0.002]),
    bandwidth=st.sampled_from([None, 1e6, 1e5]),
    fault=st.sampled_from(_FAULTS),
    probe=st.integers(0, len(_POOL) - 1),
    subscriber=st.sampled_from(["SP0", "SP1", "SP3", "SP4", "SP6"]),
)
_FIRST_DEPLOYMENT = dict(
    picks=[0], capacity=1.0, bandwidth=None, fault=None, probe=0, subscriber="SP1"
)


def _matched_candidates(picks, capacity, bandwidth, fault, probe):
    """The generated deployment's planner and deployment, and every
    ``(subscription, node, candidate)`` whose candidate matches."""
    system = make_system(net=example_topology().scaled(capacity, bandwidth))
    for i, pick in enumerate(picks):
        system.register_query(f"W{i:02d}", _POOL[pick], SUBSCRIBERS[i % len(SUBSCRIBERS)])
    if fault is not None:
        system.apply_fault(fault)
    planner, deployment = system.planner, system.deployment
    matched = []
    texts = sorted({_POOL[pick] for pick in picks} | {_POOL[probe]})
    for text in texts:
        for subscription in extract_properties(parse_query(text), "probe").inputs:
            for node in system.net.super_peer_names():
                for candidate in deployment.streams_at(node):
                    if match_stream_properties(candidate.content, subscription):
                        matched.append((subscription, node, candidate))
    return planner, deployment, matched


@settings(max_examples=30, deadline=None)
@given(**DEPLOYMENTS)
@example(**_FIRST_DEPLOYMENT)
def test_cost_floor_bounds_every_variant(picks, capacity, bandwidth, fault, probe, subscriber):
    """``cost_floor`` never exceeds the cost of a placement variant of
    any matched candidate, whatever the usage, penalties and churn: the
    soundness the search's prune relies on."""
    planner, deployment, matched = _matched_candidates(picks, capacity, bandwidth, fault, probe)
    for subscription, node, candidate in matched:
        floor = planner.cost_floor(candidate.content, node, subscription, subscriber)
        costs = [
            variant.cost
            for variant in planner.plans_for_candidate(
                deployment, candidate, node, subscription, "probe", subscriber
            )
        ]
        assert floor >= 0.0
        assert min(costs) >= floor * (1.0 - FLOOR_MARGIN), (
            candidate.stream_id, node, floor, costs,
        )


@settings(max_examples=30, deadline=None)
@given(**DEPLOYMENTS)
@example(**_FIRST_DEPLOYMENT)
def test_pricing_equals_building(picks, capacity, bandwidth, fault, probe, subscriber):
    """A priced variant is what building it gives: the same cost, as a
    float, and the same effects, in the same key order — the walk over
    a variant's facts is the walk over the streams it installs."""
    planner, deployment, matched = _matched_candidates(picks, capacity, bandwidth, fault, probe)
    for subscription, node, candidate in matched:
        priced = planner.price_variants(deployment, candidate, node, subscription, subscriber)
        built = planner.plans_for_candidate(
            deployment, candidate, node, subscription, "probe", subscriber
        )
        assert [(v.tap_node, v.placement_node) for v in priced] == [
            (p.tap_node, p.placement_node) for p in built
        ]
        for variant, plan in zip(priced, built):
            assert variant.cost == plan.cost, (candidate.stream_id, node)
            assert list(variant.effects.link_bits.items()) == list(
                plan.effects.link_bits.items()
            )
            assert list(variant.effects.peer_work.items()) == list(
                plan.effects.peer_work.items()
            )


def _decisions(results):
    """Everything a registration decided, floats by ``repr``."""
    return [
        (
            result.query,
            result.accepted,
            repr(result.registration_ms),
            [
                (
                    p.input_stream,
                    p.reused_id,
                    p.tap_node,
                    p.placement_node,
                    repr(p.cost),
                    repr(p.initial_cost),
                    [(link.ends, repr(bits)) for link, bits in p.effects.link_bits.items()],
                    [(peer, repr(work)) for peer, work in p.effects.peer_work.items()],
                    [stream.stream_id for stream in p.new_streams()],
                )
                for p in result.plan.inputs
            ],
        )
        for result in results
    ]


def _registered(scenario, monkeypatch, *patches):
    """Register ``scenario`` (then apply its faults, collecting what plan
    repair re-registered) with every ``(owner, name, value)`` of
    ``patches`` in place."""
    with monkeypatch.context() as patch:
        for owner, name, value in patches:
            patch.setattr(owner, name, value)
        run = run_scenario(scenario, "stream-sharing", execute=False)
        system = run.system
        results = list(run.registrations)
        for event in scenario.faults.events() if scenario.faults else ():
            results += system.apply_fault(event).reregistered
    ledger = system.deployment.usage
    facts = (
        {
            sid: (s.content, s.origin_node, s.route, s.parent_id, s.pipeline)
            for sid, s in system.deployment.streams.items()
        },
        sorted((k, repr(v)) for k, v in ledger._peer_work.items()),
        sorted((k, repr(v)) for k, v in ledger._link_bits.items()),
    )
    return _decisions(results), facts, system.planner


#: The floor at 0: the search prunes nothing.
NO_FLOOR = (Planner, "cost_floor", lambda self, *args: 0.0)

SEARCH_SCENARIOS = pytest.mark.parametrize(
    "scenario",
    [scenario_one, lambda: scenario_grid(3, 3, 250), scenario_churn_hotspots],
    ids=["scenario1", "grid-3x3-250", "churn-hotspots"],
)


@SEARCH_SCENARIOS
def test_bounded_search_decides_like_the_full_search(scenario, monkeypatch):
    """The prune is exact: with a floor of 0 every matched candidate is
    priced, and every decision, cost, effect and stream id is the same
    — after plan repair too."""
    decisions, facts, planner = _registered(scenario(), monkeypatch)
    full_decisions, full_facts, full = _registered(scenario(), monkeypatch, NO_FLOOR)
    assert decisions == full_decisions
    assert facts == full_facts
    assert planner.plans_bounded > 0 and full.plans_bounded == 0
    assert planner.plans_costed + planner.plans_bounded == full.plans_costed


def _build_every_variant(self, deployment, subscription_input, query_name, subscriber_node, plan):
    """The reference search: Algorithm 1 as it ran before variants were
    priced — every variant of every matched candidate the floor admits
    is built, and the strict-``<`` cheapest plan is kept (no widening)."""
    assert self.widening is None
    original = deployment.find_original(subscription_input.stream)

    def plans(candidate, node, placements=("tap", "target")):
        return self.planner.plans_for_candidate(
            deployment, candidate, node, subscription_input, query_name,
            subscriber_node, placements,
        )

    placement = "tap" if self.strategy == "query-shipping" else "target"
    (best,) = plans(original, original.origin_node, (placement,))
    if self.strategy != "stream-sharing":
        return best
    initial_cost = best.cost
    probe = None
    if self.use_index:
        subscription_input = self.planner.intern_content(subscription_input)
        probe = SubscriptionProbe.from_subscription(
            subscription_input, self.match_mode, self.match_memo, self.share_aggregates
        )
    marked, queue = set(), deque([original.origin_node])
    while queue:
        node = queue.popleft() if self.search_order == "bfs" else queue.pop()
        if node in marked:
            continue
        marked.add(node)
        plan.visited_nodes += 1
        matched_targets = set()
        if probe is not None:
            candidates, pruned = deployment.distinct_candidates_at(node, probe)
            plan.candidate_matches += pruned
        else:
            candidates = self._scan(deployment, node, subscription_input)
        for candidate, targets in candidates:
            if not self.share_aggregates and candidate.content.aggregation is not None:
                continue
            plan.candidate_matches += 1
            self.planner.candidates_matched += 1
            if not match_stream_properties(
                candidate.content, subscription_input, self.match_mode, self.match_memo
            ):
                continue
            matched_targets.update(targets)
            floor = self.planner.cost_floor(
                candidate.content, node, subscription_input, subscriber_node
            )
            if floor * (1.0 - FLOOR_MARGIN) >= best.cost:
                self.planner.plans_bounded += 1 if node == subscriber_node else 2
                continue
            for variant in plans(candidate, node):
                if variant.cost < best.cost:
                    best = variant
        for target in sorted(matched_targets):
            if target not in marked and target not in queue:
                queue.append(target)
    best.initial_cost = initial_cost
    return best


@SEARCH_SCENARIOS
def test_priced_search_decides_like_the_build_everything_search(scenario, monkeypatch):
    """Pricing variants and building only the winner decides exactly
    like building every variant: every decision, cost, effect, stream
    id and the count of variants costed — after plan repair too."""
    decisions, facts, planner = _registered(scenario(), monkeypatch)
    built_decisions, built_facts, built = _registered(
        scenario(), monkeypatch, (Subscriber, "_search_input", _build_every_variant)
    )
    assert decisions == built_decisions
    assert facts == built_facts
    assert planner.plans_costed == built.plans_costed
    assert planner.plans_bounded == built.plans_bounded


def test_only_the_winner_is_built(monkeypatch):
    """One plan is built per input stream registered: the winner."""
    builds = []
    build_plan = Planner.build_plan

    def counted(self, *args):
        builds.append(args)
        return build_plan(self, *args)

    monkeypatch.setattr(Planner, "build_plan", counted)
    run = run_scenario(scenario_one(), "stream-sharing", execute=False)
    inputs = [p for result in run.registrations for p in result.plan.inputs]
    assert len(builds) == len(inputs)
    assert run.system.planner.plans_costed > len(inputs)


def test_scenario_one_variants_examined_are_unchanged():
    """Variants costed plus variants bounded is what the search costed
    before it bounded anything (189 on scenario 1)."""
    planner = run_scenario(scenario_one(), "stream-sharing", execute=False).system.planner
    assert planner.plans_bounded > 0
    assert planner.plans_costed + planner.plans_bounded == 189


def test_a_second_registration_compares_no_equal_graphs(monkeypatch):
    """Selection graphs are interned: once scenario 1 is registered,
    registering its queries again never compares two distinct but
    equal predicate graphs edge by edge (unequal ones differ in their
    cached hashes)."""
    run = run_scenario(scenario_one(), "stream-sharing", execute=False)
    structural = []
    equal = PredicateGraph.__eq__

    def counted(self, other):
        if self is not other and isinstance(other, PredicateGraph):
            if hash(self) == hash(other):
                structural.append((self, other))
        return equal(self, other)

    monkeypatch.setattr(PredicateGraph, "__eq__", counted)
    for query in scenario_one().queries:
        run.system.register_query(f"again-{query.name}", query.text, query.subscriber_peer)
    assert structural == []


# ----------------------------------------------------------------------
# The selection prune
# ----------------------------------------------------------------------
def test_selection_pruned_candidate_is_charged_but_never_matched(monkeypatch):
    """Q1 cannot reuse Q2's narrower stream: the index prunes it on its
    selection, so it never reaches Algorithm 2, yet the latency model is
    charged for it like every other content whose signature can match."""
    from repro.sharing import subscribe
    from repro.sharing.plan import Deployment

    system = make_system("stream-sharing")
    system.register_query("Q2", PAPER_QUERIES["Q2"], "P2")
    narrow = system.deployment.streams[
        system.deployment.queries["Q2"].delivered[0][1]
    ].content
    deployment = system.deployment
    charged, matched = [], []

    def distinct_candidates_at(self, node, probe):
        ids = deployment.sharing_index.candidate_ids(node, probe)
        charged.append(len({deployment.streams[i].content for i in ids}))
        return lookup(self, node, probe)

    def spy(candidate, subscription, *args):
        matched.append(candidate)
        return match(candidate, subscription, *args)

    lookup, match = Deployment.distinct_candidates_at, subscribe.match_stream_properties
    monkeypatch.setattr(Deployment, "distinct_candidates_at", distinct_candidates_at)
    monkeypatch.setattr(subscribe, "match_stream_properties", spy)
    before = system.planner.candidates_matched
    result = system.register_query("Q1", PAPER_QUERIES["Q1"], "P1")

    wide = extract_properties(parse_query(PAPER_QUERIES["Q1"]), "Q1").single_input()
    assert not match(narrow, wide)
    assert narrow not in matched
    assert system.planner.candidates_matched - before == len(matched)
    assert result.plan.candidate_matches == sum(charged) > len(matched)


# ----------------------------------------------------------------------
# The analysis memo
# ----------------------------------------------------------------------
UNSATISFIABLE = """<r>{ for $p in stream("photons")/photons/photon
  where $p/en >= 2.0 and $p/en <= 1.0 return $p/en }</r>"""


class TestAnalysisMemo:
    def test_one_text_is_analysed_once(self):
        system = make_system("stream-sharing")
        system.register_query("Q1", PAPER_QUERIES["Q1"], "P1")
        system.register_query("Q1b", PAPER_QUERIES["Q1"], "P2")
        first, second = system.deployment.queries["Q1"], system.deployment.queries["Q1b"]
        assert first.analyzed is second.analyzed
        assert first.properties.inputs == second.properties.inputs
        assert (first.properties.name, second.properties.name) == ("Q1", "Q1b")
        stats = system.cache_stats()["analysis"]
        assert (stats["hits"], stats["misses"], stats["entries"]) == (1, 1, 1)

    def test_a_parsed_query_is_a_key_too(self):
        system = make_system("stream-sharing")
        system.register_queries(
            [(name, parse_query(PAPER_QUERIES["Q2"]), "P1") for name in ("A", "B")]
        )
        assert system.deployment.queries["A"].analyzed is system.deployment.queries["B"].analyzed

    @pytest.mark.parametrize(
        "text, error",
        [("<r>{ for $p in }</r>", WXQueryError), (UNSATISFIABLE, UnsatisfiableError)],
        ids=["parse", "unsatisfiable"],
    )
    def test_errors_are_raised_on_every_attempt(self, text, error):
        system = make_system("stream-sharing")
        for attempt in (1, 2, 3):
            with pytest.raises(error):
                system.register_query("X", text, "P1")
            assert system.analysis_misses == attempt
            assert system.cache_stats()["analysis"]["entries"] == 0
        assert system.deployment.queries == {}

    def test_the_memo_never_exceeds_its_bound(self, monkeypatch):
        monkeypatch.setattr("repro.sharing.system.ANALYSIS_MEMO_SIZE", 3)
        system = make_system("stream-sharing")
        texts = _POOL[:6]
        for i, text in enumerate(texts + texts[-2:]):
            system.register_query(f"W{i}", text, "P1")
            assert system.cache_stats()["analysis"]["entries"] <= 3
        # The two texts used last stayed in; the first ones were evicted.
        assert (system.analysis_hits, system.analysis_misses) == (2, 6)
        system.register_query("W-first", texts[0], "P1")
        assert system.analysis_misses == 7
