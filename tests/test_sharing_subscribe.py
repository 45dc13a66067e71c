"""Integration tests for Algorithm 1 and the strategy registrars.

These tests assert the *decisions* of the paper's running example
(Section 1, Figure 2): Query 1 pushed to the source super-peer, Query 2
answered from Query 1's stream, Query 4 answered from Query 3's
aggregates via re-aggregation.
"""

import math
from collections import deque

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tests.conftest import PAPER_QUERIES, make_system
from repro.costmodel import RATE_RULES, base_load
from repro.faults import LinkFailure, LinkRestore, SuperPeerCrash, SuperPeerRejoin
from repro.matching import match_stream_properties
from repro.network.topology import example_topology
from repro.predicates import PredicateGraph, UnsatisfiableError
from repro.properties import extract_properties
from repro.sharing.planner import Planner, PlanningError, derive_compensation, variant_count
from repro.sharing.explain import decision_record, explain_registration
from repro.sharing.index import SubscriptionProbe
from repro.sharing.subscribe import FLOOR_MARGIN, Subscriber
from repro.workload.scenarios import (
    run_scenario,
    scenario_churn_hotspots,
    scenario_grid,
    scenario_one,
    scenario_two,
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

    @pytest.mark.parametrize("strategy", ["stream-sharing", "data-shipping"])
    def test_invalid_match_mode_rejected(self, strategy):
        """An unknown ``match_mode`` is refused where the system is
        built, not deep inside Algorithm 3 (or never, for a strategy
        that matches nothing)."""
        with pytest.raises(ValueError, match="bogus"):
            make_system(strategy, match_mode="bogus")


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


#: The rejoin that undoes each fault of ``_FAULTS``.
_REJOINS = {
    SuperPeerCrash: lambda fault: SuperPeerRejoin(6.0, fault.peer),
    LinkFailure: lambda fault: LinkRestore(6.0, fault.a, fault.b),
}


def _matched_candidates(picks, capacity, bandwidth, fault, probe, rejoin=False):
    """The generated deployment's planner and deployment, and every
    ``(subscription, node, candidate)`` whose candidate matches
    (``rejoin``: after the fault is undone again)."""
    system = make_system(net=example_topology().scaled(capacity, bandwidth))
    for i, pick in enumerate(picks):
        system.register_query(f"W{i:02d}", _POOL[pick], SUBSCRIBERS[i % len(SUBSCRIBERS)])
    if fault is not None:
        system.apply_fault(fault)
        if rejoin:
            system.apply_fault(_REJOINS[type(fault)](fault))
    planner, deployment = system.planner, system.deployment
    matched = []
    texts = sorted({_POOL[pick] for pick in picks} | {_POOL[probe]})
    for text in texts:
        for subscription in extract_properties(parse_query(text), "probe").inputs:
            for node in system.net.super_peer_names():
                for candidate in deployment.streams.values():
                    if node not in candidate.route:
                        continue
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


def _walk_floor(planner, content, tap_node, subscription, subscriber_node):
    """``Planner.cost_floor`` as a walk over the route's hops: each
    placement variant's penalty-free cost — duplication at the tap, the
    compensation stages at the variant's placement node, the traffic
    and transfer work of what it sends along the route, restructuring
    at the subscriber — and the cheaper of the two.  The reference the
    route profile's sums are checked against."""
    reused = planner.stream_rate(content)
    delivered = planner.stream_rate(subscription)
    route = planner.routes.path(tap_node, subscriber_node)
    pipeline = derive_compensation(content, subscription)
    stats = planner.catalog.for_stream(subscription.stream)
    net = planner.net

    def share(node, kind, frequency, udf_name=None):
        peer = net.super_peer(node, include_removed=True)
        return base_load(kind, udf_name) * peer.pindex * frequency / peer.capacity

    gamma = planner.cost_model.gamma
    costs = []
    for placement, sent in ((tap_node, delivered), (subscriber_node, reused)):
        traffic = 0.0
        for a, b in zip(route, route[1:]):
            traffic += sent.bits_per_second / net.link(a, b, include_removed=True).bandwidth
        load = share(tap_node, "duplicate", reused.frequency)
        frequency = reused.frequency
        for index, spec in enumerate(pipeline):
            if index:
                before = pipeline[index - 1]
                frequency = RATE_RULES[before.kind].frequency(before, frequency, stats)
            udf_name = spec.name if spec.kind == "udf" else None
            load += share(placement, spec.kind, frequency, udf_name)
        for sender in route[:-1]:
            load += share(sender, "transfer", sent.frequency)
        load += share(subscriber_node, "restructure", delivered.frequency)
        costs.append(gamma * traffic + (1.0 - gamma) * load)
    return min(costs)


@settings(max_examples=30, deadline=None)
@given(**DEPLOYMENTS, rejoin=st.booleans())
@example(**_FIRST_DEPLOYMENT, rejoin=False)
@example(**dict(_FIRST_DEPLOYMENT, fault=_FAULTS[1]), rejoin=True)
def test_profile_floor_is_the_walk_floor(
    picks, capacity, bandwidth, fault, probe, subscriber, rejoin
):
    """The floor read from a route profile is the per-hop walk's floor
    up to the re-association of its sums (far inside ``FLOOR_MARGIN``),
    also after a crash or link failure and after the rejoin."""
    planner, _, matched = _matched_candidates(
        picks, capacity, bandwidth, fault, probe, rejoin
    )
    for subscription, node, candidate in matched:
        args = (candidate.content, node, subscription, subscriber)
        walked = _walk_floor(planner, *args)
        assert abs(planner.cost_floor(*args) - walked) <= walked * FLOOR_MARGIN / 100, (
            candidate.stream_id, node,
        )


@settings(max_examples=30, deadline=None)
@given(**DEPLOYMENTS)
@example(**_FIRST_DEPLOYMENT)
def test_an_unloaded_candidate_costs_its_floor(
    picks, capacity, bandwidth, fault, probe, subscriber
):
    """The floor is exact: when no placement variant of a matched
    candidate pays an overload penalty, the cheapest costs its floor
    (up to ``FLOOR_MARGIN``), so best-first pricing stops at about the
    winner."""
    planner, deployment, matched = _matched_candidates(picks, capacity, bandwidth, fault, probe)
    unloaded = 0
    for subscription, node, candidate in matched:
        plans = planner.plans_for_candidate(
            deployment, candidate, node, subscription, "probe", subscriber
        )
        if any(plan.overload_penalty for plan in plans):
            continue
        unloaded += 1
        floor = planner.cost_floor(candidate.content, node, subscription, subscriber)
        cost = min(plan.cost for plan in plans)
        assert abs(cost - floor) <= cost * FLOOR_MARGIN, (candidate.stream_id, node, floor, cost)
    if capacity == 1.0 and bandwidth is None:  # the unscaled topology overloads nothing
        assert unloaded


def test_scenario_one_pays_no_overload_penalty():
    """Every plan of scenario 1 fits the available capacity: each input
    record's ``overload_penalty`` is exactly 0.0, and the explanation
    names none."""
    run = run_scenario(scenario_one(), "stream-sharing", execute=False)
    deployment = run.system.deployment
    for result in run.registrations:
        record = decision_record(result, deployment)
        assert [entry["overload_penalty"] for entry in record["inputs"]] == [0.0]
        assert "overload penalty" not in explain_registration(result, deployment)


def test_an_overloaded_plan_reports_its_penalty():
    """On the example topology scaled to capacity 0.002, the first
    pooled query's plan overloads its peers: the decision record says
    by how much its cost exceeds the utilisation sum, and the
    explanation prints it."""
    system = make_system(net=example_topology().scaled(0.002, None))
    result = system.register_query("W00", _POOL[0], SUBSCRIBERS[0])
    (input_plan,) = result.plan.inputs
    record = decision_record(result, system.deployment)
    utilisation = system.planner.cost_model.utilisation_cost(input_plan.effects)
    assert record["inputs"][0]["overload_penalty"] == input_plan.cost - utilisation > 0.0
    assert "of which overload penalty" in explain_registration(result, system.deployment)


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


def _registered(scenario, monkeypatch, *patches, **options):
    """Register ``scenario`` (then apply its faults, collecting what plan
    repair re-registered) with every ``(owner, name, value)`` of
    ``patches`` in place."""
    with monkeypatch.context() as patch:
        for owner, name, value in patches:
            patch.setattr(owner, name, value)
        run = run_scenario(scenario, "stream-sharing", execute=False, **options)
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


#: No floor at all: the search prunes nothing (``-inf``, not 0: a
#: widening delta that releases work can make a cost negative).
NO_FLOOR = (Planner, "cost_floor", lambda self, *args: -math.inf)

SEARCH_SCENARIOS = pytest.mark.parametrize(
    "scenario",
    [scenario_one, lambda: scenario_grid(3, 3, 250), scenario_churn_hotspots],
    ids=["scenario1", "grid-3x3-250", "churn-hotspots"],
)


@SEARCH_SCENARIOS
def test_bounded_search_decides_like_the_full_search(scenario, monkeypatch):
    """The prune is exact: with no floor every matched candidate is
    priced, and every decision, cost, effect and stream id is the same
    — after plan repair too."""
    decisions, facts, planner = _registered(scenario(), monkeypatch)
    full_decisions, full_facts, full = _registered(scenario(), monkeypatch, NO_FLOOR)
    assert decisions == full_decisions
    assert facts == full_facts
    assert planner.plans_bounded > 0 and full.plans_bounded == 0
    assert planner.plans_costed + planner.plans_bounded == full.plans_costed


def test_bounded_widening_search_decides_like_the_full_search(monkeypatch):
    """Widened candidates are bounded by the widened stream's floor plus
    ``CostModel.added_cost_floor`` of their delta: with no floor at all
    the widening registration of scenario 2 decides the same."""
    decisions, facts, planner = _registered(scenario_two(), monkeypatch, enable_widening=True)
    full_decisions, full_facts, full = _registered(
        scenario_two(), monkeypatch, NO_FLOOR, enable_widening=True
    )
    assert decisions == full_decisions
    assert facts == full_facts
    assert planner.plans_bounded > 0 and full.plans_bounded == 0
    assert planner.plans_costed + planner.plans_bounded == full.plans_costed


def _build_every_variant(self, deployment, subscription_input, query_name, subscriber_node, plan):
    """The reference search: Algorithm 1 in discovery order — every
    variant of every matched candidate the floor admits is built as the
    candidate is found, and the strict-``<`` cheapest plan is kept (no
    widening)."""
    assert not self.enable_widening
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
        for candidate, group in candidates:
            if not self.share_aggregates and candidate.content.aggregation is not None:
                continue
            plan.candidate_matches += 1
            self.planner.candidates_matched += 1
            if not match_stream_properties(
                candidate.content, subscription_input, self.match_mode, self.match_memo
            ):
                continue
            matched_targets.update(deployment.streams[s].target_node for s in group)
            floor = self.planner.cost_floor(
                candidate.content, node, subscription_input, subscriber_node
            )
            if floor * (1.0 - FLOOR_MARGIN) >= best.cost:
                self.planner.plans_bounded += variant_count(node, subscriber_node)
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
def test_best_first_pricing_decides_like_discovery_order(scenario, monkeypatch):
    """Building variants best-first, cheapest floor first, decides
    exactly like building them in discovery order: every decision,
    cost, effect and stream id — after plan repair too.  It builds no
    more variants, and examines the same number."""
    decisions, facts, planner = _registered(scenario(), monkeypatch)
    built_decisions, built_facts, built = _registered(
        scenario(), monkeypatch, (Subscriber, "_search_input", _build_every_variant)
    )
    assert decisions == built_decisions
    assert facts == built_facts
    assert planner.plans_costed <= built.plans_costed
    assert (
        planner.plans_costed + planner.plans_bounded
        == built.plans_costed + built.plans_bounded
    )


def _matched_per_search(scenario, monkeypatch, **options):
    """Register ``scenario`` (and repair its faults) with a spy on
    Algorithm 2: the contents each ``_search_input`` handed to
    ``match_stream_properties``, and the planner."""
    from repro.sharing import subscribe

    searches = []
    search, match = Subscriber._search_input, subscribe.match_stream_properties

    def opened(self, *args):
        searches.append([])
        return search(self, *args)

    def spy(candidate, subscription, *rest):
        searches[-1].append(candidate)
        return match(candidate, subscription, *rest)

    _, _, planner = _registered(
        scenario,
        monkeypatch,
        (Subscriber, "_search_input", opened),
        (subscribe, "match_stream_properties", spy),
        **options,
    )
    return searches, planner


@pytest.mark.parametrize("use_index", [True, False], ids=["indexed", "scan"])
@SEARCH_SCENARIOS
def test_no_content_is_matched_twice_in_one_search(scenario, use_index, monkeypatch):
    """A content is listed at every node of its route, but whether it
    serves the subscription does not depend on the node: within one
    search no content reaches Algorithm 2 twice, from either candidate
    source — after plan repair too — and ``candidates_matched`` counts
    exactly the matcher's runs."""
    searches, planner = _matched_per_search(scenario(), monkeypatch, use_index=use_index)
    assert all(len(set(contents)) == len(contents) for contents in searches)
    assert planner.candidates_matched == sum(map(len, searches)) > 0


def test_no_content_is_matched_twice_in_one_widening_search(monkeypatch):
    """The same on a widening system, whose probe also lists what only
    widening may reuse."""
    searches, planner = _matched_per_search(scenario_two(), monkeypatch, enable_widening=True)
    assert all(len(set(contents)) == len(contents) for contents in searches)
    assert planner.candidates_matched == sum(map(len, searches)) > 0


def test_scenario_one_variants_examined_are_unchanged():
    """Variants costed plus variants bounded is what the search costed
    before it bounded anything (189 on scenario 1)."""
    planner = run_scenario(scenario_one(), "stream-sharing", execute=False).system.planner
    assert planner.plans_bounded > 0
    assert planner.plans_costed + planner.plans_bounded == 189


def test_equal_costs_go_to_the_candidate_found_first(monkeypatch):
    """On scenario 1, Q008 (at SP0) can reuse ``Q002:photons`` tapped at
    SP4, found first, or at SP7, found later, for bit-equal costs.  The
    search keeps SP4 even when a lower floor at SP7 has that candidate
    priced first: ties go by discovery order, not by pricing order."""
    scenario = scenario_one()
    probe = scenario.queries[7]
    scenario.queries = scenario.queries[:7]
    system = run_scenario(scenario, "stream-sharing", execute=False).system
    planner, deployment = system.planner, system.deployment
    subscriber = system.net.home_of(probe.subscriber_peer)
    (subscription,) = extract_properties(parse_query(probe.text), probe.name).inputs
    shared = deployment.streams["Q002:photons"]
    tap_costs = [
        planner.plans_for_candidate(
            deployment, shared, node, subscription, probe.name, subscriber
        )[0].cost
        for node in ("SP4", "SP7")
    ]
    assert (probe.name, subscriber) == ("Q008", "SP0")
    assert tap_costs[0] == tap_costs[1]

    cost_floor, plans_for_candidate = Planner.cost_floor, Planner.plans_for_candidate
    priced = []

    def floor_zero_at_sp7(self, content, node, *rest):
        return 0.0 if node == "SP7" else cost_floor(self, content, node, *rest)

    def spied(self, deployment, candidate, node, *rest, **options):
        priced.append((candidate.stream_id, node))
        return plans_for_candidate(self, deployment, candidate, node, *rest, **options)

    monkeypatch.setattr(Planner, "cost_floor", floor_zero_at_sp7)
    monkeypatch.setattr(Planner, "plans_for_candidate", spied)
    (chosen,) = system.register_query(probe.name, probe.text, probe.subscriber_peer).plan.inputs
    assert priced.index(("Q002:photons", "SP7")) < priced.index(("Q002:photons", "SP4"))
    assert (chosen.reused_id, chosen.tap_node, chosen.cost) == (
        "Q002:photons", "SP4", tap_costs[0],
    )


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
        groups, pruned, _ = deployment.sharing_index.candidate_groups(node, probe)
        charged.append(len(groups) + pruned)  # one group per admitted content
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


def test_a_window_contents_stream_is_reused_only_as_it_is():
    """A stricter selection would have to follow ``A``'s windows (T219):
    ``B`` windows the photons itself, while ``C``, equal to ``A``, reuses
    its stream with no compensation."""
    from repro.analysis import verify_deployment

    text = (
        '<r>{{ for $w in stream("photons")/photons/photon[en >= {}] '
        "|count 10 step 10| return $w }}</r>"
    )
    system = make_system("stream-sharing")
    assert system.register_query("A", text.format("1.0"), "P1").accepted
    b = system.register_query("B", text.format("1.3"), "P1")
    c = system.register_query("C", text.format("1.0"), "P1")
    assert b.accepted and c.accepted
    (b_input,), (c_input,) = b.plan.inputs, c.plan.inputs
    assert b_input.reused_id != "A:photons"
    assert b_input.delivered.pipeline[-1].kind == "window"
    assert (c_input.reused_id, c_input.delivered.pipeline) == ("A:photons", ())
    report = verify_deployment(system.deployment, catalog=system.catalog)
    assert report.ok, report.render()


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
