"""The stream-availability index: signatures, probes, lookup, and the
``P14x`` index-consistency invariants.

The index must satisfy one contract: at every node, the candidates it
serves are a *superset* of the streams Algorithm 2 accepts there (it
only ever prunes guaranteed non-matches), and it mirrors the
deployment's availability facts exactly through registration,
deregistration, and churn.  These tests pin both halves, plus the
deterministic tie-breaking and the batch-admission front-end that ride
on it.
"""

from __future__ import annotations

import dataclasses

import pytest

from tests.conftest import PAPER_QUERIES, make_system
from repro.analysis import verify_system
from repro.faults import SuperPeerCrash, SuperPeerRejoin
from repro.matching import MatchMemo, match_stream_properties
from repro.network.routing import RouteCache
from repro.network.topology import example_topology
from repro.properties import UdfSpec, extract_properties
from repro.sharing.index import (
    SubscriptionProbe,
    admission_order_key,
    content_signature,
)
from repro.wxquery import parse_query


def properties_of(text, name="Q"):
    return extract_properties(parse_query(text), name)


def registered_system(queries=("Q1", "Q2", "Q3", "Q4"), **kwargs):
    system = make_system("stream-sharing", **kwargs)
    for name in queries:
        system.register_query(name, PAPER_QUERIES[name], "P1")
    return system


# ----------------------------------------------------------------------
# Content signatures
# ----------------------------------------------------------------------
def test_raw_stream_signature_has_no_details():
    raw = registered_system(queries=()).deployment.streams["photons"]
    signature = content_signature(raw.content)
    assert signature.stream == "photons"
    assert signature.details == frozenset()


def test_selection_query_signature_details():
    content = properties_of(PAPER_QUERIES["Q1"]).single_input()
    signature = content_signature(content)
    kinds = {detail[0] for detail in signature.details}
    assert kinds == {"selection", "projection"}


def test_aggregation_signature_pins_function_path_and_window_class():
    content = properties_of(PAPER_QUERIES["Q3"]).single_input()
    signature = content_signature(content)
    [detail] = [d for d in signature.details if d[0] == "aggregation"]
    assert detail[1] == "avg"
    assert str(detail[2]) == "photons/photon/en"
    assert detail[3] == "diff"  # window kind (time-difference window)


# ----------------------------------------------------------------------
# Probes
# ----------------------------------------------------------------------
def test_probe_covers_matching_candidates():
    """Coverage is a necessary condition of Algorithm 2: every matching
    candidate's signature must be covered by the subscription's probe."""
    subscriptions = {
        name: properties_of(text, name).single_input()
        for name, text in PAPER_QUERIES.items()
    }
    for sub_name, subscription in subscriptions.items():
        probe = SubscriptionProbe.from_subscription(subscription)
        for cand_name, candidate in subscriptions.items():
            if match_stream_properties(candidate, subscription):
                assert probe.covers(content_signature(candidate)), (
                    f"{cand_name} matches {sub_name} but its signature "
                    "is not covered — the index would hide a true match"
                )


def test_probe_enumeration_agrees_with_bucket_scan():
    """The adaptive lookup's two paths must return identical ids."""
    system = registered_system()
    index = system.deployment.sharing_index
    for text in PAPER_QUERIES.values():
        subscription = properties_of(text).single_input()
        probe = SubscriptionProbe.from_subscription(subscription)
        assert probe.signatures is not None
        # signatures=None forces the bucket-scan path.
        scan_probe = dataclasses.replace(probe, signatures=None)
        for node in system.net.super_peer_names():
            groups, pruned, _ = index.candidate_groups(node, probe)
            scan_groups, scan_pruned, _ = index.candidate_groups(node, scan_probe)
            assert sorted(map(sorted, groups)) == sorted(map(sorted, scan_groups))
            assert pruned == scan_pruned


def test_avg_probe_accepts_sum_and_count_signatures():
    """``sum``/``count`` subscriptions can be served by ``avg`` streams,
    so their probes must cover avg signatures (serving fan-out)."""
    avg_content = properties_of(PAPER_QUERIES["Q3"]).single_input()
    sum_text = PAPER_QUERIES["Q3"].replace("avg($w/en)", "sum($w/en)")
    probe = SubscriptionProbe.from_subscription(
        properties_of(sum_text).single_input()
    )
    assert probe.covers(content_signature(avg_content))


# ----------------------------------------------------------------------
# Lookup against a live deployment
# ----------------------------------------------------------------------
def covered_ids(index, node, probe):
    """The ids filed at ``node`` under a signature ``probe`` covers: the
    structurally compatible candidates, selections not consulted."""
    return sorted(
        stream_id
        for at, stream_id, keys in index.entries()
        if at == node and probe.covers(keys.signature)
    )


def test_candidates_are_superset_of_matches_everywhere():
    system = registered_system()
    deployment = system.deployment
    for text in PAPER_QUERIES.values():
        subscription = properties_of(text).single_input()
        probe = SubscriptionProbe.from_subscription(subscription)
        for node in system.net.super_peer_names():
            served = set(covered_ids(deployment.sharing_index, node, probe))
            groups, _, _ = deployment.sharing_index.candidate_groups(node, probe)
            admitted = set().union(*groups)
            for stream in deployment.streams.values():
                if node not in stream.route or stream.content.stream != subscription.stream:
                    continue
                if match_stream_properties(stream.content, subscription):
                    assert stream.stream_id in served
                    assert stream.stream_id in admitted
            # ... and everything served is genuinely available there.
            available = {s.stream_id for s in deployment.streams.values() if node in s.route}
            assert served <= available


def test_candidate_ids_are_sorted():
    """Planning walks the candidates at a node in stream-id order."""
    system = registered_system()
    subscription = properties_of(PAPER_QUERIES["Q1"]).single_input()
    probe = SubscriptionProbe.from_subscription(subscription)
    for node in system.net.super_peer_names():
        grouped, _ = system.deployment.distinct_candidates_at(node, probe)
        ids = [stream.stream_id for stream, _ in grouped]
        assert ids == sorted(ids)


def test_distinct_candidates_group_by_content():
    """Grouped lookup partitions the flat candidate list by content: one
    minimal-id representative per admitted content, with the ids of
    its whole group, and every other content pruned on a selection
    Algorithm 2 rejects."""
    system = registered_system()
    # Re-register Q1 under a second name: a duplicate-content stream.
    system.register_query("Q1b", PAPER_QUERIES["Q1"], "P2")
    deployment = system.deployment
    saw_pruned = saw_shared = False
    for text in (PAPER_QUERIES["Q1"], PAPER_QUERIES["Q2"]):
        subscription = properties_of(text).single_input()
        probe = SubscriptionProbe.from_subscription(subscription)
        for node in system.net.super_peer_names():
            regrouped = {}
            for stream_id in covered_ids(deployment.sharing_index, node, probe):
                stream = deployment.streams[stream_id]
                regrouped.setdefault(stream.content, []).append(stream)
            grouped, pruned = deployment.distinct_candidates_at(node, probe)
            assert len(grouped) + pruned == len(regrouped)
            representatives = [stream.stream_id for stream, _ in grouped]
            assert representatives == sorted(representatives)
            for representative, ids in grouped:
                group = regrouped.pop(representative.content)
                assert representative.stream_id == min(s.stream_id for s in group)
                assert ids == {s.stream_id for s in group}
                saw_shared |= len(group) > 1
            for content in regrouped:  # pruned: the matcher rejects them
                assert not match_stream_properties(content, subscription)
            saw_pruned |= pruned > 0
    assert saw_pruned and saw_shared


# ----------------------------------------------------------------------
# Consistency through the full lifecycle (P14x stays green)
# ----------------------------------------------------------------------
def index_facts(deployment):
    return sorted(deployment.sharing_index.entries(), key=repr)


def test_index_consistent_after_register_deregister_crash_rejoin():
    system = registered_system()
    assert verify_system(system).ok

    system.deregister_query("Q2")
    assert verify_system(system).ok

    system.apply_fault(SuperPeerCrash(5.0, "SP5"))
    assert verify_system(system).ok

    system.apply_fault(SuperPeerRejoin(15.0, "SP5"))
    assert verify_system(system).ok

    for name in list(system.deployment.queries):
        system.deregister_query(name)
    assert verify_system(system).ok
    # Only the original stream remains; its index entry with it.
    assert len(system.deployment.sharing_index) == 1


def test_deregistration_order_is_deterministic():
    """Tearing the same deployment down in different deregistration
    orders leaves identical index facts (GC iterates sorted ids)."""
    facts = []
    for order in (("Q1", "Q3"), ("Q3", "Q1")):
        system = registered_system(queries=("Q1", "Q2", "Q3"))
        for name in order:
            system.deregister_query(name)
        facts.append(index_facts(system.deployment))
    assert facts[0] == facts[1]


# ----------------------------------------------------------------------
# P140–P144 fire on seeded corruption
# ----------------------------------------------------------------------
def test_stale_index_entry_is_rejected():
    system = registered_system(queries=("Q1",))
    ghost_content = system.deployment.streams["photons"].content
    system.deployment.sharing_index.add("ghost", ghost_content, ("SP4",))
    report = verify_system(system)
    assert "P140" in report.codes(), report.render()


def test_entry_off_route_is_rejected():
    system = registered_system(queries=("Q1",))
    stream = system.deployment.streams["photons"]
    assert "SP7" not in stream.route
    system.deployment.sharing_index.add("photons", stream.content, ("SP7",))
    report = verify_system(system)
    assert "P141" in report.codes(), report.render()


def test_missing_stream_is_rejected():
    system = registered_system(queries=("Q1",))
    stream = system.deployment.streams["photons"]
    system.deployment.sharing_index.discard("photons", stream.route)
    report = verify_system(system)
    assert "P142" in report.codes(), report.render()


def test_missing_route_node_is_rejected():
    system = registered_system(queries=("Q1",))
    delivered = system.deployment.queries["Q1"].delivered[0][1]
    stream = system.deployment.streams[delivered]
    index = system.deployment.sharing_index
    signature, selection, content = index.keys_of(delivered)
    node = stream.route[-1]
    index._nodes[node][signature][selection][content].discard(delivered)
    report = verify_system(system)
    assert "P142" in report.codes(), report.render()


def test_signature_mismatch_is_rejected():
    system = registered_system(queries=("Q1", "Q3"))
    index = system.deployment.sharing_index
    delivered = system.deployment.queries["Q1"].delivered[0][1]
    stream = system.deployment.streams[delivered]
    other = system.deployment.queries["Q3"].delivered[0][1]
    wrong_content = system.deployment.streams[other].content
    index.discard(delivered, stream.route)
    index.add(delivered, wrong_content, stream.route)
    report = verify_system(system)
    assert "P143" in report.codes(), report.render()


def test_corrupted_reference_count_is_rejected():
    system = registered_system(queries=("Q1", "Q2"))
    shared = system.deployment.queries["Q1"].delivered[0][1]
    assert system.deployment.refcounts[shared] == 2  # Q1's delivery, Q2's tap
    system.deployment.refcounts[shared] += 1
    report = verify_system(system)
    [finding] = [d for d in report.diagnostics if d.code == "P144"]
    assert shared in finding.subject and "3" in finding.message, report.render()


def test_unreferenced_set_mismatch_is_rejected():
    """A stream wrongly listed as unreferenced would be collected under
    its consumers; an unreferenced one missing from the set leaks."""
    system = registered_system(queries=("Q1",))
    deployment = system.deployment
    delivered = deployment.queries["Q1"].delivered[0][1]
    deployment.unreferenced.add(delivered)
    assert "P144" in verify_system(system).codes()
    deployment.unreferenced.discard(delivered)
    assert verify_system(system).ok
    system.install_derived_stream(
        "photons#udf", "photons", [UdfSpec("scale", ("2.0",))], target="P2"
    )
    assert deployment.unreferenced == {"photons#udf"}
    deployment.unreferenced.clear()
    report = verify_system(system)
    [finding] = [d for d in report.diagnostics if d.code == "P144"]
    assert "photons#udf" in finding.subject, report.render()


def content_swapped_system():
    """Q1 and Q2 installed; Q2's delivered stream and, for its record, a
    copy carrying Q1's content — same signature, other selection."""
    system = registered_system(queries=("Q1", "Q2"))
    deployment = system.deployment
    stream = deployment.streams[deployment.queries["Q2"].delivered[0][1]]
    other = deployment.streams[deployment.queries["Q1"].delivered[0][1]]
    assert content_signature(other.content) == content_signature(stream.content)
    assert other.content.selection != stream.content.selection
    return system, dataclasses.replace(stream, content=other.content)


def test_stale_selection_key_is_rejected():
    """A content rewrite that bypasses ``replace_stream`` leaves the
    stream indexed under a stale selection key."""
    system, swapped = content_swapped_system()
    system.deployment.streams[swapped.stream_id] = swapped
    report = verify_system(system)
    [finding] = [d for d in report.diagnostics if d.code == "P143"]
    assert "selection" in finding.message, report.render()


def test_replace_stream_rekeys_the_index():
    system, swapped = content_swapped_system()
    system.deployment.replace_stream(swapped)
    index = system.deployment.sharing_index
    assert index.keys_of(swapped.stream_id).content == swapped.content
    assert "P143" not in verify_system(system).codes()
    # The old keys are gone: releasing removes every entry.
    system.deployment.release_stream(swapped.stream_id)
    assert all(entry[1] != swapped.stream_id for entry in index.entries())


def test_widened_scenario_one_verifies_clean():
    """Scenario 1 with widening rewrites installed contents in place;
    every rewritten stream must end up re-keyed (P143 clean)."""
    from repro.workload.scenarios import run_scenario, scenario_one

    system = run_scenario(
        scenario_one(), "stream-sharing", enable_widening=True, execute=False
    ).system
    assert any(
        plan.widening is not None
        for result in system.results
        if result.plan is not None
        for plan in result.plan.inputs
    )
    report = verify_system(system)
    assert report.ok, report.render()


# ----------------------------------------------------------------------
# Deterministic tie-breaking
# ----------------------------------------------------------------------
@pytest.mark.parametrize("use_index", [True, False])
def test_repeated_registration_is_deterministic(use_index):
    decisions = []
    for _ in range(2):
        system = registered_system(use_index=use_index)
        decisions.append(
            [
                (name, plan.reused_id, plan.tap_node, plan.placement_node)
                for name, record in sorted(system.deployment.queries.items())
                for plan in [
                    next(
                        r.plan.inputs[0]
                        for r in system.results
                        if r.query == name and r.plan is not None
                    )
                ]
                if record is not None
            ]
        )
    assert decisions[0] == decisions[1]


# ----------------------------------------------------------------------
# Route cache
# ----------------------------------------------------------------------
def test_route_cache_hits_and_matches_direct_routing():
    from repro.network.routing import shortest_path

    net = example_topology()
    cache = RouteCache(net)
    for source in net.super_peer_names():
        for target in net.super_peer_names():
            assert cache.path(source, target) == tuple(
                shortest_path(net, source, target)
            )
    assert cache.hits == 0
    cache.path("SP1", "SP4")
    assert cache.hits == 1


def test_route_cache_invalidated_by_churn():
    net = example_topology()
    cache = RouteCache(net)
    before = cache.path("SP4", "SP1")
    crashed = before[1]  # an intermediate hop
    net.remove_super_peer(crashed)
    after = cache.path("SP4", "SP1")
    assert crashed not in after  # stale route would still contain it


# ----------------------------------------------------------------------
# Match memo
# ----------------------------------------------------------------------
def test_match_memo_caches_without_changing_verdicts():
    contents = {
        name: properties_of(text, name).single_input()
        for name, text in PAPER_QUERIES.items()
    }
    memo = MatchMemo()
    fresh = {
        (a, b): match_stream_properties(contents[a], contents[b])
        for a in contents
        for b in contents
    }
    for _ in range(2):  # second round must be all hits
        for (a, b), verdict in fresh.items():
            assert (
                match_stream_properties(contents[a], contents[b], memo=memo)
                == verdict
            )
    assert memo.misses > 0
    assert memo.hits >= len(fresh)


# ----------------------------------------------------------------------
# Batch admission
# ----------------------------------------------------------------------
def test_batch_results_in_caller_order():
    system = make_system()
    batch = [(name, text, "P1") for name, text in PAPER_QUERIES.items()]
    results = system.register_queries(batch)
    assert [r.query for r in results] == [name for name, _, _ in batch]
    assert all(r.accepted for r in results)


def test_batch_rejects_duplicate_names():
    system = make_system()
    with pytest.raises(ValueError, match="duplicate"):
        system.register_queries(
            [("Q1", PAPER_QUERIES["Q1"], "P1"), ("Q1", PAPER_QUERIES["Q2"], "P2")]
        )


def test_batch_orders_general_before_specific():
    """Q2 ⊂ Q1 (narrower region + energy cut): submitted narrow-first,
    batch admission still registers Q1 first so Q2 can tap it."""
    system = make_system()
    system.register_queries(
        [("Q2", PAPER_QUERIES["Q2"], "P2"), ("Q1", PAPER_QUERIES["Q1"], "P1")]
    )
    delivered_q2 = system.deployment.queries["Q2"].delivered[0][1]
    parent = system.deployment.streams[delivered_q2].parent_id
    chain = set()
    while parent is not None:
        chain.add(parent)
        parent = system.deployment.streams[parent].parent_id
    assert any(stream_id.startswith("Q1:") for stream_id in chain)


def test_batch_admission_never_shares_worse_than_sequential():
    system_batch = make_system()
    system_batch.register_queries(
        [(name, text, "P1") for name, text in sorted(PAPER_QUERIES.items(),
                                                     reverse=True)]
    )
    system_seq = make_system()
    for name, text in sorted(PAPER_QUERIES.items(), reverse=True):
        system_seq.register_query(name, text, "P1")
    assert len(system_batch.deployment.streams) <= len(
        system_seq.deployment.streams
    )


def test_admission_order_key_prefers_general_queries():
    q1 = properties_of(PAPER_QUERIES["Q1"], "Q1")
    q2 = properties_of(PAPER_QUERIES["Q2"], "Q2")  # extra energy atom
    q3 = properties_of(PAPER_QUERIES["Q3"], "Q3")  # aggregate
    assert admission_order_key(q1) < admission_order_key(q2)
    assert admission_order_key(q1) < admission_order_key(q3)
    assert admission_order_key(q2) < admission_order_key(q3)
