"""End-to-end tracing: control-plane spans, decision records, caches.

Also pins two behavioral guarantees of the instrumentation layer:

* a traced execution produces the *same* ``RunMetrics`` as an untraced
  one (the epoch-sampled execution path is metrics-equivalent);
* ``RouteCache`` entries are invalidated exactly when
  ``Network.version`` bumps (the churn APIs), never otherwise.
"""

import pytest

from repro.faults import SuperPeerCrash
from repro.network.routing import RouteCache
from repro.network.topology import example_topology
from repro.obs import NULL_RECORDER, Recorder
from repro.workload.scenarios import run_scenario, scenario_churn, scenario_one
from tests.conftest import PAPER_QUERIES, make_system, pinned_cells


def _spans_by_name(recorder):
    by_name = {}
    for span in recorder.spans:
        by_name.setdefault(span.name, []).append(span)
    return by_name


class TestRegistrationSpans:
    @pytest.fixture(scope="class")
    def traced(self):
        recorder = Recorder()
        system = make_system("stream-sharing", recorder=recorder)
        system.register_query("Q1", PAPER_QUERIES["Q1"], "P1")
        system.register_query("Q2", PAPER_QUERIES["Q2"], "P3")
        return system, recorder

    def test_phase_spans_recorded(self, traced):
        _, recorder = traced
        names = _spans_by_name(recorder)
        for phase in ("register", "parse", "analyze", "plan", "search", "commit"):
            assert len(names[phase]) == 2, phase

    def test_span_tree_parents(self, traced):
        _, recorder = traced
        names = _spans_by_name(recorder)
        q1 = next(s for s in names["register"] if s.attrs["query"] == "Q1")
        parse = next(s for s in names["parse"] if s.parent_id == q1.span_id)
        plan = next(s for s in names["plan"] if s.parent_id == q1.span_id)
        search = next(s for s in names["search"] if s.parent_id == plan.span_id)
        assert q1.parent_id is None
        assert parse.start_s >= q1.start_s
        assert search.end_s <= plan.end_s + 1e-6

    def test_register_span_attrs(self, traced):
        _, recorder = traced
        span = _spans_by_name(recorder)["register"][0]
        assert span.attrs["strategy"] == "stream-sharing"
        assert span.attrs["accepted"] is True

    def test_search_span_telemetry(self, traced):
        _, recorder = traced
        span = _spans_by_name(recorder)["search"][0]
        assert span.attrs["visited_nodes"] >= 1
        assert span.attrs["candidate_matches"] >= 1

    def test_search_spans_sum_to_the_planner_counts(self):
        """Each search span carries the variants it priced and bounded;
        over a run (plan repair included) they sum to the planner's
        counts."""
        recorder = Recorder()
        system = run_scenario(
            scenario_one(), "stream-sharing", recorder=recorder, execute=False
        ).system
        system.apply_fault(SuperPeerCrash(1.0, "SP5"))
        spans = _spans_by_name(recorder)["search"]
        planner = system.planner
        assert sum(span.attrs["priced"] for span in spans) == planner.plans_costed
        assert sum(span.attrs["bounded"] for span in spans) == planner.plans_bounded
        assert planner.plans_bounded > 0

    def test_decision_records_emitted(self, traced):
        _, recorder = traced
        decisions = [e for e in recorder.events if e["name"] == "plan.decision"]
        assert [e["fields"]["query"] for e in decisions] == ["Q1", "Q2"]
        q2 = decisions[1]["fields"]
        assert q2["accepted"] is True
        assert q2["strategy"] == "stream-sharing"
        assert q2["total_cost"] > 0.0
        (input_record,) = q2["inputs"]
        assert input_record["input_stream"] == "photons"
        assert input_record["cost"] <= input_record["initial_cost"]
        assert input_record["saving_vs_initial"] >= 0.0

    def test_cache_counters_synced(self, traced):
        system, recorder = traced
        assert recorder.counters["cache.route.hits"] == system.planner.routes.hits
        assert recorder.counters["cache.rate.misses"] == system.planner.rate_cache_misses
        planner = system.planner
        assert recorder.counters["cache.stages.hits"] == planner.stage_load_hits
        assert recorder.counters["cache.stages.misses"] == planner.stage_load_misses
        assert recorder.counters["cache.stages.entries"] == planner.stage_loads > 0
        assert recorder.counters["planner.plans_costed"] == system.planner.plans_costed
        assert 0.0 <= recorder.gauges["cache.match.hit_rate"] <= 1.0

    def test_deregister_span(self, traced):
        system, recorder = traced
        system.deregister_query("Q2")
        (span,) = _spans_by_name(recorder)["deregister"]
        assert span.attrs["query"] == "Q2"
        assert isinstance(span.attrs["removed_streams"], list)


class TestCacheStats:
    def test_always_available_without_tracing(self):
        system = make_system("stream-sharing")
        system.register_query("Q1", PAPER_QUERIES["Q1"], "P1")
        assert system.recorder.enabled is False
        stats = system.cache_stats()
        assert set(stats) == {"route", "rate", "stages", "match", "analysis", "intern", "gc"}
        assert stats.pop("gc") == {}  # no run yet
        intern = stats.pop("intern")
        for cache in stats.values():
            assert 0.0 <= cache["hit_rate"] <= 1.0
        assert stats["route"]["invalidations"] == 0
        # Q1's input content, and its selection graph (alive in it).
        assert intern["content_entries"] == 1
        assert intern["graph_entries"] >= 1

    def test_an_unused_cache_rates_zero(self):
        stats = make_system("stream-sharing").cache_stats()
        assert stats.pop("intern")["content_entries"] == 0
        assert stats.pop("gc") == {}
        for cache in stats.values():
            assert cache["hits"] + cache["misses"] == 0
            assert cache["hit_rate"] == 0.0

    def test_traced_system_reports_the_intern_tables(self):
        system = make_system("stream-sharing", recorder=Recorder())
        system.register_query("Q1", PAPER_QUERIES["Q1"], "P1")
        system.run(1.0)
        intern = system.cache_stats()["intern"]
        counters = system.recorder.counters
        assert counters["cache.intern.content_entries"] == intern["content_entries"] == 1
        assert counters["cache.intern.graph_entries"] >= 1


class TestRepairTracing:
    @pytest.fixture(scope="class")
    def churned(self):
        """The same traced churn run over one cell and over two."""
        runs = []
        with pinned_cells("inline"):
            for workers in (1, 2):
                scenario = scenario_churn(
                    rows=2, cols=2, query_count=4, duration=12.0,
                    crash_peer="SP1", crash_at=4.0, rejoin_at=8.0,
                )
                recorder = Recorder()
                run = run_scenario(
                    scenario, "stream-sharing", recorder=recorder, workers=workers
                )
                runs.append((recorder, run))
        return runs

    def test_repair_span_tree(self, churned):
        for recorder, _ in churned:
            names = _spans_by_name(recorder)
            assert len(names["repair"]) == 2  # crash + rejoin
            repair = names["repair"][0]
            for phase in ("repair.damage", "repair.teardown", "repair.reregister"):
                phase_span = next(
                    s for s in names[phase] if s.parent_id == repair.span_id
                )
                assert phase_span.end_s is not None
            assert "summary" in repair.attrs

    def test_repair_report_events(self, churned):
        for recorder, _ in churned:
            reports = [e for e in recorder.events if e["name"] == "repair.report"]
            assert len(reports) == 2
            crash = reports[0]["fields"]
            assert crash["damaged_streams"] >= 1
            assert crash["queries_repaired"] + crash["queries_lost"] >= 1
            assert crash["recovery_time_ms"] >= 0.0

    def test_fault_events(self, churned):
        for recorder, _ in churned:
            faults = [e for e in recorder.events if e["name"] == "fault.applied"]
            assert [e["fields"]["stream_time"] for e in faults] == [4.0, 8.0]

    def test_route_cache_invalidated_by_churn(self, churned):
        for recorder, run in churned:
            # Two topology mutations -> at least one wholesale drop each.
            assert run.system.planner.routes.invalidations >= 2
            assert recorder.counters["cache.route.invalidations"] >= 2


class TestTracedEqualsUntraced:
    @pytest.mark.usefixtures("inline_cells")
    def test_metrics_identical(self):
        scenario = scenario_one(query_count=6)
        scenario.duration = 10.0
        plain = run_scenario(scenario, "stream-sharing", recorder=NULL_RECORDER)
        for workers in (1, 2):
            traced = run_scenario(
                scenario, "stream-sharing", recorder=Recorder(), workers=workers
            )
            assert traced.metrics == plain.metrics

    @pytest.mark.usefixtures("inline_cells")
    def test_operator_histograms_observed(self):
        # Traced shard cells ship their operator histograms back on
        # their final state and the parent merges them (DESIGN.md §12).
        for workers in (1, 2):
            scenario = scenario_one(query_count=4)
            scenario.duration = 6.0
            recorder = Recorder()
            run_scenario(scenario, "stream-sharing", recorder=recorder, workers=workers)
            batch_hists = [n for n in recorder.histograms if n.endswith(".batch_s")]
            assert batch_hists, "expected per-operator latency histograms"
            items = [n for n in recorder.counters if n.startswith("op.")]
            assert items
            assert recorder.counters["exec.runs"] == 1


class TestRouteCacheInvalidation:
    """Satellite regression: invalidation happens exactly on version bumps."""

    def test_stable_topology_never_invalidates(self):
        net = example_topology()
        cache = RouteCache(net)
        for _ in range(5):
            cache.path("SP0", "SP7")
        assert cache.misses == 1 and cache.hits == 4
        assert cache.invalidations == 0
        assert len(cache) == 1

    def test_each_version_bump_invalidates_once(self):
        net = example_topology()
        cache = RouteCache(net)
        cache.path("SP0", "SP7")
        cache.path("SP4", "SP6")
        assert len(cache) == 2

        net.remove_super_peer("SP5")  # churn API -> version bump
        route = cache.path("SP0", "SP7")
        assert cache.invalidations == 1
        assert "SP5" not in route  # re-routed against the new topology
        assert len(cache) == 1  # wholesale drop, then one fresh entry

        # No further bump: the cache keeps its entries.
        cache.path("SP0", "SP7")
        assert cache.invalidations == 1

        net.restore_super_peer("SP5")  # rejoin also bumps
        cache.path("SP0", "SP7")
        assert cache.invalidations == 2

    def test_profiles_are_one_per_node_pair_and_dropped_on_a_bump(self):
        system = make_system("stream-sharing")
        for name in ("Q1", "Q2", "Q3", "Q4"):
            system.register_query(name, PAPER_QUERIES[name], f"P{name[1]}")
        net, routes = system.net, system.planner.routes
        registered = routes.profiles
        assert 0 < registered == system.cache_stats()["route"]["profiles"]
        names = net.super_peer_names()
        for _ in range(2):
            for source in names:
                for target in names:
                    routes.profile(source, target)
        assert routes.profiles == len(names) ** 2

        net.remove_super_peer("SP2")  # churn API -> version bump
        routes.path("SP0", "SP7")
        assert routes.profiles == 0
        assert system.cache_stats()["route"]["profiles"] == 0

    def test_every_churn_api_bumps_version(self):
        net = example_topology()
        cache = RouteCache(net)
        for mutate in (
            lambda: net.remove_link("SP4", "SP5"),
            lambda: net.restore_link("SP4", "SP5"),
            lambda: net.remove_super_peer("SP3"),
            lambda: net.restore_super_peer("SP3"),
        ):
            before = cache.invalidations
            mutate()
            cache.path("SP0", "SP7")
            assert cache.invalidations == before + 1
