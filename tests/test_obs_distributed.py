"""Distributed observability: trace-merge identity, SLOs, live serving.

Pins the distributed-observability contracts (DESIGN.md §12):

* a traced ``workers=2`` run on the multi-hotspot churn scenario
  (including its ``staggered_crashes`` fault schedule) merges to the
  same counter totals and epoch series as the sequential traced run,
  with ``RunMetrics`` still byte-identical;
* a cell's trace segment merges with its span tree and shard tags;
* worker crashes surface as structured ``cell.error`` events;
* :class:`MetricsServer` answers ``/metrics``, ``/healthz`` and
  ``/slo.json`` over real HTTP;
* :class:`QuerySLO` and :class:`Histogram` quantiles round-trip.
"""

import json
import os
import subprocess
import sys
import urllib.error
import urllib.request

import pytest

from repro.engine.executor import ExecutionError
from repro.engine.parallel import _ProcessCell
from repro.obs import (
    Histogram,
    MetricsServer,
    QuerySLO,
    Recorder,
    merge_segment,
    slos_from_events,
)
from repro.workload.scenarios import run_scenario, scenario_churn_hotspots

from .pins_executor import UNPINNED_PREFIXES


def _hist(values):
    hist = Histogram()
    for value in values:
        hist.observe(value)
    return hist


@pytest.fixture(scope="module")
def traced_pair():
    """Sequential and 2-worker traced runs of the same churn scenario.

    ``scenario_churn_hotspots`` ships a ``staggered_crashes`` fault
    schedule (two rolling crash/rejoin pairs), so this fixture also
    covers trace merging across mid-run plan repair.
    """
    seq = run_scenario(
        scenario_churn_hotspots(), "stream-sharing", recorder=Recorder()
    )
    par = run_scenario(
        scenario_churn_hotspots(),
        "stream-sharing",
        recorder=Recorder(),
        workers=2,
    )
    return seq, par


class TestTraceMergeIdentity:
    def test_faults_actually_fired(self, traced_pair):
        seq, par = traced_pair
        assert seq.metrics.faults_applied >= 2  # staggered crash + rejoin
        assert par.metrics.faults_applied == seq.metrics.faults_applied

    def test_metrics_byte_identical(self, traced_pair):
        seq, par = traced_pair
        assert par.metrics == seq.metrics
        assert par.metrics.items_lost_by_query == seq.metrics.items_lost_by_query

    def test_counter_totals_match_sequential(self, traced_pair):
        seq, par = traced_pair
        mismatched = {
            name: (value, par.system.recorder.counters.get(name))
            for name, value in seq.system.recorder.counters.items()
            # columnar.* counts kernel dispatches inside one process and
            # is inherently process-local under fork (DESIGN.md §12);
            # the pumping-cost counters depend on the partition.
            if not name.startswith(UNPINNED_PREFIXES)
            and par.system.recorder.counters.get(name) != value
        }
        assert mismatched == {}

    def test_parallel_extras_are_exchange_metrics(self, traced_pair):
        seq, par = traced_pair
        extras = set(par.system.recorder.counters) - set(
            seq.system.recorder.counters
        )
        assert extras  # the sharded plane reports its exchange traffic
        assert all(
            name.startswith(("exchange.", "exec.", "columnar."))
            for name in extras
        )

    def test_epoch_series_align(self, traced_pair):
        seq, par = traced_pair
        sequential = seq.system.recorder.epochs
        sharded = par.system.recorder.epochs
        # The parent emits one snapshot per cell per barrier; summing
        # across cells at each boundary must reproduce the sequential
        # series for generation (delivery may lag by the certified
        # epoch_lag, so only its total is pinned).
        generated = {}
        delivered_total = 0
        for epoch in sharded:
            key = (epoch.t_start, epoch.t_end)
            generated[key] = generated.get(key, 0) + epoch.items_generated
            delivered_total += epoch.items_delivered
        assert set(generated) == {
            (epoch.t_start, epoch.t_end) for epoch in sequential
        }
        for epoch in sequential:
            assert generated[(epoch.t_start, epoch.t_end)] == epoch.items_generated
        assert delivered_total == sum(e.items_delivered for e in sequential)

    def test_shard_tagged_spans_and_histograms(self, traced_pair):
        _, par = traced_pair
        recorder = par.system.recorder
        shards = {
            span.attrs["shard"]
            for span in recorder.spans
            if "shard" in span.attrs
        }
        assert shards == {0, 1}
        cell_names = [
            name for name in recorder.histograms if ".batch_s.shard" in name
        ]
        assert cell_names
        # Per-cell histograms partition the merged global series.
        globals_ = {
            name for name in recorder.histograms
            if name.endswith(".batch_s")
        }
        for name in globals_:
            cells = [
                hist
                for cell, hist in recorder.histograms.items()
                if cell.startswith(name + ".shard")
            ]
            assert sum(h.count for h in cells) == recorder.histograms[name].count

    def test_exchange_flow_events(self, traced_pair):
        _, par = traced_pair
        flows = [
            event["fields"]
            for event in par.system.recorder.events
            if event["name"] == "exchange.flow"
        ]
        assert flows
        ids = [fields["flow"] for fields in flows]
        assert ids == sorted(ids) and len(set(ids)) == len(ids)
        for fields in flows:
            assert fields["src"] != fields["dst"]
            assert fields["items"] >= 1 and fields["batches"] >= 1
        assert sum(f["items"] for f in flows) == par.system.recorder.counters[
            "exchange.items"
        ]

    def test_slo_delivery_matches_across_executors(self, traced_pair):
        seq, par = traced_pair
        sequential = {s.query: s for s in seq.system.last_simulator.last_query_slos}
        sharded = {s.query: s for s in par.system.last_simulator.last_query_slos}
        assert set(sequential) == set(sharded)
        for name, slo in sequential.items():
            other = sharded[name]
            # What was delivered is executor-independent; *where* and
            # with what freshness is a property of the shard plan.
            assert other.delivered_inputs == slo.delivered_inputs
            assert other.delivered_results == slo.delivered_results
            assert other.items_lost == slo.items_lost
            assert other.parked == slo.parked
            assert slo.shard == 0 and slo.epoch_lag == 0
        lagged = [s for s in sharded.values() if s.epoch_lag > 0]
        assert lagged, "expected at least one cut-crossing delivery chain"
        for slo in lagged:
            assert slo.delivery_latency_s > 0.0

    def test_query_slo_events_in_merged_log(self, traced_pair):
        _, par = traced_pair
        slos = slos_from_events(par.system.recorder.events)
        assert [s.query for s in slos] == sorted(s.query for s in slos)
        assert len(slos) == len(par.system.last_simulator.last_query_slos)


class TestSegmentShuffleInvariance:
    """Each cell ships its own recorder once; the parent folds the
    cells in shard order."""

    @staticmethod
    def _cell(shard):
        cell = Recorder()
        with cell.span("cell.step", until=5.0):
            with cell.span("cell.flush"):
                pass
        with cell.span("cell.step", until=10.0):
            pass
        cell.event("cell.mark", n=shard)
        cell.inc("cell.steps", 2)
        for value in (0.001, 0.002):
            cell.observe("op.sel.batch_s", value)
        return cell

    def test_parent_links_and_shard_tags_survive(self):
        recorder = Recorder()
        for shard in (0, 1):
            cell = self._cell(shard)
            # Completion order: a child closes before its parent.
            assert [span.name for span in cell.spans] == [
                "cell.flush", "cell.step", "cell.step",
            ]
            merge_segment(recorder, shard, cell)
        assert [span.span_id for span in recorder.spans] == list(range(1, 7))
        for child in (s for s in recorder.spans if s.name == "cell.flush"):
            parent = next(
                s for s in recorder.spans if s.span_id == child.parent_id
            )
            assert parent.name == "cell.step"
            assert parent.attrs["shard"] == child.attrs["shard"]
        assert [e["fields"]["shard"] for e in recorder.events] == [0, 1]
        assert recorder.counters["cell.steps"] == 4  # cumulative, 2 cells
        assert recorder.histograms["op.sel.batch_s"].count == 4
        assert recorder.histograms["op.sel.batch_s.shard1"].count == 2


class _FakeConn:
    def __init__(self, reply):
        self._reply = reply

    def recv(self):
        if isinstance(self._reply, BaseException):
            raise self._reply
        return self._reply


class _FakeProc:
    def kill(self):
        pass


def _fake_cell(reply, recorder, shard=1):
    cell = _ProcessCell.__new__(_ProcessCell)
    cell._conn = _FakeConn(reply)
    cell._proc = _FakeProc()
    cell._shard = shard
    cell._recorder = recorder
    return cell


class TestCellErrorEvents:
    def test_structured_crash_becomes_event(self):
        recorder = Recorder()
        payload = {
            "exc_type": "ValueError",
            "message": "bad batch",
            "traceback": "Traceback (most recent call last): ...",
        }
        cell = _fake_cell(("error", payload), recorder)
        with pytest.raises(ExecutionError) as info:
            cell.result()
        assert "ValueError: bad batch" in str(info.value)
        (event,) = recorder.events
        assert event["name"] == "cell.error"
        assert event["fields"]["shard"] == 1
        assert event["fields"]["exc_type"] == "ValueError"
        assert "Traceback" in event["fields"]["traceback"]

    def test_dead_worker_becomes_event(self):
        recorder = Recorder()
        cell = _fake_cell(EOFError(), recorder, shard=0)
        with pytest.raises(ExecutionError, match="worker died"):
            cell.result()
        (event,) = recorder.events
        assert event["fields"]["exc_type"] == "WorkerDied"

    def test_untraced_cells_stay_silent(self):
        from repro.obs import NULL_RECORDER

        cell = _fake_cell(("error", {"exc_type": "X", "message": "m",
                                     "traceback": ""}), NULL_RECORDER)
        with pytest.raises(ExecutionError):
            cell.result()


def test_the_http_stack_loads_only_with_the_server():
    """``repro.obs`` imports ``MetricsServer`` lazily: the control
    plane and the executor load no ``http.server`` (nor the ``email``
    and ``socket`` modules it drags in), and the name still imports."""
    script = (
        "import sys\n"
        "import repro.sharing\n"
        "print('http.server' in sys.modules)\n"
        "from repro.obs import MetricsServer\n"
        "print(MetricsServer.__module__, 'http.server' in sys.modules)\n"
    )
    env = dict(os.environ, PYTHONPATH=os.path.join(os.path.dirname(__file__), "..", "src"))
    result = subprocess.run(
        [sys.executable, "-c", script],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    assert result.stdout.split("\n")[:2] == ["False", "repro.obs.serve True"]


class TestMetricsServer:
    @pytest.fixture()
    def server(self):
        recorder = Recorder()
        recorder.inc("exchange.cell0->cell1.items", 12)
        recorder.inc("cache.route.hits", 3)
        recorder.observe("op.sel.batch_s", 0.004)
        slos = [
            QuerySLO(
                query="Q1", shard=1, epoch_lag=1, delivery_latency_s=5.0,
                delivered_inputs=10, delivered_results=9, items_lost=0,
                migrations=0, backpressure_epochs=2, queue_peak=40,
            )
        ]
        with MetricsServer(recorder, slo_provider=lambda: slos) as srv:
            yield srv

    @staticmethod
    def _get(server, path):
        with urllib.request.urlopen(server.url + path, timeout=5) as reply:
            return reply.status, reply.headers, reply.read().decode("utf-8")

    def test_metrics_endpoint(self, server):
        status, headers, body = self._get(server, "/metrics")
        assert status == 200
        assert headers["Content-Type"].startswith("text/plain; version=0.0.4")
        assert (
            'repro_exchange_pair_items_total{src_shard="0",dst_shard="1"} 12'
            in body
        )
        assert "repro_cache_route_hits 3" in body

    def test_healthz_endpoint(self, server):
        status, _, body = self._get(server, "/healthz")
        payload = json.loads(body)
        assert status == 200
        assert payload["status"] == "ok"
        assert payload["counters"] == 2
        assert payload["histograms"] == 1
        assert payload["uptime_s"] >= 0.0

    def test_slo_endpoint(self, server):
        status, _, body = self._get(server, "/slo.json")
        (record,) = json.loads(body)
        assert status == 200
        assert record["query"] == "Q1"
        assert record["delivery_latency_s"] == 5.0
        assert QuerySLO.from_dict(record).backpressure_epochs == 2

    def test_unknown_path_is_404(self, server):
        with pytest.raises(urllib.error.HTTPError) as info:
            self._get(server, "/nope")
        assert info.value.code == 404

    def test_stop_is_idempotent(self, server):
        server.stop()
        server.stop()


class TestQuerySLORoundTrip:
    def test_dict_round_trip(self):
        slo = QuerySLO(
            query="Q7", shard=0, epoch_lag=0, delivery_latency_s=0.0,
            delivered_inputs=5, delivered_results=5, items_lost=1,
            migrations=2, backpressure_epochs=0, queue_peak=9, parked=True,
        )
        assert QuerySLO.from_dict(slo.to_dict()) == slo

    def test_from_dict_ignores_foreign_fields(self):
        data = {
            "query": "Q1", "shard": 0, "epoch_lag": 0,
            "delivery_latency_s": 0.0, "delivered_inputs": 1,
            "delivered_results": 1, "items_lost": 0, "migrations": 0,
            "backpressure_epochs": 0, "queue_peak": 0,
            "future_field": "ignored",
        }
        assert QuerySLO.from_dict(data).query == "Q1"

    def test_slos_from_events_filters_and_sorts(self):
        events = [
            {"t": 0.0, "name": "other", "fields": {}},
            {"t": 1.0, "name": "query.slo", "fields": {
                "query": "Q2", "shard": 1, "epoch_lag": 0,
                "delivery_latency_s": 0.0, "delivered_inputs": 0,
                "delivered_results": 0, "items_lost": 0, "migrations": 0,
                "backpressure_epochs": 0, "queue_peak": 0,
            }},
            {"t": 1.0, "name": "query.slo", "fields": {
                "query": "Q1", "shard": 0, "epoch_lag": 0,
                "delivery_latency_s": 0.0, "delivered_inputs": 0,
                "delivered_results": 0, "items_lost": 0, "migrations": 0,
                "backpressure_epochs": 0, "queue_peak": 0,
            }},
        ]
        assert [s.query for s in slos_from_events(events)] == ["Q1", "Q2"]


class TestHistogramQuantiles:
    def test_quantiles_are_monotone(self):
        hist = _hist([0.001 * n for n in range(1, 200)])
        summary = hist.to_dict()
        assert summary["p50"] <= summary["p95"] <= summary["p99"] <= summary["max"]
        assert summary["p50"] == pytest.approx(0.1, rel=0.5)

    def test_round_trip_preserves_quantiles(self):
        hist = _hist([0.002, 0.02, 0.2, 2.0])
        clone = Histogram.from_dict(hist.to_dict())
        assert clone.to_dict() == hist.to_dict()

    def test_merge_accumulates(self):
        a = _hist([0.001, 0.01])
        b = _hist([0.1, 1.0])
        a.merge(b)
        assert a.count == 4
        assert a.to_dict()["p99"] >= 0.1
