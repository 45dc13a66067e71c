"""Exporter tests: JSONL round-trip, Chrome traces, Prometheus text."""

import io
import json

import pytest

from repro.network.topology import example_topology
from repro.obs import (
    Recorder,
    chrome_trace,
    load_jsonl,
    prometheus_text,
    write_chrome_trace,
    write_jsonl,
)
from repro.obs.cli import summarize
from repro.obs.recorder import HISTOGRAM_BUCKETS
from repro.obs.timeseries import EpochSnapshot
from repro.workload.scenarios import SCENARIOS, run_scenario


@pytest.fixture()
def recorder():
    r = Recorder()
    with r.span("register", query="Q1") as span:
        with r.span("plan"):
            pass
        span.set(accepted=True)
    r.event("plan.decision", query="Q1", accepted=True)
    r.inc("cache.route.hits", 7)
    r.inc("cache.route.misses", 3)
    r.set_gauge("cache.route.hit_rate", 0.7)
    r.observe("op.select.batch_s", 0.004)
    r.add_epoch(
        EpochSnapshot(
            index=0,
            t_start=0.0,
            t_end=5.0,
            peer_cpu_percent={"SP4": 12.5},
            link_kbps={"SP4-SP5": 80.0},
            items_generated=100,
            items_delivered=90,
            inflight_peak=6,
        )
    )
    return r


class TestJsonlRoundTrip:
    def test_full_round_trip(self, recorder, tmp_path):
        path = str(tmp_path / "run.jsonl")
        write_jsonl(recorder, path, net=example_topology(), extra={"scenario": "t"})
        log = load_jsonl(path)
        assert log.meta["format"] == "repro.obs/1"
        assert log.meta["scenario"] == "t"
        assert log.meta["peers"]["SP4"] > 0
        assert [s.name for s in log.spans] == ["plan", "register"]
        assert log.spans[0].parent_id == log.spans[1].span_id
        (decision,) = log.events
        assert decision["name"] == "plan.decision"
        assert decision["fields"]["query"] == "Q1"
        assert log.counters["cache.route.hits"] == 7
        assert log.gauges["cache.route.hit_rate"] == 0.7
        assert log.histograms["op.select.batch_s"].count == 1
        (epoch,) = log.epochs
        assert epoch.peer_cpu_percent == {"SP4": 12.5}
        assert epoch.items_delivered == 90

    def test_every_line_is_valid_json(self, recorder, tmp_path):
        path = str(tmp_path / "run.jsonl")
        write_jsonl(recorder, path)
        with open(path, "r", encoding="utf-8") as handle:
            lines = [json.loads(line) for line in handle if line.strip()]
        assert lines[0]["type"] == "meta"
        assert {line["type"] for line in lines} == {
            "meta", "span", "event", "epoch", "counter", "gauge", "hist",
        }

    def test_span_totals_match_recorder(self, recorder, tmp_path):
        path = str(tmp_path / "run.jsonl")
        write_jsonl(recorder, path)
        log = load_jsonl(path)
        assert log.span_totals().keys() == recorder.span_totals().keys()
        for name, entry in recorder.span_totals().items():
            assert log.span_totals()[name]["count"] == entry["count"]


class TestLoadRefusesWhatIsNotARunLog:
    """``load_jsonl`` names the path and the line it refuses."""

    @staticmethod
    def _load(tmp_path, *lines):
        path = tmp_path / "run.jsonl"
        path.write_text("".join(line + "\n" for line in lines))
        with pytest.raises(ValueError) as info:
            load_jsonl(str(path))
        return str(info.value).replace(str(path), "RUN")

    def test_a_line_that_is_not_json(self, tmp_path):
        meta = json.dumps({"type": "meta", "format": "repro.obs/1"})
        message = self._load(tmp_path, meta, "", "{not json")
        assert message.startswith("RUN:3: not JSON")

    def test_json_without_a_meta_header(self, tmp_path):
        counter = json.dumps({"type": "counter", "name": "x", "value": 1})
        message = self._load(tmp_path, "", counter)
        assert message.startswith("RUN:2: not a repro.obs/1 run log")

    def test_a_wrong_format_tag(self, tmp_path):
        meta = json.dumps({"type": "meta", "format": "repro.obs/2"})
        message = self._load(tmp_path, meta)
        assert message.startswith("RUN:1: not a repro.obs/1 run log")


def _summary(recorder):
    out = io.StringIO()
    summarize(recorder, out)
    return out.getvalue()


class TestRunLogIsAFixedPoint:
    """A run log loads back as the recorder that wrote it: every
    exporter reads the two alike, and writing the loaded one again
    reproduces the log."""

    @pytest.mark.parametrize("workers", [1, 2])
    def test_loaded_recorder_exports_like_the_live_one(
        self, workers, tmp_path, inline_cells
    ):
        recorder = Recorder()
        run_scenario(
            SCENARIOS["churn-smoke"](), "stream-sharing",
            recorder=recorder, workers=workers,
        )
        assert any("shard" in span.attrs for span in recorder.spans) == (
            workers == 2
        )
        path = tmp_path / "run.jsonl"
        write_jsonl(recorder, str(path), extra={"scenario": "churn-smoke"})
        loaded = load_jsonl(str(path))
        recorder.meta = loaded.meta
        assert prometheus_text(loaded) == prometheus_text(recorder)
        assert _summary(loaded) == _summary(recorder)
        assert json.dumps(chrome_trace(loaded), sort_keys=True) == json.dumps(
            chrome_trace(recorder), sort_keys=True
        )
        again = tmp_path / "again.jsonl"
        write_jsonl(loaded, str(again))
        assert again.read_text().splitlines()[1:] == path.read_text().splitlines()[1:]


class TestChromeTrace:
    def test_spans_become_complete_events(self, recorder):
        trace = chrome_trace(recorder)
        xs = [e for e in trace["traceEvents"] if e["ph"] == "X"]
        assert {e["name"] for e in xs} == {"register", "plan"}
        register = next(e for e in xs if e["name"] == "register")
        assert register["dur"] >= 0
        assert register["args"]["accepted"] is True

    def test_epochs_become_counter_events(self, recorder):
        trace = chrome_trace(recorder)
        counters = [e for e in trace["traceEvents"] if e["ph"] == "C"]
        names = {e["name"] for e in counters}
        assert "data-plane CPU (%)" in names
        assert "in-flight items" in names

    def test_runlog_source_equivalent(self, recorder, tmp_path):
        path = str(tmp_path / "run.jsonl")
        write_jsonl(recorder, path)
        from_log = chrome_trace(load_jsonl(path))
        from_recorder = chrome_trace(recorder)
        assert len(from_log["traceEvents"]) == len(from_recorder["traceEvents"])

    def test_write_chrome_trace_is_json(self, recorder, tmp_path):
        path = str(tmp_path / "trace.json")
        write_chrome_trace(recorder, path)
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
        assert data["displayTimeUnit"] == "ms"


class TestPrometheusText:
    def test_counters_and_gauges(self, recorder):
        text = prometheus_text(recorder)
        assert "# TYPE repro_cache_route_hits counter" in text
        assert "repro_cache_route_hits 7" in text
        assert "# TYPE repro_cache_route_hit_rate gauge" in text

    def test_histogram_buckets_are_cumulative(self, recorder):
        recorder.observe("op.select.batch_s", 50.0)  # large value
        text = prometheus_text(recorder)
        counts = []
        for line in text.splitlines():
            if line.startswith('repro_op_batch_seconds_bucket{op="select"'):
                counts.append(int(line.rsplit(" ", 1)[1]))
        assert len(counts) == len(HISTOGRAM_BUCKETS) + 1
        assert counts == sorted(counts)  # monotone
        assert counts[-1] == 2  # +Inf bucket sees every observation
        assert 'repro_op_batch_seconds_count{op="select"} 2' in text

    def test_labeled_series(self, recorder):
        recorder.inc("exchange.cell0->cell1.items", 803)
        recorder.inc("op.selection.items", 42)
        recorder.set_gauge("exec.peak_live_items.shard1", 9)
        recorder.set_gauge("peer.work.SP0", 3.5)
        recorder.set_gauge("link.bits.SP0-SP1", 128.0)
        text = prometheus_text(recorder)
        assert (
            'repro_exchange_pair_items_total'
            '{src_shard="0",dst_shard="1"} 803' in text
        )
        assert 'repro_op_items_total{op="selection"} 42' in text
        assert 'repro_exec_peak_live_items{shard="1"} 9' in text
        assert 'repro_peer_work{peer="SP0"} 3.5' in text
        assert 'repro_link_bits{a="SP0",b="SP1"} 128' in text
        # One TYPE line per family even with many labeled series.
        recorder.inc("exchange.cell1->cell0.items", 7)
        text = prometheus_text(recorder)
        type_lines = [
            line
            for line in text.splitlines()
            if line.startswith("# TYPE repro_exchange_pair_items_total ")
        ]
        assert len(type_lines) == 1
