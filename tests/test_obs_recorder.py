"""Unit tests for the instrumentation core (repro.obs.recorder)."""

import time

import pytest

from repro.obs import NULL_RECORDER, NullRecorder, Recorder
from repro.obs.recorder import HISTOGRAM_BUCKETS, Histogram
from repro.obs.timeseries import EpochSnapshot


class TestHistogram:
    def test_observe_accumulates(self):
        hist = Histogram()
        for value in (0.001, 0.002, 0.5):
            hist.observe(value)
        assert hist.count == 3
        assert hist.total == pytest.approx(0.503)
        assert hist.min == pytest.approx(0.001)
        assert hist.max == pytest.approx(0.5)
        assert hist.mean() == pytest.approx(0.503 / 3)

    def test_bucket_placement(self):
        hist = Histogram()
        hist.observe(5e-8)  # below the smallest bound
        hist.observe(0.5)   # between 0.1 and 1
        hist.observe(1e9)   # beyond the largest bound -> overflow bucket
        assert hist.buckets[0] == 1
        assert hist.buckets[HISTOGRAM_BUCKETS.index(1.0)] == 1
        assert hist.buckets[-1] == 1
        assert sum(hist.buckets) == hist.count

    def test_empty_to_dict_has_no_infinities(self):
        data = Histogram().to_dict()
        assert data["min"] == 0.0 and data["max"] == 0.0
        assert data["count"] == 0 and data["mean"] == 0.0


class TestRecorderScalars:
    def test_counters_and_gauges(self):
        recorder = Recorder()
        recorder.inc("cache.route.hits")
        recorder.inc("cache.route.hits", 2)
        recorder.set_gauge("exec.peak_live_items", 42)
        assert recorder.counters["cache.route.hits"] == 3
        assert recorder.gauges["exec.peak_live_items"] == 42

    def test_observe_creates_named_histograms(self):
        recorder = Recorder()
        recorder.observe("op.select.batch_s", 0.01)
        recorder.observe("op.select.batch_s", 0.02)
        assert recorder.histograms["op.select.batch_s"].count == 2

    def test_events_are_time_stamped(self):
        recorder = Recorder()
        recorder.event("fault.applied", fault="SP1 crashes")
        (event,) = recorder.events
        assert event["name"] == "fault.applied"
        assert event["fields"] == {"fault": "SP1 crashes"}
        assert event["t"] >= 0.0

    def test_add_epoch_stamps_wall_time(self):
        recorder = Recorder()
        snapshot = EpochSnapshot(index=0, t_start=0.0, t_end=1.0)
        recorder.add_epoch(snapshot)
        assert recorder.epochs == [snapshot]
        assert snapshot.wall_s >= 0.0


class TestSpans:
    def test_nesting_assigns_parents(self):
        recorder = Recorder()
        with recorder.span("register", query="Q1") as outer:
            with recorder.span("parse") as inner:
                pass
        assert inner.parent_id == outer.span_id
        assert outer.parent_id is None
        # Completion order: inner closed first.
        assert [s.name for s in recorder.spans] == ["parse", "register"]

    def test_attrs_and_set(self):
        recorder = Recorder()
        with recorder.span("register", query="Q1") as span:
            span.set(accepted=True)
        assert span.attrs == {"query": "Q1", "accepted": True}
        assert span.end_s >= span.start_s

    def test_exception_records_error_and_propagates(self):
        recorder = Recorder()
        with pytest.raises(ValueError):
            with recorder.span("plan") as span:
                raise ValueError("boom")
        assert span.attrs["error"] == "ValueError: boom"
        assert span.end_s is not None
        assert recorder._open == []

    def test_exception_unwinds_nested_open_spans(self):
        recorder = Recorder()
        with pytest.raises(RuntimeError):
            with recorder.span("register"):
                recorder.span("plan")  # left open deliberately
                raise RuntimeError("unwound")
        assert recorder._open == []

    def test_span_totals_aggregates_by_name(self):
        recorder = Recorder()
        for _ in range(3):
            with recorder.span("search"):
                pass
        totals = recorder.span_totals()
        assert totals["search"]["count"] == 3
        assert totals["search"]["total_s"] >= totals["search"]["max_s"]


class TestNullRecorder:
    def test_disabled_and_inert(self):
        assert NULL_RECORDER.enabled is False
        assert isinstance(NULL_RECORDER, NullRecorder)
        NULL_RECORDER.inc("x")
        NULL_RECORDER.set_gauge("g", 1.0)
        NULL_RECORDER.observe("h", 0.5)
        NULL_RECORDER.event("e", a=1)
        NULL_RECORDER.add_epoch(object())

    def test_span_is_the_shared_noop(self):
        with NULL_RECORDER.span("register", query="Q1") as span:
            span.set(accepted=True)
        assert span is NULL_RECORDER.span("anything")


class TestDefaultRecorder:
    def test_null_unless_env_set(self):
        """A system handed no recorder records nothing: ``recorder=``
        is the only way to trace (no environment is read — the session
        guard in ``tests/conftest.py``)."""
        from repro.network.topology import example_topology
        from repro.sharing import StreamGlobe

        assert StreamGlobe(example_topology()).recorder is NULL_RECORDER
        live = Recorder()
        assert StreamGlobe(example_topology(), recorder=live).recorder is live


class TestEpochPin:
    """``created_unix`` is the wall clock at construction and lives on
    the meta line only: everything after it is a function of what was
    recorded."""

    def test_unset_uses_wall_clock(self):
        before = time.time()
        recorder = Recorder()
        assert before <= recorder.created_unix <= time.time()

    def test_pin_makes_exports_byte_stable(self, tmp_path):
        """Two recorders with equal contents export equal lines after
        the meta line."""
        from repro.obs import write_jsonl

        bodies = []
        for run in range(2):
            recorder = Recorder()
            recorder.inc("cache.hits", 3)
            recorder.set_gauge("cache.hit_rate", 0.75)
            recorder.observe("op.select.batch_s", 0.001)
            path = tmp_path / f"run{run}.jsonl"
            write_jsonl(recorder, str(path))
            meta, *body = path.read_text().splitlines()
            assert '"type": "meta"' in meta
            bodies.append(body)
        assert bodies[0] == bodies[1] and len(bodies[0]) == 3
