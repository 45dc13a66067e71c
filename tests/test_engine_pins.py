"""Absolute pins: a run reports what it reported before PR 18.

``fixtures/executor_pins.json`` was recorded at the last commit that had
a sequential executor and a separate sharded one (see
``tests/pins_executor.py`` for what is observed and how to re-record).
Since then a sequential run and a sharded run are the same control loop
over one cell or several, so the identity tests between them compare
the loop with itself; these pins compare it with the record.
"""

import copy
import json

import pytest

from .pins_executor import (
    CASES,
    load_pins,
    moved_outside_batch_shape,
    observe,
    slo_counters,
    slo_events,
)


@pytest.fixture(scope="module")
def pins():
    return load_pins()


def _observed(*args, **kwargs):
    """An observation as the fixture holds it (after a JSON round trip)."""
    return json.loads(json.dumps(observe(*args, **kwargs)))


@pytest.mark.parametrize("case", sorted(CASES))
def test_sequential_run_matches_the_record(case, pins):
    observed = _observed(case)
    recorded = pins[case]
    assert observed["metrics"] == recorded["metrics"]
    assert observed["captures"] == recorded["captures"]
    assert observed["slos"] == recorded["slos"]


@pytest.mark.parametrize("case", sorted(CASES))
def test_traced_sequential_run_log_matches_the_record(case, pins):
    observed = _observed(case, traced=True)
    recorded = pins[case]
    assert observed["metrics"] == recorded["metrics"]
    assert observed["captures"] == recorded["captures"]
    assert observed["slos"] == slo_events(recorded["log"])
    for part, expected in recorded["log"].items():
        assert observed["log"][part] == expected, part
    # Sequential epochs form the one global series.
    assert all("shard" not in epoch for epoch in observed["log"]["epochs"])


@pytest.mark.parametrize("workers", [2, 4])
@pytest.mark.parametrize("case", sorted(CASES))
def test_sharded_inline_run_matches_the_record(case, workers, pins, inline_cells):
    observed = _observed(case, workers=workers)
    recorded = pins[case]
    assert observed["metrics"] == recorded["metrics"]
    assert observed["captures"] == recorded["captures"]
    assert slo_counters(observed["slos"]) == slo_counters(recorded["slos"])


def test_rerecording_may_move_batch_shape_and_nothing_else(pins):
    """The re-recorder's guard: what describes batch shape may move, an
    output may not — it names the case and the part that moved."""
    record = copy.deepcopy(pins)
    case = record["hotspots-staggered"]
    log = case["log"]
    for epoch in log["epochs"]:
        epoch["inflight_peak"] += 1
    log["histogram_counts"] = {name: count + 1 for name, count in log["histogram_counts"].items()}
    log["gauges"] = [
        [name, value + 1 if name == "exec.peak_live_items" else value]
        for name, value in log["gauges"]
    ]
    for slo in case["slos"]:
        slo["queue_peak"] += 1
        slo["backpressure_epochs"] += 1
    for name, fields in log["events"]:
        for field in fields:
            if name == "query.slo" and field[0] in ("queue_peak", "backpressure_epochs"):
                field[1] += 1
    assert moved_outside_batch_shape(record, pins) == []
    case["slos"][0]["delivered_inputs"] += 1
    log["events"][-1][1][0][1] = "renamed"
    del record["scenario1"]
    assert moved_outside_batch_shape(record, pins) == [
        "hotspots-staggered: log",
        "hotspots-staggered: slos",
        "scenario1: captures",
        "scenario1: log",
        "scenario1: metrics",
        "scenario1: slos",
    ]
