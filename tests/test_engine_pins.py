"""Absolute pins: a run reports what it reported before PR 18.

``fixtures/executor_pins.json`` was recorded at the last commit that had
a sequential executor and a separate sharded one (see
``tests/pins_executor.py`` for what is observed and how to re-record).
Since then a sequential run and a sharded run are the same control loop
over one cell or several, so the identity tests between them compare
the loop with itself; these pins compare it with the record.
"""

import json

import pytest

from .pins_executor import CASES, load_pins, observe, slo_counters, slo_events


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
