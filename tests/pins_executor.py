"""Absolute pins of what an execution reports (``test_engine_pins.py``).

The identity tests compare the sequential and the sharded run, which
are two users of one control loop, so equality between them no longer
shows that either is right.  This module observes a run through the
public API only and reduces it to plain JSON: exact ``RunMetrics``
(floats by ``repr``), a digest of every query's captured results, the
``QuerySLO`` records and, for a traced run, what the run log derives
from counters (epoch snapshots without wall-clock fields, counters,
gauges, histogram sample counts, the ordered ``fault.applied`` /
``query.slo`` events).

``fixtures/executor_pins.json`` holds these observations as recorded at
commit ``d8cfb61``, the last one with two separate executors, and
re-recorded once when the default source batch went from 64 to 512
items (``SOURCE_BATCH``): only the :data:`BATCH_SHAPE` fields moved.
Re-record (only when an output change is intended and explained)::

    PYTHONPATH=src python -m tests.pins_executor

It refuses to write when the new record differs from the fixture
outside :data:`BATCH_SHAPE`: a change of batch shape may be re-recorded,
a change of output must be made on purpose, by hand.
"""

from __future__ import annotations

import fnmatch
import hashlib
import json
import os
import sys
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.faults import FaultSchedule, LinkFailure, single_crash, staggered_crashes
from repro.obs.drift import DriftConfig
from repro.obs.recorder import NULL_RECORDER, Recorder
from repro.sharing.rebalance import Rebalancer
from repro.sharing.system import StreamGlobe
from repro.workload.scenarios import (
    Scenario,
    run_scenario,
    scenario_churn_hotspots,
    scenario_drift,
    scenario_one,
)
from repro.xmlkit import serialize

from .conftest import PAPER_QUERIES, make_system

FIXTURE = os.path.join(os.path.dirname(__file__), "fixtures", "executor_pins.json")

#: Same knobs as ``tests/test_sharing_rebalance.py``.
DRIFT_CONFIG = DriftConfig(
    cpu_threshold=15.0, clear_threshold=8.0, window=2, sustain=2, cooldown=4
)

#: What a case hands back: the deployed system and ``run()`` arguments.
Case = Callable[[Any], Tuple[StreamGlobe, Dict[str, Any]]]


def _scenario_system(scenario: Scenario, recorder: Any) -> StreamGlobe:
    """``scenario`` registered under stream sharing, not yet run."""
    return run_scenario(
        scenario, "stream-sharing", execute=False, recorder=recorder
    ).system


def _scenario_one(recorder: Any) -> Tuple[StreamGlobe, Dict[str, Any]]:
    scenario = scenario_one()
    return _scenario_system(scenario, recorder), {"duration": scenario.duration}


def _example(
    faults: Callable[[], FaultSchedule], max_items: Optional[int] = 150
) -> Case:
    """The example-topology system of ``tests/test_engine_parallel.py``.

    Its 150-item cap exhausts the source at t = 1.5 s, before the first
    fault; the ``-uncapped`` variants keep items flowing through every
    repair.
    """

    def build(recorder: Any) -> Tuple[StreamGlobe, Dict[str, Any]]:
        system = make_system(recorder=recorder)
        for name, text in PAPER_QUERIES.items():
            system.register_query(name, text, subscriber_peer=f"P{name[1]}")
        return system, {
            "duration": 8.0,
            "max_items_per_source": max_items,
            "faults": faults(),
        }

    return build


def _hotspots(recorder: Any) -> Tuple[StreamGlobe, Dict[str, Any]]:
    scenario = scenario_churn_hotspots()
    return _scenario_system(scenario, recorder), {
        "duration": scenario.duration,
        "faults": scenario.faults,  # a staggered_crashes schedule
    }


def _drift(recorder: Any) -> Tuple[StreamGlobe, Dict[str, Any]]:
    scenario = scenario_drift()
    system = _scenario_system(scenario, recorder)
    return system, {
        "duration": scenario.duration,
        "rebalancer": Rebalancer(system, config=DRIFT_CONFIG),
    }


_EXAMPLE_FAULTS: Dict[str, Callable[[], FaultSchedule]] = {
    "crash_rejoin": lambda: single_crash(3.0, "SP5", rejoin_at=6.0),
    "link": lambda: FaultSchedule([LinkFailure(3.0, "SP4", "SP5")]),
    "rolling": lambda: staggered_crashes(
        3.0, ("SP6", "SP5"), spacing=2.0, downtime=3.0
    ),
}

CASES: Dict[str, Case] = {
    "scenario1": _scenario_one,
    **{f"example-{key}": _example(faults) for key, faults in _EXAMPLE_FAULTS.items()},
    **{
        f"example-{key}-uncapped": _example(faults, max_items=None)
        for key, faults in _EXAMPLE_FAULTS.items()
    },
    "hotspots-staggered": _hotspots,
    "drift-rebalanced": _drift,
}

#: SLO fields that say *what* a query was delivered — the same on any
#: partition; the others describe where and how fresh.
SLO_COUNTERS = ("query", "delivered_inputs", "delivered_results", "items_lost",
                "migrations", "parked")

#: Recorder series left out of the projection: ``columnar.*`` are
#: process-local counts of how batches were stored and decoded, the
#: three ``exec.*`` names count how much pumping the plan cost — they
#: describe the execution (which process ran a cell, what crossed a
#: cut, where a barrier cut a batch), not its output.  ``cache.*`` and
#: ``planner.*`` count how much work the control plane's search did to
#: find its plans (memo lookups, variants costed or bounded), not which
#: plans it found: the metrics, captures and SLOs pin those.
UNPINNED_PREFIXES = (
    "columnar.",
    "exec.source_batches",
    "exec.pump_steps",
    "exec.delivery_counts",
    "cache.",
    "planner.",
)


#: Pinned fields that describe how the run was cut into batches, not
#: what it delivered: the epochs' ``inflight_peak`` and the
#: ``exec.peak_live_items`` gauge (items in flight), how many batches
#: each operator timed, and per query the delivery queue's peak and the
#: epochs it exceeded one source batch (in ``slos`` and in the
#: ``query.slo`` events).  A dict key or a ``[name, value]`` pair
#: matching one of these patterns is one of them.
BATCH_SHAPE = (
    "inflight_peak",
    "exec.peak_live_items",
    "op.*.batch_s",
    "queue_peak",
    "backpressure_epochs",
)


def _is_batch_shape(name: Any) -> bool:
    return isinstance(name, str) and any(
        fnmatch.fnmatchcase(name, pattern) for pattern in BATCH_SHAPE
    )


def outside_batch_shape(value: Any) -> Any:
    """``value`` (a record, or any part of one) without its
    :data:`BATCH_SHAPE` fields."""
    if isinstance(value, dict):
        return {
            key: outside_batch_shape(part)
            for key, part in value.items()
            if not _is_batch_shape(key)
        }
    if isinstance(value, list):
        return [
            outside_batch_shape(part)
            for part in value
            if not (isinstance(part, list) and len(part) == 2 and _is_batch_shape(part[0]))
        ]
    return value


def moved_outside_batch_shape(
    record: Dict[str, Any], pins: Dict[str, Any]
) -> List[str]:
    """``case: part`` for every pinned part ``record`` changes outside
    :data:`BATCH_SHAPE` (a case ``record`` lacks counts as changed; a
    new case has nothing to compare with)."""
    moved = []
    for case, parts in sorted(pins.items()):
        new = record.get(case, {})
        for part, value in sorted(parts.items()):
            if outside_batch_shape(new.get(part)) != outside_batch_shape(value):
                moved.append(f"{case}: {part}")
    return moved


def _number(value: Any) -> Any:
    """Floats by ``repr`` so the pin is exact; everything else as is."""
    return repr(value) if isinstance(value, float) else value


def _numbers(mapping: Dict[Any, Any]) -> List[List[Any]]:
    """A dict as ordered ``[key, value]`` pairs (insertion order is part
    of what is pinned; tuple keys become ``a-b``)."""
    return [
        ["-".join(key) if isinstance(key, tuple) else key, _number(value)]
        for key, value in mapping.items()
    ]


def metrics_record(metrics: Any) -> Dict[str, Any]:
    record: Dict[str, Any] = {}
    for name, value in vars(metrics).items():
        record[name] = _numbers(value) if isinstance(value, dict) else _number(value)
    return record


def _pinned(mapping: Dict[str, Any]) -> Dict[str, Any]:
    return {
        name: value
        for name, value in mapping.items()
        if not name.startswith(UNPINNED_PREFIXES)
    }


def run_log_projection(recorder: Recorder) -> Dict[str, Any]:
    """The part of a traced run's log that is derived from counters."""
    epochs = []
    for snapshot in recorder.epochs:
        data = snapshot.to_dict()
        del data["wall_s"]
        epochs.append(
            {
                key: _numbers(value) if isinstance(value, dict) else _number(value)
                for key, value in data.items()
            }
        )
    return {
        "epochs": epochs,
        "counters": _numbers(dict(sorted(_pinned(recorder.counters).items()))),
        "gauges": _numbers(dict(sorted(_pinned(recorder.gauges).items()))),
        "histogram_counts": {
            name: hist.count
            for name, hist in sorted(recorder.histograms.items())
            if name.startswith("op.")
        },
        "events": [
            [event["name"], _numbers(event["fields"])]
            for event in recorder.events
            if event["name"] in ("fault.applied", "query.slo")
        ],
    }


#: Counters only a multi-cell run has (its exchange traffic and its
#: executor shape).
_CELL_PREFIXES = ("exchange.", "exec.")


def partition_free(log: Dict[str, Any]) -> Dict[str, Any]:
    """The part of :func:`run_log_projection` that no partition into
    cells and no source batch size may change: what was generated per
    epoch and delivered in total (delivery may lag production by the
    certified ``epoch_lag``), the counters every run has, the ordered fault
    events and what each ``query.slo`` event says was delivered.  (How
    many batches an operator timed is not in it: an exchange barrier
    may hand a cell in two batches what one cell pumps as one.)"""
    generated: Dict[str, int] = {}
    delivered = 0
    for epoch in log["epochs"]:
        key = f"{epoch['t_start']}-{epoch['t_end']}"
        generated[key] = generated.get(key, 0) + epoch["items_generated"]
        delivered += epoch["items_delivered"]
    return {
        "generated": generated,
        "delivered": delivered,
        "counters": [
            pair for pair in log["counters"] if not pair[0].startswith(_CELL_PREFIXES)
        ],
        "events": [
            [name, fields if name == "fault.applied" else slo_counters([dict(fields)])]
            for name, fields in log["events"]
        ],
    }


def observe(case: str, workers: int = 1, traced: bool = False) -> Dict[str, Any]:
    """One run of ``case``, traced or not."""
    recorder = Recorder() if traced else NULL_RECORDER
    system, run_args = CASES[case](recorder)
    digests: Dict[str, Any] = {}
    counts: Dict[str, int] = {}

    def capture(name: str, item: Any) -> None:
        digest = digests.get(name)
        if digest is None:
            digest = digests[name] = hashlib.sha256()
        digest.update(serialize(item).encode("utf-8"))
        digest.update(b"\n")
        counts[name] = counts.get(name, 0) + 1

    duration = run_args.pop("duration")
    metrics = system.run(duration, capture=capture, workers=workers, **run_args)
    simulator = system.last_simulator
    observed: Dict[str, Any] = {
        "metrics": metrics_record(metrics),
        "captures": {
            name: [counts[name], digests[name].hexdigest()] for name in sorted(digests)
        },
        "slos": [
            {key: _number(value) for key, value in slo.to_dict().items()}
            for slo in simulator.last_query_slos
        ],
    }
    if traced:
        observed["log"] = run_log_projection(recorder)
    return observed


def slo_counters(slos: List[Dict[str, Any]]) -> List[Dict[str, Any]]:
    return [{key: slo[key] for key in SLO_COUNTERS} for slo in slos]


def record_all() -> Dict[str, Any]:
    pins: Dict[str, Any] = {}
    for case in CASES:
        untraced = observe(case)
        traced = observe(case, traced=True)
        assert traced["metrics"] == untraced["metrics"], case
        assert traced["captures"] == untraced["captures"], case
        # The traced run's SLO records are its ``query.slo`` events.
        assert slo_events(traced["log"]) == traced["slos"], case
        pins[case] = {**untraced, "log": traced["log"]}
    return pins


def slo_events(log: Dict[str, Any]) -> List[Dict[str, Any]]:
    return [dict(fields) for name, fields in log["events"] if name == "query.slo"]


def load_pins() -> Dict[str, Any]:
    """The fixture, with the run log's counters and gauges projected
    like an observation (a series unpinned after the fixture was
    recorded drops out here)."""
    with open(FIXTURE, encoding="utf-8") as handle:
        pins = json.load(handle)
    for parts in pins.values():
        log = parts["log"]
        for series in ("counters", "gauges"):
            log[series] = [
                pair for pair in log[series] if not pair[0].startswith(UNPINNED_PREFIXES)
            ]
    return pins


def _dump(pins: Dict[str, Any]) -> str:
    """One line per case and part: compact, and a diff names the part."""
    cases = []
    for case, parts in sorted(pins.items()):
        lines = ",\n".join(
            f"  {json.dumps(part)}: {json.dumps(value, separators=(',', ':'))}"
            for part, value in sorted(parts.items())
        )
        cases.append(f" {json.dumps(case)}: {{\n{lines}\n }}")
    return "{\n" + ",\n".join(cases) + "\n}\n"


def main() -> int:
    text = _dump(record_all())
    if os.path.exists(FIXTURE):
        moved = moved_outside_batch_shape(json.loads(text), load_pins())
        if moved:
            print(
                f"not writing {FIXTURE}: outside BATCH_SHAPE the record differs in",
                *moved,
                sep="\n  ",
                file=sys.stderr,
            )
            return 1
    os.makedirs(os.path.dirname(FIXTURE), exist_ok=True)
    with open(FIXTURE, "w", encoding="utf-8") as out:
        out.write(text)
    print(f"wrote {FIXTURE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
