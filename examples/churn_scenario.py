"""Churn: a super-peer crashes mid-run, the deployment self-repairs.

Runs the churn scenario (a 3x3 grid whose peer SP1 crashes at t=10 and
rejoins at t=20) twice — once fault-free, once under the fault
schedule — and reports what the crash cost: which subscriptions were
re-planned, how long recovery took in stream time, how many items were
lost while re-registering, how much extra traffic the detour routes
carried, and that every *unaffected* subscription still delivered
byte-identical results.

Run with::

    python examples/churn_scenario.py
    python examples/churn_scenario.py --trace   # also write churn_run.jsonl
                                                # + churn_trace.json

With ``--trace`` the faulted run is recorded through ``repro.obs``:
``churn_run.jsonl`` feeds ``python -m repro.obs summarize`` and
``churn_trace.json`` opens in chrome://tracing or ui.perfetto.dev,
showing the planner span tree and the per-epoch CPU/traffic series
around the crash (DESIGN.md §10).
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.workload.scenarios import run_scenario, scenario_churn
from repro.xmlkit.serializer import serialize


def execute(scenario, faulted, recorder=None):
    run = run_scenario(scenario, "stream-sharing", execute=False, recorder=recorder)
    outputs = {spec.name: [] for spec in scenario.queries}
    metrics = run.system.run(
        scenario.duration,
        faults=scenario.faults if faulted else None,
        capture=lambda query, item: outputs[query].append(serialize(item)),
    )
    return run.system, metrics, outputs


def main() -> None:
    trace = "--trace" in sys.argv[1:]
    scenario = scenario_churn()
    print(f"scenario: {scenario.name}, {len(scenario.queries)} queries, "
          f"{scenario.duration:g}s of stream time")
    for line in scenario.faults.describe():
        print(f"  {line}")

    recorder = None
    if trace:
        from repro.obs import Recorder

        recorder = Recorder()

    _, _, baseline = execute(scenario, faulted=False)
    system, metrics, churned = execute(scenario, faulted=True, recorder=recorder)

    # Which subscriptions did the faults actually touch?
    probe = run_scenario(scenario, "stream-sharing", execute=False)
    affected = set()
    for event in scenario.faults.events():
        affected.update(probe.system.apply_fault(event).torn_down_queries)

    print(f"\nfaults applied:        {metrics.faults_applied}")
    print(f"re-planned queries:    {sorted(affected)}")
    print(f"recovery time:         {metrics.recovery_time_s:.3f} s (stream time)")
    print(f"items lost:            {metrics.items_lost}")
    print(f"re-routed traffic:     {metrics.rerouted_mbit():.3f} MBit "
          f"({metrics.recovery_overhead():.1%} of the run's transport)")
    print(f"unrepaired queries:    {metrics.queries_lost}")

    unaffected = [name for name in baseline if name not in affected]
    identical = all(churned[name] == baseline[name] for name in unaffected)
    print(f"\n{len(unaffected)} unaffected subscription(s) byte-identical "
          f"to the fault-free run: {identical}")
    assert identical

    survivors = system.net.super_peer_names()
    print(f"backbone after the run: {len(survivors)} super-peers "
          f"(removed: {system.net.removed_super_peer_names() or 'none'})")

    if recorder is not None:
        from repro.obs import write_chrome_trace, write_jsonl

        write_jsonl(recorder, "churn_run.jsonl", net=system.net,
                    extra={"scenario": scenario.name, "strategy": "stream-sharing",
                           "duration_s": scenario.duration})
        write_chrome_trace(recorder, "churn_trace.json")
        print(f"\ntraced: {len(recorder.spans)} spans, "
              f"{len(recorder.epochs)} epochs, {len(recorder.events)} events")
        print("  churn_run.jsonl   -> python -m repro.obs summarize churn_run.jsonl")
        print("  churn_trace.json  -> open in chrome://tracing or ui.perfetto.dev")


if __name__ == "__main__":
    main()
