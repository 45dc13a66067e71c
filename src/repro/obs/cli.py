"""Command-line run introspection: ``python -m repro.obs ...``.

Subcommands:

* ``record``    — execute a workload scenario with tracing on and write
  the JSONL run log (optionally also a Prometheus text snapshot);
* ``summarize`` — print a run log's per-epoch peer-CPU / link-traffic
  series, planner span timings, per-query SLOs and cache hit rates;
* ``diff``      — compare two run logs (counters, span totals, epoch
  aggregates);
* ``chrome``    — convert a JSONL run log into a Chrome ``trace_event``
  file for chrome://tracing / Perfetto;
* ``serve``     — execute a scenario while serving live ``/metrics``
  (Prometheus), ``/healthz`` and ``/slo.json`` over HTTP.

``summarize``, ``diff`` and ``chrome`` read a run log back as the
:class:`~repro.obs.Recorder` it was written from; a file that is not a
run log is refused with one line on stderr and exit status 2.
"""

from __future__ import annotations

import argparse
import sys
from typing import Any, Dict, List, Optional, Sequence

from .export import (
    PLANNER_SPAN_ORDER,
    format_table,
    load_jsonl,
    write_chrome_trace,
    write_jsonl,
)
from .recorder import Histogram, Recorder
from .slo import QuerySLO, slos_from_events


# ----------------------------------------------------------------------
# summarize
# ----------------------------------------------------------------------
def _epoch_series_tables(log: Recorder, max_links: int = 8) -> List[str]:
    if not log.epochs:
        return ["(no epoch time series in this run log)"]
    peers = sorted({p for e in log.epochs for p in e.peer_cpu_percent})
    out: List[str] = []
    rows = [
        [e.index, e.t_start, e.t_end]
        + [e.peer_cpu_percent.get(p, 0.0) for p in peers]
        for e in log.epochs
    ]
    out.append("Per-epoch peer CPU load (% of capacity):")
    out.append(format_table(["epoch", "t0", "t1"] + peers, rows))

    link_totals: Dict[str, float] = {}
    for e in log.epochs:
        for link, bits in e.link_bits.items():
            link_totals[link] = link_totals.get(link, 0.0) + bits
    links = sorted(link_totals, key=lambda l: -link_totals[l])[:max_links]
    rows = [
        [e.index, e.t_start, e.t_end] + [e.link_kbps.get(l, 0.0) for l in links]
        for e in log.epochs
    ]
    title = "Per-epoch link traffic (kbit/s"
    if len(link_totals) > len(links):
        title += f", top {len(links)} of {len(link_totals)} links by volume"
    out.append("")
    out.append(title + "):")
    out.append(format_table(["epoch", "t0", "t1"] + links, rows))

    rows = [
        [
            e.index,
            e.items_generated,
            e.items_delivered,
            e.items_lost,
            e.rerouted_traffic_bits,
            e.faults_applied,
            e.inflight_peak,
        ]
        for e in log.epochs
    ]
    out.append("")
    out.append("Per-epoch item flow and churn transients:")
    out.append(
        format_table(
            ["epoch", "generated", "delivered", "lost", "rerouted_bits", "faults", "q_peak"],
            rows,
        )
    )
    return out


def _span_timing_table(log: Recorder) -> str:
    totals = log.span_totals()
    if not totals:
        return "(no spans in this run log)"
    ordered = [n for n in PLANNER_SPAN_ORDER if n in totals]
    ordered += sorted(n for n in totals if n not in PLANNER_SPAN_ORDER)
    rows = [
        [
            name,
            int(totals[name]["count"]),
            totals[name]["total_s"] * 1e3,
            totals[name]["total_s"] / totals[name]["count"] * 1e3,
            totals[name]["max_s"] * 1e3,
        ]
        for name in ordered
    ]
    return format_table(["span", "count", "total_ms", "mean_ms", "max_ms"], rows)


def _cache_table(log: Recorder) -> str:
    """One row per ``cache.<name>.hit_rate`` gauge, beside the cache's
    counters (``StreamGlobe.cache_stats()`` mirrored into the recorder)."""
    counters = log.counters
    caches = sorted(
        name[: -len(".hit_rate")]
        for name in log.gauges
        if name.startswith("cache.") and name.endswith(".hit_rate")
    )
    if not caches:
        return "(no cache counters in this run log)"
    rows = []
    for base in caches:
        invalidations = counters.get(base + ".invalidations")
        rows.append(
            [
                base,
                int(counters.get(base + ".hits", 0)),
                int(counters.get(base + ".misses", 0)),
                f"{log.gauges[base + '.hit_rate'] * 100:.1f}%",
                int(invalidations) if invalidations is not None else "-",
            ]
        )
    return format_table(["cache", "hits", "misses", "hit_rate", "invalidations"], rows)


def _operator_latency_table(histograms: Dict[str, Histogram]) -> Optional[str]:
    """Operator batch-latency quantiles (ms), global and per shard, or
    ``None`` when the run recorded no operator histograms (untraced)."""
    rows = [
        [
            name[len("op."):],
            hist.count,
            hist.mean() * 1e3,
            hist.quantile(0.50) * 1e3,
            hist.quantile(0.95) * 1e3,
            hist.quantile(0.99) * 1e3,
            hist.max * 1e3,
        ]
        for name, hist in sorted(histograms.items())
        if name.startswith("op.") and ".batch_s" in name
    ]
    if not rows:
        return None
    return format_table(
        ["operator", "batches", "mean_ms", "p50_ms", "p95_ms", "p99_ms", "max_ms"],
        rows,
    )


def _slo_table(log: Recorder) -> Optional[str]:
    """The per-query SLO table, or ``None`` for logs without
    ``query.slo`` events."""
    slos = slos_from_events(log.events)
    if not slos:
        return None
    rows = [
        [
            s.query,
            s.shard,
            s.epoch_lag,
            s.delivery_latency_s,
            s.delivered_inputs,
            s.delivered_results,
            s.items_lost,
            s.migrations,
            s.backpressure_epochs,
            s.queue_peak,
            "yes" if s.parked else "-",
        ]
        for s in slos
    ]
    return format_table(
        [
            "query",
            "shard",
            "lag",
            "latency_s",
            "inputs",
            "results",
            "lost",
            "moved",
            "bp_epochs",
            "q_peak",
            "parked",
        ],
        rows,
    )


def _columnar_table(counters: Dict[str, float]) -> Optional[str]:
    """Columnar-engine counter table, or ``None`` when the run bumped
    no ``columnar.*`` counter (every batch small enough for a row store
    unexamined, or an untraced run).

    Which store engaged: ``batches_encoded`` / ``rows_encoded`` count
    sniffed batches stored under one shape (shape stores),
    ``batches_grouped`` / ``rows_grouped`` those stored under a few
    (grouped stores); ``batches_bypassed_irregular`` minus
    ``batches_grouped``, plus ``batches_bypassed_shape``, went to row
    stores after sniffing.  ``delivery_kernel_batches`` are deliveries
    counted per shape instead of built per item."""
    rows = [
        [name[len("columnar."):], int(value)]
        for name, value in sorted(counters.items())
        if name.startswith("columnar.")
    ]
    if not rows:
        return None
    return format_table(["columnar", "count"], rows)


def summarize(log: Recorder, out: Any = None) -> None:
    """Print a recorder's report: a run log loaded by
    :func:`~repro.obs.load_jsonl` (its header in ``meta``) or a live
    recorder."""
    out = out or sys.stdout
    w = out.write
    meta = log.meta
    w("== run ==\n")
    for key in ("scenario", "strategy", "duration_s", "created_unix", "format"):
        if key in meta:
            w(f"  {key}: {meta[key]}\n")
    w(
        f"  spans={len(log.spans)} events={len(log.events)} "
        f"epochs={len(log.epochs)} counters={len(log.counters)}\n"
    )

    w("\n== data plane: per-epoch time series ==\n")
    for block in _epoch_series_tables(log):
        w(block + "\n")

    w("\n== control plane: planner span timings ==\n")
    w(_span_timing_table(log) + "\n")

    latency = _operator_latency_table(log.histograms)
    if latency is not None:
        w("\n== data plane: operator batch latency ==\n")
        w(latency + "\n")

    slo = _slo_table(log)
    if slo is not None:
        w("\n== per-query SLOs ==\n")
        w(slo + "\n")

    w("\n== caches ==\n")
    w(_cache_table(log) + "\n")

    columnar = _columnar_table(log.counters)
    if columnar is not None:
        w("\n== columnar engine ==\n")
        w(columnar + "\n")

    decisions = [e for e in log.events if e["name"] == "plan.decision"]
    if decisions:
        w("\n== plan decisions ==\n")
        for event in decisions:
            f = event["fields"]
            w(
                "  {query}: {strategy} accepted={accepted} cost={cost} "
                "reused={reused}\n".format(
                    query=f.get("query", "?"),
                    strategy=f.get("strategy", "?"),
                    accepted=f.get("accepted", "?"),
                    cost=_maybe_round(f.get("total_cost")),
                    reused=f.get("reused_streams", []),
                )
            )
    repairs = [e for e in log.events if e["name"] == "repair.report"]
    if repairs:
        w("\n== repairs ==\n")
        for event in repairs:
            f = event["fields"]
            w(
                "  t={t:.3f}s repaired={repaired} lost={lost} "
                "reinstalled_sources={src}\n".format(
                    t=event["t"],
                    repaired=f.get("queries_repaired", "?"),
                    lost=f.get("queries_lost", "?"),
                    src=f.get("sources_reinstalled", "?"),
                )
            )


def _maybe_round(value: Any) -> Any:
    return round(value, 3) if isinstance(value, float) else value


# ----------------------------------------------------------------------
# diff
# ----------------------------------------------------------------------
def diff(a: Recorder, b: Recorder, label_a: str, label_b: str, out: Any = None) -> None:
    out = out or sys.stdout
    w = out.write
    w(f"== diff: A={label_a}  B={label_b} ==\n")

    names = sorted(set(a.counters) | set(b.counters))
    rows = []
    for name in names:
        va, vb = a.counters.get(name, 0), b.counters.get(name, 0)
        if va != vb:
            rows.append([name, va, vb, vb - va])
    w("\nCounters (changed only):\n")
    w(format_table(["counter", "A", "B", "delta"], rows) + "\n" if rows else "  (identical)\n")

    ta, tb = a.span_totals(), b.span_totals()
    rows = []
    for name in sorted(set(ta) | set(tb)):
        ea = ta.get(name, {"count": 0, "total_s": 0.0})
        eb = tb.get(name, {"count": 0, "total_s": 0.0})
        rows.append(
            [name, int(ea["count"]), int(eb["count"]), ea["total_s"] * 1e3, eb["total_s"] * 1e3]
        )
    w("\nSpan totals:\n")
    w(format_table(["span", "A_count", "B_count", "A_ms", "B_ms"], rows) + "\n" if rows else "  (none)\n")

    def epoch_sums(log: Recorder) -> Dict[str, float]:
        return {
            "epochs": len(log.epochs),
            "items_delivered": sum(e.items_delivered for e in log.epochs),
            "items_lost": sum(e.items_lost for e in log.epochs),
            "rerouted_traffic_bits": sum(e.rerouted_traffic_bits for e in log.epochs),
            "peer_work": sum(sum(e.peer_work.values()) for e in log.epochs),
            "link_bits": sum(sum(e.link_bits.values()) for e in log.epochs),
        }

    sa, sb = epoch_sums(a), epoch_sums(b)
    rows = [[k, sa[k], sb[k], sb[k] - sa[k]] for k in sa]
    w("\nEpoch aggregates:\n")
    w(format_table(["metric", "A", "B", "delta"], rows) + "\n")


# ----------------------------------------------------------------------
# record
# ----------------------------------------------------------------------
def record(args: argparse.Namespace) -> None:
    from ..workload.scenarios import SCENARIOS, run_scenario

    scenario = SCENARIOS[args.scenario]()
    recorder = Recorder()
    run = run_scenario(
        scenario, args.strategy, recorder=recorder, workers=args.workers
    )
    extra = {
        "scenario": scenario.name,
        "strategy": args.strategy,
        "duration_s": scenario.duration,
        "queries_accepted": len(run.system.accepted_queries()),
        "queries_rejected": len(run.system.rejected_queries()),
    }
    if args.workers:
        simulator = run.system.last_simulator
        extra["workers"] = simulator.workers_used
        extra["parallel_mode"] = simulator.mode_used
    write_jsonl(recorder, args.out, net=run.system.net, extra=extra)
    print(f"wrote {args.out} ({len(recorder.spans)} spans, "
          f"{len(recorder.epochs)} epochs, {len(recorder.events)} events)")
    if args.prom:
        from .export import prometheus_text

        with open(args.prom, "w", encoding="utf-8") as handle:
            handle.write(prometheus_text(recorder))
        print(f"wrote {args.prom}")


# ----------------------------------------------------------------------
# serve
# ----------------------------------------------------------------------
def serve(args: argparse.Namespace) -> None:
    """Execute a scenario while serving live metrics over HTTP.

    The server thread reads lock-free recorder snapshots, so scraping
    ``/metrics`` mid-run never blocks (or perturbs) the executor; the
    ``/slo.json`` records refresh at every observed epoch barrier.
    """
    from ..sharing.system import StreamGlobe
    from ..workload.scenarios import SCENARIOS
    from .serve import MetricsServer

    scenario = SCENARIOS[args.scenario]()
    recorder = Recorder()
    system = StreamGlobe(
        scenario.build_network(), strategy=args.strategy, recorder=recorder
    )

    def slo_provider() -> List[QuerySLO]:
        simulator = system.last_simulator
        return simulator.last_query_slos if simulator is not None else []

    server = MetricsServer(
        recorder,
        slo_provider=slo_provider,
        host=args.host,
        port=args.port,
    )
    server.start()
    print(f"serving {server.url}/metrics  /healthz  /slo.json")
    try:
        scenario.register_on(system)
        for round_index in range(args.repeat):
            metrics = system.run(
                scenario.duration,
                faults=scenario.faults if round_index == 0 else None,
                workers=args.workers,
            )
            print(
                f"run {round_index + 1}/{args.repeat} done: "
                f"{sum(metrics.items_delivered.values())} items delivered, "
                f"{len(server.slo_records())} query SLOs live"
            )
        if args.hold > 0:
            print(f"holding the endpoints open for {args.hold:.0f}s (Ctrl-C to stop)")
            import time as _time

            _time.sleep(args.hold)
    except KeyboardInterrupt:  # pragma: no cover - interactive
        pass
    finally:
        server.stop()


# ----------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------
def main(argv: Optional[Sequence[str]] = None) -> int:
    from ..workload.scenarios import SCENARIOS

    parser = argparse.ArgumentParser(
        prog="python -m repro.obs", description="Run introspection for repro."
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("record", help="run a scenario traced and write a JSONL run log")
    p.add_argument("--scenario", default="churn", choices=SCENARIOS,
                   help="a name of repro.workload.scenarios.SCENARIOS "
                        "(default: churn)")
    p.add_argument("--strategy", default="stream-sharing")
    p.add_argument("--workers", type=int, default=None, metavar="N",
                   help="execute on the sharded data plane with N worker "
                        "cells (traces merge into one run log)")
    p.add_argument("-o", "--out", default="RUN.jsonl")
    p.add_argument("--prom", default=None, metavar="METRICS.txt",
                   help="also write a Prometheus text snapshot")

    p = sub.add_parser(
        "summarize", help="print series, span timings, SLOs and cache rates"
    )
    p.add_argument("run", metavar="RUN.jsonl")

    p = sub.add_parser("diff", help="compare two run logs")
    p.add_argument("run_a", metavar="A.jsonl")
    p.add_argument("run_b", metavar="B.jsonl")

    p = sub.add_parser("chrome", help="convert a run log to a Chrome trace")
    p.add_argument("run", metavar="RUN.jsonl")
    p.add_argument("-o", "--out", default="trace.json")

    p = sub.add_parser(
        "serve",
        help="execute a scenario while serving live /metrics, /healthz "
             "and /slo.json",
    )
    p.add_argument("--scenario", default="churn", choices=SCENARIOS,
                   help="a name of repro.workload.scenarios.SCENARIOS "
                        "(default: churn)")
    p.add_argument("--strategy", default="stream-sharing")
    p.add_argument("--workers", type=int, default=None, metavar="N",
                   help="execute on the sharded data plane with N worker cells")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=9464,
                   help="HTTP port (0 picks an ephemeral port; default 9464)")
    p.add_argument("--repeat", type=int, default=1, metavar="N",
                   help="execute the scenario N times back to back "
                        "(longer scrape window)")
    p.add_argument("--hold", type=float, default=0.0, metavar="SECONDS",
                   help="keep the endpoints up this long after the last run")

    args = parser.parse_args(argv)
    if args.command == "record":
        record(args)
        return 0
    if args.command == "serve":
        serve(args)
        return 0
    paths = [args.run_a, args.run_b] if args.command == "diff" else [args.run]
    try:
        logs = [load_jsonl(path) for path in paths]
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return 2
    if args.command == "summarize":
        summarize(*logs)
    elif args.command == "diff":
        diff(*logs, *paths)
    else:
        write_chrome_trace(*logs, args.out)
        print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
