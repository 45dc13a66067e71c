"""Exporters: JSONL event logs, Chrome traces, Prometheus exposition,
and the plain-text table every report (``repro.obs``, ``repro.bench``)
renders through.

The JSONL log is the canonical run artifact (one JSON object per
line, ``type``-tagged); ``repro.obs summarize`` and ``repro.obs
diff`` consume it, and :func:`chrome_trace` converts its spans and
epochs into the Chrome ``trace_event`` format (load via
``chrome://tracing`` or https://ui.perfetto.dev).
:func:`prometheus_text` renders a recorder's counters/gauges/
histograms in the Prometheus text exposition format for scrape-style
integration.

Line schema (``type`` → payload):

* ``meta``    — run header: creation time, optional topology
  (``peers`` name→capacity, ``links``), free-form ``extra`` fields;
* ``span``    — ``{id, parent, name, t0, t1, attrs}`` (seconds
  relative to the recorder's creation);
* ``event``   — ``{t, name, fields}`` structured one-shot events
  (plan decisions, faults, repair reports);
* ``epoch``   — one :class:`~repro.obs.EpochSnapshot` as a dict;
* ``counter`` / ``gauge`` — final scalar values;
* ``hist``    — histogram summary (count/sum/min/max/mean/buckets).
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from typing import IO, Any, Dict, List, Optional, Sequence, Tuple

from .recorder import Recorder, span_totals
from .timeseries import EpochSnapshot

__all__ = [
    "PLANNER_SPAN_ORDER",
    "RunLog",
    "chrome_trace",
    "format_table",
    "load_jsonl",
    "prometheus_text",
    "write_chrome_trace",
    "write_jsonl",
]

#: Control-plane span names in display order (a root, then its phases);
#: reports list names outside it after these.
PLANNER_SPAN_ORDER = (
    "register",
    "parse",
    "analyze",
    "plan",
    "search",
    "commit",
    "deregister",
    "repair",
    "repair.damage",
    "repair.teardown",
    "repair.reregister",
    "rebalance",
    "rebalance.teardown",
    "rebalance.reregister",
)


def format_table(headers: Sequence[str], rows: Sequence[Sequence[Any]]) -> str:
    """Right-aligned columns under a dashed rule; a cell that is not a
    string renders as ``%.3f`` (float) or ``%d``."""

    def text(cell: Any) -> str:
        if isinstance(cell, str):
            return cell
        return f"{cell:.3f}" if isinstance(cell, float) else f"{cell:d}"

    table = [list(headers)] + [[text(cell) for cell in row] for row in rows]
    widths = [max(len(cells[i]) for cells in table) for i in range(len(headers))]
    table.insert(1, ["-" * width for width in widths])
    return "\n".join(
        "  ".join(cell.rjust(width) for cell, width in zip(cells, widths))
        for cells in table
    )


# ----------------------------------------------------------------------
# JSONL
# ----------------------------------------------------------------------
def _meta_line(recorder: Recorder, net: Any, extra: Optional[Dict[str, Any]]) -> Dict[str, Any]:
    meta: Dict[str, Any] = {
        "type": "meta",
        "created_unix": recorder.created_unix,
        "format": "repro.obs/1",
    }
    if net is not None:
        meta["peers"] = {
            peer.name: peer.capacity for peer in net.super_peers()
        }
        meta["links"] = sorted(str(link) for link in net.links())
    if extra:
        meta.update(extra)
    return meta


def write_jsonl(
    recorder: Recorder,
    path: str,
    net: Any = None,
    extra: Optional[Dict[str, Any]] = None,
) -> None:
    """Write one recorder's full contents as a JSONL run log."""
    with open(path, "w", encoding="utf-8") as handle:
        _write_jsonl(recorder, handle, net, extra)


def _write_jsonl(
    recorder: Recorder, handle: IO[str], net: Any, extra: Optional[Dict[str, Any]]
) -> None:
    def emit(obj: Dict[str, Any]) -> None:
        handle.write(json.dumps(obj, sort_keys=True) + "\n")

    emit(_meta_line(recorder, net, extra))
    for span in recorder.span_records():
        emit({"type": "span", **span})
    for event in recorder.events:
        emit({"type": "event", **event})
    for epoch in recorder.epochs:
        emit({"type": "epoch", **epoch.to_dict()})
    for name in sorted(recorder.counters):
        emit({"type": "counter", "name": name, "value": recorder.counters[name]})
    for name in sorted(recorder.gauges):
        emit({"type": "gauge", "name": name, "value": recorder.gauges[name]})
    for name in sorted(recorder.histograms):
        emit({"type": "hist", "name": name, **recorder.histograms[name].to_dict()})


@dataclass
class RunLog:
    """A parsed JSONL run log (what the CLI consumes)."""

    meta: Dict[str, Any] = field(default_factory=dict)
    spans: List[Dict[str, Any]] = field(default_factory=list)
    events: List[Dict[str, Any]] = field(default_factory=list)
    epochs: List[EpochSnapshot] = field(default_factory=list)
    counters: Dict[str, float] = field(default_factory=dict)
    gauges: Dict[str, float] = field(default_factory=dict)
    histograms: Dict[str, Dict[str, Any]] = field(default_factory=dict)

    def span_records(self) -> List[Dict[str, Any]]:
        """The spans as records — what :meth:`Recorder.span_records`
        returns for a live recorder."""
        return self.spans

    def span_totals(self) -> Dict[str, Dict[str, float]]:
        """Completed spans aggregated by name (:func:`span_totals`)."""
        return span_totals(self.spans)

    def events_named(self, name: str) -> List[Dict[str, Any]]:
        return [event for event in self.events if event["name"] == name]


def load_jsonl(path: str) -> RunLog:
    """Parse a JSONL run log back into a :class:`RunLog`."""
    log = RunLog()
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            record = json.loads(line)
            kind = record.pop("type", None)
            if kind == "meta":
                log.meta = record
            elif kind == "span":
                log.spans.append(record)
            elif kind == "event":
                log.events.append(record)
            elif kind == "epoch":
                log.epochs.append(EpochSnapshot.from_dict(record))
            elif kind == "counter":
                log.counters[record["name"]] = record["value"]
            elif kind == "gauge":
                log.gauges[record["name"]] = record["value"]
            elif kind == "hist":
                log.histograms[record.pop("name")] = record
    return log


# ----------------------------------------------------------------------
# Chrome trace_event
# ----------------------------------------------------------------------
#: Worker-cell spans render on per-shard lanes at ``tid = _SHARD_TID0
#: + shard``; the control plane keeps ``tid`` 1.
_SHARD_TID0 = 10


def _span_tid(span: Dict[str, Any]) -> int:
    shard = span.get("attrs", {}).get("shard")
    return 1 if shard is None else _SHARD_TID0 + int(shard)


def chrome_trace(source: Any) -> Dict[str, Any]:
    """Convert a :class:`Recorder` or :class:`RunLog` into a Chrome trace.

    Spans become complete (``"ph": "X"``) duration events — on the
    control-plane track, or on a per-shard lane when they carry a
    ``shard`` attribute (merged worker-cell trace segments do); epoch
    snapshots become counter (``"ph": "C"``) series (total CPU %,
    total kbps, in-flight items) placed at their wall-clock emission
    times, so the data-plane series line up with the control-plane
    spans on one timeline.  ``exchange.flow`` events become flow-arrow
    pairs (``"s"``/``"f"``) from the producing shard's lane to the
    consuming shard's — the cut-edge hand-offs of the sharded plane.
    """
    spans = source.span_records()
    events = source.events
    epochs = source.epochs
    trace_events: List[Dict[str, Any]] = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": 1,
            "args": {"name": "repro (StreamGlobe)"},
        },
        {
            "name": "thread_name",
            "ph": "M",
            "pid": 1,
            "tid": 1,
            "args": {"name": "control-plane"},
        },
    ]
    shards = sorted(
        {
            span["attrs"]["shard"]
            for span in spans
            if span.get("attrs", {}).get("shard") is not None
        }
        | {
            field
            for event in events
            if event["name"] == "exchange.flow"
            for field in (event["fields"]["src"], event["fields"]["dst"])
        }
    )
    for shard in shards:
        trace_events.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": 1,
                "tid": _SHARD_TID0 + int(shard),
                "args": {"name": f"shard {shard}"},
            }
        )
    for span in spans:
        if span.get("t1") is None:
            continue
        trace_events.append(
            {
                "name": span["name"],
                "ph": "X",
                "pid": 1,
                "tid": _span_tid(span),
                "ts": span["t0"] * 1e6,
                "dur": (span["t1"] - span["t0"]) * 1e6,
                "args": span.get("attrs", {}),
            }
        )
    for event in events:
        if event["name"] != "exchange.flow":
            continue
        fields = event["fields"]
        ts = event["t"] * 1e6
        flow_id = int(fields.get("flow", 0))
        args = {"items": fields.get("items"), "batches": fields.get("batches")}
        trace_events.append(
            {
                "name": "exchange",
                "cat": "exchange",
                "ph": "s",
                "pid": 1,
                "tid": _SHARD_TID0 + int(fields["src"]),
                "ts": ts,
                "id": flow_id,
                "args": args,
            }
        )
        trace_events.append(
            {
                "name": "exchange",
                "cat": "exchange",
                "ph": "f",
                "bp": "e",
                "pid": 1,
                "tid": _SHARD_TID0 + int(fields["dst"]),
                # Strictly later than the start so viewers draw the
                # arrow left-to-right even for same-instant records.
                "ts": ts + 1.0,
                "id": flow_id,
                "args": args,
            }
        )
    for epoch in epochs:
        ts = epoch.wall_s * 1e6
        for counter_name, value in (
            ("data-plane CPU (%)", round(epoch.total_cpu_percent(), 3)),
            ("data-plane traffic (kbps)", round(epoch.total_kbps(), 3)),
            ("in-flight items", epoch.inflight_peak),
        ):
            trace_events.append(
                {
                    "name": counter_name,
                    "ph": "C",
                    "pid": 1,
                    "ts": ts,
                    "args": {"value": value},
                }
            )
    return {"traceEvents": trace_events, "displayTimeUnit": "ms"}


def write_chrome_trace(source: Any, path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(chrome_trace(source), handle, indent=1)
        handle.write("\n")


# ----------------------------------------------------------------------
# Prometheus text exposition
# ----------------------------------------------------------------------
def _prom_name(name: str) -> str:
    cleaned = "".join(c if c.isalnum() or c == "_" else "_" for c in name)
    return f"repro_{cleaned}"


#: Dotted-name → labeled-series patterns, first match wins.  Metric
#: families whose dotted names encode a dimension (shard, exchange
#: pair, operator, peer, link) render as one Prometheus metric with
#: real labels; anything unmatched (``cache.route.hits`` …) keeps the
#: flat mangled name.
_LABEL_PATTERNS: List[Tuple["re.Pattern[str]", str, Tuple[str, ...]]] = []


def _compile_label_patterns() -> None:
    _LABEL_PATTERNS.extend(
        (re.compile(pattern), metric, labels)
        for pattern, metric, labels in (
            (
                r"^exchange\.cell(\d+)->cell(\d+)\.items$",
                "repro_exchange_pair_items_total",
                ("src_shard", "dst_shard"),
            ),
            (
                r"^exec\.peak_live_items\.shard(\d+)$",
                "repro_exec_peak_live_items",
                ("shard",),
            ),
            (r"^op\.([A-Za-z0-9_]+)\.items$", "repro_op_items_total", ("op",)),
            (
                r"^op\.([A-Za-z0-9_]+)\.batch_s\.shard(\d+)$",
                "repro_op_batch_seconds",
                ("op", "shard"),
            ),
            (
                r"^op\.([A-Za-z0-9_]+)\.batch_s$",
                "repro_op_batch_seconds",
                ("op",),
            ),
            (r"^peer\.work\.(.+)$", "repro_peer_work", ("peer",)),
            (r"^link\.bits\.(.+)-(.+)$", "repro_link_bits", ("a", "b")),
        )
    )


_compile_label_patterns()


def _prom_series(name: str) -> Tuple[str, Dict[str, str]]:
    """Map a dotted metric name to ``(prometheus metric, labels)``."""
    for pattern, metric, label_names in _LABEL_PATTERNS:
        match = pattern.match(name)
        if match:
            return metric, dict(zip(label_names, match.groups()))
    return _prom_name(name), {}


def _label_suffix(labels: Dict[str, str], extra: str = "") -> str:
    parts = [f'{key}="{value}"' for key, value in labels.items()]
    if extra:
        parts.append(extra)
    return "{" + ",".join(parts) + "}" if parts else ""


def prometheus_text(recorder: Recorder) -> str:
    """Render counters, gauges and histograms in exposition format.

    The dimensional name families fold into labeled series — e.g.
    ``exchange.cell0->cell1.items`` becomes
    ``repro_exchange_pair_items_total{src_shard="0",dst_shard="1"}``
    and per-shard operator histograms become
    ``repro_op_batch_seconds{op=...,shard=...}`` series of one metric.
    """
    from .recorder import HISTOGRAM_BUCKETS

    lines: List[str] = []
    typed: set = set()

    def emit_type(metric: str, kind: str) -> None:
        # One TYPE header per metric family, even when several dotted
        # names (label combinations) fold into it.
        if metric not in typed:
            typed.add(metric)
            lines.append(f"# TYPE {metric} {kind}")

    for name in sorted(recorder.counters):
        metric, labels = _prom_series(name)
        emit_type(metric, "counter")
        lines.append(
            f"{metric}{_label_suffix(labels)} {recorder.counters[name]}"
        )
    for name in sorted(recorder.gauges):
        metric, labels = _prom_series(name)
        emit_type(metric, "gauge")
        lines.append(
            f"{metric}{_label_suffix(labels)} {recorder.gauges[name]}"
        )
    for name in sorted(recorder.histograms):
        hist = recorder.histograms[name]
        metric, labels = _prom_series(name)
        emit_type(metric, "histogram")
        cumulative = 0
        for bound, count in zip(HISTOGRAM_BUCKETS, hist.buckets):
            cumulative += count
            suffix = _label_suffix(labels, f'le="{bound:g}"')
            lines.append(f"{metric}_bucket{suffix} {cumulative}")
        suffix = _label_suffix(labels, 'le="+Inf"')
        lines.append(f"{metric}_bucket{suffix} {hist.count}")
        lines.append(f"{metric}_sum{_label_suffix(labels)} {hist.total}")
        lines.append(f"{metric}_count{_label_suffix(labels)} {hist.count}")
    return "\n".join(lines) + "\n"
