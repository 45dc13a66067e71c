"""Exporters: JSONL event logs, Chrome traces, Prometheus exposition,
and the plain-text table every report (``repro.obs``, the benchmark
tables) renders through.

Every exporter reads one model, a :class:`~repro.obs.Recorder`: the
live one a run records into, or the one :func:`load_jsonl` rebuilds
from a run log — so a log exports exactly like the run that wrote it.
The JSONL log is the canonical run artifact (one JSON object per
line, ``type``-tagged); ``repro.obs summarize`` and ``repro.obs
diff`` read it back, :func:`chrome_trace` converts spans and epochs
into the Chrome ``trace_event`` format (load via ``chrome://tracing``
or https://ui.perfetto.dev), and :func:`prometheus_text` renders
counters/gauges/histograms in the Prometheus text exposition format
for scrape-style integration.

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
from typing import IO, Any, Dict, List, Optional, Sequence, Tuple

from .recorder import HISTOGRAM_BUCKETS, Histogram, Recorder, Span
from .timeseries import EpochSnapshot

__all__ = [
    "PLANNER_SPAN_ORDER",
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
#: The ``format`` tag of a run log's ``meta`` header.
LOG_FORMAT = "repro.obs/1"


def _meta_line(recorder: Recorder, net: Any, extra: Optional[Dict[str, Any]]) -> Dict[str, Any]:
    meta: Dict[str, Any] = {
        "type": "meta",
        "created_unix": recorder.created_unix,
        "format": LOG_FORMAT,
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
    for span in recorder.spans:
        emit({"type": "span", **span.to_dict()})
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


def load_jsonl(path: str) -> Recorder:
    """Rebuild the :class:`Recorder` a JSONL run log was written from;
    its header lands in :attr:`Recorder.meta`.

    Raises ``ValueError`` naming the path and line when the file is not
    a run log: a line that is not a JSON object, or a first record that
    is not a ``meta`` header tagged :data:`LOG_FORMAT`.
    """
    recorder = Recorder()
    with open(path, "r", encoding="utf-8") as handle:
        for number, line in enumerate(handle, 1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}:{number}: not JSON ({exc.msg})") from None
            if not isinstance(record, dict):
                raise ValueError(f"{path}:{number}: not a JSON object")
            kind = record.pop("type", None)
            if not recorder.meta:
                if kind != "meta" or record.get("format") != LOG_FORMAT:
                    raise ValueError(
                        f"{path}:{number}: not a {LOG_FORMAT} run log "
                        "(the first record must be its meta header)"
                    )
                recorder.meta = record
                recorder.created_unix = record.get("created_unix", recorder.created_unix)
            elif kind == "span":
                recorder.spans.append(Span.from_dict(recorder, record))
            elif kind == "event":
                recorder.events.append(record)
            elif kind == "epoch":
                recorder.epochs.append(EpochSnapshot.from_dict(record))
            elif kind == "counter":
                recorder.counters[record["name"]] = record["value"]
            elif kind == "gauge":
                recorder.gauges[record["name"]] = record["value"]
            elif kind == "hist":
                recorder.histograms[record["name"]] = Histogram.from_dict(record)
    if not recorder.meta:
        raise ValueError(f"{path}: empty, not a {LOG_FORMAT} run log")
    return recorder


# ----------------------------------------------------------------------
# Chrome trace_event
# ----------------------------------------------------------------------
#: Worker-cell spans render on per-shard lanes at ``tid = _SHARD_TID0
#: + shard``; the control plane keeps ``tid`` 1.
_SHARD_TID0 = 10


def _span_tid(span: Span) -> int:
    shard = span.attrs.get("shard")
    return 1 if shard is None else _SHARD_TID0 + int(shard)


def chrome_trace(recorder: Recorder) -> Dict[str, Any]:
    """Convert a recorder, live or loaded, into a Chrome trace.

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
    spans = recorder.spans
    events = recorder.events
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
            span.attrs["shard"]
            for span in spans
            if span.attrs.get("shard") is not None
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
        if span.end_s is None:
            continue
        trace_events.append(
            {
                "name": span.name,
                "ph": "X",
                "pid": 1,
                "tid": _span_tid(span),
                "ts": span.start_s * 1e6,
                "dur": (span.end_s - span.start_s) * 1e6,
                "args": span.attrs,
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
    for epoch in recorder.epochs:
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


def write_chrome_trace(recorder: Recorder, path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(chrome_trace(recorder), handle, indent=1)
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
