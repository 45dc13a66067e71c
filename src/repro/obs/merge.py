"""A worker cell's trace, shipped once, and its deterministic merge.

The sharded executor's worker cells each record into their own
:class:`~repro.obs.Recorder` (timeline-pinned to the parent's via
``Recorder(origin=...)`` — under the fork start method
``perf_counter`` is CLOCK_MONOTONIC, shared across processes, so cell
span times land directly on the parent's axis).  A cell ships its
whole trace once, on its final state: :func:`trace_segment` cuts it
into plain picklable data, and the parent folds each cell's segment in
ascending shard order with :func:`merge_segment`:

* span ids are rewritten into the parent's id space with parent links
  preserved, and every span and event gets a ``shard`` attribute;
* cell histograms merge twice: into the global series under their own
  name (``op.select.batch_s`` aggregates across all cells) and into a
  per-cell series under ``<name>.shard<N>`` (rendered with a
  ``shard`` label by the Prometheus exporter);
* cell counters (none today — operator item counts are billed
  parent-side from partition-invariant totals, DESIGN.md §12) would
  sum into the parent's.
"""

from __future__ import annotations

from typing import Any, Dict

from .recorder import Histogram, Recorder, Span

__all__ = ["merge_segment", "trace_segment"]


def trace_segment(recorder: Recorder) -> Dict[str, Any]:
    """Everything ``recorder`` holds but its epochs, as plain data."""
    return {
        "spans": recorder.span_records(),
        "events": recorder.events,
        "counters": recorder.counters,
        "histograms": {
            name: hist.to_dict() for name, hist in recorder.histograms.items()
        },
    }


def merge_segment(recorder: Recorder, shard: int, segment: Dict[str, Any]) -> None:
    """Fold one cell's complete trace into the parent recorder."""
    spans = segment["spans"]
    # Cells never see foreign spans, so every parent is in this segment.
    first = recorder._next_span_id
    id_map = {data["id"]: first + offset for offset, data in enumerate(spans)}
    recorder._next_span_id += len(spans)
    for data in spans:
        recorder.spans.append(
            Span.from_dict(
                recorder,
                {
                    "id": id_map[data["id"]],
                    "parent": id_map.get(data["parent"]),
                    "name": data["name"],
                    "t0": data["t0"],
                    "t1": data["t1"],
                    "attrs": {**(data.get("attrs") or {}), "shard": shard},
                },
            )
        )
    for event in segment["events"]:
        recorder.events.append(
            {
                "t": event["t"],
                "name": event["name"],
                "fields": {**event["fields"], "shard": shard},
            }
        )
    counters = segment["counters"]
    for name in sorted(counters):
        value = counters[name]
        if value:
            recorder.inc(name, value)
    histograms = segment["histograms"]
    for name in sorted(histograms):
        shipped = Histogram.from_dict(histograms[name])
        for target_name in (name, f"{name}.shard{shard}"):
            target = recorder.histograms.get(target_name)
            if target is None:
                target = recorder.histograms[target_name] = Histogram()
            target.merge(shipped)
