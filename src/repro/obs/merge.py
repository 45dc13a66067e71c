"""A worker cell's trace, shipped once, and its deterministic merge.

The sharded executor's worker cells each record into their own
:class:`~repro.obs.Recorder` (timeline-pinned to the parent's via
``Recorder(origin=...)`` — under the fork start method
``perf_counter`` is CLOCK_MONOTONIC, shared across processes, so cell
span times land directly on the parent's axis).  A cell ships that
recorder once, on its final state — pickled with the reply from a
forked cell, handed over as it is from an inline one — and the parent
folds each cell's recorder in ascending shard order with
:func:`merge_segment`:

* the cell's span objects are re-keyed into the parent's id space with
  parent links preserved, and every span and event gets a ``shard``
  attribute;
* cell histograms merge twice: into the global series under their own
  name (``op.select.batch_s`` aggregates across all cells) and into a
  per-cell series under ``<name>.shard<N>`` (rendered with a
  ``shard`` label by the Prometheus exporter);
* cell counters (none today — operator item counts are billed
  parent-side from partition-invariant totals, DESIGN.md §12) would
  sum into the parent's.
"""

from __future__ import annotations

from .recorder import Histogram, Recorder

__all__ = ["merge_segment"]


def merge_segment(recorder: Recorder, shard: int, cell: Recorder) -> None:
    """Fold one finished cell's recorder into the parent recorder."""
    spans = cell.spans
    # Cells never see foreign spans, so every parent is in this cell.
    first = recorder._next_span_id
    id_map = {span.span_id: first + offset for offset, span in enumerate(spans)}
    recorder._next_span_id += len(spans)
    for span in spans:
        span._recorder = recorder
        span.span_id = id_map[span.span_id]
        span.parent_id = id_map.get(span.parent_id)
        span.attrs = {**span.attrs, "shard": shard}
        recorder.spans.append(span)
    for event in cell.events:
        recorder.events.append(
            {
                "t": event["t"],
                "name": event["name"],
                "fields": {**event["fields"], "shard": shard},
            }
        )
    counters = cell.counters
    for name in sorted(counters):
        value = counters[name]
        if value:
            recorder.inc(name, value)
    histograms = cell.histograms
    for name in sorted(histograms):
        for target_name in (name, f"{name}.shard{shard}"):
            target = recorder.histograms.get(target_name)
            if target is None:
                target = recorder.histograms[target_name] = Histogram()
            target.merge(histograms[name])
