"""Cross-process trace segments and their deterministic merge.

The sharded executor's worker cells each record into their own
:class:`~repro.obs.Recorder` (timeline-pinned to the parent's via
``Recorder(origin=...)`` — under the fork start method
``perf_counter`` is CLOCK_MONOTONIC, shared across processes, so cell
span times land directly on the parent's axis).  At every epoch
barrier a cell ships one *trace segment* to the parent:

* ``spans`` / ``events`` — **incremental**: only records completed
  since the previous ship (span ids are cell-local);
* ``counters`` / ``histograms`` — **cumulative**: the cell's full
  current state (idempotent under re-ship, so a final ``finish``
  segment supersedes every earlier one).

The parent's :class:`SegmentStore` absorbs segments keyed by shard and
folds them into the parent recorder once, after the last barrier
(:meth:`SegmentStore.merge_into`):

* span ids are rewritten into the parent's id space in ascending-shard
  order with intra-segment parent links preserved, and every span and
  event gets a ``shard`` attribute — the merge output is a function of
  the per-shard segment *contents* only, never of gather/arrival
  order (the shuffle-invariance test pins this);
* cell histograms merge twice: into the global series under their own
  name (``op.select.batch_s`` aggregates across all cells) and into a
  per-cell series under ``<name>.shard<N>`` (rendered with a
  ``shard`` label by the Prometheus exporter);
* cell counters (none today — operator item counts are billed
  parent-side from partition-invariant totals, DESIGN.md §12) would
  sum into the parent's.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from .recorder import Histogram, Recorder, Span

__all__ = ["SegmentShipper", "SegmentStore", "merge_segment"]


class SegmentShipper:
    """Cell-side cursor: cut one incremental trace segment per barrier."""

    __slots__ = ("recorder", "shard", "_span_cursor", "_event_cursor")

    def __init__(self, recorder: Recorder, shard: int) -> None:
        self.recorder = recorder
        self.shard = shard
        self._span_cursor = 0
        self._event_cursor = 0

    def take(self) -> Dict[str, Any]:
        """The segment since the last :meth:`take` (plain picklable data)."""
        recorder = self.recorder
        spans = recorder.spans
        events = recorder.events
        segment = {
            "shard": self.shard,
            "spans": [span.to_dict() for span in spans[self._span_cursor:]],
            "events": list(events[self._event_cursor:]),
            "counters": dict(recorder.counters),
            "histograms": {
                name: hist.to_dict() for name, hist in recorder.histograms.items()
            },
        }
        self._span_cursor = len(spans)
        self._event_cursor = len(events)
        return segment


class SegmentStore:
    """Parent-side accumulator for every cell's shipped segments."""

    def __init__(self, cells: int) -> None:
        self._spans: List[List[Dict[str, Any]]] = [[] for _ in range(cells)]
        self._events: List[List[Dict[str, Any]]] = [[] for _ in range(cells)]
        self._counters: List[Dict[str, float]] = [{} for _ in range(cells)]
        self._histograms: List[Dict[str, Dict[str, Any]]] = [
            {} for _ in range(cells)
        ]

    def absorb(self, segment: Optional[Dict[str, Any]]) -> None:
        """Fold one shipped segment in (``None`` segments are skipped —
        a cell that recorded nothing ships nothing)."""
        if not segment:
            return
        shard = segment["shard"]
        self._spans[shard].extend(segment["spans"])
        self._events[shard].extend(segment["events"])
        # Cumulative state: the latest ship supersedes earlier ones.
        self._counters[shard] = segment["counters"]
        self._histograms[shard] = segment["histograms"]

    def merge_into(self, recorder: Recorder) -> None:
        """Deterministic fold of every absorbed segment into ``recorder``.

        Cells merge in ascending shard order; within a cell, spans and
        events keep their completion order.  The result is independent
        of segment arrival order because the store keys by shard.
        """
        for shard, spans in enumerate(self._spans):
            merge_segment(
                recorder,
                shard,
                spans,
                self._events[shard],
                self._counters[shard],
                self._histograms[shard],
            )


def merge_segment(
    recorder: Recorder,
    shard: int,
    spans: List[Dict[str, Any]],
    events: List[Dict[str, Any]],
    counters: Dict[str, float],
    histograms: Dict[str, Dict[str, Any]],
) -> None:
    """Fold one cell's complete trace into the parent recorder."""
    id_map: Dict[int, int] = {}
    for data in spans:
        new_id = recorder._next_span_id
        recorder._next_span_id += 1
        id_map[data["id"]] = new_id
        recorder.spans.append(
            Span.from_dict(
                recorder,
                {
                    "id": new_id,
                    # Parents outside this segment cannot exist (cells
                    # never see foreign spans), so unmapped ids mean a
                    # cross-ship parent already remapped earlier — the
                    # id_map persists per merge_segment call because
                    # the store concatenates a cell's ships first.
                    "parent": id_map.get(data["parent"]),
                    "name": data["name"],
                    "t0": data["t0"],
                    "t1": data["t1"],
                    "attrs": {**(data.get("attrs") or {}), "shard": shard},
                },
            )
        )
    for event in events:
        recorder.events.append(
            {
                "t": event["t"],
                "name": event["name"],
                "fields": {**event["fields"], "shard": shard},
            }
        )
    for name in sorted(counters):
        value = counters[name]
        if value:
            recorder.inc(name, value)
    for name in sorted(histograms):
        shipped = Histogram.from_dict(histograms[name])
        target = recorder.histograms.get(name)
        if target is None:
            target = recorder.histograms[name] = Histogram()
        target.merge(shipped)
        per_cell = f"{name}.shard{shard}"
        cell_target = recorder.histograms.get(per_cell)
        if cell_target is None:
            cell_target = recorder.histograms[per_cell] = Histogram()
        cell_target.merge(shipped)
