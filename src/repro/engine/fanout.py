"""Shared-prefix evaluation of sibling operator pipelines.

When several derived streams tap the same parent with a common
operator-spec prefix (same item path, equal leading specs), the prefix
computes identical outputs for every sibling: all engine operators are
deterministic push transformers (the paper demands determinism even of
*unknown* operators, Section 3.3), so equal input sequences yield equal
states and equal outputs.  :class:`PrefixTree` merges such pipelines
into a trie of :class:`PrefixStage` nodes and evaluates each shared
stage once per input batch, fanning the outputs out to every consumer.

Work accounting is **not** shared: the cost model charges every
installed stream for its own operators (base load × inputs), so each
stage records its input count and the executor bills it once per
stream whose pipeline runs through the stage — the measured CPU load
stays exactly what per-stream evaluation would have charged, only the
wall-clock work is deduplicated.
"""

from __future__ import annotations

from time import perf_counter
from typing import Callable, List, Optional, Sequence, Tuple

from ..properties import OperatorSpec
from ..xmlkit import Path
from .columnar import Batch
from .operators import Operator, build_operator


class _Gauge:
    """Tracks the number of in-flight items (peak-memory telemetry).

    ``peak`` is the all-run maximum; ``window_peak`` is the maximum
    since the last :meth:`take_window_peak` — the per-epoch queue-depth
    series the observability layer samples at epoch boundaries.
    """

    __slots__ = ("current", "peak", "window_peak")

    def __init__(self) -> None:
        self.current = 0
        self.peak = 0
        self.window_peak = 0

    def add(self, count: int) -> None:
        self.current += count
        if self.current > self.peak:
            self.peak = self.current
        if self.current > self.window_peak:
            self.window_peak = self.current

    def sub(self, count: int) -> None:
        self.current -= count

    def take_window_peak(self) -> int:
        """Return the peak since the last call and reset the window."""
        peak = self.window_peak
        self.window_peak = self.current
        return peak


class PrefixStage:
    """One operator stage in the shared-prefix trie.

    ``streams`` lists the ids of the installed streams whose pipeline
    ends exactly at this stage; ``input_count`` accumulates the number
    of items the stage consumed (identical to what each sharing
    stream's own pipeline stage would have counted).
    """

    __slots__ = ("spec", "operator", "input_count", "children", "streams")

    def __init__(self, spec: OperatorSpec, operator: Operator) -> None:
        self.spec = spec
        self.operator = operator
        self.input_count = 0
        self.children: List["PrefixStage"] = []
        self.streams: List[str] = []

    def __repr__(self) -> str:
        return (
            f"<PrefixStage {self.operator.kind} terminals={self.streams!r} "
            f"children={len(self.children)}>"
        )


class PrefixTree:
    """The merged pipelines of all siblings sharing one item path."""

    def __init__(self, item_path: Path) -> None:
        self.item_path = item_path
        self.roots: List[PrefixStage] = []

    def add(
        self, stream_id: str, specs: Sequence[OperatorSpec]
    ) -> List[PrefixStage]:
        """Merge one stream's pipeline into the trie.

        Returns the stage path the stream runs through, for per-stream
        work accounting.  ``specs`` must be non-empty (relay streams
        have no pipeline and bypass the trie entirely).
        """
        if not specs:
            raise ValueError(f"stream {stream_id!r}: empty pipeline has no stages")
        level = self.roots
        path: List[PrefixStage] = []
        for spec in specs:
            stage = next((node for node in level if node.spec == spec), None)
            if stage is None:
                stage = PrefixStage(spec, build_operator(spec, self.item_path))
                level.append(stage)
            path.append(stage)
            level = stage.children
        path[-1].streams.append(stream_id)
        return path

    def stage_count(self) -> int:
        """Number of distinct stages (operator instances) in the trie."""
        count = 0
        frontier = list(self.roots)
        while frontier:
            stage = frontier.pop()
            count += 1
            frontier.extend(stage.children)
        return count

    # ------------------------------------------------------------------
    def evaluate(
        self,
        batch: Batch,
        emit: Callable[[str, Batch], None],
        gauge: Optional[_Gauge] = None,
        timer: Optional[Callable[[PrefixStage, int, float], None]] = None,
    ) -> None:
        """Push one input batch through every stage exactly once.

        ``emit(stream_id, outputs)`` is invoked for every terminal
        stream; the output view answers transport accounting from
        pinned sizes or size columns.  Empty batches short-circuit without
        touching operator state, matching per-stream pipelines which
        never call an operator on an empty batch.  ``timer``, when
        given, observes ``(stage, input_count, wall_seconds)`` per
        evaluated stage — the disabled path costs one ``None`` check.
        """
        for root in self.roots:
            self._evaluate(root, batch, emit, gauge, timer)

    def _evaluate(
        self,
        stage: PrefixStage,
        batch: Batch,
        emit: Callable[[str, Batch], None],
        gauge: Optional[_Gauge],
        timer: Optional[Callable[[PrefixStage, int, float], None]] = None,
    ) -> None:
        inputs = len(batch)
        if not inputs:
            return
        stage.input_count += inputs
        if timer is None:
            out = stage.operator.process_columns(batch)
        else:
            start = perf_counter()
            out = stage.operator.process_columns(batch)
            timer(stage, inputs, perf_counter() - start)
        outputs = len(out)
        if gauge is not None:
            gauge.add(outputs)
        for stream_id in stage.streams:
            emit(stream_id, out)
        for child in stage.children:
            self._evaluate(child, out, emit, gauge, timer)
        if gauge is not None:
            gauge.sub(outputs)


def group_pipelines(
    entries: Sequence[Tuple[str, Path, Sequence[OperatorSpec]]],
) -> List[Tuple[Path, PrefixTree, dict]]:
    """Build one :class:`PrefixTree` per distinct item path.

    ``entries`` are ``(stream_id, item_path, specs)`` triples for the
    non-relay children of one parent stream.  Returns
    ``(item_path, tree, {stream_id: stage_path})`` groups; streams with
    different item paths never share stages (their operators navigate
    relative to different item roots).
    """
    groups: List[Tuple[Path, PrefixTree, dict]] = []
    for stream_id, item_path, specs in entries:
        group = next((g for g in groups if g[0] == item_path), None)
        if group is None:
            group = (item_path, PrefixTree(item_path), {})
            groups.append(group)
        group[2][stream_id] = group[1].add(stream_id, specs)
    return groups
