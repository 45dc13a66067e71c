"""Window-based aggregation operators and the partial-aggregate wire
format (Sections 2 and 3.3).

The wire format is the paper's internal representation: ``avg``
aggregates travel as *(sum, count)* pairs so they can be reused for
``sum`` and ``count`` subscriptions and recombined into coarser
windows; distributive aggregates carry exactly their own value.  The
final scalar is computed during post-processing at the subscriber's
super-peer (``sum/count`` for ``avg``).

Operators:

* :class:`WindowAggregateOperator` — fold stream items into per-window
  partial aggregates (fresh aggregation);
* :class:`ReAggregateOperator` — combine partial aggregates of a reused
  stream into a subscription's coarser windows (Figure 5), or apply an
  additional result filter / operator conversion for identical windows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from ..predicates import ZERO, PredicateGraph
from ..properties import AggregationSpec, ReAggregationSpec
from ..xmlkit import Element, Path
from .columnar import Batch, RowBatch
from .eval import rebase
from .operators import EngineError, Operator
from .window import SlidingWindower, WindowBatch


# ----------------------------------------------------------------------
# Partial aggregates
# ----------------------------------------------------------------------
@dataclass
class PartialAggregate:
    """Mergeable per-window state covering all five functions Φ."""

    count: int = 0
    total: float = 0.0
    minimum: Optional[float] = None
    maximum: Optional[float] = None

    @classmethod
    def of_values(cls, values: Sequence[float]) -> "PartialAggregate":
        """:meth:`fold` over ``values``, left to right and bit for bit:
        the same running sum, the first of equal minima / maxima kept
        (``min(kept, value)`` replaces only on ``value < kept``)."""
        if not values:
            return cls()
        total = 0.0
        minimum = maximum = values[0]
        for value in values:
            total += value
            if value < minimum:
                minimum = value
            if value > maximum:
                maximum = value
        return cls(len(values), total, minimum, maximum)

    def fold(self, value: float) -> None:
        self.count += 1
        self.total += value
        self.minimum = value if self.minimum is None else min(self.minimum, value)
        self.maximum = value if self.maximum is None else max(self.maximum, value)

    def merge(self, other: "PartialAggregate") -> None:
        self.count += other.count
        self.total += other.total
        for value in (other.minimum,):
            if value is not None:
                self.minimum = value if self.minimum is None else min(self.minimum, value)
        for value in (other.maximum,):
            if value is not None:
                self.maximum = value if self.maximum is None else max(self.maximum, value)

    def final(self, function: str) -> Optional[float]:
        """The subscriber-facing scalar; ``None`` for an empty window
        where the function is undefined (min/max/avg)."""
        if function not in ("min", "max", "sum", "count", "avg"):
            raise EngineError(f"unknown aggregation function {function!r}")
        if function == "count":
            return float(self.count)
        if function == "sum":
            return self.total
        if self.count == 0:
            return None
        if function == "min":
            return self.minimum
        if function == "max":
            return self.maximum
        return self.total / self.count


def number_text(value: float) -> str:
    """Canonical numeric rendering (integers without trailing ``.0``;
    the magnitude test comes first: ``int`` rejects ``inf`` and ``nan``)."""
    if abs(value) < 1e15 and value == int(value):
        return str(int(value))
    return repr(value)


def partial_to_wire(partial: PartialAggregate, function: str) -> Element:
    """Serialize a partial aggregate for transmission.

    ``avg``/``sum`` carry ``(sum, count)`` — sum alone would suffice for
    ``sum`` but the count is what makes avg-reuse work (Section 3.3);
    ``count`` carries the count; ``min``/``max`` their value (omitted
    for empty windows).
    """
    children: List[Element] = []
    if function in ("avg", "sum"):
        children.append(Element("sum", text=number_text(partial.total)))
        children.append(Element("count", text=partial.count))
    elif function == "count":
        children.append(Element("count", text=partial.count))
    elif function in ("min", "max"):
        value = partial.minimum if function == "min" else partial.maximum
        if value is not None:
            children.append(Element(function, text=number_text(value)))
        children.append(Element("count", text=partial.count))
    else:
        raise EngineError(f"unknown aggregation function {function!r}")
    return Element("agg", children=children)


def wire_to_partial(element: Element, function: str) -> PartialAggregate:
    """Parse a wire item produced by :func:`partial_to_wire`."""
    if element.tag != "agg":
        raise EngineError(f"expected an <agg> item, got <{element.tag}>")
    partial = PartialAggregate()
    count = element.child("count")
    partial.count = int(count.text) if count is not None and count.text else 0
    total = element.child("sum")
    if total is not None and total.text is not None:
        partial.total = float(total.text)
    for tag in ("min", "max"):
        node = element.child(tag)
        if node is not None and node.text is not None:
            value = float(node.text)
            if tag == "min":
                partial.minimum = value
            else:
                partial.maximum = value
    del function  # format is self-describing; kept for call-site clarity
    return partial


# ----------------------------------------------------------------------
# Result filters
# ----------------------------------------------------------------------
def filter_accepts(graph: PredicateGraph, value: Optional[float]) -> bool:
    """Evaluate a result filter (bounds on the aggregate value).

    Empty-window aggregates (``None`` value) never pass a non-empty
    filter — a suppressed value must not be transmitted.
    """
    if graph.is_empty():
        return True
    if value is None:
        return False
    for (source, target), bound in graph.edges.items():
        left = 0.0 if source == ZERO else value
        right = 0.0 if target == ZERO else value
        limit = right + float(bound.value)
        if bound.strict:
            if not left < limit:
                return False
        elif not left <= limit:
            return False
    return True


# ----------------------------------------------------------------------
# Operators
# ----------------------------------------------------------------------
class WindowAggregateOperator(Operator):
    """Fresh window-based aggregation over (already selected) items.

    Emits one partial-aggregate wire item per completed window.  With an
    empty result filter, *every* window is emitted — including empty
    time-based windows — so downstream re-aggregation sees the regular
    cadence the index arithmetic of Figure 5 relies on.  A non-empty
    result filter suppresses failing windows (and therefore pins window
    equality during matching, see MatchAggregations).
    """

    kind = "aggregation"

    def __init__(
        self, spec: AggregationSpec, item_path: Path, reorder_capacity: int = 0
    ) -> None:
        """``reorder_capacity > 0`` enables the fuzzy-order relaxation of
        Section 2: a fixed-size buffer derives the total order of the
        reference element before windows are formed."""
        self.spec = spec
        self.item_path = item_path
        self._windower: SlidingWindower[float] = SlidingWindower(
            float(spec.window.size), float(spec.window.step)
        )
        self._count = 0
        # Rebase both navigation paths once (same values as item_number
        # on the spec paths).
        self._aggregated_steps = rebase(spec.aggregated_path, item_path).steps
        self._reference_steps = (
            None
            if spec.window.reference is None
            else rebase(spec.window.reference, item_path).steps
        )
        if reorder_capacity > 0 and spec.window.kind == "diff":
            from .window import ReorderBuffer

            self._reorder: Optional["ReorderBuffer[float]"] = ReorderBuffer(
                reorder_capacity
            )
        else:
            self._reorder = None

    def process_columns(self, batch: Batch) -> Batch:
        """Gather the batch's ``(position, value)`` run from its
        columns, then fold it into the windows in one call.

        The windower's float arithmetic is order-sensitive, so the fold
        is sequential whatever store the batch lives in; a row without
        a position is skipped, one without a value still advances the
        windows (it folds as a NaN marker that ``_emit`` drops).
        """
        rows = batch.rows
        values = batch.number_column(self._aggregated_steps)
        nan = float("nan")
        if values is None:
            payloads = [nan] * len(rows)
        else:
            payloads = [nan if values[i] is None else values[i] for i in rows]
        if self.spec.window.kind == "count":
            first = self._count
            self._count += len(rows)
            run = list(zip(map(float, range(first, self._count)), payloads))
        else:
            assert self._reference_steps is not None
            positions = batch.number_column(self._reference_steps)
            if positions is None:
                return RowBatch(())  # reference path never resolves: every row skipped
            run = [
                (positions[i], payload)
                for i, payload in zip(rows, payloads)
                if positions[i] is not None
            ]
        if self._reorder is not None:
            reorder_add = self._reorder.add
            run = [released for arrival in run for released in reorder_add(*arrival)]
        completed = self._windower.add_run(run)
        return RowBatch([w for w in map(self._emit, completed) if w is not None])

    def flush(self) -> List[Element]:
        batches = []
        if self._reorder is not None:
            for position, payload in self._reorder.flush():
                batches.extend(self._windower.add(position, payload))
        batches.extend(self._windower.flush())
        return [w for w in map(self._emit, batches) if w is not None]

    def _emit(self, batch: WindowBatch[float]) -> Optional[Element]:
        values = [v for v in batch.contents if v == v]  # drop NaN markers
        partial = PartialAggregate.of_values(values)
        if not filter_accepts(self.spec.result_filter, partial.final(self.spec.function)):
            return None
        return partial_to_wire(partial, self.spec.function)


class ReAggregateOperator(Operator):
    """Rebuild a subscription's windows from reused partial aggregates.

    Two modes (see :class:`~repro.properties.model.ReAggregationSpec`):

    * identical windows — pass-through with operator conversion (e.g.
      reused ``avg`` stream serving a ``sum`` subscription) and the
      subscription's own, more restrictive result filter;
    * coarser windows — the Figure 5 index arithmetic: the new window
      ``n`` merges the reused windows with arrival indices
      ``(n·µ' + j·∆) / µ`` for ``j = 0 … ∆'/∆ − 1``; skipped values are
      buffered until no longer needed.
    """

    kind = "reaggregation"

    def __init__(self, spec: ReAggregationSpec) -> None:
        self.spec = spec
        reused, new = spec.reused.window, spec.new.window
        self._passthrough = reused == new
        self._merge_count = int(new.size / reused.size)
        self._stride = int(new.size / self._merge_count / reused.step)  # ∆/µ
        self._advance = int(new.step / reused.step)                      # µ'/µ
        self._arrival = 0
        self._window_index = 0
        self._buffer: Dict[int, PartialAggregate] = {}

    def process(self, item: Element) -> List[Element]:
        partial = wire_to_partial(item, self.spec.reused.function)
        if self._passthrough:
            return self._emit_if_accepted(partial)
        self._buffer[self._arrival] = partial
        self._arrival += 1
        out: List[Element] = []
        while True:
            needed = self._needed_indices(self._window_index)
            if any(index not in self._buffer for index in needed):
                if needed[-1] >= self._arrival:
                    break  # future arrivals still required
                # A needed index was consumed/pruned: impossible by
                # construction, but guard against drift explicitly.
                raise EngineError("re-aggregation lost a needed partial")
            merged = PartialAggregate()
            for index in needed:
                merged.merge(self._buffer[index])
            out.extend(self._emit_if_accepted(merged))
            self._window_index += 1
            floor = min(self._needed_indices(self._window_index))
            self._buffer = {i: p for i, p in self._buffer.items() if i >= floor}
        return out

    def _needed_indices(self, window_index: int) -> List[int]:
        base = window_index * self._advance
        return [base + j * self._stride for j in range(self._merge_count)]

    def _emit_if_accepted(self, partial: PartialAggregate) -> List[Element]:
        final = partial.final(self.spec.new.function)
        if not filter_accepts(self.spec.new.result_filter, final):
            return []
        return [partial_to_wire(partial, self.spec.new.function)]
