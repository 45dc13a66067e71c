"""Operator base class and the factory that builds executable operators
from the operator *specs* stored in properties and plans.

Every operator is a push-based transformer with two entry points —
``process(item)`` consumes one input item and returns zero or more
output items, ``process_columns(batch)`` consumes a batch view and
returns one — of which a subclass implements **exactly one**; the base
class derives the other (DESIGN.md §14).  ``flush()`` drains any
end-of-stream state (open windows are *not* flushed by default —
continuous queries never see end-of-stream; the executor only calls
``flush`` when a benchmark explicitly asks for drained state).

Work accounting: the executor charges ``base_load(op.kind) · pindex``
work units per *input* item, which is exactly the cost model's
``load(o, v, P_o)`` integrated over the run (Section 3.2) — estimation
and measurement share one constant table.
"""

from __future__ import annotations

from typing import List

from ..properties import (
    AggregationSpec,
    OperatorSpec,
    ProjectionSpec,
    ReAggregationSpec,
    RestructureSpec,
    SelectionSpec,
    UdfSpec,
    WindowContentsSpec,
)
from ..xmlkit import Element, Path
from .columnar import Batch, RowBatch


class Operator:
    """Base push operator; subclasses set ``kind`` and implement one of
    :meth:`process` and :meth:`process_columns` (each default is
    written in terms of the other, so implementing neither recurses).

    Either way every operator observes its input rows one by one in
    batch order, so views over different stores interleave freely on
    one operator instance.
    """

    kind: str = "abstract"

    def process(self, item: Element) -> List[Element]:
        """Consume one item; return the produced items (possibly none).

        Default: the batch kernel over a one-row view (which freezes
        the item, like everything that enters the engine)."""
        return list(self.process_columns(RowBatch((item,))).decode())

    def process_columns(self, batch: Batch) -> Batch:
        """Consume a batch view; return the view of the produced items.

        Default: :meth:`process` per decoded row, in order."""
        process = self.process
        return RowBatch(
            [produced for item in batch.decode() for produced in process(item)]
        )

    def flush(self) -> List[Element]:
        """Drain remaining state at explicit end-of-stream (default: none)."""
        return []

    def __repr__(self) -> str:
        return f"<{type(self).__name__} kind={self.kind}>"


class EngineError(Exception):
    """Raised for malformed items or spec/engine mismatches."""


def build_operator(spec: OperatorSpec, item_path: Path, restructurer=None) -> Operator:
    """Instantiate the executable operator for a spec.

    ``restructurer`` must be supplied for :class:`RestructureSpec`
    (it carries the analyzed query the post-processing step evaluates).
    """
    from .aggregate import ReAggregateOperator, WindowAggregateOperator
    from .project import ProjectOperator
    from .restructure import RestructureOperator
    from .select import SelectOperator
    from .window import WindowContentsOperator

    if isinstance(spec, SelectionSpec):
        return SelectOperator(spec.graph, item_path)
    if isinstance(spec, ProjectionSpec):
        return ProjectOperator(spec.output_elements, item_path)
    if isinstance(spec, AggregationSpec):
        return WindowAggregateOperator(spec, item_path)
    if isinstance(spec, ReAggregationSpec):
        return ReAggregateOperator(spec)
    if isinstance(spec, WindowContentsSpec):
        return WindowContentsOperator(spec, item_path)
    if isinstance(spec, UdfSpec):
        from .udf import UdfOperator

        return UdfOperator(spec)
    if isinstance(spec, RestructureSpec):
        if restructurer is None:
            raise EngineError(
                f"restructure operator for {spec.query_name!r} needs a restructurer"
            )
        return RestructureOperator(restructurer)
    raise EngineError(f"no executable operator for spec {spec!r}")
