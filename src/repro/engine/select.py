"""The selection operator σ."""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..predicates import ZERO, PredicateGraph
from ..predicates.vectorized import filter_rows
from ..xmlkit import Path
from .columnar import Batch
from .eval import rebase
from .operators import Operator

#: One compiled predicate edge: rebased navigation steps for both
#: operands (``None`` encodes the zero node), the additive bound, and
#: strictness.  Precompiled once per operator so evaluation never
#: constructs :class:`~repro.xmlkit.Path` objects.
_CompiledEdge = Tuple[Optional[Tuple[str, ...]], Optional[Tuple[str, ...]], float, bool]


def _compile_edges(graph: PredicateGraph, item_path: Path) -> List[_CompiledEdge]:
    edges: List[_CompiledEdge] = []
    for (source, target), bound in graph.edges.items():
        source_steps = None if source == ZERO else rebase(source, item_path).steps
        target_steps = None if target == ZERO else rebase(target, item_path).steps
        edges.append((source_steps, target_steps, float(bound.value), bound.strict))
    return edges


class SelectOperator(Operator):
    """Filter items by a conjunctive predicate graph.

    Semantically identical to evaluating :func:`repro.engine.eval.satisfies`
    per item (the reference the tests compare with); the predicate edges
    are compiled at construction time and evaluated one fused comparison
    pass per edge over the batch's number columns
    (:func:`repro.predicates.vectorized.filter_rows`).
    """

    kind = "selection"

    def __init__(self, graph: PredicateGraph, item_path: Path) -> None:
        self.graph = graph
        self.item_path = item_path
        self._edges = _compile_edges(graph, item_path)

    def process_columns(self, batch: Batch) -> Batch:
        """Refine the batch's row vector to the accepted rows."""
        return batch.derive(filter_rows(self._edges, batch.rows, batch.number_column))
