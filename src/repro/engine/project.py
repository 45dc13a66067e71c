"""The projection operator π."""

from __future__ import annotations

from typing import FrozenSet, Tuple

from ..xmlkit import Path
from .columnar import Batch
from .operators import Operator


class ProjectOperator(Operator):
    """Prune items to the projection's output subtrees.

    Items whose retained content is empty are dropped entirely — an
    item carrying none of the projected elements contributes nothing
    downstream (and the paper's size formula assigns it zero payload).
    """

    kind = "projection"

    def __init__(self, output_elements: FrozenSet[Path], item_path: Path) -> None:
        self.item_path = item_path
        #: Step tuples of the retained paths, relative to the item root
        #: (hashable: a shape store caches its prune per keep-set).
        self._keep_steps: Tuple[Tuple[str, ...], ...] = tuple(
            path.relative_to(item_path).steps for path in output_elements
        )

    def process_columns(self, batch: Batch) -> Batch:
        """The batch's own projection: a shape store swaps its virtual
        shape, a row store prunes each row."""
        return batch.project(self._keep_steps)
