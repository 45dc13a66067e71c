"""Operator pipelines: ordered operator chains with work accounting."""

from __future__ import annotations

import pickle
from typing import List, Optional, Sequence, Tuple

from ..properties import OperatorSpec
from ..xmlkit import Element, Path
from .columnar import encode_ingest
from .operators import Operator, build_operator
from .restructure import Restructurer


class Pipeline:
    """A chain of push operators installed at one super-peer.

    ``process_batch`` folds a batch of input items through every stage;
    per-stage input counts are tracked so the executor can charge each
    operator's work exactly as the cost model defines it (base load ×
    inputs).  Stage-wise batch evaluation is observationally identical
    to pushing items one by one: every operator sees the same input
    sequence in the same order, so deterministic (possibly stateful)
    operators reach the same state and emit the same outputs.

    End-of-stream semantics: the executor never calls :meth:`flush` —
    subscriptions are *continuous* queries over unbounded streams, so a
    run's horizon is a measurement window, not an end-of-stream marker;
    flushing would emit partial windows the infinite stream never
    produces (see DESIGN.md §7).  ``flush`` exists for explicit drains
    in tests and tools.
    """

    def __init__(self, operators: Sequence[Operator]) -> None:
        self.operators: List[Operator] = list(operators)
        self.input_counts: List[int] = [0] * len(self.operators)
        #: Build recipe, remembered by :meth:`from_specs` so a compiled
        #: pipeline can cross a process boundary (see ``__reduce__``).
        self._specs: Optional[Tuple[OperatorSpec, ...]] = None
        self._item_path: Optional[Path] = None
        self._restructurer: Optional[Restructurer] = None

    @classmethod
    def from_specs(
        cls,
        specs: Sequence[OperatorSpec],
        item_path: Path,
        restructurer: Optional[Restructurer] = None,
    ) -> "Pipeline":
        pipeline = cls(
            [build_operator(spec, item_path, restructurer) for spec in specs]
        )
        pipeline._specs = tuple(specs)
        pipeline._item_path = item_path
        pipeline._restructurer = restructurer
        return pipeline

    def __reduce__(self) -> tuple:
        """Pickle as the build recipe, not the compiled closures.

        Unpickling recompiles every operator with *fresh* state — the
        same recovery-restart semantics plan repair gives re-created
        pipelines; window contents and input counts do not migrate.
        Only :meth:`from_specs` pipelines know their recipe."""
        if self._specs is None:
            raise pickle.PicklingError(
                "only Pipeline.from_specs pipelines can be pickled"
            )
        return (
            Pipeline.from_specs,
            (self._specs, self._item_path, self._restructurer),
        )

    def process(self, item: Element) -> List[Element]:
        return self.process_batch((item,))

    def process_batch(self, items: Sequence[Element]) -> List[Element]:
        """Fold ``items`` through every stage.

        The items enter the way a source batch enters a cell —
        :func:`~repro.engine.columnar.encode_ingest` picks their store
        (and freezes every one of them) — and the outputs are decoded at the
        end, so the contract is elements in, an element list out.
        """
        batch = encode_ingest(items)
        for index, operator in enumerate(self.operators):
            if not batch:
                break
            self.input_counts[index] += len(batch)
            batch = operator.process_columns(batch)
        return list(batch.decode())

    def flush(self) -> List[Element]:
        """Drain stage state front-to-back (explicit end-of-stream)."""
        batch: List[Element] = []
        for index, operator in enumerate(self.operators):
            drained = operator.flush()
            next_batch: List[Element] = []
            for current in batch:
                self.input_counts[index] += 1
                next_batch.extend(operator.process(current))
            batch = next_batch + drained
        return batch

    def __len__(self) -> int:
        return len(self.operators)

    def __iter__(self):
        return iter(self.operators)
