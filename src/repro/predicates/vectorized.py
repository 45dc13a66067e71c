"""Batch evaluation of compiled conjunctive predicate edges.

The selection operator compiles its predicate graph once into edge
tuples ``(source_steps, target_steps, bound, strict)`` where ``None``
steps encode the zero node (see :mod:`repro.engine.select`).
:func:`filter_rows` — the engine's one predicate evaluator — evaluates
one edge at a time across a whole batch, refining the surviving row
vector: the fused-comparison form of the conjunction.

Semantics are pinned to :func:`repro.engine.eval.satisfies`, the
per-item reference the tests compare it with: an operand whose path
does not resolve (or is not numeric) makes the item fail the whole
conjunction, the zero node contributes ``0.0``, and each edge tests
``left ≤ right + bound`` (strict: ``<``) with the identical operand
order and float arithmetic, so both accept byte-identical row sets.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence, Tuple

#: A compiled edge (re-exported shape; owned by repro.engine.select).
CompiledEdge = Tuple[Optional[Tuple[str, ...]], Optional[Tuple[str, ...]], float, bool]

#: ``column_for(steps)`` returns the numeric column for a path, indexed
#: by base row id, or ``None`` when every row evaluates to ``None``
#: (path missing from the shape / interior node).
ColumnLookup = Callable[[Tuple[str, ...]], Optional[Sequence[Optional[float]]]]


def filter_rows(
    edges: Sequence[CompiledEdge],
    rows: Sequence[int],
    column_for: ColumnLookup,
) -> Sequence[int]:
    """Refine ``rows`` to those satisfying every compiled edge.

    Evaluates edge-by-edge over the surviving rows (cheapest-first
    short-circuit: an empty survivor set stops immediately), exactly
    mirroring the per-item conjunction of ``satisfies``.
    """
    for source_steps, target_steps, bound, strict in edges:
        if not rows:
            break
        if source_steps is None and target_steps is None:
            # 0 ≤ 0 + bound: a row-independent tautology or contradiction.
            if not (0.0 < bound if strict else 0.0 <= bound):
                return []
            continue
        if source_steps is None:
            right_col = column_for(target_steps)
            if right_col is None:
                return []  # right operand is None on every row
            if strict:
                rows = [
                    i for i in rows
                    if (r := right_col[i]) is not None and 0.0 < r + bound
                ]
            else:
                rows = [
                    i for i in rows
                    if (r := right_col[i]) is not None and 0.0 <= r + bound
                ]
            continue
        if target_steps is None:
            left_col = column_for(source_steps)
            if left_col is None:
                return []
            # right + bound with right = 0.0; 0.0 + bound compares
            # identically to bound for every float (incl. -0.0/nan).
            if strict:
                rows = [
                    i for i in rows
                    if (left := left_col[i]) is not None and left < bound
                ]
            else:
                rows = [
                    i for i in rows
                    if (left := left_col[i]) is not None and left <= bound
                ]
            continue
        left_col = column_for(source_steps)
        right_col = column_for(target_steps)
        if left_col is None or right_col is None:
            return []
        if strict:
            rows = [
                i for i in rows
                if (left := left_col[i]) is not None
                and (r := right_col[i]) is not None
                and left < r + bound
            ]
        else:
            rows = [
                i for i in rows
                if (left := left_col[i]) is not None
                and (r := right_col[i]) is not None
                and left <= r + bound
            ]
    return rows

