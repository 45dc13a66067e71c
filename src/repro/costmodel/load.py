"""Operator load model (Section 3.2).

"The average load ``load(o, v, P_o)`` of an operator ``o`` on a peer
``v`` ... depends on the performance of the executing peer, expressed by
a performance index ``pindex(v)``, and the characteristics of the
operator itself ... ``load(σ, v, s) := bload(σ) · pindex(v) · freq(s)``."

Base loads are expressed in abstract *work units per item*; multiplied
by the input frequency they yield work units per virtual second, the
same unit as a peer's capacity ``l(v)``.  The executor charges identical
per-item work when streams actually run, so estimated and measured CPU
load agree up to selectivity-estimation error.

The constants are calibrated so that the paper's first scenario lands in
its reported CPU range (single-digit to ~40 % per super-peer on the
default 1 M units/s capacity); only ratios between operators matter for
the reproduced shapes.
"""

from __future__ import annotations

from typing import Dict, Optional

#: Work units charged per input item, by operator kind.
BASE_LOADS: Dict[str, float] = {
    # Evaluate a conjunctive predicate against an item.
    "selection": 40.0,
    # Rebuild a pruned copy of the item.
    "projection": 60.0,
    # Maintain a window and fold an item into partial aggregates.
    "aggregation": 50.0,
    # Maintain a window emitting item batches.
    "window": 50.0,
    # Combine partial aggregates into coarser ones (compensation).
    "reaggregation": 15.0,
    # Post-processing: construct the subscriber-facing result element.
    "restructure": 30.0,
    # Forward one item over one outgoing link (relay work).
    "transfer": 8.0,
    # Duplicate a stream at a sharing point.
    "duplicate": 4.0,
    # Parse/ingest one item arriving from a registered source.
    "ingest": 10.0,
    # A user-defined operator; without operator descriptions (future
    # work in the paper) a selection-like default is assumed.
    "udf": 40.0,
}


def base_load(kind: str, udf_name: Optional[str] = None) -> float:
    """``bload(o)`` for an operator kind.

    For ``kind == "udf"`` a declared operator description
    (:mod:`repro.costmodel.descriptions`) overrides the generic UDF base
    load when it specifies one.
    """
    if kind == "udf" and udf_name is not None:
        from .descriptions import DEFAULT_DESCRIPTIONS

        description = DEFAULT_DESCRIPTIONS.lookup(udf_name)
        if description is not None and description.base_load is not None:
            return description.base_load
    try:
        return BASE_LOADS[kind]
    except KeyError:
        raise ValueError(f"unknown operator kind {kind!r}") from None
