"""``MatchAggregations`` — sharing window-based aggregates (Section 3.3).

An existing aggregate result stream can answer a new aggregate
subscription when *all* of the following hold (Figure 5):

1. compatible aggregation operators over the same input data and the
   same aggregated element.  ``avg`` aggregates are internally carried
   as ``(sum, count)`` pairs, so an ``avg`` stream can also serve
   ``sum`` and ``count`` subscriptions (the paper's relaxation of the
   equal-operator requirement);
2. identical selections prior to the aggregation — implication is *not*
   enough, because a looser pre-selection would fold extra items into
   the partial aggregates;
3. if the reused aggregation result was filtered (e.g. ``$a >= 1.3``),
   reuse is only possible for subscriptions applying the same or a more
   restrictive filter over the *same* windows — combining filtered
   values into coarser windows would miss suppressed values;
4. window compatibility: same window type and (for time-based windows)
   the same ordered reference element, with
   ``∆' mod ∆ = 0``, ``∆ mod µ = 0`` and ``µ' mod µ = 0``.
"""

from __future__ import annotations

from ..predicates import match_predicates
from ..properties import SERVABLE_FUNCTIONS, AggregationSpec, functions_compatible


def serving_functions(new: str) -> frozenset:
    """The inverse of :data:`~repro.properties.SERVABLE_FUNCTIONS`:
    functions whose result streams can serve ``new`` aggregates (``sum``
    ← {``sum``, ``avg``}, …).

    Used by the stream-availability index to enumerate the aggregation
    signatures a subscription is structurally compatible with.
    """
    return frozenset(
        reused for reused, served in SERVABLE_FUNCTIONS.items() if new in served
    )


def match_aggregations(
    reused: AggregationSpec, new: AggregationSpec, mode: str = "edgewise"
) -> bool:
    """``True`` iff ``reused``'s result stream can answer ``new``.

    ``mode`` selects the predicate-matching variant used for the result
    filter implication check (see :func:`repro.predicates.match_predicates`).
    """
    # 1. Operators, input element.
    if not functions_compatible(reused.function, new.function):
        return False
    if reused.aggregated_path != new.aggregated_path:
        return False

    # 2. Identical pre-aggregation selections.
    if reused.pre_selection != new.pre_selection:
        return False

    # 3. Filtered aggregation results.
    if reused.is_filtered:
        if reused.window != new.window:
            return False
        if not match_predicates(reused.result_filter, new.result_filter, mode):
            return False
        return True

    # 4. Window compatibility (∆' mod ∆, ∆ mod µ, µ' mod µ).
    return new.window.shareable_from(reused.window)
