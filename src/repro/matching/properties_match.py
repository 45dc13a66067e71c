"""``MatchProperties`` — Algorithm 2 of the paper.

Decides whether the data stream described by properties ``p`` can be
shared to answer (the relevant input of) a newly registered subscription
``p'``: every operator already applied to the stream must have a
corresponding, condition-compatible operator in the subscription —
otherwise the stream is missing data the subscription needs.

The four operator cases of Algorithm 2 are dispatched on the operator
specs of :mod:`repro.properties.model`:

* selection → :func:`repro.predicates.match_predicates` (Algorithm 3);
* projection → output elements ``R`` ⊇ referenced elements ``R'``;
* window-based aggregation → :func:`repro.matching.aggregation.match_aggregations`;
* window contents → equal windows, and the stream is reused only as it
  is (:func:`window_contents_terms`);
* anything else (user-defined operators) → equal operator and equal
  input vector (deterministic operators only).
"""

from __future__ import annotations

from typing import Optional, Tuple

from ..predicates import match_predicates
from .memo import MatchMemo
from ..properties import (
    AggregationSpec,
    OperatorSpec,
    ProjectionSpec,
    SelectionSpec,
    StreamProperties,
    UdfSpec,
    WindowContentsSpec,
)


def match_stream_properties(
    stream: StreamProperties,
    subscription: StreamProperties,
    mode: str = "edgewise",
    memo: Optional[MatchMemo] = None,
) -> bool:
    """Algorithm 2 over one input stream.

    ``stream`` plays the role of ``p`` (the candidate for sharing),
    ``subscription`` the role of ``p'`` (the new query's requirements on
    this input).  ``memo`` optionally caches verdicts — matching is a
    pure function of the two immutable spec trees, so a cached verdict
    is always identical to a fresh evaluation.
    """
    if memo is None:
        return _match_stream_properties(stream, subscription, mode, None)
    key = (stream, subscription, mode)
    cached = memo.properties.get(key)
    if cached is not None:
        memo.hits += 1
        return cached
    memo.misses += 1
    verdict = _match_stream_properties(stream, subscription, mode, memo)
    memo.properties[key] = verdict
    return verdict


def _match_stream_properties(
    stream: StreamProperties,
    subscription: StreamProperties,
    mode: str,
    memo: Optional[MatchMemo],
) -> bool:
    # Lines 1–4: the original input streams must coincide.
    if stream.stream != subscription.stream:
        return False
    if stream.item_path != subscription.item_path:
        return False

    # A window-contents stream carries ``<window>`` batches, and no
    # item-level compensation may follow a window (T219).
    terms = window_contents_terms(stream)
    if terms is not None and terms != window_contents_terms(subscription):
        return False

    # Lines 6–36: every operator of the stream needs a compatible
    # counterpart in the subscription.
    return operators_matched(stream.operators, subscription, mode, memo)


def window_contents_terms(
    content: StreamProperties,
) -> Optional[Tuple[WindowContentsSpec, Optional[SelectionSpec], Optional[ProjectionSpec]]]:
    """The window, selection and projection of a window-contents
    content (``None`` for any other): a window-contents stream serves
    only a subscription whose three are equal to its own, since a
    stricter selection or a narrower projection would have to follow
    the window."""
    window = content.operator_of_kind("window")
    if not isinstance(window, WindowContentsSpec):
        return None
    return window, content.selection, content.projection


def operators_matched(
    operators: Tuple[OperatorSpec, ...],
    subscription: StreamProperties,
    mode: str = "edgewise",
    memo: Optional[MatchMemo] = None,
) -> bool:
    """Lines 6–37 of Algorithm 2 over ``operators`` alone.

    The availability index prunes a candidate whose selections fail
    this check (:class:`~repro.sharing.index.SubscriptionProbe`): the
    matcher runs the same check on all of the candidate's operators, so
    a pruned candidate is exactly one it would reject.
    """
    for op in operators:                                   # line 6
        if not _operator_matched(op, subscription, mode, memo):  # lines 7–31
            return False                                   # lines 33–35
    return True                                            # line 37


def _operator_matched(
    op: OperatorSpec,
    subscription: StreamProperties,
    mode: str,
    memo: Optional[MatchMemo] = None,
) -> bool:
    for candidate in subscription.operators:               # line 8
        if candidate.kind != op.kind:                      # line 9 (o = o')
            continue
        if _conditions_compatible(op, candidate, mode, memo):  # lines 10–30
            return True                                    # break on match
    return False


def _conditions_compatible(
    op: OperatorSpec,
    other: OperatorSpec,
    mode: str,
    memo: Optional[MatchMemo] = None,
) -> bool:
    if memo is not None and isinstance(
        op, (SelectionSpec, ProjectionSpec, AggregationSpec)
    ):
        # Only the condition checks with real work are worth an entry;
        # window arithmetic and udf equality are cheaper than the probe.
        key = (op, other, mode)
        cached = memo.operators.get(key)
        if cached is not None:
            return cached
        verdict = _conditions_verdict(op, other, mode)
        memo.operators[key] = verdict
        return verdict
    return _conditions_verdict(op, other, mode)


def _conditions_verdict(op: OperatorSpec, other: OperatorSpec, mode: str) -> bool:
    if isinstance(op, SelectionSpec) and isinstance(other, SelectionSpec):
        # Lines 11–15: the subscription's predicates must imply the
        # stream's (MatchPredicates(G, G')).
        return match_predicates(op.graph, other.graph, mode)
    if isinstance(op, ProjectionSpec) and isinstance(other, ProjectionSpec):
        # Lines 16–20: R ⊇ R' — everything the subscription references
        # must still be present in the stream.
        return _projection_covers(op, other)
    if isinstance(op, AggregationSpec) and isinstance(other, AggregationSpec):
        # Lines 21–24: window-based aggregation matching.
        from .aggregation import match_aggregations

        return match_aggregations(op, other, mode)
    if isinstance(op, WindowContentsSpec) and isinstance(other, WindowContentsSpec):
        # Window-contents streams are reused as they are: no
        # compensation re-windows their batches.
        return op == other
    if isinstance(op, UdfSpec) and isinstance(other, UdfSpec):
        # Lines 25–30: unknown deterministic operators — equal operator
        # and equal input vector.
        return op.name == other.name and op.parameters == other.parameters
    return False


def _projection_covers(stream_op: ProjectionSpec, sub_op: ProjectionSpec) -> bool:
    """``R ⊇ R'`` with subtree semantics.

    A referenced path is covered when it lies inside (or equals) some
    output subtree of the stream — outputting ``coord/cel`` keeps
    ``coord/cel/ra`` available.
    """
    for needed in sub_op.referenced_elements:
        if not any(needed.starts_with(out) for out in stream_op.output_elements):
            return False
    return True
