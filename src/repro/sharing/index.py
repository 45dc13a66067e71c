"""Indexed candidate lookup for ``Subscribe`` — the control-plane index.

The paper evaluates Algorithm 1 with a handful of subscriptions, so the
faithful implementation scans *every* stream available at a visited node
and runs Algorithm 2 on it.  At production registration volumes (the
ROADMAP's "heavy traffic from millions of users") that scan is the
control-plane bottleneck: O(installed streams) candidate matches per
visited node, quadratic in total registrations.

This module narrows the scan with a four-level inverted index,
``node → content signature → selection key → content → stream ids``:

* :func:`content_signature` reduces a stream's
  :class:`~repro.properties.StreamProperties` to its structural skeleton
  — original stream, item path, and per-operator *details* (operator
  kind plus the components Algorithm 2 requires to be equal, e.g. the
  aggregated path and window class for aggregations);
* every component of a signature is a **necessary condition** of
  :func:`~repro.matching.match_stream_properties`: a candidate whose
  signature is not covered by the subscription's compatible details can
  never match;
* the **selection key** (:func:`selection_key`) is the tuple of the
  content's selections; it is interned at
  :meth:`StreamAvailabilityIndex.add`, like the signature and the
  content, so that equal keys at different nodes are one object;
* :class:`SubscriptionProbe` precomputes, once per subscription input,
  the set of signatures the subscription is compatible with
  (aggregation details expand along ``avg → sum/count`` servability),
  and decides each selection key once with Algorithm 2's own check
  (:func:`~repro.matching.operators_matched`, with the subscriber's
  match mode and memo).  A key that fails it prunes every content under
  it, and each of those is a candidate the matcher would reject — so
  indexed and brute-force registration choose identical plans (covered
  by a property test);
* the content level holds the ids of same-content streams, so the
  deployment reads one representative per distinct content off it
  (:meth:`~repro.sharing.plan.Deployment.distinct_candidates_at`).

:class:`StreamAvailabilityIndex` is maintained incrementally on
install/release, by the keys stored at ``add``, so query registration,
deregistration GC, plan-repair teardown and widening's re-keying keep it
consistent (invariant ``P14x`` in :mod:`repro.analysis`).

Signature lookups are adaptive: a probe with few distinct compatible
signatures enumerates them (hash lookups, independent of bucket count),
while a node with fewer buckets than the probe has signatures is scanned
directly with a subset test.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from typing import (
    Any,
    Dict,
    FrozenSet,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from ..matching import MatchMemo, operators_matched
from ..matching.aggregation import serving_functions
from ..properties import (
    AggregationSpec,
    OperatorSpec,
    Properties,
    SelectionSpec,
    StreamProperties,
    UdfSpec,
    WindowContentsSpec,
)
from ..xmlkit import Path

#: One operator's structural skeleton inside a signature.
Detail = Tuple[object, ...]

#: A content's selections, in operator order: the index's third level.
SelectionKey = Tuple[SelectionSpec, ...]

#: Probes with more compatible details than this never enumerate the
#: (exponential) signature powerset; they scan node buckets instead.
_MAX_ENUMERATED_DETAILS = 10


@dataclass(frozen=True)
class ContentSignature:
    """The structural skeleton of a stream's content.

    Two contents with different signatures can still both match a
    subscription; but a candidate matches only if its signature's
    details are a subset of the subscription's compatible details
    (necessary condition of Algorithm 2).
    """

    stream: str
    item_path: Path
    details: FrozenSet[Detail]

    def __post_init__(self) -> None:
        # Precomputed: signatures are bucket keys, hashed on every
        # index maintenance step and probe lookup.
        object.__setattr__(
            self, "_hash", hash((self.stream, self.item_path, self.details))
        )

    def __hash__(self) -> int:
        return self._hash  # type: ignore[attr-defined]


def _operator_detail(op: OperatorSpec) -> Detail:
    """The components Algorithm 2 requires to coincide for ``op``.

    Only *necessary* equalities go in here — anything Algorithm 2 checks
    by implication/coverage (predicates, projections, window sizes)
    stays out, so the index never prunes a true match:

    * aggregation: the aggregated path must be equal and the window kind
      and reference element must coincide in every branch of
      ``MatchAggregations``; the function must be servable (handled on
      the probe side via :func:`serving_functions`);
    * window contents: ``shareable_from`` requires equal kind/reference;
    * udf: Algorithm 2's unknown-operator case requires the operator and
      its parameter vector to be equal;
    * selection/projection: only the operator kind is necessary.
    """
    if isinstance(op, AggregationSpec):
        return (
            "aggregation",
            op.function,
            op.aggregated_path,
            op.window.kind,
            op.window.reference,
        )
    if isinstance(op, WindowContentsSpec):
        return ("window", op.window.kind, op.window.reference)
    if isinstance(op, UdfSpec):
        return ("udf", op.name, op.parameters)
    return (op.kind,)


def content_signature(content: StreamProperties) -> ContentSignature:
    """Signature of an installed stream's content."""
    return ContentSignature(
        stream=content.stream,
        item_path=content.item_path,
        details=frozenset(_operator_detail(op) for op in content.operators),
    )


def selection_key(content: StreamProperties) -> SelectionKey:
    """The content's selections, the key its probe verdict is cached on."""
    return tuple(op for op in content.operators if isinstance(op, SelectionSpec))


class IndexKeys(NamedTuple):
    """Where one stream sits in the index, below its nodes."""

    signature: ContentSignature
    selection: SelectionKey
    content: StreamProperties


def index_keys(content: StreamProperties) -> IndexKeys:
    """The keys a stream with ``content`` is indexed under."""
    return IndexKeys(content_signature(content), selection_key(content), content)


def _compatible_details(
    subscription: StreamProperties, share_aggregates: bool
) -> FrozenSet[Detail]:
    """Every detail a matching candidate's operators may carry.

    A candidate operator with a detail outside this set has no same-kind
    counterpart in the subscription that could satisfy Algorithm 2's
    equality requirements, so the candidate cannot match.  Aggregation
    details fan out over :func:`serving_functions` — an ``avg`` stream
    may serve a ``sum`` subscription, so the ``sum`` probe also accepts
    ``avg`` signatures — unless aggregate streams are not shared at all
    (``share_aggregates=False``, the E8 ablation), when none is
    compatible.
    """
    details: Set[Detail] = set()
    for op in subscription.operators:
        if isinstance(op, AggregationSpec):
            if not share_aggregates:
                continue
            for function in serving_functions(op.function):
                details.add(
                    (
                        "aggregation",
                        function,
                        op.aggregated_path,
                        op.window.kind,
                        op.window.reference,
                    )
                )
        else:
            details.add(_operator_detail(op))
    return frozenset(details)


@dataclass(frozen=True)
class SubscriptionProbe:
    """One subscription input, prepared for indexed lookup.

    ``signatures`` enumerates every signature whose details are a subset
    of the subscription's compatible details (the raw stream — empty
    details — is always included: Algorithm 2 trivially matches it).
    ``None`` when the powerset would be too large; lookups then scan the
    node's buckets with a subset test instead.  ``mode`` and ``memo`` are
    the subscriber's, so :meth:`admits` decides a selection key exactly
    as the matcher would.
    """

    subscription: StreamProperties
    details: FrozenSet[Detail]
    signatures: Optional[Tuple[ContentSignature, ...]]
    mode: str = "edgewise"
    memo: Optional[MatchMemo] = None
    #: Selection key → verdict; keys are interned by the index, so a
    #: repeated key hits on identity.
    verdicts: Dict[SelectionKey, bool] = field(
        init=False, default_factory=dict, compare=False, repr=False
    )

    @classmethod
    def from_subscription(
        cls,
        subscription: StreamProperties,
        mode: str = "edgewise",
        memo: Optional[MatchMemo] = None,
        share_aggregates: bool = True,
    ) -> "SubscriptionProbe":
        details = _compatible_details(subscription, share_aggregates)
        signatures: Optional[Tuple[ContentSignature, ...]] = None
        if len(details) <= _MAX_ENUMERATED_DETAILS:
            # key=repr: details mix strings, paths, and None, which do
            # not order against each other; repr gives a total order.
            ordered = sorted(details, key=repr)
            signatures = tuple(
                ContentSignature(
                    subscription.stream,
                    subscription.item_path,
                    frozenset(subset),
                )
                for size in range(len(ordered) + 1)
                for subset in combinations(ordered, size)
            )
        return cls(subscription, details, signatures, mode, memo)

    def covers(self, signature: ContentSignature) -> bool:
        """Structural compatibility: could a stream with ``signature``
        match this subscription input?"""
        return (
            signature.stream == self.subscription.stream
            and signature.item_path == self.subscription.item_path
            and signature.details <= self.details
        )

    def admits(self, selection: SelectionKey) -> bool:
        """Could a covered stream with these selections match?  ``False``
        exactly when Algorithm 2 rejects it on a selection."""
        verdict = self.verdicts.get(selection)
        if verdict is None:
            verdict = operators_matched(
                selection, self.subscription, self.mode, self.memo
            )
            self.verdicts[selection] = verdict
        return verdict


#: The content level: stream ids by content.
_ByContent = Dict[StreamProperties, Set[str]]
#: The selection and content levels below one signature.
_BySelection = Dict[SelectionKey, _ByContent]


class StreamAvailabilityIndex:
    """Inverted index ``node → signature → selection key → content →
    stream ids``.

    Mirrors :class:`~repro.sharing.plan.Deployment`'s availability
    bookkeeping (a stream is available at every node of its route), but
    grouped so ``Subscribe`` consults only candidates that can match,
    one group per distinct content.  Maintenance is strictly add/discard
    from ``install_stream``/``release_stream``/``replace_stream`` —
    there is no rebuild path, so the ``P14x`` invariants check it
    against the ground truth.
    """

    __slots__ = ("_nodes", "_keys", "_contents", "_shared")

    def __init__(self) -> None:
        self._nodes: Dict[str, Dict[ContentSignature, _BySelection]] = {}
        #: The keys each stream was added under; ``discard`` removes by
        #: these, never by the stream's content at release time.
        self._keys: Dict[str, IndexKeys] = {}
        # Intern tables, so that equal keys are one object at every node
        # and maintenance and probe verdicts hit on identity instead of
        # structural equality: content → [its keys, streams filed under
        # it], and signature or selection key → [canonical key, contents
        # using it].
        self._contents: Dict[StreamProperties, List[Any]] = {}
        self._shared: Dict[object, List[Any]] = {}

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------
    def add(
        self, stream_id: str, content: StreamProperties, route: Sequence[str]
    ) -> None:
        entry = self._contents.get(content)
        if entry is None:
            signature, selection, content = index_keys(content)
            keys = IndexKeys(self._intern(signature), self._intern(selection), content)
            entry = self._contents[content] = [keys, 0]
        entry[1] += 1
        self._keys[stream_id] = entry[0]
        signature, selection, content = entry[0]
        for node in dict.fromkeys(route):
            self._nodes.setdefault(node, {}).setdefault(signature, {}).setdefault(
                selection, {}
            ).setdefault(content, set()).add(stream_id)

    def discard(self, stream_id: str, route: Sequence[str]) -> None:
        """Remove one stream; idempotent, like ``release_stream``."""
        keys = self._keys.pop(stream_id, None)
        if keys is None:
            return
        signature, selection, content = keys
        for node in dict.fromkeys(route):
            # Drop the id, then every level it leaves empty.
            per_node = self._nodes.get(node)
            if per_node is None:
                continue
            by_selection = per_node.get(signature)
            if by_selection is None:
                continue
            by_content = by_selection.get(selection)
            if by_content is None:
                continue
            group = by_content.get(content)
            if group is None:
                continue
            group.discard(stream_id)
            if group:
                continue
            del by_content[content]
            if by_content:
                continue
            del by_selection[selection]
            if by_selection:
                continue
            del per_node[signature]
            if not per_node:
                del self._nodes[node]
        if self._release(self._contents, content):
            self._release(self._shared, signature)
            self._release(self._shared, selection)

    def _intern(self, key: Any) -> Any:
        entry = self._shared.get(key)
        if entry is None:
            entry = self._shared[key] = [key, 0]
        entry[1] += 1
        return entry[0]

    @staticmethod
    def _release(table: Dict[Any, List[Any]], key: object) -> bool:
        """Drop one use of ``key``; ``True`` when that was the last."""
        entry = table[key]
        entry[1] -= 1
        if entry[1]:
            return False
        del table[key]
        return True

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def _covered(
        self, node: str, probe: SubscriptionProbe
    ) -> Iterator[_BySelection]:
        """The selection levels at ``node`` whose signature ``probe``
        covers."""
        per_node = self._nodes.get(node)
        if not per_node:
            return
        signatures = probe.signatures
        if signatures is not None and len(signatures) < len(per_node):
            for signature in signatures:
                by_selection = per_node.get(signature)
                if by_selection:
                    yield by_selection
        else:
            for signature, by_selection in per_node.items():
                if probe.covers(signature):
                    yield by_selection

    def candidate_ids(self, node: str, probe: SubscriptionProbe) -> List[str]:
        """Structurally compatible stream ids at ``node``, sorted.

        A superset of the streams Algorithm 2 accepts there — every
        stream left out has a signature that cannot match.  Selections
        are not consulted: the distinct contents among these streams are
        what the registration latency model charges.
        """
        ids = [
            stream_id
            for by_selection in self._covered(node, probe)
            for by_content in by_selection.values()
            for group in by_content.values()
            for stream_id in group
        ]
        ids.sort()
        return ids

    def candidate_groups(
        self, node: str, probe: SubscriptionProbe
    ) -> Tuple[List[Set[str]], int]:
        """The same-content id groups at ``node`` that ``probe`` admits,
        and how many covered contents it pruned on their selections.

        Every admitted group can match; every pruned content is one
        Algorithm 2 rejects.  Groups come in index order; the caller
        orders them.
        """
        groups: List[Set[str]] = []
        pruned = 0
        for by_selection in self._covered(node, probe):
            for selection, by_content in by_selection.items():
                if probe.admits(selection):
                    groups.extend(by_content.values())
                else:
                    pruned += len(by_content)
        return groups, pruned

    # ------------------------------------------------------------------
    # Introspection (verifier, tests)
    # ------------------------------------------------------------------
    def keys_of(self, stream_id: str) -> Optional[IndexKeys]:
        """The keys ``stream_id`` was added under (``None`` if absent)."""
        return self._keys.get(stream_id)

    def entries(self) -> Iterator[Tuple[str, str, IndexKeys]]:
        """Yield every ``(node, stream_id, keys it is filed under)``."""
        for node, per_node in self._nodes.items():
            for signature, by_selection in per_node.items():
                for selection, by_content in by_selection.items():
                    for content, group in by_content.items():
                        keys = IndexKeys(signature, selection, content)
                        for stream_id in group:
                            yield node, stream_id, keys

    def __len__(self) -> int:
        return len(self._keys)


def admission_order_key(properties: Properties) -> Tuple[object, ...]:
    """Sort key for batch admission: most general subscriptions first.

    Within a batch, a subscription whose delivered stream is a superset
    of another's content should register first so the narrower one can
    tap it.  Generality is approximated structurally — item-level before
    aggregates (aggregate results can never serve item-level inputs),
    fewer operators, fewer selection atoms (looser predicates), wider
    projections — with the query name as the final total-order tiebreak.
    """
    inputs = properties.inputs
    streams = tuple(sorted(sp.stream for sp in inputs))
    has_aggregate = any(sp.aggregation is not None for sp in inputs)
    operator_count = sum(len(sp.operators) for sp in inputs)
    selection_atoms = sum(
        len(sp.selection.graph) for sp in inputs if sp.selection is not None
    )
    projection_width = sum(
        len(sp.projection.output_elements)
        for sp in inputs
        if sp.projection is not None
    )
    return (
        streams,
        int(has_aggregate),
        operator_count,
        selection_atoms,
        -projection_width,
        properties.name,
    )
