"""The properties data structure (Section 3.1, Figure 3).

Subscriptions and data streams are represented *symmetrically*: a
subscription produces a result stream, and every stream is the result of
some (possibly empty) subscription.  Properties therefore describe both:

* a set of original input data streams;
* per input stream, the ordered set of operators that transform it;
* per operator, its conditions — a minimized predicate graph for
  selections, marked/referenced element sets for projections, window
  plus aggregation details for window-based aggregations, and the
  parameter vector for unknown (user-defined) operators.

Restructuring (the ``return`` clause's element construction) is *not*
part of properties — it happens in the post-processing step at the
subscriber's super-peer and its output is never reused (Section 2).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import FrozenSet, Optional, Tuple, Union

from ..predicates import PredicateGraph
from ..xmlkit import Path
from .windows import WindowSpec


# The indexed registration path hashes the same specs once per
# candidate pair (memo keys, signature buckets), so the hot classes
# precompute their hash in ``__post_init__`` — the sanctioned
# construction-time escape hatch for frozen dataclasses — and swap
# their predicate graphs for the canonical instances
# (:meth:`PredicateGraph.interned`), so comparing two specs' graphs is
# an identity check.


@dataclass(frozen=True)
class SelectionSpec:
    """A selection operator σ with its minimized predicate graph."""

    graph: PredicateGraph

    kind: str = field(default="selection", init=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "graph", self.graph.interned())
        object.__setattr__(self, "_hash", hash((SelectionSpec, self.graph)))

    def __hash__(self) -> int:
        return self._hash  # type: ignore[attr-defined]

    def __str__(self) -> str:
        return f"σ[{self.graph.describe()}]"


@dataclass(frozen=True)
class ProjectionSpec:
    """A projection operator π.

    ``output_elements`` are the subtrees present in the result stream
    (the bullet-marked elements of Figure 3 — the set ``R`` fetched by
    ``getOutElems`` in Algorithm 2).  ``referenced_elements`` is the set
    ``R'`` of *all* elements the query touches (``getRefElems``); a
    stream is reusable when its outputs cover the new subscription's
    references.
    """

    output_elements: FrozenSet[Path]
    referenced_elements: FrozenSet[Path]

    kind: str = field(default="projection", init=False, repr=False)

    def __post_init__(self) -> None:
        if not self.output_elements:
            raise ValueError("a projection must output at least one element")
        if not self.output_elements <= self.referenced_elements:
            raise ValueError("output elements must be referenced elements")
        object.__setattr__(
            self,
            "_hash",
            hash((ProjectionSpec, self.output_elements, self.referenced_elements)),
        )

    def __hash__(self) -> int:
        return self._hash  # type: ignore[attr-defined]

    def __str__(self) -> str:
        marked = ",".join(sorted(str(p) for p in self.output_elements))
        return f"π[{marked}]"


@dataclass(frozen=True)
class AggregationSpec:
    """A window-based aggregation operator Φ.

    Attributes
    ----------
    function:
        One of ``min, max, sum, count, avg``.
    aggregated_path:
        Absolute path of the aggregated element.
    window:
        The data window specification.
    pre_selection:
        The selection applied to the stream *before* aggregation; for
        aggregate reuse it must be identical in both subscriptions
        (Section 3.3, MatchAggregations).
    result_filter:
        Predicate graph over :data:`RESULT_NODE` when the subscription
        filters the aggregate value (e.g. ``where $a >= 1.3``); empty
        graph when unfiltered.
    """

    function: str
    aggregated_path: Path
    window: WindowSpec
    pre_selection: PredicateGraph
    result_filter: PredicateGraph

    kind: str = field(default="aggregation", init=False, repr=False)

    def __post_init__(self) -> None:
        if self.function not in ("min", "max", "sum", "count", "avg"):
            raise ValueError(f"unknown aggregation function {self.function!r}")
        object.__setattr__(self, "pre_selection", self.pre_selection.interned())
        object.__setattr__(self, "result_filter", self.result_filter.interned())
        object.__setattr__(
            self,
            "_hash",
            hash(
                (
                    AggregationSpec,
                    self.function,
                    self.aggregated_path,
                    self.window,
                    self.pre_selection,
                    self.result_filter,
                )
            ),
        )

    def __hash__(self) -> int:
        return self._hash  # type: ignore[attr-defined]

    @property
    def is_filtered(self) -> bool:
        return not self.result_filter.is_empty()

    def __str__(self) -> str:
        text = f"{self.function}({self.aggregated_path}) {self.window}"
        if self.is_filtered:
            text += f" having[{self.result_filter.describe()}]"
        return text


#: Node label used inside ``result_filter`` graphs for the aggregate value.
RESULT_NODE = Path("__aggregate_result__")


@dataclass(frozen=True)
class WindowContentsSpec:
    """A windowing operator whose output is the window *contents*.

    Covers WXQueries that bind a window but return the items themselves
    rather than an aggregate (the cost model's "queries returning the
    contents of data windows", Section 3.2).
    """

    window: WindowSpec

    kind: str = field(default="window", init=False, repr=False)

    def __str__(self) -> str:
        return f"ω{self.window}"


@dataclass(frozen=True)
class UdfSpec:
    """An unknown (user-defined) deterministic operator.

    Algorithm 2's final case: shareable only when the operator *and* its
    input vector (parameter list) coincide.
    """

    name: str
    parameters: Tuple[str, ...] = ()

    kind: str = field(default="udf", init=False, repr=False)

    def __str__(self) -> str:
        return f"{self.name}({', '.join(self.parameters)})"


@dataclass(frozen=True)
class ReAggregationSpec:
    """Plan-level operator: combine reused partial aggregates.

    Installed as *compensation* when an aggregate stream is shared with
    a compatible but coarser window (Figure 5): ``∆'/∆`` reused windows
    at stride ``∆/µ`` merge into one new window, advancing ``µ'/µ``
    arrivals per emission.  Never appears in stream properties — the
    resulting stream is described by its :class:`AggregationSpec`.
    """

    reused: AggregationSpec
    new: AggregationSpec

    kind: str = field(default="reaggregation", init=False, repr=False)

    def __post_init__(self) -> None:
        if not self.new.window.shareable_from(self.reused.window):
            raise ValueError(
                f"window {self.new.window} is not shareable from {self.reused.window}"
            )

    def __str__(self) -> str:
        return f"ρ[{self.reused.window} ⇒ {self.new.window}]"


@dataclass(frozen=True)
class RestructureSpec:
    """Plan-level operator: the post-processing step (Section 2).

    Builds the subscriber-facing result structure from the delivered
    stream at the subscriber's super-peer.  Its output is never
    considered for reuse, so it never appears in stream properties.
    """

    query_name: str

    kind: str = field(default="restructure", init=False, repr=False)

    def __str__(self) -> str:
        return f"restructure[{self.query_name}]"


OperatorSpec = Union[
    SelectionSpec,
    ProjectionSpec,
    AggregationSpec,
    WindowContentsSpec,
    UdfSpec,
    ReAggregationSpec,
    RestructureSpec,
]


@dataclass(frozen=True)
class StreamProperties:
    """Properties of one input stream within a subscription/stream.

    ``stream`` names the *original* input data stream (``getDS`` in
    Algorithm 2); ``item_path`` is the path from the stream root to the
    items (e.g. ``photons/photon``); ``operators`` the transformation
    pipeline (``getOps``).
    """

    stream: str
    item_path: Path
    operators: Tuple[OperatorSpec, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(
            self,
            "_hash",
            hash((StreamProperties, self.stream, self.item_path, self.operators)),
        )

    def __hash__(self) -> int:
        return self._hash  # type: ignore[attr-defined]

    def operator_of_kind(self, kind: str) -> Optional[OperatorSpec]:
        for op in self.operators:
            if op.kind == kind:
                return op
        return None

    @property
    def selection(self) -> Optional[SelectionSpec]:
        op = self.operator_of_kind("selection")
        return op if isinstance(op, SelectionSpec) else None

    @property
    def projection(self) -> Optional[ProjectionSpec]:
        op = self.operator_of_kind("projection")
        return op if isinstance(op, ProjectionSpec) else None

    @property
    def aggregation(self) -> Optional[AggregationSpec]:
        op = self.operator_of_kind("aggregation")
        return op if isinstance(op, AggregationSpec) else None

    @property
    def is_raw(self) -> bool:
        """``True`` for an untransformed original input stream."""
        return not self.operators

    def __str__(self) -> str:
        ops = " → ".join(str(op) for op in self.operators) or "id"
        return f"{self.stream}: {ops}"


@dataclass(frozen=True)
class Properties:
    """Complete properties of a subscription or a derived data stream."""

    name: str
    inputs: Tuple[StreamProperties, ...]

    def input_streams(self) -> Tuple[StreamProperties, ...]:
        """``getInputDS`` of Algorithm 1."""
        return self.inputs

    def input_for(self, stream: str) -> StreamProperties:
        for sp in self.inputs:
            if sp.stream == stream:
                return sp
        raise KeyError(f"{self.name} has no input stream {stream!r}")

    def single_input(self) -> StreamProperties:
        if len(self.inputs) != 1:
            raise ValueError(f"{self.name} has {len(self.inputs)} inputs, expected 1")
        return self.inputs[0]

    def is_variant_of(self, other: "StreamProperties") -> bool:
        """``True`` when some input derives from ``other``'s stream.

        Used by Algorithm 1 line 9 ("data streams available at v that
        are variants of p_s").
        """
        return any(sp.stream == other.stream for sp in self.inputs)

    def __str__(self) -> str:
        return f"{self.name}{{{'; '.join(str(sp) for sp in self.inputs)}}}"


def raw_stream_properties(name: str, item_path: Union[Path, str]) -> Properties:
    """Properties of an original, untransformed registered data stream."""
    path = item_path if isinstance(item_path, Path) else Path(item_path)
    return Properties(name=name, inputs=(StreamProperties(name, path),))
