"""Stage-to-stage type checking of operator chains against stream schemas.

The paper's compensation machinery silently assumes that each operator's
conditions make sense against what the previous stage emits: projection
marks must exist in the input schema, selection predicate paths must
resolve (and address numeric leaves), time-based windows must key on a
monotone reference element such as ``det_time``, and re-aggregation must
consume the aggregate stream it names.  This module checks those
assumptions statically where a chain enters: registration types each
subscription input (:func:`check_content`), ``install_derived_stream``
its pipeline (:func:`check_pipeline`), and the plan verifier re-types
only compensation pipelines.  What a spec's constructor enforces is not
checked again.

A :class:`SchemaView` is what the measured
:class:`~repro.costmodel.statistics.StreamStatistics` show of a stream's
items — the source the optimizer uses too, so both agree by construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import FrozenSet, List, Optional, Set

from ..costmodel.statistics import StreamStatistics
from ..diagnostics import Diagnostic
from ..xmlkit import Path
from .model import (
    RESULT_NODE,
    AggregationSpec,
    OperatorSpec,
    ProjectionSpec,
    ReAggregationSpec,
    RestructureSpec,
    SelectionSpec,
    StreamProperties,
    UdfSpec,
    WindowContentsSpec,
)
from .windows import WindowSpec

__all__ = ["SchemaView", "check_content", "check_pipeline"]


@dataclass(frozen=True)
class SchemaView:
    """What is statically known about one stream's item structure.

    All paths are absolute (they include the stream/item prefix, e.g.
    ``photons/photon/en``), matching the convention of predicate-graph
    labels and projection marks.
    """

    stream: str
    paths: FrozenSet[Path]
    numeric: FrozenSet[Path]
    monotone: FrozenSet[Path]

    # ------------------------------------------------------------------
    @classmethod
    def from_statistics(cls, stats: "StreamStatistics") -> "SchemaView":
        """Build a view from measured :class:`StreamStatistics`."""
        paths = frozenset(stats.paths)
        numeric = frozenset(
            path for path, entry in stats.paths.items() if entry.minimum is not None
        )
        monotone = frozenset(
            path for path, entry in stats.paths.items() if entry.nondecreasing
        )
        return cls(
            stream=stats.stream,
            paths=paths,
            numeric=numeric,
            monotone=monotone,
        )


@dataclass
class _ChainState:
    """What flows between two stages of an operator chain."""

    #: Paths still present in the items (projections narrow this).
    available: Set[Path] = field(default_factory=set)
    #: ``True`` once an aggregation replaced items by aggregate values.
    aggregated: bool = False
    #: The aggregation that produced the current aggregate values.
    aggregation: Optional[AggregationSpec] = None
    #: ``True`` once a window-contents stage batched the items.
    windowed: bool = False


def check_content(
    content: StreamProperties, view: SchemaView, subject: str
) -> List[Diagnostic]:
    """Type-check a stream's full operator chain from the raw schema
    (a subscription input, at registration)."""
    diags: List[Diagnostic] = []
    _walk_operators(content.operators, _initial_state(view), view, subject, diags)
    return diags


def check_pipeline(
    parent_content: StreamProperties,
    pipeline: "tuple[OperatorSpec, ...]",
    view: SchemaView,
    subject: str,
) -> List[Diagnostic]:
    """Type-check a compensation ``pipeline`` applied to a parent stream.

    The pipeline's input state is the parent chain's *output* state, so
    stage-to-stage compatibility across the stream derivation is checked
    exactly where the operators actually execute.
    """
    diags: List[Diagnostic] = []
    state = _walk_operators(
        parent_content.operators, _initial_state(view), view, subject, []
    )
    _walk_operators(pipeline, state, view, subject, diags)
    return diags


# ----------------------------------------------------------------------
# The stage walker
# ----------------------------------------------------------------------
def _initial_state(view: SchemaView) -> _ChainState:
    return _ChainState(available=set(view.paths))


def _walk_operators(
    operators: "tuple[OperatorSpec, ...]",
    state: _ChainState,
    view: SchemaView,
    subject: str,
    diags: List[Diagnostic],
) -> _ChainState:
    for index, spec in enumerate(operators):
        stage = f"{subject} stage {index + 1} ({spec.kind})"
        if isinstance(spec, SelectionSpec):
            _check_selection(spec, state, view, stage, diags)
        elif isinstance(spec, ProjectionSpec):
            _check_projection(spec, state, view, stage, diags)
        elif isinstance(spec, AggregationSpec):
            _check_aggregation(spec, state, view, stage, diags)
        elif isinstance(spec, WindowContentsSpec):
            _check_window_contents(spec, state, view, stage, diags)
        elif isinstance(spec, ReAggregationSpec):
            _check_reaggregation(spec, state, view, stage, diags)
        elif isinstance(spec, RestructureSpec):
            diags.append(
                Diagnostic(
                    "T217",
                    stage,
                    "restructuring must not appear in a stream's operator chain",
                    hint="post-processing output is never reused (Section 2); "
                    "it belongs to the subscriber-side plan only",
                )
            )
        elif isinstance(spec, UdfSpec):
            pass  # unknown semantics: conservatively type-neutral
    return state


def _resolve_paths(
    paths: "list[Path]",
    state: _ChainState,
    view: SchemaView,
    stage: str,
    diags: List[Diagnostic],
    code: str,
    what: str,
) -> None:
    for path in paths:
        if path == RESULT_NODE:
            continue
        if path in state.available:
            continue
        if path in view.paths:
            diags.append(
                Diagnostic(
                    code,
                    stage,
                    f"{what} {path} was dropped by an earlier projection",
                    hint="widen the upstream projection marks or reorder the chain",
                )
            )
        else:
            diags.append(
                Diagnostic(
                    code,
                    stage,
                    f"{what} {path} does not exist in the schema of "
                    f"stream {view.stream!r}",
                )
            )


def _check_selection(
    spec: SelectionSpec,
    state: _ChainState,
    view: SchemaView,
    stage: str,
    diags: List[Diagnostic],
) -> None:
    if _after_windowing(state, stage, diags, "selection"):
        return
    variables = spec.graph.variables()
    if state.aggregated:
        if any(v != RESULT_NODE for v in variables):
            diags.append(
                Diagnostic(
                    "T210",
                    stage,
                    "item-level selection after aggregation",
                    hint="aggregate streams carry values, not items; filter the "
                    "aggregate via the aggregation's result filter instead",
                )
            )
        return
    _resolve_paths(variables, state, view, stage, diags, "T201", "selection path")
    for path in variables:
        if path == RESULT_NODE:
            continue
        if path in view.paths and path not in view.numeric:
            diags.append(
                Diagnostic(
                    "T202",
                    stage,
                    f"selection predicate compares non-numeric element {path}",
                    hint="predicates are linear arithmetic constraints "
                    "(Definition 2.1); only numeric leaves can be compared",
                )
            )


def _check_projection(
    spec: ProjectionSpec,
    state: _ChainState,
    view: SchemaView,
    stage: str,
    diags: List[Diagnostic],
) -> None:
    if _after_windowing(state, stage, diags, "projection"):
        return
    if state.aggregated:
        diags.append(
            Diagnostic(
                "T211",
                stage,
                "projection after aggregation",
                hint="aggregate values have no element structure left to project",
            )
        )
        return
    outputs = sorted(spec.output_elements)
    _resolve_paths(outputs, state, view, stage, diags, "T203", "projection mark")
    state.available = {
        path
        for path in state.available
        if any(path.starts_with(out) or out.starts_with(path) for out in outputs)
    }


def _check_window(
    window: WindowSpec,
    state: _ChainState,
    view: SchemaView,
    stage: str,
    diags: List[Diagnostic],
) -> None:
    if window.kind != "diff":
        return
    reference = window.reference
    assert reference is not None  # WindowSpec.__post_init__ guarantees it
    _resolve_paths([reference], state, view, stage, diags, "T206", "window reference")
    if reference in view.paths and reference not in view.numeric:
        diags.append(
            Diagnostic(
                "T207",
                stage,
                f"window reference {reference} is not a numeric leaf",
            )
        )
        return
    if reference in view.numeric and reference not in view.monotone:
        diags.append(
            Diagnostic(
                "T208",
                stage,
                f"time-based window keyed on non-monotone element {reference}",
                hint="the paper requires streams sorted by the reference element "
                "(Section 2); key on a non-decreasing element such as det_time",
            )
        )


def _check_aggregation(
    spec: AggregationSpec,
    state: _ChainState,
    view: SchemaView,
    stage: str,
    diags: List[Diagnostic],
) -> None:
    if state.aggregated:
        diags.append(
            Diagnostic(
                "T212",
                stage,
                "aggregation over an already aggregated stream",
                hint="combining partial aggregates is re-aggregation "
                "(ReAggregationSpec), not a second aggregation",
            )
        )
        return
    if _after_windowing(state, stage, diags, "aggregation"):
        return
    _resolve_paths(
        [spec.aggregated_path], state, view, stage, diags, "T204", "aggregated element"
    )
    if spec.aggregated_path in view.paths and spec.aggregated_path not in view.numeric:
        diags.append(
            Diagnostic(
                "T205",
                stage,
                f"aggregated element {spec.aggregated_path} is not numeric",
            )
        )
    _resolve_paths(
        spec.pre_selection.variables(),
        state,
        view,
        stage,
        diags,
        "T201",
        "pre-selection path",
    )
    _check_window(spec.window, state, view, stage, diags)
    state.aggregated = True
    state.aggregation = spec
    state.available = set()


def _check_window_contents(
    spec: WindowContentsSpec,
    state: _ChainState,
    view: SchemaView,
    stage: str,
    diags: List[Diagnostic],
) -> None:
    if state.aggregated:
        diags.append(
            Diagnostic("T213", stage, "window-contents operator after aggregation")
        )
        return
    if _after_windowing(state, stage, diags, "window-contents operator"):
        return
    _check_window(spec.window, state, view, stage, diags)
    state.windowed = True


def _after_windowing(
    state: _ChainState, stage: str, diags: List[Diagnostic], what: str
) -> bool:
    """Report an item-level stage over window batches (``T219``)."""
    if not state.windowed:
        return False
    diags.append(
        Diagnostic(
            "T219",
            stage,
            f"item-level {what} after a window-contents stage",
            hint="a window-contents stream carries window batches, not items; "
            "select and project before the window",
        )
    )
    return True


def _check_reaggregation(
    spec: ReAggregationSpec,
    state: _ChainState,
    view: SchemaView,
    stage: str,
    diags: List[Diagnostic],
) -> None:
    if not state.aggregated:
        diags.append(
            Diagnostic(
                "T214",
                stage,
                "re-aggregation over a non-aggregate stream",
                hint="re-aggregation combines partial aggregates (Figure 5); "
                "its input must be an aggregation's result stream",
            )
        )
        return
    if state.aggregation != spec.reused:
        diags.append(
            Diagnostic(
                "T218",
                stage,
                "re-aggregation's reused spec does not match the upstream "
                f"aggregation ({spec.reused} vs {state.aggregation})",
            )
        )
    state.aggregation = spec.new
