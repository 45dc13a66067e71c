"""The stream execution engine (the DSMS substrate).

Push-based operators for the WXQuery fragment, pipelines, and the
measured network simulation (:class:`StreamSimulator`).
"""

from .aggregate import (
    PartialAggregate,
    ReAggregateOperator,
    WindowAggregateOperator,
    filter_accepts,
    partial_to_wire,
    wire_to_partial,
)
from .eval import item_number, rebase, satisfies
from .executor import (
    ExecutionError,
    StreamSimulator,
    interleave_round_robin,
    topological_streams,
)
from .fanout import PrefixStage, PrefixTree, group_pipelines
from .metrics import RunMetrics
from .operators import EngineError, Operator, build_operator
from .pipeline import Pipeline
from .project import ProjectOperator
from .restructure import RestructureOperator, Restructurer
from .select import SelectOperator
from .udf import DEFAULT_UDF_REGISTRY, UdfOperator, UdfRegistry, clear_default_registry
from .window import (
    ReorderBuffer,
    SlidingWindower,
    WindowBatch,
    WindowContentsOperator,
)

__all__ = [
    "EngineError",
    "ExecutionError",
    "Operator",
    "PartialAggregate",
    "Pipeline",
    "PrefixStage",
    "PrefixTree",
    "ProjectOperator",
    "ReAggregateOperator",
    "ReorderBuffer",
    "RestructureOperator",
    "Restructurer",
    "RunMetrics",
    "SelectOperator",
    "SlidingWindower",
    "StreamSimulator",
    "DEFAULT_UDF_REGISTRY",
    "UdfOperator",
    "UdfRegistry",
    "clear_default_registry",
    "WindowAggregateOperator",
    "WindowBatch",
    "WindowContentsOperator",
    "build_operator",
    "filter_accepts",
    "group_pipelines",
    "interleave_round_robin",
    "item_number",
    "partial_to_wire",
    "rebase",
    "satisfies",
    "topological_streams",
    "wire_to_partial",
]
