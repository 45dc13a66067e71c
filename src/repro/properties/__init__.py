"""Properties of subscriptions and data streams (paper Section 3.1).

>>> from repro.wxquery import parse_query
>>> from repro.properties import extract_properties
>>> p = extract_properties(parse_query(
...     '<r>{ for $p in stream("s")/root/item where $p/x >= 1 '
...     'return <o> { $p/x } </o> }</r>'), name="q1")
>>> [op.kind for op in p.single_input().operators]
['selection', 'projection']
"""

from .extract import extract_from_analysis, extract_properties
from .model import (
    RESULT_NODE,
    SERVABLE_FUNCTIONS,
    AggregationSpec,
    OperatorSpec,
    ProjectionSpec,
    Properties,
    ReAggregationSpec,
    RestructureSpec,
    SelectionSpec,
    StreamProperties,
    UdfSpec,
    WindowContentsSpec,
    functions_compatible,
    raw_stream_properties,
)
from .windows import WindowSpec

__all__ = [
    "RESULT_NODE",
    "SERVABLE_FUNCTIONS",
    "AggregationSpec",
    "OperatorSpec",
    "ProjectionSpec",
    "Properties",
    "ReAggregationSpec",
    "RestructureSpec",
    "SelectionSpec",
    "StreamProperties",
    "UdfSpec",
    "WindowContentsSpec",
    "WindowSpec",
    "extract_from_analysis",
    "extract_properties",
    "functions_compatible",
    "raw_stream_properties",
]
