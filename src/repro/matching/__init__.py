"""Stream/subscription matching (Algorithms 2 and 3 plus MatchAggregations)."""

from ..properties import functions_compatible
from .aggregation import match_aggregations, serving_functions
from .memo import MatchMemo
from .properties_match import (
    match_stream_properties,
    operators_matched,
    window_contents_terms,
)

__all__ = [
    "MatchMemo",
    "functions_compatible",
    "match_aggregations",
    "match_stream_properties",
    "operators_matched",
    "serving_functions",
    "window_contents_terms",
]
