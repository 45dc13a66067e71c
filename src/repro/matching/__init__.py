"""Stream/subscription matching (Algorithms 2 and 3 plus MatchAggregations)."""

from .aggregation import functions_compatible, match_aggregations, serving_functions
from .memo import MatchMemo
from .properties_match import (
    match_stream_properties,
    operators_matched,
)

__all__ = [
    "MatchMemo",
    "functions_compatible",
    "match_aggregations",
    "match_stream_properties",
    "operators_matched",
    "serving_functions",
]
