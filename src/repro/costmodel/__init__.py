"""Cost model: statistics, operator loads, C(P), latency (Section 3.2)."""

from .descriptions import DEFAULT_DESCRIPTIONS, DescriptionRegistry, UdfDescription
from .latency import DEFAULT_LATENCY_MODEL, LatencyModel
from .load import BASE_LOADS, base_load
from .model import (
    AGGREGATE_ITEM_SIZE,
    RESIDUE_TOLERANCE,
    CostModel,
    NetworkUsage,
    PlanEffects,
    StreamRate,
    estimate_stream_rate,
)
from .statistics import (
    MIN_SELECTIVITY,
    PathStatistics,
    StatisticsCatalog,
    StreamStatistics,
)

__all__ = [
    "AGGREGATE_ITEM_SIZE",
    "BASE_LOADS",
    "CostModel",
    "DEFAULT_DESCRIPTIONS",
    "DEFAULT_LATENCY_MODEL",
    "DescriptionRegistry",
    "UdfDescription",
    "LatencyModel",
    "MIN_SELECTIVITY",
    "NetworkUsage",
    "PathStatistics",
    "PlanEffects",
    "RESIDUE_TOLERANCE",
    "StatisticsCatalog",
    "StreamRate",
    "StreamStatistics",
    "base_load",
    "estimate_stream_rate",
]
