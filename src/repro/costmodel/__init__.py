"""Cost model: statistics, rate rules, operator loads, C(P), latency (Section 3.2)."""

from .descriptions import DEFAULT_DESCRIPTIONS, DescriptionRegistry, UdfDescription
from .latency import DEFAULT_LATENCY_MODEL, LatencyModel
from .load import BASE_LOADS, base_load
from .model import RESIDUE_TOLERANCE, CostModel, NetworkUsage, PlanEffects
from .rates import AGGREGATE_ITEM_SIZE, RATE_RULES, StreamRate, estimate_stream_rate
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
    "RATE_RULES",
    "RESIDUE_TOLERANCE",
    "StatisticsCatalog",
    "StreamRate",
    "StreamStatistics",
    "base_load",
    "estimate_stream_rate",
]
