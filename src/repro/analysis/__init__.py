"""Static analysis gates for the stream-sharing engine.

Four independent passes share one diagnostics vocabulary:

* the **plan verifier** (:func:`verify_deployment`, P1xx/T2xx) checks a
  deployed stream network against the invariants the registration
  algorithms rely on — route shape, derivation validity, delivery,
  usage-ledger consistency, and operator-chain typing;
* the **linter** (:func:`lint_paths`, L3xx) is a small ``ast``-based
  pass for the repro-specific source rules generic linters miss;
* the **flow analyzer** (:func:`analyze_flow`, F4xx) abstractly
  interprets the deployed plans, propagating interval-valued
  rate/size facts from the sources through every operator chain and
  cross-checking the cost model's committed numbers, stream liveness,
  and missed sharing opportunities;
* the **shard certifier** (:func:`certify_shards`, S5xx) classifies
  operators on an effect lattice and computes a certified
  :class:`ShardPlan` — the partition of the super-peer graph the future
  parallel executor may run concurrently.

All four are wired into ``python -m repro.analysis`` (CI gate) and, via
``StreamGlobe(verify=True)``, into a pre-flight hook that raises
:class:`InvariantViolation` on any error.
"""

from .diagnostics import AnalysisReport, Diagnostic, InvariantViolation
from .flow import FlowFacts, Interval, analyze_flow, derive_stream_facts
from .linter import lint_paths, lint_source
from .plan_verifier import verify_deployment
from .preflight import (
    build_churned_system,
    certify_system,
    flow_system,
    verify_system,
)
from .shards import (
    KEYED_STATE,
    ORDER_SENSITIVE,
    STATELESS,
    BlockedEdge,
    CutEdge,
    RuntimePartition,
    Shard,
    ShardPlan,
    certify_shards,
    operator_effect,
    partition_for_workers,
    stream_effect,
)
from .typecheck import SchemaView, check_content, check_pipeline

__all__ = [
    "AnalysisReport",
    "BlockedEdge",
    "CutEdge",
    "Diagnostic",
    "FlowFacts",
    "Interval",
    "InvariantViolation",
    "KEYED_STATE",
    "ORDER_SENSITIVE",
    "RuntimePartition",
    "STATELESS",
    "SchemaView",
    "Shard",
    "ShardPlan",
    "analyze_flow",
    "build_churned_system",
    "certify_shards",
    "certify_system",
    "check_content",
    "check_pipeline",
    "derive_stream_facts",
    "flow_system",
    "lint_paths",
    "lint_source",
    "operator_effect",
    "partition_for_workers",
    "stream_effect",
    "verify_deployment",
    "verify_system",
]
