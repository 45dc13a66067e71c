"""Static analysis gates for the stream-sharing engine.

Three independent passes share one diagnostics vocabulary:

* the **plan verifier** (:func:`verify_deployment`, P1xx/T2xx) checks a
  deployed stream network against the invariants the registration
  algorithms rely on — route shape, derivation validity, delivery,
  usage-ledger consistency, and the typing of compensation pipelines;
* the **linter** (:func:`lint_paths`, L3xx) is a small ``ast``-based
  pass for the repro-specific source rules generic linters miss;
* the **flow analyzer** (:func:`analyze_flow`, F4xx) abstractly
  interprets the deployed plans, propagating interval-valued
  rate/size facts from the sources through every operator chain and
  cross-checking the cost model's committed numbers, stream liveness,
  and missed sharing opportunities.

All three are wired into ``python -m repro.analysis`` (CI gate) and,
via ``StreamGlobe(verify=True)``, the plan verifier and the flow
analyzer into a pre-flight hook that raises :class:`InvariantViolation`
on any error.  Subscription texts are typed at registration on every
system (:mod:`repro.properties.typecheck`).  How the sharded executor
partitions a deployment needs no certificate: any partition runs
byte-identically (DESIGN.md §12).
"""

from ..diagnostics import AnalysisReport, Diagnostic, InvariantViolation
from .flow import FlowFacts, Interval, analyze_flow, derive_stream_facts
from .linter import lint_paths, lint_source
from .plan_verifier import verify_deployment
from .preflight import build_churned_system, flow_system, verify_system
from ..properties.typecheck import SchemaView, check_content, check_pipeline

__all__ = [
    "AnalysisReport",
    "Diagnostic",
    "FlowFacts",
    "Interval",
    "InvariantViolation",
    "SchemaView",
    "analyze_flow",
    "build_churned_system",
    "check_content",
    "check_pipeline",
    "derive_stream_facts",
    "flow_system",
    "lint_paths",
    "lint_source",
    "verify_deployment",
    "verify_system",
]
