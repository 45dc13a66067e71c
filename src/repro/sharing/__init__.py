"""Data stream sharing: plans, Algorithm 1, strategies, the facade."""

from .plan import (
    Deployment,
    EvaluationPlan,
    InputPlan,
    InstalledStream,
    RegisteredQuery,
)
from .planner import Planner, PlanningError, derive_compensation
from .subscribe import STRATEGIES, RegistrationResult, Subscriber
from .system import StreamGlobe
from .deregister import DeregistrationError, live_stream_ids, tear_down
from .explain import explain_deployment, explain_registration
from .rebalance import HotPeerCostModel, MigrationReport, Rebalancer
from .repair import PlanRepairer, RepairReport
from .export import deployment_to_dict, deployment_to_json
from .widening import WideningAction, WideningPlanner, widen_content

__all__ = [
    "Deployment",
    "EvaluationPlan",
    "HotPeerCostModel",
    "InputPlan",
    "InstalledStream",
    "MigrationReport",
    "PlanRepairer",
    "Planner",
    "PlanningError",
    "Rebalancer",
    "RegisteredQuery",
    "RepairReport",
    "RegistrationResult",
    "STRATEGIES",
    "StreamGlobe",
    "Subscriber",
    "WideningAction",
    "WideningPlanner",
    "DeregistrationError",
    "deployment_to_dict",
    "deployment_to_json",
    "derive_compensation",
    "explain_deployment",
    "explain_registration",
    "live_stream_ids",
    "tear_down",
    "widen_content",
]
