"""Data stream sharing: plans, Algorithm 1, strategies, the facade."""

from .plan import (
    Deployment,
    EvaluationPlan,
    InputPlan,
    InstalledStream,
    RegisteredQuery,
)
from .planner import Planner, PlanningError, derive_compensation
from .strategies import STRATEGIES, StrategyRegistrar
from .subscribe import RegistrationResult, Subscriber
from .system import StreamGlobe
from .deregister import Deregistrar, DeregistrationError, live_stream_ids
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
    "StrategyRegistrar",
    "StreamGlobe",
    "Subscriber",
    "WideningAction",
    "WideningPlanner",
    "Deregistrar",
    "DeregistrationError",
    "deployment_to_dict",
    "deployment_to_json",
    "derive_compensation",
    "explain_deployment",
    "explain_registration",
    "live_stream_ids",
    "widen_content",
]
