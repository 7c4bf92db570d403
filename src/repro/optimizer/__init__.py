"""Luna's plan optimizer (paper §6.1; DESIGN.md §14).

The paper's plan optimizer "makes trade-offs based on cost vs efficiency"
(§6.1). :class:`CostBasedOptimizer` is the one optimizer: an
:class:`OptimizerPolicy` (one of :data:`POLICIES`, or a custom one)
selects its rule rewrites — string-match substitution, filter pushdown,
fusion, per-operator model tier — and this package makes the trade-offs
*adaptive*: a persistent :class:`StatsStore` learns per-operator
selectivity, $/row and latency from past execution traces, a
:class:`CostModel` turns those figures into plan estimates, and the
optimizer adds selectivity-ordered predicates, index-side scan filters
and cheap-model draft/verify cascades, emitting an
:class:`OptimizerReport` so every decision stays inspectable (the
``plan-explain`` CLI verb).
"""

from .costmodel import (
    ESCALATION_PRIOR,
    SELECTIVITY_PRIORS,
    TOKEN_PROFILES,
    CostModel,
    NodeEstimate,
    PlanEstimate,
)
from .report import OptimizerReport
from .rewriter import (
    BALANCED_POLICY,
    CASCADE_POLICY,
    COST_POLICY,
    DEFAULT_SOURCE_ROWS,
    POLICIES,
    QUALITY_POLICY,
    SCAN_FILTER_OPS,
    CostBasedOptimizer,
    OptimizerPolicy,
)
from .stats import (
    OBSERVED_OPERATIONS,
    OperatorStats,
    StatsSnapshot,
    StatsStore,
    node_model_key,
    node_signature,
)

__all__ = [
    "BALANCED_POLICY",
    "CASCADE_POLICY",
    "COST_POLICY",
    "DEFAULT_SOURCE_ROWS",
    "ESCALATION_PRIOR",
    "OBSERVED_OPERATIONS",
    "POLICIES",
    "QUALITY_POLICY",
    "SCAN_FILTER_OPS",
    "SELECTIVITY_PRIORS",
    "TOKEN_PROFILES",
    "CostBasedOptimizer",
    "CostModel",
    "NodeEstimate",
    "OperatorStats",
    "OptimizerPolicy",
    "OptimizerReport",
    "PlanEstimate",
    "StatsSnapshot",
    "StatsStore",
    "node_model_key",
    "node_signature",
]
