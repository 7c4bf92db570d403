"""Luna's plan optimizer: policy rules and statistics-driven rewrites.

"Query operators vary significantly in latency, computational load, and
monetary cost. The plan optimizer makes trade-offs based on cost vs
efficiency ... It is able to combine and batch operations when possible,
and make decisions about what technique (string matching vs semantic
matching), and tool (e.g., GPT-4 versus Llama 7B) to use" (§6.1).

:class:`CostBasedOptimizer` sits between the planner and Luna's executor
and applies, in this order, each rewrite reported in the optimization
log:

* **string-match substitution** — an ``LlmFilter`` whose condition maps
  onto an already-extracted boolean property becomes a free
  ``BasicFilter`` (semantic matching replaced by string/field matching);
* **filter pushdown** — structured ``BasicFilter`` nodes run before
  ``LlmFilter`` nodes within a filter chain, shrinking the record set the
  expensive per-record LLM calls see;
* **filter fusion** — adjacent ``LlmFilter`` nodes fuse into one
  condition, halving LLM calls (batching of operations);
* **model selection** — semantic operators are annotated with the model
  tier and parallelism hint the policy dictates (frontier vs cheap
  model). This runs under every policy, so its ``model:`` lines stay in
  the log but are not counted as rewrites in the report;
* **selectivity reorder** — within a filter chain, run filters by
  ascending ``cost_per_row / (1 - selectivity)`` (cheapest spend per
  removed record first), using learned selectivities from the
  :class:`~repro.optimizer.stats.StatsStore` when available;
* **scan-filter folding** — a full index scan feeding a structured
  comparison on a catalog schema field becomes an index-side scan filter
  (index-scan instead of post-scan filtering), and the filter node
  degrades to ``Identity``;
* **cascade annotation** — when the policy enables cascades, eligible
  semantic operators are annotated to draft on a cheap model and
  escalate to the policy's (expensive) verify model only below a
  confidence threshold (see ``docs/OPTIMIZER.md`` for the semantics).

Pushdown, selectivity reorder and scan-filter folding all move filtering
earlier, so ``enable_pushdown`` gates all three: a policy with pushdown
and substitution disabled runs the plan as written.

Rewrites never change node count or node indexes — fused, substituted
and folded nodes degrade to ``Identity`` or swap contents in place — so
``Math`` references like ``#4`` stay valid and the user can diff
original vs optimized plans node by node.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..llm import knowledge
from ..llm.base import DEFAULT_MODELS
from ..luna.operators import CASCADE_ELIGIBLE_OPERATIONS, LogicalPlan, PlanNode
from ..observability.metrics import get_registry
from .costmodel import CostModel
from .report import OptimizerReport
from .stats import StatsSnapshot, StatsStore

#: Comparators an index scan can apply while reading (mirrors the
#: executor's ``_comparator`` table).
SCAN_FILTER_OPS = ("eq", "ne", "lt", "le", "gt", "ge", "contains")

#: Cardinality assumed for a scan when the caller knows nothing about
#: the index (the cost model only needs relative magnitudes to rank).
DEFAULT_SOURCE_ROWS = 100.0

_FILTER_OPS = ("BasicFilter", "LlmFilter")


@dataclass(frozen=True)
class OptimizerPolicy:
    """A point on the cost/quality trade-off curve."""

    name: str
    filter_model: str
    extract_model: str
    summarize_model: str
    #: Filter pushdown, selectivity reorder and scan-filter folding.
    enable_pushdown: bool = True
    enable_string_substitution: bool = True
    enable_fusion: bool = True
    llm_parallelism: int = 8
    #: Cheap-model-first cascades: eligible semantic operators draft on
    #: ``cascade_draft_model`` and escalate to the policy's model only
    #: below ``cascade_confidence_threshold``.
    cascade: bool = False
    cascade_draft_model: str = "sim-small"
    cascade_votes: int = 2
    cascade_confidence_threshold: float = 0.75


QUALITY_POLICY = OptimizerPolicy(
    name="quality",
    filter_model="sim-large",
    extract_model="sim-large",
    summarize_model="sim-large",
    enable_fusion=False,  # keep every semantic decision separate
)
BALANCED_POLICY = OptimizerPolicy(
    name="balanced",
    filter_model="sim-medium",
    extract_model="sim-large",
    summarize_model="sim-medium",
)
COST_POLICY = OptimizerPolicy(
    name="cost",
    filter_model="sim-small",
    extract_model="sim-small",
    summarize_model="sim-small",
)
#: Quality-tier models, but every eligible semantic operator drafts on
#: sim-small first and only escalates to sim-large on low-confidence
#: rows — the ScaleDoc-style predicate cascade (docs/OPTIMIZER.md).
CASCADE_POLICY = OptimizerPolicy(
    name="cascade",
    filter_model="sim-large",
    extract_model="sim-large",
    summarize_model="sim-large",
    enable_fusion=False,  # keep cascade decisions per-condition
    cascade=True,
)

POLICIES: Dict[str, OptimizerPolicy] = {
    policy.name: policy
    for policy in (QUALITY_POLICY, BALANCED_POLICY, COST_POLICY, CASCADE_POLICY)
}


class CostBasedOptimizer:
    """Policy-driven, statistics-aware plan optimization.

    ``policy`` is an :class:`OptimizerPolicy` or a name in
    :data:`POLICIES`. ``stats`` supplies learned selectivity/$-per-row
    figures — a live :class:`~repro.optimizer.stats.StatsStore`, a frozen
    :class:`~repro.optimizer.stats.StatsSnapshot` (what the serving layer
    pins per epoch), or ``None`` for priors-only optimization.
    """

    def __init__(
        self,
        policy: "OptimizerPolicy | str" = BALANCED_POLICY,
        stats: "StatsStore | StatsSnapshot | None" = None,
        registry=None,
    ):
        if isinstance(policy, str):
            try:
                policy = POLICIES[policy]
            except KeyError:
                raise ValueError(
                    f"unknown policy {policy!r}; known: {sorted(POLICIES)}"
                ) from None
        self.policy = policy
        self.stats = stats
        self.cost_model = CostModel(stats)
        if registry is None:
            registry = get_registry()
        self._m_plans = registry.counter("optimizer.plans_optimized")
        self._m_rewrites = registry.counter("optimizer.rewrites")

    # ------------------------------------------------------------------

    def optimize_with_report(
        self,
        plan: LogicalPlan,
        schema: Optional[Dict[str, str]] = None,
        source_rows: Optional[float] = None,
    ) -> Tuple[LogicalPlan, List[str], OptimizerReport]:
        """Return (optimized plan, optimization log, optimizer report).

        The input plan is not mutated. ``source_rows`` is the catalog
        cardinality of the scanned index; it scales the cost estimates in
        the report (not the rewrite decisions, which compare per-row
        figures).
        """
        rows = float(source_rows) if source_rows else DEFAULT_SOURCE_ROWS
        report = OptimizerReport(
            policy=self.policy.name,
            stats_fingerprint=(
                self.stats.fingerprint() if self.stats is not None else ""
            ),
        )
        report.estimated_before = self.cost_model.estimate_plan(plan, rows)

        plan = plan.copy()
        log: List[str] = []
        if self.policy.enable_string_substitution and schema:
            log.extend(self._substitute_string_match(plan, schema))
        if self.policy.enable_pushdown:
            log.extend(self._push_down_basic_filters(plan))
        if self.policy.enable_fusion:
            log.extend(self._fuse_llm_filters(plan))
        log.extend(self._select_models(plan))
        if self.policy.enable_pushdown:
            log.extend(self._reorder_by_selectivity(plan))
            log.extend(self._fold_scan_filter(plan, schema))
        if self.policy.cascade:
            log.extend(self._annotate_cascades(plan))

        report.rewrites = [line for line in log if not line.startswith("model:")]
        report.estimated_after = self.cost_model.estimate_plan(plan, rows)
        self._m_plans.inc()
        if report.rewrites:
            self._m_rewrites.inc(len(report.rewrites))
        return plan, log, report

    # ------------------------------------------------------------------
    # Policy rules
    # ------------------------------------------------------------------

    def _substitute_string_match(
        self, plan: LogicalPlan, schema: Dict[str, str]
    ) -> List[str]:
        log = []
        boolean_fields = {
            name for name, type_name in schema.items() if type_name == "bool"
        }
        for index, node in enumerate(plan.nodes):
            if node.operation != "LlmFilter":
                continue
            condition = str(node.params.get("condition", ""))
            match = _boolean_field_for_condition(condition, boolean_fields)
            if match is None:
                continue
            field, value = match
            plan.nodes[index] = PlanNode(
                operation="BasicFilter",
                inputs=node.inputs,
                description=f"Filter on extracted field {field} = {value} "
                f"(substituted for semantic match on {condition!r})",
                params={"field": field, "op": "eq", "value": value},
            )
            log.append(
                f"string-match: node {index} LlmFilter({condition!r}) -> "
                f"BasicFilter({field} eq {value})"
            )
        return log

    def _push_down_basic_filters(self, plan: LogicalPlan) -> List[str]:
        log = []
        for chain in _filter_chains(plan):
            contents = [plan.nodes[i] for i in chain]
            reordered = sorted(
                contents, key=lambda n: 0 if n.operation == "BasicFilter" else 1
            )
            if [n.operation for n in reordered] != [n.operation for n in contents]:
                _rewire_chain(plan, chain, reordered)
                log.append(
                    "pushdown: reordered filter chain "
                    + "->".join(str(i) for i in chain)
                    + " to run structured filters before LLM filters"
                )
        return log

    def _fuse_llm_filters(self, plan: LogicalPlan) -> List[str]:
        log = []
        for chain in _filter_chains(plan):
            previous_llm: Optional[int] = None
            for index in chain:
                node = plan.nodes[index]
                if node.operation != "LlmFilter":
                    previous_llm = None
                    continue
                if previous_llm is None:
                    previous_llm = index
                    continue
                base = plan.nodes[previous_llm]
                fused_condition = (
                    f"{base.params['condition']} and {node.params['condition']}"
                )
                base.params["condition"] = fused_condition
                base.description = f"Semantically filter: {fused_condition!r}"
                plan.nodes[index] = PlanNode(
                    operation="Identity",
                    inputs=node.inputs,
                    description=f"(fused into step {previous_llm + 1})",
                )
                log.append(
                    f"fusion: node {index} fused into node {previous_llm} "
                    f"as condition {fused_condition!r}"
                )
        return log

    def _select_models(self, plan: LogicalPlan) -> List[str]:
        log = []
        model_by_op = {
            "LlmFilter": self.policy.filter_model,
            "LlmExtract": self.policy.extract_model,
            "Summarize": self.policy.summarize_model,
        }
        for index, node in enumerate(plan.nodes):
            model = model_by_op.get(node.operation)
            if model is None:
                continue
            node.params["model"] = model
            node.params["parallelism"] = self.policy.llm_parallelism
            log.append(f"model: node {index} {node.operation} -> {model}")
        return log

    # ------------------------------------------------------------------
    # Statistics-driven rewrites
    # ------------------------------------------------------------------

    def _reorder_by_selectivity(self, plan: LogicalPlan) -> List[str]:
        """Order each filter chain by ascending $-per-removed-record."""
        log = []
        for chain in _filter_chains(plan):
            contents = [plan.nodes[i] for i in chain]
            ranked = sorted(
                range(len(contents)),
                key=lambda i: (self.cost_model.rank(contents[i]), i),
            )
            if ranked == list(range(len(contents))):
                continue
            _rewire_chain(plan, chain, [contents[i] for i in ranked])
            ranks = ", ".join(
                f"{plan.nodes[p].operation}@{self.cost_model.rank(plan.nodes[p]):.4g}"
                for p in chain
            )
            log.append(
                "reorder: filter chain "
                + "->".join(str(i) for i in chain)
                + f" ordered by cost-per-removed-record ({ranks})"
            )
        return log

    def _fold_scan_filter(
        self, plan: LogicalPlan, schema: Optional[Dict[str, str]]
    ) -> List[str]:
        """Fold a structured filter over a full scan into the scan itself.

        Applies when a bare ``QueryIndex`` (no relevance ``query``) has a
        single consumer that is a ``BasicFilter`` on a catalog schema
        field: the scan reads only matching records (index-scan choice)
        and the filter node degrades to ``Identity``.
        """
        log = []
        if not schema:
            return log
        for index, node in enumerate(plan.nodes):
            if node.operation != "QueryIndex" or node.params.get("query"):
                continue
            if node.params.get("filter_field"):
                continue  # already folded
            consumers = plan.consumers_of(index)
            if len(consumers) != 1:
                continue
            candidate = consumers[0]
            consumer = plan.nodes[candidate]
            if consumer.operation != "BasicFilter":
                continue
            if consumer.inputs != [index]:
                continue
            field = consumer.params.get("field")
            op = consumer.params.get("op", "eq")
            if field not in schema or op not in SCAN_FILTER_OPS:
                continue
            value = consumer.params.get("value")
            node.params["filter_field"] = field
            node.params["filter_op"] = op
            node.params["filter_value"] = value
            node.description = (
                f"{node.description} (scan-filtered: {field} {op} {value!r})"
            )
            consumer.operation = "Identity"
            consumer.params = {}
            consumer.description = f"(folded into scan at step {index + 1})"
            log.append(
                f"scan-filter: node {candidate} BasicFilter({field} {op} "
                f"{value!r}) folded into node {index} QueryIndex"
            )
        return log

    def _annotate_cascades(self, plan: LogicalPlan) -> List[str]:
        """Annotate eligible semantic nodes with the policy's cascade."""
        log = []
        draft = self.policy.cascade_draft_model
        for index, node in enumerate(plan.nodes):
            if node.operation not in CASCADE_ELIGIBLE_OPERATIONS:
                continue
            verify = str(node.params.get("model") or "")
            if not verify or verify == draft:
                continue  # a cascade onto itself saves nothing
            if draft not in DEFAULT_MODELS:
                continue  # plancheck flags unknown verify models instead
            node.params["cascade"] = {
                "draft_model": draft,
                "draft_votes": self.policy.cascade_votes,
                "confidence_threshold": self.policy.cascade_confidence_threshold,
            }
            log.append(
                f"cascade: node {index} {node.operation} drafts on {draft} "
                f"x{self.policy.cascade_votes}, escalates to {verify} below "
                f"confidence {self.policy.cascade_confidence_threshold}"
            )
        return log


# ----------------------------------------------------------------------
# Plan helpers
# ----------------------------------------------------------------------


def _filter_chains(plan: LogicalPlan) -> List[List[int]]:
    """Maximal runs of single-input filter nodes forming a chain."""
    chains: List[List[int]] = []
    used = set()
    for index, node in enumerate(plan.nodes):
        if index in used or node.operation not in _FILTER_OPS:
            continue
        # Start of a chain: predecessor is not a filter in the chain.
        prev = node.inputs[0] if node.inputs else None
        if prev is not None and plan.nodes[prev].operation in _FILTER_OPS:
            continue
        chain = [index]
        used.add(index)
        current = index
        while True:
            consumers = [
                c
                for c in plan.consumers_of(current)
                if plan.nodes[c].operation in _FILTER_OPS
                and plan.nodes[c].inputs == [current]
            ]
            # Only extend single-consumer links: reordering a fan-out
            # point would change what the other consumers see.
            if len(consumers) != 1 or len(plan.consumers_of(current)) != 1:
                break
            current = consumers[0]
            chain.append(current)
            used.add(current)
        if len(chain) > 1:
            chains.append(chain)
    return chains


def _rewire_chain(
    plan: LogicalPlan, chain: List[int], reordered: List[PlanNode]
) -> None:
    """Place ``reordered`` (the chain's nodes in a new order) at the
    chain's positions, each reading its position's original input."""
    # Snapshot the chain's wiring before touching any node: reordered
    # shares node objects with the plan, so reading inputs lazily would
    # observe already-mutated state.
    original_inputs = [list(plan.nodes[p].inputs) for p in chain]
    for position, node, inputs in zip(chain, reordered, original_inputs):
        node.inputs = inputs
        plan.nodes[position] = node


def _boolean_field_for_condition(
    condition: str, boolean_fields: set
) -> Optional[Tuple[str, bool]]:
    """Map a semantic condition onto an extracted boolean field, if safe.

    A condition maps to field F when a concept referenced by the condition
    is the same concept F's name denotes (e.g. "weather related incidents"
    -> ``weather_related``; "whose CEO recently changed" -> ``ceo_changed``).
    Negated conditions map to ``False``.
    """
    concepts = set(knowledge.match_concepts(condition))
    if not concepts:
        return None
    negated = any(
        marker in f" {knowledge.normalize(condition)} "
        for marker in (" not ", " no ", " without ")
    )
    for field in sorted(boolean_fields):
        field_concepts = set(knowledge.match_concepts(field.replace("_", " ")))
        if field_concepts and field_concepts == concepts:
            return field, (not negated)
    return None


__all__ = [
    "BALANCED_POLICY",
    "CASCADE_POLICY",
    "COST_POLICY",
    "DEFAULT_SOURCE_ROWS",
    "POLICIES",
    "QUALITY_POLICY",
    "SCAN_FILTER_OPS",
    "CostBasedOptimizer",
    "OptimizerPolicy",
]
