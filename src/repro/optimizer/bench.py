"""The optimizer benchmark (E16): equal answers at a fraction of the cost.

Three arms execute the *same hand-built plan* — the LLM predicate written
first, the free structured predicate second, the worst reasonable
authoring order — each in a **fresh** context so the LLM response cache
cannot flatter any arm:

* ``cold`` — the plan exactly as written (pushdown and substitution
  disabled, so no rewrite fires), quality-tier models. This is the
  paper's single fixed plan.
* ``optimized`` — :class:`~repro.optimizer.CostBasedOptimizer` under the
  ``quality`` policy: predicate reorder + scan-filter folding, *same*
  models. Per-document verdicts are a pure function of (model, prompt),
  and conjunctive filters commute, so the answer must be byte-identical
  to ``cold`` while the LLM sees only the rows the structured predicate
  lets through.
* ``cascade`` — the ``cascade`` policy: the same reordered plan, but the
  semantic filter drafts on ``sim-small`` and escalates to ``sim-large``
  below the confidence threshold. Verdicts are no longer byte-comparable
  to ``cold`` (a cascade can out-vote a rare expensive-model slip), so
  this arm is gated on the simulation's actual ground truth: the concept
  lexicon applied to each indexed document.

Results land in ``BENCH_optimizer.json``. Gates (enforced by the
benchmark test): ``optimized`` byte-identical to ``cold`` and both
``optimized`` and ``cascade`` at most ``0.6x`` the cold cost, with the
cascade answer equal to ground truth — on both corpora.
"""

from __future__ import annotations

import json
from typing import Any, Callable, Dict, List, Optional

from ..datagen import generate_earnings_corpus, generate_ntsb_corpus
from ..llm.knowledge import condition_holds
from ..luna import Luna
from ..luna.operators import LogicalPlan, PlanNode
from ..partitioner import ArynPartitioner
from ..sycamore import SycamoreContext
from .rewriter import QUALITY_POLICY

import dataclasses

#: The cold arm: quality-tier models, every rewrite disabled — the plan
#: runs exactly as authored (only the ``model:`` tier annotation, which
#: every policy applies, reaches the optimization log).
COLD_POLICY = dataclasses.replace(
    QUALITY_POLICY,
    name="cold",
    enable_pushdown=False,
    enable_string_substitution=False,
)

NTSB_SCHEMA = {
    "state": "string",
    "incident_year": "int",
    "weather_related": "bool",
    "injuries_fatal": "int",
    "aircraft": "string",
}
EARNINGS_SCHEMA = {
    "company": "string",
    "sector": "string",
    "fiscal_year": "int",
    "revenue_musd": "float",
    "revenue_growth_pct": "float",
    "ceo_changed": "bool",
}


def _node(operation: str, inputs=(), **params) -> PlanNode:
    return PlanNode(operation=operation, inputs=list(inputs), params=params)


def _ntsb_plan() -> LogicalPlan:
    return LogicalPlan(
        nodes=[
            _node("QueryIndex", index="ntsb"),
            _node("LlmFilter", [0], condition="caused by wind"),
            _node("BasicFilter", [1], field="incident_year", op="eq", value=2022),
            _node("Count", [2]),
        ]
    )


def _earnings_plan() -> LogicalPlan:
    return LogicalPlan(
        nodes=[
            _node("QueryIndex", index="earnings"),
            _node("LlmFilter", [0], condition="lowered guidance"),
            _node("BasicFilter", [1], field="sector", op="eq", value="Cloud"),
            _node("Count", [2]),
        ]
    )


WORKLOADS: Dict[str, Dict[str, Any]] = {
    "ntsb": {
        "question": "How many 2022 incidents were caused by wind?",
        "index": "ntsb",
        "schema": NTSB_SCHEMA,
        "plan": _ntsb_plan,
        "condition": "caused by wind",
        "predicate": lambda props: props.get("incident_year") == 2022,
    },
    "earnings": {
        "question": "How many Cloud companies lowered guidance?",
        "index": "earnings",
        "schema": EARNINGS_SCHEMA,
        "plan": _earnings_plan,
        "condition": "lowered guidance",
        "predicate": lambda props: props.get("sector") == "Cloud",
    },
}


def _build_context(
    workload: str,
    n_ntsb: int,
    n_earnings: int,
    ntsb_seed: int,
    earnings_seed: int,
    parallelism: int,
    ctx_seed: int,
) -> SycamoreContext:
    """One corpus partitioned, extracted (sim-large) and indexed.

    Extraction is deterministic in (model, prompt, seed), so every arm of
    a workload sees byte-identical index properties.
    """
    ctx = SycamoreContext(parallelism=parallelism, seed=ctx_seed)
    if workload == "ntsb":
        _, raws = generate_ntsb_corpus(n_ntsb, seed=ntsb_seed)
        schema, index = NTSB_SCHEMA, "ntsb"
    else:
        _, raws = generate_earnings_corpus(n_earnings, seed=earnings_seed)
        schema, index = EARNINGS_SCHEMA, "earnings"
    (
        ctx.read.raw(raws)
        .partition(ArynPartitioner(seed=0))
        .extract_properties(schema, model="sim-large")
        .write.index(index)
    )
    return ctx


def _canonical(result: Any) -> str:
    """Answer + provenance, byte-comparable (mirrors the CLI's idiom)."""
    return json.dumps(
        {
            "answer": result.answer,
            "supporting_documents": sorted(result.trace.supporting_documents()),
        },
        sort_keys=True,
        default=repr,
    )


def _ground_truth(
    ctx: SycamoreContext,
    index: str,
    condition: str,
    predicate: Callable[[dict], bool],
) -> int:
    """The count a noise-free filter would produce on this exact index:
    concept-lexicon verdict on the document text, structured predicate on
    the extracted properties (the same inputs the executed plan sees)."""
    return sum(
        1
        for doc in ctx.catalog.get(index).all_documents()
        if predicate(doc.properties) and condition_holds(
            condition, doc.text_representation()
        )
    )


def _run_arm(
    arm: str,
    workload: str,
    spec: Dict[str, Any],
    *,
    n_ntsb: int,
    n_earnings: int,
    ntsb_seed: int,
    earnings_seed: int,
    parallelism: int,
    ctx_seed: int,
) -> Dict[str, Any]:
    ctx = _build_context(
        workload, n_ntsb, n_earnings, ntsb_seed, earnings_seed,
        parallelism, ctx_seed,
    )
    try:
        policy = {"cold": COLD_POLICY, "optimized": "quality", "cascade": "cascade"}[arm]
        luna = Luna(ctx, policy=policy)
        result = luna.execute_plan(spec["question"], spec["index"], spec["plan"]())
        report = result.trace.optimizer_report
        llm_rows: Optional[int] = next(
            (
                entry.records_in
                for entry in result.trace.entries
                if entry.operation == "LlmFilter"
            ),
            None,
        )
        row = {
            "answer": result.answer,
            "canonical": _canonical(result),
            "cost_usd": result.trace.total_cost_usd(),
            "llm_calls": result.trace.total_llm_calls(),
            "llm_rows": llm_rows,
            "duration_s": sum(e.duration_s for e in result.trace.entries),
            "rewrites": list(report.rewrites),
        }
        if arm == "cascade":
            row["ground_truth"] = _ground_truth(
                ctx, spec["index"], spec["condition"], spec["predicate"]
            )
        return row
    finally:
        ctx.close()


def run_optimizer_benchmark(
    n_ntsb: int = 80,
    n_earnings: int = 60,
    ntsb_seed: int = 21,
    earnings_seed: int = 22,
    parallelism: int = 8,
    ctx_seed: int = 9,
    max_cost_ratio: float = 0.6,
) -> Dict[str, Any]:
    """Run all arms over all workloads; returns the results document."""
    workloads: Dict[str, Any] = {}
    for name, spec in WORKLOADS.items():
        arms: Dict[str, Any] = {}
        for arm in ("cold", "optimized", "cascade"):
            arms[arm] = _run_arm(
                arm, name, spec,
                n_ntsb=n_ntsb, n_earnings=n_earnings,
                ntsb_seed=ntsb_seed, earnings_seed=earnings_seed,
                parallelism=parallelism, ctx_seed=ctx_seed,
            )
        cold_cost = arms["cold"]["cost_usd"]
        workloads[name] = {
            "question": spec["question"],
            "condition": spec["condition"],
            "arms": arms,
            "byte_identical": arms["optimized"]["canonical"]
            == arms["cold"]["canonical"],
            "optimized_cost_ratio": arms["optimized"]["cost_usd"] / cold_cost,
            "cascade_cost_ratio": arms["cascade"]["cost_usd"] / cold_cost,
            "cascade_answer_correct": arms["cascade"]["answer"]
            == arms["cascade"]["ground_truth"],
        }
    return {
        "corpora": {"ntsb": n_ntsb, "earnings": n_earnings},
        "gates": {"max_cost_ratio": max_cost_ratio},
        "workloads": workloads,
    }


def render_results(results: Dict[str, Any]) -> str:
    """Paper-style table of the benchmark results."""
    lines: List[str] = []
    header = (
        f"{'workload':<10} {'arm':<10} {'answer':>6} {'$':>9} "
        f"{'calls':>6} {'llm rows':>8} {'ratio':>6}"
    )
    for name, row in results["workloads"].items():
        lines.append(f"=== {name}: {row['question']} ===")
        lines.append(header)
        lines.append("-" * len(header))
        cold_cost = row["arms"]["cold"]["cost_usd"]
        for arm, stats in row["arms"].items():
            ratio = stats["cost_usd"] / cold_cost if cold_cost else 0.0
            lines.append(
                f"{name:<10} {arm:<10} {stats['answer']:>6} "
                f"{stats['cost_usd']:>9.4f} {stats['llm_calls']:>6} "
                f"{str(stats['llm_rows']):>8} {ratio:>6.2f}"
            )
        lines.append(
            f"byte-identical: {row['byte_identical']}  "
            f"cascade ground truth: {row['arms']['cascade']['ground_truth']}  "
            f"cascade correct: {row['cascade_answer_correct']}"
        )
        lines.append("")
    return "\n".join(lines)
