"""Workload ``query``: one analyst asking Luna questions in a closed loop.

Overhead mode (real_latency_scale 0), so wall time is framework CPU. The
analyst asks the paper's 18-question suite, then templated variants of
its shapes, each once, in a seeded order, over NTSB and earnings
indexes built during set-up. Planning, optimizing, Luna execution,
sycamore LLM filters, document rendering and the llm response cache do
the work; the partitioner, embedding and index writes stay idle. ``run``
is one round; run.py replays it (harness.REPLAY_ROUNDS) and times each
question by its fastest replay.
"""

from __future__ import annotations

import random
import time
from typing import Any, Dict, List, Optional

from repro import ArynPartitioner, Luna, SycamoreContext
from repro.evaluation.grading import Grade
from repro.evaluation.harness import grade_answer

import corpora
from harness import (
    SETUP_REPEATS,
    Checks,
    GcPauses,
    WorkloadResult,
    check_answer,
    load_expected,
    observability_figures,
    peak_rss_mb,
    per_layer_metrics,
    percentile,
    ratio,
    timed_setups,
)
from layers import traced

#: Questions per second of --seconds; never fewer than 200. (The whole
#: pool of 1,936 takes three times as long as half of it: every question
#: makes CostTracker.summary slower for the next.)
QUERIES_PER_SECOND = 45
MIN_QUERIES = 200
#: Overhead mode has no model waits to overlap, so the analyst's context
#: runs per-record transforms on the calling thread.
PARALLELISM = 1


def build_context(corpus: corpora.QueryCorpus, scheduler: Any = None,
                  earnings: bool = True, parallelism: int = PARALLELISM) -> SycamoreContext:
    """A context built as the CLI builds one, with the NTSB (and earnings)
    index written by the ingest pipeline."""
    ctx = SycamoreContext(parallelism=parallelism, seed=0, scheduler=scheduler)
    (ctx.read.raw(corpus.ntsb_raws).partition(ArynPartitioner(seed=0))
     .extract_properties(corpora.NTSB_SCHEMA).write.index("ntsb"))
    if earnings:
        (ctx.read.raw(corpus.earnings_raws).partition(ArynPartitioner(seed=0))
         .extract_properties(corpora.EARNINGS_SCHEMA).write.index("earnings"))
    return ctx


def question_list(corpus: corpora.QueryCorpus, seed: int, n_questions: int) -> list:
    """The suite first, then a sample of the variants in the seed's order.

    The sample is the same for every seed and takes each (index, scope)
    stratum in proportion. Every question adds CostTracker records that
    slow the questions after it, so a seeded sample (a different number of
    LLM calls) moved the p95 by a fifth between seeds; the seed decides
    the order, and so which questions find the LLM cache warm.
    """
    pick = random.Random(0x9E7)
    suite = corpus.suite()
    strata: dict = {}
    for question in corpus.ntsb_variants() + corpus.earnings_variants():
        strata.setdefault((question.index, corpora.scope(question)), []).append(question)
    total = sum(len(group) for group in strata.values())
    wanted = max(0, min(n_questions - len(suite), total))
    chosen = []
    for key in sorted(strata):
        group = strata[key]
        pick.shuffle(group)
        chosen += group[:round(wanted * len(group) / total)]
    random.Random(seed).shuffle(chosen)
    return (suite + chosen)[:n_questions]


def run(seed: int, seconds: float, recorder: Any = None,
        queries_per_second: float = QUERIES_PER_SECOND, min_queries: int = MIN_QUERIES,
        setup_repeats: int = SETUP_REPEATS) -> WorkloadResult:
    corpus = corpora.query_corpus()
    questions = question_list(
        corpus, seed, max(min_queries, round(queries_per_second * seconds)))
    expected = load_expected("answers")["luna"]
    ctx, setup_s, setup_all = timed_setups(
        lambda: build_context(corpus), lambda built: built.close(), setup_repeats)
    luna = Luna(ctx)

    llm_before = ctx.llm.metrics()
    spend_before = ctx.cost_tracker.summary().cost_usd
    checks = Checks()
    latencies: List[Optional[float]] = []  # per question; None = it failed
    correct = 0
    ledger_usd = 0.0
    with traced(recorder), GcPauses() as gc_pauses:
        started = time.perf_counter()
        for question in questions:
            if recorder is not None:
                recorder.set_request(question.qid)
            t0 = time.perf_counter()
            try:
                result = luna.query(question.question, question.index)
            except Exception as exc:  # noqa: BLE001 - counted as a failed operation
                checks.fail(f"exception:{type(exc).__name__}", f"{question.question}: {exc}")
                latencies.append(None)
                continue
            latencies.append((time.perf_counter() - t0) * 1000.0)
            check_answer(checks, expected, question.question, result.answer, result.partial)
            correct += grade_answer(question, result.answer).grade is Grade.CORRECT
            if result.trace.cost is not None:
                ledger_usd += result.trace.cost.cost_usd
        elapsed = time.perf_counter() - started
    timed = [latency for latency in latencies if latency is not None]
    llm_after = ctx.llm.metrics()
    spend = ctx.cost_tracker.summary().cost_usd - spend_before
    end_to_end = {
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb(),
        "throughput_per_s": ratio(len(timed), elapsed),
        "latency_p50_ms": percentile(timed, 50),
        "latency_p95_ms": percentile(timed, 95),
        "cost_usd_per_op": ratio(spend, len(questions)),
        "accuracy": ratio(correct, len(questions)),
    }
    per_layer: Dict[str, float] = {}
    if recorder is not None:
        per_layer = per_layer_metrics(
            recorder, len(questions), llm=(llm_before, llm_after),
            **observability_figures(ctx, ledger_usd, spend))
    ctx.close()
    return WorkloadResult(
        "query", end_to_end, per_layer, checks,
        info={"questions": len(questions), "elapsed_s": elapsed, "setup_runs_s": setup_all,
              "mode": "overhead", "real_latency_scale": 0.0, "parallelism": PARALLELISM,
              "backend_spend_usd": spend, "span_ledger_usd": ledger_usd,
              "gc_gen2_pauses_ms": gc_pauses.pauses_ms, "op_latencies_ms": latencies},
    )
