"""Workload ``ingest``: the paper's Figure 3 pipeline, one document at a time.

Documents of a mixed NTSB and earnings corpus arrive one by one, and each
runs ``read.raw -> partition(ArynPartitioner) -> extract_properties ->
explode -> embed -> write.index`` into one growing index, in overhead
mode (real_latency_scale 0) with no scheduler, at parallelism 1. Running
the pipeline per arriving document gives every document a latency while
the index grows exactly as a one-pass run grows it. This is the only
workload in which the partitioner, docmodel geometry, embedding and
index writes do most of the work. ``run`` is one round; run.py replays it
(harness.REPLAY_ROUNDS) and times each document by its fastest replay.
"""

from __future__ import annotations

import random
import time
from typing import Any, Dict, List, Optional, Set

from repro import ArynPartitioner, SycamoreContext

import corpora
from harness import (
    SETUP_REPEATS,
    Checks,
    GcPauses,
    WorkloadResult,
    canonical,
    load_expected,
    observability_figures,
    peak_rss_mb,
    per_layer_metrics,
    percentile,
    ratio,
    timed_setups,
)
from layers import traced

#: Documents per second of --seconds: --seconds sets the amount of work,
#: so every commit ingests the same documents (200 at --seconds 10, about
#: that many seconds of work at the seed on a 2-core machine, and enough
#: for ten samples beyond the p95).
DOCS_PER_SECOND = 20
#: Share of NTSB documents in the mix (the rest are earnings reports).
NTSB_SHARE = 8 / 11
#: Documents ingested during set-up, from outside the measured sample, so
#: lazy imports and first-call costs are paid before timing.
WARMUP_DOCS = 16
INDEX = "reports"


def ingest_one(ctx: SycamoreContext, partitioner: ArynPartitioner, raw: Any,
               index: str) -> int:
    """One arriving document through the Figure 3 pipeline."""
    return (
        ctx.read.raw([raw])
        .partition(partitioner)
        .extract_properties(corpora.INGEST_SCHEMA)
        .explode()
        .embed()
        .write.index(index)
    )


def pick_documents(seed: int, n_docs: int) -> Dict[str, List[Any]]:
    """The measured documents in the seed's order, and the warm-up documents.

    Which documents are measured is the same for every seed (a fixed
    sample of each pool), so every seed does the same total work; the seed
    decides the order, and so how large the index is when each document
    arrives.
    """
    records, raws = corpora.ingest_pool()
    n_pool = corpora.INGEST_NTSB_POOL
    pick = random.Random(0x1E57)
    n_ntsb = round(n_docs * NTSB_SHARE)
    ntsb = pick.sample(range(n_pool), n_ntsb)
    earnings = pick.sample(range(n_pool, len(raws)), n_docs - n_ntsb)
    chosen = ntsb + earnings
    taken = set(chosen)
    spare = [i for i in range(len(raws)) if i not in taken]
    warmup = pick.sample(spare, WARMUP_DOCS)
    random.Random(seed).shuffle(chosen)
    return {
        "raws": [raws[i] for i in chosen],
        "records": [records[i] for i in chosen],
        "warmup": [raws[i] for i in warmup],
    }


def _same(extracted: Any, truth: Any) -> bool:
    if isinstance(truth, bool) or isinstance(extracted, bool):
        return extracted is truth
    if isinstance(truth, (int, float)):
        return isinstance(extracted, (int, float)) and abs(extracted - truth) < 1e-6
    return str(extracted).strip().lower() == str(truth).strip().lower()


def check_documents(index: Any, docs: Dict[str, List[Any]], checks: Checks,
                    expected: Dict[str, Any], crashed: Set[str]) -> float:
    """Check chunk counts and extracted properties per document against the
    committed outputs; returns per-field extraction accuracy vs ground truth
    (a document whose pipeline raised, already counted failed, scores 0)."""
    chunks: Dict[str, List[Any]] = {}
    for chunk in index.all_documents():
        chunks.setdefault(chunk.parent_id, []).append(chunk)
    right = fields = 0
    for raw, record in zip(docs["raws"], docs["records"]):
        mine = chunks.get(raw.doc_id, [])
        if raw.doc_id in crashed:
            fields += len(corpora.NTSB_TRUTH_FIELDS if raw.doc_id.startswith("NTSB")
                          else corpora.EARNINGS_TRUTH_FIELDS)
            continue
        props = mine[0].properties if mine else {}
        extracted = {name: props.get(name) for name in corpora.INGEST_SCHEMA}
        got = {"chunks": len(mine), "properties": canonical(extracted)}
        want = expected.get(raw.doc_id)
        if want is None:
            checks.fail("unknown_document", raw.doc_id)
        elif got != want:
            checks.fail("mismatch", f"{raw.doc_id}: {got} != {want}")
        else:
            checks.ok()
        truth_fields = (corpora.NTSB_TRUTH_FIELDS if raw.doc_id.startswith("NTSB")
                        else corpora.EARNINGS_TRUTH_FIELDS)
        for name, attr in truth_fields.items():
            fields += 1
            right += _same(extracted[name], getattr(record, attr))
    return ratio(right, fields)


def run(seed: int, seconds: float, recorder: Any = None,
        docs_per_second: float = DOCS_PER_SECOND,
        setup_repeats: int = SETUP_REPEATS) -> WorkloadResult:
    docs = pick_documents(seed, max(1, round(docs_per_second * seconds)))
    expected = load_expected("ingest")["documents"]

    def build():
        ctx = SycamoreContext(parallelism=1, seed=0)
        partitioner = ArynPartitioner(seed=0)
        for raw in docs["warmup"]:
            ingest_one(ctx, partitioner, raw, "warmup")
        return ctx, partitioner

    (ctx, partitioner), setup_s, setup_all = timed_setups(
        build, lambda built: built[0].close(), setup_repeats)

    llm_before = ctx.llm.metrics()
    spend_before = ctx.cost_tracker.summary().cost_usd
    checks = Checks()
    latencies: List[Optional[float]] = []  # per document; None = it failed
    chunks = 0
    ledger_usd = 0.0
    crashed = set()
    with traced(recorder), GcPauses() as gc_pauses:
        started = time.perf_counter()
        for raw in docs["raws"]:
            if recorder is not None:
                recorder.set_request(raw.doc_id)
            t0 = time.perf_counter()
            try:
                chunks += ingest_one(ctx, partitioner, raw, INDEX)
            except Exception as exc:  # noqa: BLE001 - counted as a failed operation
                checks.fail(f"exception:{type(exc).__name__}", f"{raw.doc_id}: {exc}")
                crashed.add(raw.doc_id)
                latencies.append(None)
                continue
            latencies.append((time.perf_counter() - t0) * 1000.0)
            stats = ctx.last_stats
            if stats is not None and stats.cost is not None:
                ledger_usd += stats.cost.cost_usd
        elapsed = time.perf_counter() - started
    timed = [latency for latency in latencies if latency is not None]
    llm_after = ctx.llm.metrics()
    spend = ctx.cost_tracker.summary().cost_usd - spend_before
    n_docs = len(docs["raws"])
    accuracy = check_documents(ctx.catalog.get(INDEX), docs, checks, expected, crashed)
    end_to_end = {
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb(),
        "throughput_per_s": ratio(len(timed), elapsed),
        "latency_p50_ms": percentile(timed, 50),
        "latency_p95_ms": percentile(timed, 95),
        "cost_usd_per_op": ratio(spend, n_docs),
        "accuracy": accuracy,
    }
    per_layer: Dict[str, float] = {}
    if recorder is not None:
        per_layer = per_layer_metrics(
            recorder, n_docs, docs=n_docs, chunks=chunks, llm=(llm_before, llm_after),
            **observability_figures(ctx, ledger_usd, spend))
    ctx.close()
    return WorkloadResult(
        "ingest", end_to_end, per_layer, checks,
        info={"documents": n_docs, "chunks": chunks, "elapsed_s": elapsed,
              "setup_runs_s": setup_all, "mode": "overhead", "real_latency_scale": 0.0,
              "backend_spend_usd": spend, "span_ledger_usd": ledger_usd,
              "gc_gen2_pauses_ms": gc_pauses.pauses_ms, "op_latencies_ms": latencies},
    )
