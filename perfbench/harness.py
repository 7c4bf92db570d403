"""Shared pieces of the workloads: results, checks, statistics, fingerprint."""

from __future__ import annotations

import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Tuple

from layers import LAYERS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
EXPECTED_DIR = HERE / "expected"

#: End-to-end metrics every workload reports: (name, unit).
END_TO_END = (
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("throughput_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p95_ms", "ms"),
    ("cost_usd_per_op", "USD"),
    ("accuracy", "share"),
)

#: Per-layer metrics every traced run reports: (name, unit). A layer that
#: does no work in a workload reports 0.
PER_LAYER = (
    ("partitioner.busy_ms_per_doc", "ms"),
    ("partitioner.elements_per_doc", "count"),
    ("docmodel.bbox_intersections_per_doc", "count"),
    ("docmodel.render_calls_per_query", "count"),
    ("docmodel.render_ms_per_query", "ms"),
    ("sycamore.transform_self_ms", "ms"),
    ("execution.self_ms_per_query", "ms"),
    ("execution.dead_letters", "count"),
    ("embedding.busy_ms_per_chunk", "ms"),
    ("indexes.write_ms_per_chunk", "ms"),
    ("indexes.read_ms_per_query", "ms"),
    ("llm.backend_calls_per_query", "count"),
    ("llm.input_tokens_per_query", "count"),
    ("llm.cache_hit_rate", "share"),
    ("llm.retries", "count"),
    ("llm.backend_ms", "ms"),
    ("llm.cost_summary_ms_per_query", "ms"),
    ("llm.cost_tracker_records", "count"),
    ("runtime.queue_wait_ms_p50", "ms"),
    ("runtime.queue_wait_ms_p95", "ms"),
    ("runtime.avg_batch_size", "count"),
    ("runtime.dedup_hits", "count"),
    ("luna.plan_ms_per_query", "ms"),
    ("luna.execute_self_ms_per_query", "ms"),
    ("optimizer.optimize_ms_per_query", "ms"),
    ("serving.queue_wait_ms_p95", "ms"),
    ("serving.result_cache_hit_rate", "share"),
    ("serving.plan_cache_hit_rate", "share"),
    ("serving.coalesced", "count"),
    ("serving.shed", "count"),
    ("gateway.self_ms_per_request", "ms"),
    ("gateway.non_2xx", "count"),
    ("observability.retained_spans", "count"),
    ("observability.dropped_spans", "count"),
    ("observability.cost_ledger_ratio", "ratio"),
) + tuple((f"{layer}.self_share", "share") for layer in LAYERS)

#: Each workload's own names for the end-to-end metrics, for reports.
NAMED = {
    "ingest": {
        "throughput_per_s": "ingest.docs_per_s",
        "cost_usd_per_op": "ingest.cost_usd_per_doc",
        "latency_p50_ms": "ingest.doc_latency_p50_ms",
        "latency_p95_ms": "ingest.doc_latency_p95_ms",
        "accuracy": "ingest.extraction_accuracy",
    },
    "query": {
        "throughput_per_s": "query.queries_per_s",
        "cost_usd_per_op": "query.cost_usd_per_query",
        "latency_p50_ms": "query.latency_p50_ms",
        "latency_p95_ms": "query.latency_p95_ms",
        "accuracy": "query.accuracy",
    },
    "serve": {
        "throughput_per_s": "serve.max_rate_qps",
        "cost_usd_per_op": "serve.cost_usd_per_query",
        "latency_p50_ms": "serve.latency_p50_ms",
        "latency_p95_ms": "serve.latency_p95_ms",
        "accuracy": "serve.accuracy",
    },
    "api": {
        "throughput_per_s": "api.requests_per_s",
        "cost_usd_per_op": "api.cost_usd_per_query",
        "latency_p50_ms": "api.latency_p50_ms",
        "latency_p95_ms": "api.latency_p95_ms",
        "accuracy": "api.accuracy",
    },
}

#: How many times each workload builds its set-up (in each round, on a
#: replayed workload); setup_s is the median.
SETUP_REPEATS = 3

#: Workloads whose operations are replayed, and in how many rounds. Each
#: round is a fresh process doing the same work from the same state; an
#: operation's time is its fastest replay, as ``timeit`` takes the fastest
#: repeat. These workloads are pure framework CPU, and on a shared host
#: whose cores run up to 1.6x slower for seconds (sometimes minutes) at a
#: time, one round's timings follow other tenants' load; a slower program
#: is slower in every replay. (A round per process, not per context: a second round in the
#: same process finds the allocator warm and ingest's growing index about
#: twice as cheap.)
REPLAY_ROUNDS = {"ingest": 4, "query": 4}


@dataclass
class Checks:
    """Operations attempted and how the failed ones failed."""

    attempted: int = 0
    failures: Dict[str, int] = field(default_factory=dict)
    examples: List[str] = field(default_factory=list)

    @property
    def failed(self) -> int:
        return sum(self.failures.values())

    @property
    def mismatches(self) -> int:
        return self.failures.get("mismatch", 0)

    def ok(self) -> None:
        self.attempted += 1

    def fail(self, kind: str, detail: str = "") -> None:
        self.attempted += 1
        self.failures[kind] = self.failures.get(kind, 0) + 1
        if len(self.examples) < 5:
            self.examples.append(f"{kind}: {detail}"[:300])


@dataclass
class WorkloadResult:
    """What one run of one workload measured."""

    workload: str
    end_to_end: Dict[str, float]
    per_layer: Dict[str, float]
    checks: Checks
    info: Dict[str, Any] = field(default_factory=dict)


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------


def percentile(values: List[float], pct: float) -> float:
    """Nearest-rank percentile (0 for no values)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * pct // 100))
    return float(ordered[int(rank) - 1])


def fastest_replays(per_round: List[List[Any]]) -> List[float]:
    """Per operation, its fastest time over the rounds that completed it
    (``None`` marks a failed replay; an operation no round completed is
    left out)."""
    best = []
    for times in zip(*per_round):
        done = [t for t in times if t is not None]
        if done:
            best.append(min(done))
    return best


def combine_replays(reports: List[Dict[str, Any]]) -> Dict[str, Any]:
    """One report from the reports of a workload's replay rounds.

    Timings come from each operation's fastest replay, and so does set-up
    time: each of a round's builds is timed by its fastest replay across
    the rounds, and ``setup_s`` is the median of those. Peak RSS is the
    largest round's; cost, accuracy and the per-layer figures are the first
    round's (every round does the same work); operations attempted and
    failed add up over the rounds.
    """
    first = reports[0]
    per_op = [report["info"]["op_latencies_ms"] for report in reports]
    if len({len(ops) for ops in per_op}) != 1:
        raise ValueError("replay rounds ran different operations")
    best = fastest_replays(per_op)
    builds = [report["info"]["setup_runs_s"] for report in reports]
    end_to_end = dict(first["end_to_end"])
    end_to_end.update({
        "setup_s": statistics.median(fastest_replays(builds)),
        "peak_rss_mb": max(report["end_to_end"]["peak_rss_mb"] for report in reports),
        "throughput_per_s": ratio(len(best), sum(best) / 1000.0),
        "latency_p50_ms": percentile(best, 50),
        "latency_p95_ms": percentile(best, 95),
    })
    failures: Dict[str, int] = {}
    for report in reports:
        for kind, count in report["failures"].items():
            failures[kind] = failures.get(kind, 0) + count
    info = dict(first["info"])
    info.pop("op_latencies_ms")
    info.update({
        "rounds": len(reports),
        "setup_runs_s": builds,
        "round_elapsed_s": [report["info"]["elapsed_s"] for report in reports],
        "round_latency_p50_ms": [report["end_to_end"]["latency_p50_ms"]
                                 for report in reports],
        "gc_gen2_pauses_ms": [report["info"]["gc_gen2_pauses_ms"] for report in reports],
    })
    return {
        **first,
        "end_to_end": end_to_end,
        "attempted": sum(report["attempted"] for report in reports),
        "failed": sum(failures.values()),
        "failures": failures,
        "failure_examples": [e for report in reports for e in report["failure_examples"]][:5],
        "info": info,
    }


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timed_setups(build: Callable[[], Any], close: Callable[[Any], None],
                 repeats: int = SETUP_REPEATS) -> Tuple[Any, float, List[float]]:
    """Build the set-up ``repeats`` times, closing all but the last.

    Returns (last set-up, median seconds, every duration).
    """
    durations: List[float] = []
    built = None
    for attempt in range(repeats):
        if built is not None:
            close(built)
        started = time.perf_counter()
        built = build()
        durations.append(time.perf_counter() - started)
    gc.collect()  # set-up garbage is not the measured window's to collect
    return built, statistics.median(durations), durations


class GcPauses:
    """Records generation-2 collections (start to end, in ms) while active."""

    def __init__(self) -> None:
        self.pauses_ms: List[float] = []
        self._started = 0.0

    def _callback(self, phase: str, info: Dict[str, Any]) -> None:
        if info.get("generation") != 2:
            return
        if phase == "start":
            self._started = time.perf_counter()
        else:
            self.pauses_ms.append((time.perf_counter() - self._started) * 1000.0)

    def __enter__(self) -> "GcPauses":
        gc.callbacks.append(self._callback)
        return self

    def __exit__(self, *exc_info: Any) -> None:
        gc.callbacks.remove(self._callback)


# ----------------------------------------------------------------------
# Answers and expected outputs
# ----------------------------------------------------------------------


def canonical(value: Any) -> str:
    """A stable text form of an answer, identical after a JSON round trip."""
    return json.dumps(value, sort_keys=True, default=repr, separators=(",", ":"))


def load_expected(name: str) -> Dict[str, Any]:
    path = EXPECTED_DIR / f"{name}.json"
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def check_answer(checks: Checks, expected: Dict[str, Any], question: str,
                 answer: Any, partial: bool) -> None:
    """Compare one answer with its committed expected output."""
    want = expected.get(question)
    got = {"answer": canonical(answer), "partial": bool(partial)}
    if want is None:
        checks.fail("unknown_question", question)
    elif want != got:
        checks.fail("mismatch", f"{question!r}: {got} != {want}")
    else:
        checks.ok()


# ----------------------------------------------------------------------
# Fingerprint
# ----------------------------------------------------------------------


def _git_rev() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def fingerprint(workload: str, seed: int, seconds: float, trace: bool,
                mode: str, latency_scale: float) -> Dict[str, Any]:
    import numpy

    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "mode": mode,
        "real_latency_scale": latency_scale,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "git_rev": _git_rev(),
        "src_sha256": _source_digest(),
    }


# ----------------------------------------------------------------------
# Per-layer metrics
# ----------------------------------------------------------------------


def delta(before: Dict[str, Any], after: Dict[str, Any], key: str) -> float:
    return float(after.get(key, 0) or 0) - float(before.get(key, 0) or 0)


def per_layer_metrics(rec: Any, ops: int, *, docs: int = 0, chunks: int = 0,
                      llm: Tuple[Dict, Dict] = ({}, {}),
                      scheduler: Tuple[Dict, Dict] = ({}, {}),
                      **measured: float) -> Dict[str, float]:
    """The per-layer table from a traced run's recorder.

    ``ops`` is the workload's unit of work (an ingested document, a
    question, a /v1/query request): every ``*_per_query`` figure is per op.
    ``llm`` and ``scheduler`` are (before, after) snapshots of
    ``ReliableLLM.metrics()`` and ``RequestScheduler.metrics()``;
    ``measured`` supplies figures the workload measures itself
    (serving.*, gateway.*, observability.*, llm.cost_tracker_records).
    """
    counts = rec.counts
    llm_before, llm_after = llm
    hits = delta(llm_before, llm_after, "cache_hits")
    misses = delta(llm_before, llm_after, "cache_misses")
    s_before, s_after = scheduler
    histogram_before = s_before.get("batch_size_histogram", {})
    histogram_after = s_after.get("batch_size_histogram", {})
    batch_sizes = {
        size: count - histogram_before.get(size, 0)
        for size, count in histogram_after.items()
    }
    batches = sum(batch_sizes.values())
    waits = rec.samples.get("runtime.queue_wait_ms", [])
    layer_self = rec.layer_self_ms()
    total_self = sum(layer_self.values())
    metrics: Dict[str, float] = {
        "partitioner.busy_ms_per_doc": ratio(
            rec.name_ms("partitioner", ["partition"], inclusive=True), docs),
        "partitioner.elements_per_doc": ratio(counts["partitioner.elements"], docs),
        "docmodel.bbox_intersections_per_doc": ratio(
            counts["docmodel.bbox_intersections"], docs),
        "docmodel.render_calls_per_query": ratio(counts["docmodel.render_calls"], ops),
        "docmodel.render_ms_per_query": ratio(
            rec.name_ms("docmodel", ["text_representation"], inclusive=True), ops),
        "sycamore.transform_self_ms": ratio(layer_self["sycamore"], ops),
        "execution.self_ms_per_query": ratio(layer_self["execution"], ops),
        "execution.dead_letters": counts["execution.dead_letters"],
        "embedding.busy_ms_per_chunk": ratio(
            rec.name_ms("embedding", ["embed", "embed_many"], inclusive=True), chunks),
        "indexes.write_ms_per_chunk": ratio(
            rec.name_ms("indexes", ["add_document", "add_documents"]), chunks),
        "indexes.read_ms_per_query": ratio(
            rec.name_ms("indexes", ["get", "all_documents", "search_keyword",
                                    "search_vector", "search_hybrid"]), ops),
        "llm.backend_calls_per_query": ratio(counts["llm.backend_calls"], ops),
        "llm.input_tokens_per_query": ratio(counts["llm.input_tokens"], ops),
        "llm.cache_hit_rate": ratio(hits, hits + misses),
        "llm.retries": delta(llm_before, llm_after, "retries_performed"),
        "llm.backend_ms": ratio(rec.name_ms("llm", ["backend"], inclusive=True), ops),
        "llm.cost_summary_ms_per_query": ratio(
            rec.name_ms("llm", ["summary"], inclusive=True), ops),
        "runtime.queue_wait_ms_p50": percentile(waits, 50),
        "runtime.queue_wait_ms_p95": percentile(waits, 95),
        "runtime.avg_batch_size": ratio(
            sum(int(size) * count for size, count in batch_sizes.items()), batches),
        "runtime.dedup_hits": delta(s_before, s_after, "dedup_hits"),
        "luna.plan_ms_per_query": ratio(rec.name_ms("luna", ["plan"], inclusive=True), ops),
        "luna.execute_self_ms_per_query": ratio(rec.name_ms("luna", ["execute"]), ops),
        "optimizer.optimize_ms_per_query": ratio(
            rec.name_ms("optimizer", ["optimize_with_report"], inclusive=True), ops),
    }
    for name in ("serving.queue_wait_ms_p95", "serving.result_cache_hit_rate",
                 "serving.plan_cache_hit_rate", "serving.coalesced", "serving.shed",
                 "gateway.self_ms_per_request", "gateway.non_2xx",
                 "observability.retained_spans", "observability.dropped_spans",
                 "observability.cost_ledger_ratio", "llm.cost_tracker_records"):
        metrics[name] = float(measured.pop(name, 0.0))
    if measured:
        raise ValueError(f"unknown per-layer figures: {sorted(measured)}")
    for layer, value in layer_self.items():
        metrics[f"{layer}.self_share"] = ratio(value, total_self)
    missing = {name for name, _ in PER_LAYER} - set(metrics)
    if missing:
        raise AssertionError(f"per-layer metrics not computed: {sorted(missing)}")
    return metrics


def observability_figures(ctx: Any, ledger_usd: float, spend_usd: float) -> Dict[str, float]:
    """Span retention and the span-ledger / backend-spend ratio."""
    tracer = ctx.tracer
    if ledger_usd == 0.0 and spend_usd == 0.0:
        ledger = 1.0  # nothing spent, nothing booked: the ledgers agree
    else:
        ledger = ratio(ledger_usd, spend_usd)
    return {
        "observability.retained_spans": float(len(tracer.spans())),
        "observability.dropped_spans": float(tracer.dropped_spans),
        "observability.cost_ledger_ratio": ledger,
        "llm.cost_tracker_records": float(len(ctx.cost_tracker.records())),
    }
