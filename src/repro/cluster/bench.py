"""The sharding benchmark: single-process vs scatter/gather walls.

One corpus, one declarative shard plan (an LLM extract over every
document), two executions: :func:`~repro.cluster.worker.run_spec_locally`
in-process (the exact code path a worker runs, so the comparison is
apples to apples) and a :class:`~repro.cluster.ClusterCoordinator`
scatter/gather across worker processes. The benchmark reports wall
times, the speedup, and whether the merged sharded output is
**byte-identical** to the single-process run — the correctness bar that
makes the speedup meaningful.

The LLM is the simulated backend with a small ``real_latency_scale``:
each call really sleeps a fixed fraction of its virtual latency, so the
benchmark measures the overlap a shared-nothing cluster buys on an
I/O-bound workload without needing real GPUs (same technique as the
serving and scheduler benchmarks). Fault injection is off — fault
schedules are order-dependent, and the benchmark's identity check
requires both runs to see identical traffic.

Shared by ``python -m repro bench-shard`` and
``benchmarks/test_bench_sharding.py`` (which commits
``BENCH_sharding.json``).
"""

from __future__ import annotations

import time
from typing import Any, Dict, List

from ..docmodel.document import Document
from .coordinator import ClusterConfig, ClusterCoordinator
from .envelope import ShardOp, ShardPlanSpec
from .worker import build_worker_context, run_spec_locally

#: Benchmark defaults: the ISSUE's acceptance configuration.
DEFAULT_DOCS = 50_000
DEFAULT_WORKERS = 4
DEFAULT_LATENCY_SCALE = 0.01

_CAUSES = (
    "wind gusts tore through the approach path",
    "engine failure on climb-out",
    "fuel exhaustion over the ridge",
    "bird strike shattered the windscreen",
    "icing built up on both wings",
)


def generate_bench_corpus(n_docs: int, seed: int = 0) -> List[Document]:
    """A deterministic synthetic corpus for the sharding benchmark.

    Plain single-element documents (the benchmark measures operator
    scatter, not partitioning), with ids and text derived only from the
    index and seed so every run and every process builds the same bytes.
    """
    documents: List[Document] = []
    for i in range(n_docs):
        cause = _CAUSES[i % len(_CAUSES)]
        doc = Document.from_text(
            f"Incident report {seed}-{i:06d}: the aircraft was lost after "
            f"{cause}. Field teams recovered the wreckage in sector {i % 97}.",
            properties={
                "entity": f"incident {i:06d}",
                "sector": i % 97,
            },
        )
        doc.doc_id = f"bench-{seed}-{i:06d}"
        documents.append(doc)
    return documents


def _docset_bytes(documents: List[Document]) -> str:
    """Canonical byte form of an ordered document list."""
    return "\n".join(doc.to_json() for doc in documents)


def run_sharding_benchmark(
    n_docs: int = DEFAULT_DOCS,
    workers: int = DEFAULT_WORKERS,
    shards_per_worker: int = 2,
    latency_scale: float = DEFAULT_LATENCY_SCALE,
    seed: int = 0,
    model: str = "sim-small",
) -> Dict[str, Any]:
    """Run the benchmark; returns the results document (JSON-able)."""
    config = ClusterConfig(
        n_workers=workers,
        shards_per_worker=shards_per_worker,
        seed=seed,
        default_model=model,
        real_latency_scale=latency_scale,
    )
    spec = ShardPlanSpec.from_ops(
        [ShardOp.make("LlmExtract", field="cause", type="string")],
        default_model=model,
    )
    documents = generate_bench_corpus(n_docs, seed=seed)

    # Single-process reference: the identical worker stack (same context
    # factory, same plan builder), one process.
    local_context = build_worker_context(config.worker_config())
    started = time.perf_counter()
    local_docs, local_stats = run_spec_locally(local_context, documents, spec)
    single_wall = time.perf_counter() - started
    local_bytes = _docset_bytes(local_docs)
    local_calls = local_stats.cost.llm_calls
    if local_context.scheduler is not None:
        local_context.scheduler.close(drain=False)
    local_context.close()

    with ClusterCoordinator(config) as coordinator:
        started = time.perf_counter()
        run = coordinator.run_segment(documents, spec)
        sharded_wall = time.perf_counter() - started
        cluster_stats = coordinator.stats()
    sharded_bytes = _docset_bytes(run.documents)

    speedup = single_wall / sharded_wall if sharded_wall > 0 else float("inf")
    return {
        "benchmark": "sharding",
        "config": {
            "n_docs": n_docs,
            "workers": workers,
            "shards": config.effective_shards(),
            "latency_scale": latency_scale,
            "seed": seed,
            "model": model,
            "plan": [[op.operation, op.param_dict()] for op in spec.ops],
        },
        "single_process": {
            "wall_s": round(single_wall, 3),
            "llm_calls": local_calls,
            "documents_out": len(local_docs),
        },
        "sharded": {
            "wall_s": round(sharded_wall, 3),
            "llm_calls": run.llm_calls,
            "documents_out": len(run.documents),
            "shards_completed": run.completed_shards,
            "shard_retries": run.retried_shards,
            "worker_deaths": run.worker_deaths,
            "workers_alive": cluster_stats["workers"]["alive"],
        },
        "speedup": round(speedup, 2),
        "byte_identical": sharded_bytes == local_bytes,
    }


def render_results(results: Dict[str, Any]) -> str:
    """Human-readable benchmark summary."""
    cfg = results["config"]
    single = results["single_process"]
    sharded = results["sharded"]
    lines = [
        f"sharding benchmark: {cfg['n_docs']} docs, {cfg['workers']} workers "
        f"x {cfg['shards']} shards, model {cfg['model']}",
        f"  single process : {single['wall_s']:8.2f}s  "
        f"({single['documents_out']} docs out)",
        f"  {cfg['workers']}-worker cluster: {sharded['wall_s']:8.2f}s  "
        f"({sharded['documents_out']} docs out, "
        f"{sharded['shards_completed']} shards, "
        f"{sharded['shard_retries']} retries)",
        f"  speedup        : {results['speedup']:.2f}x",
        f"  byte-identical : {results['byte_identical']}",
    ]
    return "\n".join(lines)
