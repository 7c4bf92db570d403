"""The worker process: a private single-process engine per shard.

Each cluster worker is a full, isolated copy of the in-process stack —
its own :class:`~repro.llm.simulated.SimulatedLLM` (same seed as the
parent, so completions are placement-independent), its own
:class:`~repro.llm.client.ReliableLLM` reliability layer, its own
:class:`~repro.runtime.RequestScheduler` and executor. Nothing is shared
with the coordinator but the task/result queues; this is the paper's
shared-nothing Ray-worker shape scaled down to ``multiprocessing``.

Byte-identity with local execution is structural, not tested-in:
:func:`build_shard_plan` is the *only* implementation of a shard plan,
used both by workers and by the single-process baseline
(:func:`run_spec_locally`), and it builds its pipeline from the same
transform factories Luna's operators use.

The main loop is deliberately boring: bounded queue waits (so shutdown
and the lint rule's timeout discipline both hold), a ``None`` sentinel
to exit, and one :class:`~repro.cluster.envelope.ShardResult` per
envelope — including typed ``deadline`` results when the parent's
serialized budget runs out mid-shard.
"""

from __future__ import annotations

import os
import time
from queue import Empty
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..docmodel.document import Document
from ..execution.executor import ExecutionStats
from ..execution.plan import Plan
from ..faults.injector import FaultInjector
from ..faults.schedule import FaultSchedule
from ..lifecycle.deadline import (
    CancelScope,
    Deadline,
    DeadlineExceeded,
    attach_scope,
)
from ..llm.cost import CostTracker
from ..llm.simulated import SimulatedLLM
from ..runtime import Priority, RequestScheduler
from ..sycamore import aggregates
from ..sycamore.context import SycamoreContext
from ..sycamore.llm_transforms import (
    make_extract_properties_fn,
    make_llm_filter_fn,
)
from .envelope import ShardPlanSpec, ShardResult, TaskEnvelope, WorkerConfig

#: How long a worker blocks on its task queue per wait. Bounded so a
#: worker whose coordinator died (queue never drained, sentinel never
#: sent) still reaches its shutdown checks instead of hanging forever.
TASK_POLL_S = 0.2

_COMPARATORS: Dict[str, Callable[[Any, Any], bool]] = {
    "eq": lambda a, b: a == b,
    "ne": lambda a, b: a != b,
    "lt": lambda a, b: a < b,
    "le": lambda a, b: a <= b,
    "gt": lambda a, b: a > b,
    "ge": lambda a, b: a >= b,
    "contains": lambda a, b: str(b).lower() in str(a).lower(),
}


def _basic_predicate(params: Dict[str, Any]) -> Callable[[Document], bool]:
    """The BasicFilter predicate, matching Luna's operator semantics:
    missing values and type mismatches drop the document."""
    get = aggregates.property_getter(str(params["field"]))
    op = str(params["op"])
    value = params["value"]
    compare = _COMPARATORS.get(op)
    if compare is None:
        raise ValueError(f"unknown comparison operator {op!r}")

    def predicate(document: Document) -> bool:
        actual = get(document)
        if actual is None:
            return False
        try:
            return bool(compare(actual, value))
        except TypeError:
            return False

    return predicate


def build_shard_plan(
    context: SycamoreContext,
    documents: List[Document],
    spec: ShardPlanSpec,
    priority: Priority = Priority.BULK,
) -> Plan:
    """Materialize a declarative spec into an executable Plan chain."""
    plan = Plan.from_items(documents)
    for shard_op in spec.ops:
        params = shard_op.param_dict()
        model = params.get("model") or spec.default_model
        if shard_op.operation == "LlmExtract":
            fn = make_extract_properties_fn(
                context,
                {str(params["field"]): str(params.get("type", "string"))},
                model=model,
                priority=priority,
            )
            plan = plan.map(fn, name="shard_llm_extract")
        elif shard_op.operation == "LlmFilter":
            predicate = make_llm_filter_fn(
                context,
                condition=str(params["condition"]),
                model=model,
                priority=priority,
            )
            plan = plan.filter(predicate, name="shard_llm_filter")
        elif shard_op.operation == "BasicFilter":
            plan = plan.filter(_basic_predicate(params), name="shard_basic_filter")
        else:  # pragma: no cover - spec.validate() rejects these upfront
            raise ValueError(f"unsupported shard operation {shard_op.operation!r}")
    return plan


def run_spec_locally(
    context: SycamoreContext,
    documents: List[Document],
    spec: ShardPlanSpec,
    on_error: Optional[str] = None,
    priority: Priority = Priority.BULK,
) -> Tuple[List[Document], Optional[ExecutionStats]]:
    """Run a shard spec over documents in the calling process.

    The single-process baseline builds its plan exactly as a worker does,
    so sharded output can only differ from local output through
    partitioning or merging bugs, both of which the cluster tests pin
    down directly.
    """
    executor = context.executor(on_error=on_error)
    output = executor.take_all(build_shard_plan(context, documents, spec, priority))
    return output, executor.last_stats


def build_worker_context(config: WorkerConfig) -> SycamoreContext:
    """The worker's private stack, rebuilt from plain config values."""
    tracker = CostTracker()
    backend = SimulatedLLM(
        seed=config.seed,
        tracker=tracker,
        real_latency_scale=config.real_latency_scale,
    )
    context = SycamoreContext(
        llm=backend,
        parallelism=config.parallelism,
        default_model=config.default_model,
        seed=config.seed,
        on_error=config.on_error,
        scheduler=RequestScheduler(max_wait_ms=0.5),
    )
    # The context builds its own (empty) tracker before wrapping the
    # backend; point it at the backend's ledger so shard stats are real.
    context.cost_tracker = tracker
    return context


def execute_envelope(
    context: SycamoreContext,
    config: WorkerConfig,
    envelope: TaskEnvelope,
    worker_id: int,
) -> ShardResult:
    """Run one shard envelope to a ShardResult (never raises)."""
    if envelope.poison == "die":
        # Chaos hook: simulate a worker crash with the shard in flight.
        os._exit(137)

    started = time.monotonic()

    scope: Optional[CancelScope] = None
    if envelope.budget_s is not None:
        if envelope.budget_s <= 0:
            return ShardResult(
                shard_id=envelope.shard_id,
                attempt=envelope.attempt,
                worker_id=worker_id,
                status="deadline",
                budget_s=float(envelope.budget_s),
                elapsed_s=0.0,
                run_token=envelope.run_token,
            )
        scope = CancelScope(
            deadline=Deadline(envelope.budget_s), query_id=envelope.query_id
        )

    injected_backend = None
    if config.transient_rate > 0 or config.rate_limit_rate > 0:
        injector = FaultInjector(
            FaultSchedule(
                seed=envelope.fault_seed,
                transient_rate=config.transient_rate,
                rate_limit_rate=config.rate_limit_rate,
            )
        )
        injected_backend = context.llm.backend
        context.llm.backend = injector.wrap_llm(injected_backend)

    # Its running cost account reports a failed shard's spend too.
    executor = context.executor(on_error=config.on_error)
    try:
        with attach_scope(scope):
            documents = executor.take_all(
                build_shard_plan(context, envelope.documents, envelope.spec)
            )
        stats = executor.last_stats
        position_of = {
            document.doc_id: position
            for document, position in zip(envelope.documents, envelope.positions)
        }
        result = ShardResult(
            shard_id=envelope.shard_id,
            attempt=envelope.attempt,
            worker_id=worker_id,
            status="ok",
            documents=documents,
            positions=[position_of[document.doc_id] for document in documents],
            dead_lettered=stats.total_dead_lettered() if stats else 0,
            skipped=stats.total_skipped() if stats else 0,
            run_token=envelope.run_token,
        )
    except DeadlineExceeded as exc:
        result = ShardResult(
            shard_id=envelope.shard_id,
            attempt=envelope.attempt,
            worker_id=worker_id,
            status="deadline",
            budget_s=exc.budget_s,
            elapsed_s=exc.elapsed_s,
            error=str(exc),
            run_token=envelope.run_token,
        )
    except Exception as exc:  # noqa: BLE001 - workers must report, not die
        result = ShardResult(
            shard_id=envelope.shard_id,
            attempt=envelope.attempt,
            worker_id=worker_id,
            status="error",
            error=f"{type(exc).__name__}: {exc}",
            run_token=envelope.run_token,
        )
    finally:
        if injected_backend is not None:
            context.llm.backend = injected_backend

    result.wall_s = time.monotonic() - started
    if executor.last_stats is not None:
        result.llm_calls = executor.last_stats.cost.llm_calls
        result.cost_usd = executor.last_stats.cost.cost_usd
    return result


def worker_main(
    worker_id: int,
    config: WorkerConfig,
    task_queue: Any,
    result_queue: Any,
) -> None:
    """Entry point of a cluster worker process.

    Module-level (not a closure) so it pickles under the ``spawn`` start
    method. The context is built lazily on the first envelope, so a
    worker that is spawned and immediately shut down costs nothing.
    """
    context: Optional[SycamoreContext] = None
    try:
        while True:
            try:
                envelope = task_queue.get(timeout=TASK_POLL_S)
            except Empty:
                continue
            if envelope is None:
                break
            if context is None:
                context = build_worker_context(config)
            result_queue.put(execute_envelope(context, config, envelope, worker_id))
    finally:
        if context is not None:
            if context.scheduler is not None:
                context.scheduler.close(drain=False)
            context.close()
