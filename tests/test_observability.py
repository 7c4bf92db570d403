"""Tests for repro.observability: tracing, metrics, cost accounting.

Covers the invariants the subsystem documents: span parent/child
integrity across executor thread pools and scheduler batches, registry
snapshot consistency under concurrent writers, and cost-rollup
arithmetic checked against a hand-computed plan.
"""

import contextvars
import json
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.execution.executor import Executor
from repro.execution.plan import Plan
from repro.llm.client import ReliableLLM
from repro.llm.cost import CostTracker
from repro.llm.simulated import SimulatedLLM
from repro.observability import (
    CostAccount,
    MetricsRegistry,
    Tracer,
    get_registry,
    render_trace_tree,
    trace_to_dict,
    write_trace_json,
)
from repro.observability.cost import open_account
from repro.runtime.scheduler import Priority, RequestScheduler


# ----------------------------------------------------------------------
# Tracer
# ----------------------------------------------------------------------


class TestTracer:
    def test_nested_spans_share_a_trace(self):
        tracer = Tracer()
        with tracer.span("query", kind="query") as root:
            with tracer.span("op", kind="operator") as child:
                with tracer.span("llm", kind="llm_request") as leaf:
                    pass
        assert child.parent_id == root.span_id
        assert leaf.parent_id == child.span_id
        assert root.trace_id == child.trace_id == leaf.trace_id
        assert root.parent_id is None

    def test_ids_are_stable_and_sequential(self):
        tracer = Tracer()
        first = tracer.start_span("a", parent=None)
        second = tracer.start_span("b", parent=None)
        assert first.span_id == "s000001"
        assert second.span_id == "s000002"
        assert first.trace_id == "t0001"
        assert second.trace_id == "t0002"

    def test_child_is_recorded_by_its_parents_tracer(self):
        # Span ids are unique only within one tracer, so a trace must not
        # be split across two: a component with a private tracer files
        # its spans under the caller's trace.
        caller, component = Tracer(), Tracer()
        component.start_span("warm-up", parent=None)
        with caller.span("query", kind="query") as root:
            with component.span("llm", kind="llm_request") as child:
                pass
        assert child.parent is root and child.parent_id == root.span_id
        assert caller.trace_spans(root.trace_id) == [root, child]
        assert [span.name for span in component.spans()] == ["warm-up"]

    def test_parent_none_forces_new_trace(self):
        tracer = Tracer()
        with tracer.span("outer") as outer:
            root = tracer.start_span("batch", kind="batch", parent=None)
        assert root.trace_id != outer.trace_id
        assert root.parent_id is None

    def test_finish_is_idempotent(self):
        tracer = Tracer()
        span = tracer.start_span("x")
        tracer.finish(span, status="error", error="boom")
        end = span.end_s
        tracer.finish(span)  # second finish must not overwrite
        assert span.end_s == end
        assert span.status == "error"
        assert span.error == "boom"

    def test_exception_marks_span_error(self):
        tracer = Tracer()
        with pytest.raises(ValueError):
            with tracer.span("fails"):
                raise ValueError("bad input")
        (span,) = tracer.spans()
        assert span.status == "error"
        assert "bad input" in span.error

    def test_propagation_across_thread_pool(self):
        """Workers see the submitter's span when given a copied context."""
        tracer = Tracer()

        def task(i):
            with tracer.span(f"child-{i}", kind="llm_request"):
                pass
            return tracer.current().span_id  # the ambient parent

        with tracer.span("parent", kind="operator") as parent:
            with ThreadPoolExecutor(max_workers=4) as pool:
                futures = [
                    pool.submit(contextvars.copy_context().run, task, i)
                    for i in range(20)
                ]
                ambient_ids = [f.result() for f in futures]
        assert set(ambient_ids) == {parent.span_id}
        children = [s for s in tracer.spans() if s.kind == "llm_request"]
        assert len(children) == 20
        assert {c.parent_id for c in children} == {parent.span_id}
        assert {c.trace_id for c in children} == {parent.trace_id}

    def test_max_spans_bound(self):
        tracer = Tracer(max_spans=3)
        for _ in range(5):
            tracer.finish(tracer.start_span("s", parent=None))
        assert len(tracer.spans()) == 3
        assert tracer.dropped_spans == 2

    def test_trace_spans_and_last_trace(self):
        tracer = Tracer()
        with tracer.span("q1", kind="query"):
            tracer.finish(tracer.start_span("inner"))
        with tracer.span("q2", kind="query") as q2:
            pass
        assert tracer.last_trace(kind="query") == q2.trace_id
        assert [s.name for s in tracer.trace_spans(q2.trace_id)] == ["q2"]


# ----------------------------------------------------------------------
# Metrics registry
# ----------------------------------------------------------------------


class TestMetricsRegistry:
    def test_get_or_create_returns_same_instrument(self):
        registry = MetricsRegistry()
        assert registry.counter("a.b") is registry.counter("a.b")

    def test_kind_mismatch_raises(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(ValueError):
            registry.gauge("x")

    def test_counter_rejects_negative(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError):
            registry.counter("c").inc(-1)

    def test_histogram_percentiles_hand_computed(self):
        registry = MetricsRegistry()
        hist = registry.histogram("h")
        for value in range(1, 101):  # 1..100
            hist.observe(value)
        snap = hist.value()
        assert snap["count"] == 100
        assert snap["sum"] == 5050.0
        assert snap["min"] == 1.0
        assert snap["max"] == 100.0
        assert snap["mean"] == 50.5
        assert snap["p50"] == 50.0  # nearest-rank
        assert snap["p90"] == 90.0
        assert snap["p99"] == 99.0

    def test_snapshot_consistent_under_concurrent_writers(self):
        registry = MetricsRegistry()
        counter = registry.counter("writes")
        hist = registry.histogram("obs")
        stop = threading.Event()
        snapshots = []

        def writer():
            while not stop.is_set():
                counter.inc()
                hist.observe(1.0)

        def reader():
            while not stop.is_set():
                snapshots.append(registry.snapshot())

        threads = [threading.Thread(target=writer) for _ in range(4)]
        threads.append(threading.Thread(target=reader))
        for t in threads:
            t.start()
        import time

        time.sleep(0.15)
        stop.set()
        for t in threads:
            t.join()
        final = registry.snapshot()
        # Exact counts survive concurrency, and the two instruments agree.
        assert final["writes"] == final["obs"]["count"]
        # Snapshots taken mid-write are monotone non-decreasing.
        values = [snap["writes"] for snap in snapshots if "writes" in snap]
        assert values == sorted(values)

    def test_concurrent_increments_are_exact(self):
        registry = MetricsRegistry()
        counter = registry.counter("n")

        def bump():
            for _ in range(1000):
                counter.inc()

        threads = [threading.Thread(target=bump) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert counter.value() == 8000

    def test_reset_zeroes_but_keeps_registrations(self):
        registry = MetricsRegistry()
        registry.counter("a").inc(5)
        registry.reset()
        assert registry.names() == ["a"]
        assert registry.counter("a").value() == 0.0

    def test_global_registry_is_shared(self):
        assert get_registry() is get_registry()


# ----------------------------------------------------------------------
# Cost accounting
# ----------------------------------------------------------------------


def _llm_span(tracer, name="llm:sim-small", **attrs):
    span = tracer.start_span(name, kind="llm_request", **attrs)
    tracer.finish(span)
    return span


class TestCostAccount:
    def test_rollup_matches_hand_computed_plan(self):
        """Two operators, three requests — totals computed by hand."""
        tracer = Tracer()
        with tracer.span("query:test", kind="query"):
            with tracer.span("op[0]:LlmFilter", kind="operator"):
                _llm_span(
                    tracer, input_tokens=100, output_tokens=10, cost_usd=0.002
                )
                _llm_span(
                    tracer,
                    input_tokens=50,
                    output_tokens=5,
                    cost_usd=0.0,
                    saved_usd=0.001,
                    cached=True,
                )
            with tracer.span("op[1]:Summarize", kind="operator"):
                _llm_span(
                    tracer,
                    input_tokens=200,
                    output_tokens=40,
                    cost_usd=0.004,
                    retries=2,
                )
        account = CostAccount.from_spans(tracer.spans())
        assert account.llm_calls == 3
        assert account.input_tokens == 350
        assert account.output_tokens == 55
        assert account.total_tokens == 405
        assert account.cost_usd == pytest.approx(0.006)
        assert account.saved_usd == pytest.approx(0.001)
        assert account.cached_calls == 1
        assert account.retries == 2
        ops = account.operators
        assert set(ops) == {"op[0]:LlmFilter", "op[1]:Summarize"}
        assert ops["op[0]:LlmFilter"].llm_calls == 2
        assert ops["op[0]:LlmFilter"].cost_usd == pytest.approx(0.002)
        assert ops["op[1]:Summarize"].retries == 2

    def test_concurrent_charges_are_not_lost(self):
        """More threads than cores finishing requests under one account,
        with a tiny switch interval: every charge lands exactly once."""
        import sys

        tracer = Tracer(max_spans=64)
        threads, per_thread = 8, 400

        def spend():
            for _ in range(per_thread):
                _llm_span(tracer, input_tokens=1, output_tokens=1, cost_usd=0.25)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with tracer.span("op[0]:LlmFilter", kind="operator") as op:
                account = open_account(op)
                workers = [
                    threading.Thread(target=contextvars.copy_context().run, args=(spend,))
                    for _ in range(threads)
                ]
                for worker in workers:
                    worker.start()
                for worker in workers:
                    worker.join(timeout=60)
                assert not any(worker.is_alive() for worker in workers)
        finally:
            sys.setswitchinterval(interval)
        assert account.llm_calls == threads * per_thread
        assert account.input_tokens == threads * per_thread
        assert account.cost_usd == 0.25 * threads * per_thread

    def test_same_operation_twice_rolls_up_separately(self):
        tracer = Tracer()
        with tracer.span("query:q", kind="query"):
            with tracer.span("op[0]:LlmFilter", kind="operator"):
                _llm_span(tracer, input_tokens=10, output_tokens=1, cost_usd=0.001)
            with tracer.span("op[2]:LlmFilter", kind="operator"):
                _llm_span(tracer, input_tokens=20, output_tokens=2, cost_usd=0.002)
        account = CostAccount.from_spans(tracer.spans())
        assert set(account.operators) == {"op[0]:LlmFilter", "op[2]:LlmFilter"}

    def test_orphan_requests_attribute_to_query(self):
        tracer = Tracer()
        with tracer.span("query:q", kind="query"):
            _llm_span(tracer, input_tokens=10, output_tokens=1, cost_usd=0.001)
        account = CostAccount.from_spans(tracer.spans())
        assert set(account.operators) == {"(query)"}

    def test_requests_under_transform_attribute_to_transform(self):
        tracer = Tracer()
        with tracer.span("execute:p", kind="plan"):
            with tracer.span("transform:extract", kind="transform"):
                _llm_span(tracer, input_tokens=10, output_tokens=1, cost_usd=0.001)
        account = CostAccount.from_spans(tracer.spans())
        assert set(account.operators) == {"transform:extract"}

    def test_export_and_result_totals_agree(self):
        tracer = Tracer()
        with tracer.span("query:q", kind="query"):
            with tracer.span("op[0]:X", kind="operator"):
                _llm_span(tracer, input_tokens=7, output_tokens=3, cost_usd=0.005)
        spans = tracer.spans()
        account = CostAccount.from_spans(spans)
        doc = trace_to_dict(spans, account)
        assert doc["cost"] == account.as_dict()
        assert doc["cost"]["totals"]["cost_usd"] == round(account.cost_usd, 6)

    def test_json_export_roundtrip(self, tmp_path):
        tracer = Tracer()
        with tracer.span("query:q", kind="query"):
            _llm_span(tracer, input_tokens=1, output_tokens=1, cost_usd=0.0)
        path = write_trace_json(tmp_path / "trace.json", tracer.spans())
        doc = json.loads(path.read_text())
        assert doc["version"] == 1
        assert len(doc["spans"]) == 2
        assert doc["trace_id"] == tracer.spans()[0].trace_id

    def test_render_tree_truncates(self):
        tracer = Tracer()
        with tracer.span("root", kind="query"):
            for _ in range(10):
                _llm_span(tracer, input_tokens=1, output_tokens=1)
        text = render_trace_tree(tracer.spans(), max_spans=4)
        assert "more spans truncated" in text
        assert len(text.splitlines()) == 5  # 4 spans + truncation line


# ----------------------------------------------------------------------
# ReliableLLM cost accounting (the cache-hit bugfix)
# ----------------------------------------------------------------------


class TestReliableLLMAccounting:
    def test_cache_hits_counted_at_zero_dollars(self):
        tracker = CostTracker()
        tracer = Tracer()
        registry = MetricsRegistry()
        backend = SimulatedLLM(seed=0, tracker=tracker)
        llm = ReliableLLM(backend, tracer=tracer, registry=registry)

        first = llm.complete("the same prompt", model="sim-small")
        second = llm.complete("the same prompt", model="sim-small")
        assert not first.cached
        assert second.cached

        summary = tracker.summary()
        # Before the fix the replayed call vanished from the ledger;
        # now it is recorded — tokens counted, dollars zero.
        assert summary.calls == 2
        assert summary.cached_calls == 1
        solo_cost = tracker.records()[0].cost_usd
        assert summary.cost_usd == pytest.approx(solo_cost)

        spans = [s for s in tracer.spans() if s.kind == "llm_request"]
        assert len(spans) == 2
        cached_span = spans[1]
        assert cached_span.attributes["cached"] is True
        assert cached_span.attributes["cost_usd"] == 0.0
        assert cached_span.attributes["saved_usd"] > 0.0
        assert cached_span.attributes["input_tokens"] > 0
        assert registry.counter("llm.cache_hits").value() == 1.0
        assert registry.counter("llm.saved_usd").value() > 0.0


# ----------------------------------------------------------------------
# Scheduler tracing
# ----------------------------------------------------------------------


class TestSchedulerTracing:
    def test_request_spans_link_to_batch_and_parent_to_submitter(self):
        tracer = Tracer()
        registry = MetricsRegistry()
        backend = SimulatedLLM(seed=1)
        llm = ReliableLLM(backend, tracer=tracer, registry=registry)
        scheduler = RequestScheduler(
            client=llm, max_wait_ms=5.0, tracer=tracer, registry=registry
        )
        try:
            with tracer.span("query:s", kind="query") as query:
                futures = [
                    scheduler.submit(
                        f"prompt {i}", model="sim-small", priority=Priority.BULK
                    )
                    for i in range(4)
                ]
                for f in futures:
                    f.result()
        finally:
            scheduler.close()

        request_spans = [
            s
            for s in tracer.trace_spans(query.trace_id)
            if s.kind == "llm_request"
        ]
        assert len(request_spans) == 4
        batch_spans = [s for s in tracer.spans() if s.kind == "batch"]
        assert batch_spans, "dispatch must create batch spans"
        batch_ids = {b.span_id for b in batch_spans}
        for span in request_spans:
            # Parented to the submitting query, linked (not parented) to
            # the batch, costed in tokens and dollars.
            assert span.parent_id == query.span_id
            assert span.attributes["batch_span"] in batch_ids
            assert span.attributes["input_tokens"] > 0
            assert "cost_usd" in span.attributes
            assert span.finished
        for batch in batch_spans:
            assert batch.trace_id != query.trace_id  # own trace by design
            assert batch.parent_id is None

    def test_dedup_waiter_gets_zero_dollar_span(self):
        tracer = Tracer()
        registry = MetricsRegistry()
        backend = SimulatedLLM(seed=2)
        llm = ReliableLLM(backend, tracer=tracer, registry=registry)
        scheduler = RequestScheduler(
            client=llm, max_wait_ms=20.0, tracer=tracer, registry=registry
        )
        try:
            with tracer.span("query:d", kind="query") as query:
                live = open_account(query)
                a = scheduler.submit("same prompt", model="sim-small")
                b = scheduler.submit("same prompt", model="sim-small")
                assert a is b  # one upstream call
                a.result()
                # Both spans are charged before the shared future resolves.
                assert (live.llm_calls, live.dedup_hits) == (2, 1)
        finally:
            scheduler.close()
        spans = [
            s
            for s in tracer.trace_spans(query.trace_id)
            if s.kind == "llm_request"
        ]
        assert len(spans) == 2  # both waiters visible in the trace
        dedup_spans = [s for s in spans if s.attributes.get("dedup")]
        assert len(dedup_spans) == 1
        waiter = dedup_spans[0]
        assert waiter.attributes["dedup"] == "inflight"
        assert waiter.attributes["cost_usd"] == 0.0
        assert waiter.attributes["saved_usd"] > 0.0
        assert waiter.attributes["input_tokens"] > 0
        account = CostAccount.from_spans(tracer.trace_spans(query.trace_id))
        assert account.dedup_hits == 1
        assert account.llm_calls == 2
        assert account.as_dict() == live.as_dict()

    def test_cancelled_requests_finish_spans_with_error(self):
        tracer = Tracer()
        registry = MetricsRegistry()
        scheduler = RequestScheduler(
            client=None,
            max_wait_ms=10_000.0,
            max_batch_size=64,
            tracer=tracer,
            registry=registry,
        )
        # No client bound: queued work is failed on drainless close.
        future = scheduler.submit("never dispatched", model="sim-small")
        scheduler.close(drain=False)
        assert future.exception() is not None
        spans = [s for s in tracer.spans() if s.kind == "llm_request"]
        assert spans and all(s.finished for s in spans)
        assert spans[0].status == "error"


# ----------------------------------------------------------------------
# Executor tracing
# ----------------------------------------------------------------------


class TestExecutorTracing:
    def test_parallel_tasks_parent_to_transform_span(self):
        tracer = Tracer()
        registry = MetricsRegistry()

        def fake_llm_call(x):
            span = tracer.start_span("llm:sim", kind="llm_request")
            span.set_attributes(input_tokens=1, output_tokens=1, cost_usd=0.001)
            tracer.finish(span)
            return x * 2

        plan = Plan.source(lambda: iter(range(12)), name="src").map(
            fake_llm_call, name="call_llm"
        )
        executor = Executor(parallelism=4, tracer=tracer, registry=registry)
        out = executor.take_all(plan)
        assert out == [x * 2 for x in range(12)]

        transform = next(
            s for s in tracer.spans() if s.name == "transform:call_llm"
        )
        llm_spans = [s for s in tracer.spans() if s.kind == "llm_request"]
        assert len(llm_spans) == 12
        # Worker threads inherited the transform span through the copied
        # context — every request is its child, in the same trace.
        assert {s.parent_id for s in llm_spans} == {transform.span_id}
        assert transform.attributes["records_in"] == 12
        assert transform.attributes["records_out"] == 12

        cost = executor.last_stats.cost
        assert cost is not None
        assert cost.llm_calls == 12
        assert cost.cost_usd == pytest.approx(0.012)
        assert set(cost.operators) == {"transform:call_llm"}
        replay = CostAccount.from_spans(tracer.spans())
        assert cost.as_dict() == replay.as_dict()

    def test_serial_matches_parallel_attribution(self):
        def make(tracer):
            def fn(x):
                tracer.finish(
                    tracer.start_span(
                        "llm:s",
                        kind="llm_request",
                        input_tokens=2,
                        output_tokens=1,
                        cost_usd=0.001,
                    )
                )
                return x

            return fn

        accounts = []
        for parallelism in (1, 4):
            tracer = Tracer()
            registry = MetricsRegistry()
            plan = Plan.source(lambda: iter(range(8)), name="src").map(
                make(tracer), name="op"
            )
            executor = Executor(
                parallelism=parallelism, tracer=tracer, registry=registry
            )
            executor.take_all(plan)
            accounts.append(executor.last_stats.cost)
        serial, parallel = accounts
        serial_totals = serial.as_dict()["totals"]
        parallel_totals = parallel.as_dict()["totals"]
        # Wall clock legitimately differs; everything counted must not.
        serial_totals.pop("wall_clock_s")
        parallel_totals.pop("wall_clock_s")
        assert serial_totals == parallel_totals

    def test_untraced_executor_still_works(self):
        # An executor built without ``tracer=`` traces into its own and
        # still books the LLM spend of its plan.
        plan = Plan.source(lambda: iter(range(3)), name="src").map(
            lambda x: x + 1, name="inc"
        )
        executor = Executor(parallelism=2, registry=MetricsRegistry())
        assert executor.take_all(plan) == [1, 2, 3]
        assert executor.last_stats.cost.llm_calls == 0

        tracker = CostTracker()
        llm = ReliableLLM(
            SimulatedLLM(seed=0, tracker=tracker),
            cache_enabled=False,
            registry=MetricsRegistry(),
        )
        plan = Plan.source(lambda: iter(range(4)), name="src").map(
            lambda x: llm.complete(
                f"<<TASK:echo>>\n<<SECTION:text>>\nrecord {x}"
            ).text,
            name="ask",
        )
        assert len(executor.take_all(plan)) == 4
        cost = executor.last_stats.cost
        assert cost.llm_calls == tracker.summary().calls == 4
        assert cost.cost_usd > 0
        assert cost.cost_usd == pytest.approx(tracker.summary().cost_usd)


# ----------------------------------------------------------------------
# End to end: Luna query trace
# ----------------------------------------------------------------------


class TestEndToEndTrace:
    @pytest.fixture(scope="class")
    def traced_query(self):
        from repro.datagen import generate_ntsb_corpus
        from repro.luna.luna import Luna
        from repro.partitioner.partitioner import ArynPartitioner
        from repro.sycamore.context import SycamoreContext

        scheduler = RequestScheduler(max_wait_ms=2.0)
        ctx = SycamoreContext(
            parallelism=3,
            seed=5,
            scheduler=scheduler,
            registry=MetricsRegistry(),
        )
        _, raws = generate_ntsb_corpus(6, seed=5)
        (
            ctx.read.raw(raws)
            .partition(ArynPartitioner(seed=5))
            .extract_properties({"state": "string"}, model="sim-oracle")
            .write.index("ntsb")
        )
        luna = Luna(ctx, planner_model="sim-oracle")
        result = luna.query("How many incidents were there?", "ntsb")
        yield ctx, result
        scheduler.close()

    def test_result_carries_trace_id_and_cost(self, traced_query):
        ctx, result = traced_query
        assert result.trace.trace_id
        assert isinstance(result.trace.cost, CostAccount)
        assert result.trace.cost.trace_id == result.trace.trace_id

    def test_every_request_span_is_costed_and_batch_linked(self, traced_query):
        ctx, result = traced_query
        spans = ctx.tracer.trace_spans(result.trace.trace_id)
        assert spans[0].kind == "query"
        request_spans = [s for s in spans if s.kind == "llm_request"]
        assert request_spans, "a Luna query must issue LLM requests"
        for span in request_spans:
            assert "input_tokens" in span.attributes
            assert "cost_usd" in span.attributes
            assert span.attributes.get("batch_span") or span.attributes.get(
                "dedup"
            )

    def test_tree_renders_whole_hierarchy(self, traced_query):
        ctx, result = traced_query
        tree = render_trace_tree(ctx.tracer.trace_spans(result.trace.trace_id))
        assert "query:luna" in tree
        assert "op[" in tree
        assert "llm:" in tree

    def test_json_export_totals_match_result(self, traced_query, tmp_path):
        ctx, result = traced_query
        spans = ctx.tracer.trace_spans(result.trace.trace_id)
        path = write_trace_json(tmp_path / "luna.json", spans, result.trace.cost)
        doc = json.loads(path.read_text())
        assert doc["cost"]["totals"] == result.trace.cost.as_dict()["totals"]
        # ``trace.cost`` also books the planning run, which is its own trace.
        plan_spans = ctx.tracer.trace_spans(ctx.tracer.last_trace(kind="plan"))
        assert plan_spans[0].name == "plan:luna"
        assert doc["cost"]["totals"]["llm_calls"] == len(
            [s for s in doc["spans"] if s["kind"] == "llm_request"]
        ) + len([s for s in plan_spans if s.kind == "llm_request"])
        # The running account equals the replay of the retained spans,
        # row by row.
        replay = CostAccount.from_spans(spans).merge(
            CostAccount.from_spans(plan_spans)
        )
        assert doc["cost"]["operators"] == replay.as_dict()["operators"]


# ----------------------------------------------------------------------
# Running cost accounts: exact whatever the tracer retains or other
# threads spend
# ----------------------------------------------------------------------


def _figures(result):
    """A result's cost figures, wall clock aside."""
    totals = result.trace.cost.as_dict()["totals"]
    totals.pop("wall_clock_s")
    nodes = [
        (entry.index, entry.llm_calls, entry.llm_cost_usd)
        for entry in result.trace.entries
    ]
    return totals, nodes


class TestRunningCostAccount:
    @pytest.fixture(scope="class")
    def suite_context(self):
        from repro.datagen import generate_ntsb_corpus
        from repro.datagen.questions import build_ntsb_questions
        from repro.partitioner.partitioner import ArynPartitioner
        from repro.sycamore.context import SycamoreContext

        records, raws = generate_ntsb_corpus(8, seed=31)
        ctx = SycamoreContext(parallelism=1, seed=31, registry=MetricsRegistry())
        (
            ctx.read.raw(raws)
            .partition(ArynPartitioner(seed=0))
            .extract_properties(
                {
                    "state": "string",
                    "incident_year": "int",
                    "weather_related": "bool",
                    "injuries_fatal": "int",
                },
                model="sim-oracle",
            )
            .write.index("ntsb")
        )
        # Every repeat of a question must spend exactly what the first
        # run spent, so the response cache is off.
        ctx.llm.cache_enabled = False
        yield ctx, [q.question for q in build_ntsb_questions(records)[:4]]
        ctx.close()

    def test_tiny_span_cap_keeps_every_query_cost_exact(self, suite_context):
        from repro.luna.luna import Luna

        ctx, questions = suite_context
        luna = Luna(ctx, planner_model="sim-oracle")
        uncapped = [_figures(luna.query(q, "ntsb")) for q in questions]
        assert any(totals["cost_usd"] > 0 for totals, _ in uncapped)
        tracer = ctx.tracer
        saved_cap = tracer.max_spans
        tracer.max_spans = 16
        try:
            for question, expected in zip(questions, uncapped):
                result = luna.query(question, "ntsb")
                assert _figures(result) == expected
                # Retention is by recency: the latest query's trace is
                # kept (from its root), older ones are evicted.
                spans = tracer.trace_spans(result.trace.trace_id)
                assert spans and spans[0].name == "query:luna"
            assert tracer.dropped_spans > 0
            assert len(tracer.spans()) <= 16
        finally:
            tracer.max_spans = saved_cap

    def test_prebound_scheduler_books_backend_spend(self):
        # A scheduler handed over with its client already bound keeps its
        # own tracer; the query is still charged every backend dollar,
        # because request spans parent to the submitting operator.
        from repro.datagen import generate_ntsb_corpus
        from repro.luna.luna import Luna
        from repro.partitioner.partitioner import ArynPartitioner
        from repro.sycamore.context import SycamoreContext

        tracker = CostTracker()
        llm = ReliableLLM(
            SimulatedLLM(seed=0, tracker=tracker), registry=MetricsRegistry()
        )
        scheduler = RequestScheduler(client=llm, registry=MetricsRegistry())
        ctx = SycamoreContext(
            llm=llm, scheduler=scheduler, parallelism=2, registry=MetricsRegistry()
        )
        try:
            _, raws = generate_ntsb_corpus(8, seed=3)
            (
                ctx.read.raw(raws)
                .partition(ArynPartitioner(seed=0))
                .extract_properties(
                    {"state": "string", "weather_related": "bool"},
                    model="sim-oracle",
                )
                .write.index("ntsb")
            )
            before = tracker.summary()
            result = Luna(ctx).query(
                "How many incidents were caused by icing?", index="ntsb"
            )
            after = tracker.summary()
        finally:
            scheduler.close()
            ctx.close()
        assert after.calls - before.calls > 1
        assert result.trace.cost.llm_calls == after.calls - before.calls
        assert result.trace.cost.cost_usd == pytest.approx(
            after.cost_usd - before.cost_usd
        )
        # The scheduler's request spans are retained in the query's trace.
        replay = CostAccount.from_spans(ctx.tracer.trace_spans(result.trace.trace_id))
        assert replay.llm_calls == result.trace.total_llm_calls() > 0
        assert replay.cost_usd == pytest.approx(result.trace.total_cost_usd())

    def test_context_adopts_its_llms_tracer(self):
        from repro.sycamore.context import SycamoreContext

        llm = ReliableLLM(SimulatedLLM(seed=0), registry=MetricsRegistry())
        ctx = SycamoreContext(llm=llm, registry=MetricsRegistry())
        assert ctx.llm is llm
        assert ctx.llm.tracer is ctx.tracer
        assert ctx.executor().tracer is ctx.tracer

    def test_other_threads_spend_is_not_charged_to_a_node(
        self, suite_context, monkeypatch
    ):
        from repro.luna.executor import LunaExecutor
        from repro.luna.luna import Luna

        ctx, questions = suite_context
        question = "How many incidents were caused by wind?"
        luna = Luna(ctx, planner_model="sim-oracle")
        alone = _figures(luna.query(question, "ntsb"))
        run_node = LunaExecutor._run_node

        def run_node_beside_other_spend(self, node, inputs, results):
            # Another thread bills the same backend while the node runs.
            other = threading.Thread(
                target=ctx.llm.complete, args=(f"unrelated {node.operation}",)
            )
            other.start()
            other.join()
            return run_node(self, node, inputs, results)

        monkeypatch.setattr(LunaExecutor, "_run_node", run_node_beside_other_spend)
        billed_before = ctx.cost_tracker.summary().calls
        beside = _figures(luna.query(question, "ntsb"))
        # No other thread's spend lands on the query or its nodes ...
        assert beside == alone
        # ... though the backend billed one extra call per node.
        billed = ctx.cost_tracker.summary().calls - billed_before
        assert billed == alone[0]["llm_calls"] + len(alone[1])
