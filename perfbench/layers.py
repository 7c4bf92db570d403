"""Per-layer tracing from outside the program.

The traced run wraps the public entry points of each layer at class (or
module) level. Every wrapper records a span -- layer, entry-point name,
start, end, parent (a per-thread stack) and the thread's current request
id -- plus counts at the same boundary. Spans stay in memory until the
run ends. A layer's self time is its spans' durations minus the parts
covered by child spans on the same thread; work a span hands to another
thread (a pool, the scheduler's dispatcher) stays in the parent's self
time as waiting, and the other thread's spans are roots there.

``uninstall`` puts every original object back; the benchmark's tests
check that it does.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import sys
import threading
import time
from collections import Counter, defaultdict, deque
from typing import Any, Callable, Dict, Iterable, List, NamedTuple, Optional, Tuple

#: The repo's layers, in the order reports list them.
LAYERS = (
    "partitioner",
    "docmodel",
    "sycamore",
    "execution",
    "embedding",
    "indexes",
    "llm",
    "runtime",
    "luna",
    "optimizer",
    "serving",
    "gateway",
    "observability",
)


class Span(NamedTuple):
    """One timed call of a wrapped entry point."""

    sid: int
    layer: str
    name: str
    start: float
    end: float
    parent: int  # 0 = no parent on this thread
    thread: int
    request: str


def _union_length(intervals: List[Tuple[float, float]]) -> float:
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: Iterable[Span]) -> Dict[int, float]:
    """Span id -> duration minus the part covered by same-thread children.

    Children are clipped to their parent's interval and overlapping
    children are counted once; a child recorded on another thread covers
    nothing, because the parent's thread was free to run (or wait)
    meanwhile.
    """
    spans = list(spans)
    by_id = {span.sid: span for span in spans}
    covered: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    for span in spans:
        parent = by_id.get(span.parent)
        if parent is not None and parent.thread == span.thread:
            covered[parent.sid].append(
                (max(span.start, parent.start), min(span.end, parent.end))
            )
    return {
        span.sid: max(0.0, (span.end - span.start) - _union_length(covered[span.sid]))
        for span in spans
    }


class Recorder:
    """In-memory span and count sink for one traced run."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: List[Span] = []
        self.counts: Counter = Counter()
        self.samples: Dict[str, List[float]] = defaultdict(list)
        #: Request id -> seconds from QueryService.submit to its result.
        self.service_s: Dict[str, float] = {}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._selfs: Optional[Dict[int, float]] = None

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def set_request(self, request_id: str) -> None:
        """Tag spans begun on this thread from now on."""
        self._local.request = request_id

    def begin(self) -> Tuple[int, int, float]:
        stack = self._stack()
        sid = next(self._ids)
        parent = stack[-1] if stack else 0
        stack.append(sid)
        return sid, parent, self.clock()

    def end(self, layer: str, name: str, frame: Tuple[int, int, float]) -> None:
        end = self.clock()
        sid, parent, start = frame
        stack = self._stack()
        if stack and stack[-1] == sid:
            stack.pop()
        self.spans.append(
            Span(sid, layer, name, start, end, parent, threading.get_ident(),
                 getattr(self._local, "request", ""))
        )

    def count(self, key: str, amount: float = 1) -> None:
        with self._lock:
            self.counts[key] += amount

    # -- summaries (after the run) ---------------------------------------

    def _self_times(self) -> Dict[int, float]:
        if self._selfs is None or len(self._selfs) != len(self.spans):
            self._selfs = self_times(self.spans)
        return self._selfs

    def layer_self_ms(self) -> Dict[str, float]:
        """Layer -> total self time in ms, every layer present."""
        selfs = self._self_times()
        totals = {layer: 0.0 for layer in LAYERS}
        for span in self.spans:
            totals[span.layer] += selfs[span.sid] * 1000.0
        return totals

    def name_ms(self, layer: str, names: Iterable[str], inclusive: bool = False) -> float:
        """Total time of the named entry points of one layer, in ms.

        ``inclusive`` counts whole outermost spans of those names (their
        nested calls of the same names are not counted twice); otherwise
        self time.
        """
        wanted = set(names)
        if not inclusive:
            selfs = self._self_times()
            return sum(
                selfs[s.sid] for s in self.spans if s.layer == layer and s.name in wanted
            ) * 1000.0
        by_id = {s.sid: s for s in self.spans}
        total = 0.0
        for span in self.spans:
            if span.layer != layer or span.name not in wanted:
                continue
            parent = by_id.get(span.parent)
            if parent is not None and parent.layer == layer and parent.name in wanted:
                continue
            total += span.end - span.start
        return total * 1000.0

    def to_json_lines(self) -> Iterable[str]:
        import json

        for span in self.spans:
            yield json.dumps(span._asdict())


# ----------------------------------------------------------------------
# Wrapping
# ----------------------------------------------------------------------


class _Patch(NamedTuple):
    owner: Any
    attr: str
    original: Any


def _timed(recorder: Recorder, layer: str, name: str, fn: Callable,
           after: Optional[Callable] = None) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        frame = recorder.begin()
        try:
            result = fn(*args, **kwargs)
        finally:
            recorder.end(layer, name, frame)
        if after is not None:
            after(args, kwargs, result)
        return result

    return wrapper


def _timed_iter(recorder: Recorder, layer: str, name: str, iterator: Iterable) -> Iterable:
    """Time each resumption of a lazily evaluated iterator as one span."""
    iterator = iter(iterator)
    try:
        while True:
            frame = recorder.begin()
            try:
                item = next(iterator)
            except StopIteration:
                return
            finally:
                recorder.end(layer, name, frame)
            yield item
    finally:
        close = getattr(iterator, "close", None)
        if close is not None:
            close()


class Instrumentation:
    """Installs the traced run's wrappers; ``uninstall`` restores them."""

    def __init__(self, recorder: Recorder):
        self.recorder = recorder
        self.patches: List[_Patch] = []
        self._pending_submits: Dict[Tuple[str, str], deque] = defaultdict(deque)
        self._pending_lock = threading.Lock()

    # -- generic patch helpers -----------------------------------------

    def _patch(self, owner: Any, attr: str, make: Callable[[Callable], Callable]) -> None:
        original = owner.__dict__[attr]
        if isinstance(original, classmethod):
            replacement: Any = classmethod(make(original.__func__))
        elif isinstance(original, staticmethod):
            replacement = staticmethod(make(original.__func__))
        else:
            replacement = make(original)
        self.patches.append(_Patch(owner, attr, original))
        setattr(owner, attr, replacement)

    def method(self, layer: str, owner: type, attr: str,
               after: Optional[Callable] = None, name: Optional[str] = None) -> None:
        self._patch(owner, attr,
                    lambda fn: _timed(self.recorder, layer, name or attr, fn, after))

    def function(self, layer: str, module: Any, attr: str,
                 make: Optional[Callable[[Callable], Callable]] = None) -> None:
        """Wrap a module function in every repro module that bound it."""
        original = module.__dict__[attr]
        make = make or (lambda fn: _timed(self.recorder, layer, attr, fn))
        replacement = make(original)
        for mod in list(sys.modules.values()):
            if getattr(mod, "__name__", "").startswith("repro") and \
                    mod.__dict__.get(attr) is original:
                self.patches.append(_Patch(mod, attr, original))
                setattr(mod, attr, replacement)

    def uninstall(self) -> None:
        for patch in reversed(self.patches):
            setattr(patch.owner, patch.attr, patch.original)
        self.patches.clear()

    # -- the layer table ------------------------------------------------

    def install(self) -> "Instrumentation":
        from repro.docmodel.bbox import BoundingBox
        from repro.docmodel.document import Document
        from repro.embedding.embedder import HashingEmbedder
        from repro.execution.executor import Executor
        from repro.gateway.server import Gateway
        from repro.indexes.catalog import IndexCatalog, NamedIndex
        from repro.llm.client import ReliableLLM
        from repro.llm.cost import CostTracker
        from repro.llm.simulated import SimulatedLLM
        from repro.luna.executor import LunaExecutor
        from repro.luna.luna import Luna
        from repro.luna.planner import LunaPlanner
        from repro.observability.cost import CostAccount
        from repro.observability.tracing import Tracer
        from repro.optimizer import CostBasedOptimizer
        from repro.partitioner import ArynPartitioner
        from repro.runtime import RequestScheduler
        from repro.runtime.client import ScheduledLLM
        from repro.serving.cache import SingleFlightCache
        from repro.serving.service import QueryService, QueryTicket
        from repro.sycamore import llm_transforms

        rec = self.recorder

        self.method("partitioner", ArynPartitioner, "partition",
                    lambda a, k, r: rec.count("partitioner.elements", len(r.elements)))

        # Hundreds of thousands of calls per ingest: counted, not spanned;
        # their time stays in the calling partitioner span.
        def count_intersection(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                rec.count("docmodel.bbox_intersections")
                return fn(*args, **kwargs)

            return wrapper

        self._patch(BoundingBox, "intersection", count_intersection)
        self.method("docmodel", Document, "text_representation",
                    lambda a, k, r: rec.count("docmodel.render_calls"))

        def transform_factory(fn):
            @functools.wraps(fn)
            def factory(*args, **kwargs):
                return _timed(rec, "sycamore", fn.__name__, fn(*args, **kwargs))

            return factory

        for attr in sorted(llm_transforms.__dict__):
            if attr.startswith("make_") and attr.endswith("_fn"):
                self.function("sycamore", llm_transforms, attr, transform_factory)
        self.function("sycamore", llm_transforms, "summarize_collection")

        def after_take_all(args, kwargs, result):
            stats = args[0].last_stats
            if stats is not None:
                rec.count("execution.dead_letters", len(stats.dead_letters))

        self._patch(Executor, "execute", lambda fn: functools.wraps(fn)(
            lambda *a, **k: _timed_iter(rec, "execution", "execute", fn(*a, **k))))
        self.method("execution", Executor, "take_all", after_take_all)
        self.method("execution", Executor, "count")

        self.method("embedding", HashingEmbedder, "embed",
                    lambda a, k, r: rec.count("embedding.texts"))
        self.method("embedding", HashingEmbedder, "embed_many")

        self.method("indexes", NamedIndex, "add_document",
                    lambda a, k, r: rec.count("indexes.chunks_written"))
        self.method("indexes", NamedIndex, "add_documents")
        self.method("indexes", IndexCatalog, "get")
        for attr in ("all_documents", "search_keyword", "search_vector", "search_hybrid"):
            self.method("indexes", NamedIndex, attr)

        def after_backend(args, kwargs, result):
            rec.count("llm.backend_calls")
            rec.count("llm.input_tokens", result.usage.input_tokens)

        self.method("llm", SimulatedLLM, "complete", after_backend, name="backend")
        self.method("llm", ReliableLLM, "complete")
        self._patch(ReliableLLM, "complete_many", self._dispatch_probe)
        self.method("llm", CostTracker, "summary")
        self.method("llm", CostTracker, "records")

        self._patch(RequestScheduler, "submit", self._submit_probe)
        self.method("runtime", RequestScheduler, "complete")
        self.method("runtime", ScheduledLLM, "complete_many")

        self.method("luna", Luna, "query")
        self.method("luna", Luna, "execute_plan")
        self.method("luna", LunaPlanner, "plan")
        self.method("luna", LunaExecutor, "execute")
        self.method("optimizer", CostBasedOptimizer, "optimize_with_report")

        self._patch(QueryService, "submit", self._service_probe)
        self.method("serving", SingleFlightCache, "get_or_compute")
        self.method("serving", QueryTicket, "result")
        self.method("gateway", Gateway, "handle")

        for attr in ("start_span", "finish", "trace_spans"):
            self.method("observability", Tracer, attr)
        self.method("observability", CostAccount, "from_spans")
        return self

    # -- scheduler queue wait: submit time -> dispatch time ------------

    def _submit_probe(self, fn: Callable) -> Callable:
        timed = _timed(self.recorder, "runtime", "submit", fn)

        @functools.wraps(fn)
        def submit(scheduler, prompt, model="sim-large", *args, **kwargs):
            submitted = self.recorder.clock()
            key = (model, prompt)
            with self._pending_lock:
                # An identical request already waiting shares its future.
                deduped = bool(self._pending_submits.get(key))
            future = timed(scheduler, prompt, model, *args, **kwargs)
            if not deduped:
                with self._pending_lock:
                    self._pending_submits[key].append(submitted)
            return future

        return submit

    def _dispatch_probe(self, fn: Callable) -> Callable:
        timed = _timed(self.recorder, "llm", "complete_many", fn)

        @functools.wraps(fn)
        def complete_many(client, prompts, model="sim-large", *args, **kwargs):
            dispatched = self.recorder.clock()
            with self._pending_lock:
                for prompt in prompts:
                    queue = self._pending_submits.get((model, prompt))
                    if queue:
                        self.recorder.samples["runtime.queue_wait_ms"].append(
                            (dispatched - queue.popleft()) * 1000.0
                        )
            return timed(client, prompts, model, *args, **kwargs)

        return complete_many

    # -- gateway: time inside QueryService per request id --------------

    def _service_probe(self, fn: Callable) -> Callable:
        timed = _timed(self.recorder, "serving", "submit", fn)

        @functools.wraps(fn)
        def submit(service, *args, **kwargs):
            started = self.recorder.clock()
            ticket = timed(service, *args, **kwargs)
            request_id = ticket.request_id
            if request_id:
                def done(_future, rec=self.recorder):
                    rec.service_s[request_id] = rec.clock() - started

                ticket.future.add_done_callback(done)
            return ticket

        return submit


@contextlib.contextmanager
def traced(recorder: Optional[Recorder]):
    """Wrap the layer entry points while the block runs (no-op for None)."""
    if recorder is None:
        yield
        return
    instrumentation = Instrumentation(recorder).install()
    try:
        yield
    finally:
        instrumentation.uninstall()
