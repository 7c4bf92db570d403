"""Reliability layer over any LLM backend.

Sycamore "handles retries and model-specific details like parsing the
output as JSON" (§5.2). This module is that layer: exponential-backoff
retry (with optional jitter, a per-run retry budget and per-request
timeouts) for transient failures, a circuit breaker that fails fast
during backend brownouts, JSON-mode completion with output repair, a
bounded LRU response cache, an optional rate limiter, and a batch API
used by the execution engine to parallelize per-document LLM transforms.
"""

from __future__ import annotations

import contextvars
import random
import threading
import time
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Dict, List, Optional, Tuple

from ..lifecycle.deadline import check_scope, remaining_budget
from ..observability.metrics import MetricsRegistry, get_registry
from ..observability.tracing import Span, Tracer
from .base import LLMClient, LLMResponse, price_usd
from .cost import CostTracker
from .errors import (
    CircuitOpenError,
    LLMTimeoutError,
    RateLimitError,
    TransientLLMError,
)


class TokenBucket:
    """Token bucket: ``rate`` tokens per second, at most ``burst`` banked.

    Refills lazily on each call (no timer thread); ``burst`` defaults to
    ``rate``. Two ways to take a token:

    * :meth:`acquire` blocks. The lock is held only long enough to
      *reserve* a slot; the sleep happens outside it, so concurrent
      waiters queue up behind the bucket, not behind one sleeping thread.
    * :meth:`try_acquire` never waits: it grants, or refuses and reports
      how long until a token is due (an HTTP ``Retry-After`` hint).

    Thread-safe; clock and sleeper are injectable for deterministic tests.
    """

    def __init__(
        self,
        rate: float,
        burst: Optional[float] = None,
        clock: Callable[[], float] = time.monotonic,
        sleeper: Callable[[float], None] = time.sleep,
    ):
        burst = rate if burst is None else burst
        if rate <= 0 or burst <= 0:
            raise ValueError("rate and burst must be > 0")
        self.rate = rate
        self.burst = burst
        self._clock = clock
        self._sleeper = sleeper
        self._lock = threading.Lock()
        self._tokens = burst
        self._last = clock()

    def _refill_locked(self) -> float:
        now = self._clock()
        self._tokens = min(self.burst, self._tokens + (now - self._last) * self.rate)
        self._last = now
        return now

    def try_acquire(self, n: float = 1.0) -> Tuple[bool, float]:
        """(granted, retry_after_s). ``retry_after_s`` is 0 on grant."""
        with self._lock:
            self._refill_locked()
            if self._tokens >= n:
                self._tokens -= n
                return True, 0.0
            return False, (n - self._tokens) / self.rate

    def acquire(self) -> None:
        """Block (via the sleeper) until a token is available."""
        with self._lock:
            now = self._refill_locked()
            if self._tokens >= 1.0:
                self._tokens -= 1.0
                return
            # Reserve the next slot: count the tokens that will have
            # accrued by the end of the wait, then sleep WITHOUT the lock
            # so other threads can reserve after us.
            wait = (1.0 - self._tokens) / self.rate
            self._tokens = 0.0
            self._last = now + wait
        self._sleeper(wait)


class CircuitBreaker:
    """Failure-rate circuit breaker: closed → open → half-open → closed.

    *Closed*: requests flow; ``failure_threshold`` consecutive failures
    trip the breaker. *Open*: requests are rejected instantly (no backend
    call, no backoff) until ``recovery_time_s`` has elapsed. *Half-open*:
    one probe request is let through; success closes the breaker, failure
    re-opens it for another recovery window.

    Thread-safe; the clock is injectable for deterministic tests.
    """

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half_open"

    def __init__(
        self,
        failure_threshold: int = 5,
        recovery_time_s: float = 30.0,
        clock: Callable[[], float] = time.monotonic,
    ):
        if failure_threshold < 1:
            raise ValueError("failure_threshold must be >= 1")
        self.failure_threshold = failure_threshold
        self.recovery_time_s = recovery_time_s
        self._clock = clock
        self._lock = threading.Lock()
        self.state = self.CLOSED
        self._consecutive_failures = 0
        self._opened_at = 0.0
        self._probe_in_flight = False
        # Counters surfaced for observability.
        self.times_opened = 0
        self.rejections = 0

    def allow(self) -> bool:
        """Whether a request may proceed right now (claims the half-open
        probe slot when applicable)."""
        with self._lock:
            if self.state == self.OPEN:
                if self._clock() - self._opened_at >= self.recovery_time_s:
                    self.state = self.HALF_OPEN
                    self._probe_in_flight = False
                else:
                    self.rejections += 1
                    return False
            if self.state == self.HALF_OPEN:
                if self._probe_in_flight:
                    self.rejections += 1
                    return False
                self._probe_in_flight = True
            return True

    def record_success(self) -> None:
        """Note a successful backend call."""
        with self._lock:
            self.state = self.CLOSED
            self._consecutive_failures = 0
            self._probe_in_flight = False

    def record_failure(self) -> None:
        """Note a failed backend call; may trip the breaker."""
        with self._lock:
            if self.state == self.HALF_OPEN:
                self._trip()
                return
            self._consecutive_failures += 1
            if (
                self.state == self.CLOSED
                and self._consecutive_failures >= self.failure_threshold
            ):
                self._trip()

    def _trip(self) -> None:
        self.state = self.OPEN
        self._opened_at = self._clock()
        self._consecutive_failures = 0
        self._probe_in_flight = False
        self.times_opened += 1


class ReliableLLM(LLMClient):
    """Retry + circuit-breaker + cache + JSON-mode wrapper around a backend.

    All LLM-powered transforms talk to the backend through this class so
    that retries, caching and throttling behave uniformly.

    Parameters
    ----------
    max_retries:
        Retries per request for transient failures.
    backoff_base_s / backoff_jitter:
        Exponential backoff base and jitter fraction in [0, 1]: each sleep
        is scaled by ``1 - jitter*u`` with ``u`` drawn from a seeded RNG,
        decorrelating concurrent retriers. Default 0 (deterministic).
    retry_budget:
        Optional cap on *total* retries across the life of this client —
        a run-level budget so a brownout cannot multiply per-request
        retries across thousands of documents. When exhausted, transient
        failures are raised immediately.
    request_timeout_s:
        Optional per-request deadline. A backend call whose wall-clock
        duration exceeds it raises :class:`LLMTimeoutError` (retryable).
    total_timeout_s:
        Optional *overall* wall-clock budget for one logical request
        across **all** attempts and backoff sleeps. Without it, the
        worst case is ``attempts × (request_timeout_s + backoff)`` —
        per-attempt timeouts silently compound. With it, backoff sleeps
        are clamped to the remaining budget and a request whose budget
        is exhausted raises :class:`LLMTimeoutError` instead of starting
        another attempt (counted separately as ``overall_timeouts``).
    circuit_breaker:
        Optional :class:`CircuitBreaker`. Consecutive backend failures
        open it; while open, calls fail fast with
        :class:`CircuitOpenError` instead of burning retries.
    cache_max_entries:
        LRU bound on the response cache (default 4096 entries).
    batch_pool_workers:
        Size of the long-lived thread pool shared by every parallel
        :meth:`complete_many` call (one pool per client, not per batch).
    tracker:
        Optional :class:`~repro.llm.cost.CostTracker`. Cache hits are
        recorded into it (``cached=True`` — zero dollars, full tokens)
        so per-query accounting stays conservative; real backend calls
        are recorded by the backend itself. Defaults to the backend's
        own ``tracker`` attribute when it has one.
    rate_limiter:
        Optional :class:`TokenBucket` every backend attempt takes a
        token from; None means no throttling.
    tracer:
        The :class:`~repro.observability.Tracer` that records one
        ``llm_request`` span per ``complete`` call, carrying model,
        token, dollar and retry attributes (default: a private one).
    registry:
        :class:`~repro.observability.MetricsRegistry` to publish
        reliability counters into (default: the process registry).
    """

    def __init__(
        self,
        backend: LLMClient,
        max_retries: int = 4,
        backoff_base_s: float = 0.05,
        backoff_jitter: float = 0.0,
        cache_enabled: bool = True,
        cache_max_entries: int = 4096,
        rate_limiter: Optional[TokenBucket] = None,
        retry_budget: Optional[int] = None,
        request_timeout_s: Optional[float] = None,
        total_timeout_s: Optional[float] = None,
        circuit_breaker: Optional[CircuitBreaker] = None,
        sleeper: Callable[[float], None] = time.sleep,
        clock: Callable[[], float] = time.monotonic,
        jitter_seed: int = 0,
        batch_pool_workers: int = 16,
        tracker: Optional[CostTracker] = None,
        tracer: Optional[Tracer] = None,
        registry: Optional[MetricsRegistry] = None,
    ):
        if batch_pool_workers < 1:
            raise ValueError("batch_pool_workers must be >= 1")
        if not 0.0 <= backoff_jitter <= 1.0:
            raise ValueError("backoff_jitter must be in [0, 1]")
        if cache_max_entries < 1:
            raise ValueError("cache_max_entries must be >= 1")
        self.backend = backend
        self.max_retries = max_retries
        self.backoff_base_s = backoff_base_s
        self.backoff_jitter = backoff_jitter
        self.cache_enabled = cache_enabled
        self.cache_max_entries = cache_max_entries
        self.rate_limiter = rate_limiter
        self.retry_budget = retry_budget
        self.request_timeout_s = request_timeout_s
        self.total_timeout_s = total_timeout_s
        self.circuit_breaker = circuit_breaker
        self._sleeper = sleeper
        self._clock = clock
        self._jitter_rng = random.Random(jitter_seed)
        self._cache: "OrderedDict[Tuple[str, str, Optional[int]], LLMResponse]" = (
            OrderedDict()
        )
        self._cache_lock = threading.Lock()
        self._counter_lock = threading.Lock()
        self.batch_pool_workers = batch_pool_workers
        self._pool: Optional[ThreadPoolExecutor] = None
        self._pool_lock = threading.Lock()
        self.retries_performed = 0
        self.cache_hits = 0
        self.cache_misses = 0
        self.cache_evictions = 0
        self.timeouts = 0
        self.overall_timeouts = 0
        self.budget_exhaustions = 0
        self.tracker = tracker if tracker is not None else getattr(
            backend, "tracker", None
        )
        self.tracer = tracer if tracer is not None else Tracer()
        self.registry = registry if registry is not None else get_registry()
        reg = self.registry
        self._m_requests = reg.counter("llm.requests")
        self._m_retries = reg.counter("llm.retries")
        self._m_cache_hits = reg.counter("llm.cache_hits")
        self._m_cache_misses = reg.counter("llm.cache_misses")
        self._m_cache_evictions = reg.counter("llm.cache_evictions")
        self._m_timeouts = reg.counter("llm.timeouts")
        self._m_overall_timeouts = reg.counter("llm.overall_timeouts")
        self._m_budget_exhaustions = reg.counter("llm.budget_exhaustions")
        self._m_circuit_rejections = reg.counter("llm.circuit_rejections")
        self._m_input_tokens = reg.counter("llm.input_tokens")
        self._m_output_tokens = reg.counter("llm.output_tokens")
        self._m_cost_usd = reg.counter("llm.cost_usd")
        self._m_saved_usd = reg.counter("llm.saved_usd")
        self._m_latency = reg.histogram("llm.virtual_latency_s")

    def metrics(self) -> Dict[str, int]:
        """Reliability counters (retries, cache traffic, breaker state)."""
        with self._counter_lock:
            counters = {
                "retries_performed": self.retries_performed,
                "cache_hits": self.cache_hits,
                "cache_misses": self.cache_misses,
                "cache_evictions": self.cache_evictions,
                "timeouts": self.timeouts,
                "overall_timeouts": self.overall_timeouts,
                "budget_exhaustions": self.budget_exhaustions,
            }
        counters["cache_size"] = self.cache_size()
        if self.circuit_breaker is not None:
            counters["circuit_rejections"] = self.circuit_breaker.rejections
            counters["circuit_times_opened"] = self.circuit_breaker.times_opened
        return counters

    def complete(
        self,
        prompt: str,
        model: str = "sim-large",
        max_output_tokens: Optional[int] = None,
        temperature: float = 0.0,
    ) -> LLMResponse:
        """Generate a completion for the prompt (see LLMClient)."""
        with self.tracer.span(
            f"llm:{model}", kind="llm_request", model=model
        ) as span:
            return self._complete(prompt, model, max_output_tokens, temperature, span)

    def _complete(
        self,
        prompt: str,
        model: str,
        max_output_tokens: Optional[int],
        temperature: float,
        span: Span,
    ) -> LLMResponse:
        key = (model, prompt, max_output_tokens)
        cacheable = self.cache_enabled and temperature == 0.0
        if cacheable:
            with self._cache_lock:
                hit = self._cache.get(key)
                if hit is not None:
                    self._cache.move_to_end(key)
            with self._counter_lock:
                if hit is not None:
                    self.cache_hits += 1
                else:
                    self.cache_misses += 1
            if hit is not None:
                self._m_cache_hits.inc()
                replay = LLMResponse(
                    text=hit.text,
                    model=hit.model,
                    usage=hit.usage,
                    latency_s=0.0,
                    cached=True,
                )
                # A cache hit is still a request the query paid tokens
                # for: record it (at zero simulated dollars) so per-query
                # accounting is conservative and savings are reportable.
                if self.tracker is not None:
                    self.tracker.record(
                        replay.model, replay.usage, 0.0, cached=True
                    )
                self._account(span, replay, retries=0)
                return replay
            self._m_cache_misses.inc()

        last_error: Optional[Exception] = None
        retries_used = 0
        overall_started = self._clock()
        for attempt in range(self.max_retries + 1):
            # Cooperative lifecycle checkpoint: a cancelled or expired
            # query stops retrying here with its typed error instead of
            # burning the remaining attempts.
            check_scope()
            if attempt > 0:
                self._check_overall(overall_started, last_error)
            if self.rate_limiter is not None:
                self.rate_limiter.acquire()
            if self.circuit_breaker is not None and not self.circuit_breaker.allow():
                self._m_circuit_rejections.inc()
                raise CircuitOpenError(
                    "circuit breaker is open; request rejected without retry"
                ) from last_error
            started = self._clock()
            try:
                response = self.backend.complete(
                    prompt,
                    model=model,
                    max_output_tokens=max_output_tokens,
                    temperature=temperature,
                )
                self._enforce_timeout(started)
            except RateLimitError as exc:
                last_error = exc
                self._note_failure()
                self._spend_retry(exc)
                retries_used += 1
                self._sleep_backoff(
                    max(exc.retry_after_s, self._backoff(attempt)), overall_started
                )
            except TransientLLMError as exc:
                last_error = exc
                self._note_failure()
                self._spend_retry(exc)
                retries_used += 1
                self._sleep_backoff(self._backoff(attempt), overall_started)
            else:
                if self.circuit_breaker is not None:
                    self.circuit_breaker.record_success()
                break
        else:
            raise TransientLLMError(
                f"giving up after {self.max_retries + 1} attempts"
            ) from last_error

        if cacheable:
            evicted = 0
            with self._cache_lock:
                self._cache[key] = response
                self._cache.move_to_end(key)
                while len(self._cache) > self.cache_max_entries:
                    self._cache.popitem(last=False)
                    evicted += 1
            if evicted:
                # Counters have their own lock; updating them after the
                # cache lock is released avoids nested lock acquisition.
                with self._counter_lock:
                    self.cache_evictions += evicted
                self._m_cache_evictions.inc(evicted)
        self._account(span, response, retries=retries_used)
        return response

    def _account(self, span: Span, response: LLMResponse, retries: int) -> None:
        """Publish one served response into the registry and its span."""
        usage = response.usage
        full_cost = price_usd(response.model, usage)
        cost = 0.0 if response.cached else full_cost
        saved = full_cost if response.cached else 0.0
        self._m_requests.inc()
        self._m_input_tokens.inc(usage.input_tokens)
        self._m_output_tokens.inc(usage.output_tokens)
        self._m_cost_usd.inc(cost)
        if saved:
            self._m_saved_usd.inc(saved)
        self._m_latency.observe(response.latency_s)
        span.set_attributes(
            input_tokens=usage.input_tokens,
            output_tokens=usage.output_tokens,
            cost_usd=cost,
            saved_usd=saved,
            cached=response.cached,
            retries=retries,
        )

    def complete_many(
        self,
        prompts: List[str],
        model: str = "sim-large",
        max_output_tokens: Optional[int] = None,
        parallelism: int = 8,
        return_exceptions: bool = False,
    ) -> "List[LLMResponse | Exception]":
        """Batch completion preserving input order.

        Duplicate prompts within the batch are collapsed into one
        upstream call whose response is fanned back out to every
        position. Parallel batches share one long-lived thread pool
        (sized by ``batch_pool_workers``) instead of constructing and
        tearing down an executor per call; ``parallelism <= 1`` keeps the
        fully sequential path. With ``return_exceptions`` a failed
        completion occupies its slot as the exception instance instead of
        aborting the whole batch.
        """
        if not prompts:
            return []

        def one(prompt: str) -> "LLMResponse | Exception":
            try:
                return self.complete(
                    prompt, model=model, max_output_tokens=max_output_tokens
                )
            except Exception as exc:  # noqa: BLE001 - isolate per prompt
                if return_exceptions:
                    return exc
                raise

        unique: List[str] = []
        slot_of: Dict[str, int] = {}
        for prompt in prompts:
            if prompt not in slot_of:
                slot_of[prompt] = len(unique)
                unique.append(prompt)
        if parallelism <= 1 or len(unique) == 1:
            unique_results = [one(prompt) for prompt in unique]
        else:
            # Carry the caller's contextvars (the ambient trace span)
            # into the pool — one Context copy per task, because a single
            # Context cannot be entered concurrently.
            pool = self._batch_pool()
            futures = [
                pool.submit(contextvars.copy_context().run, one, prompt)
                for prompt in unique
            ]
            unique_results = [future.result() for future in futures]
        return [unique_results[slot_of[prompt]] for prompt in prompts]

    def _batch_pool(self) -> ThreadPoolExecutor:
        """The shared executor behind parallel ``complete_many`` calls."""
        with self._pool_lock:
            if self._pool is None:
                self._pool = ThreadPoolExecutor(
                    max_workers=self.batch_pool_workers,
                    thread_name_prefix="repro-llm-batch",
                )
            return self._pool

    def close(self) -> None:
        """Release the shared batch pool (idempotent)."""
        with self._pool_lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True)

    def cache_size(self) -> int:
        """Number of cached responses."""
        with self._cache_lock:
            return len(self._cache)

    def clear_cache(self) -> None:
        """Drop all cached responses."""
        with self._cache_lock:
            self._cache.clear()

    # ------------------------------------------------------------------

    def _enforce_timeout(self, started: float) -> None:
        if self.request_timeout_s is None:
            return
        elapsed = self._clock() - started
        if elapsed > self.request_timeout_s:
            with self._counter_lock:
                self.timeouts += 1
            self._m_timeouts.inc()
            raise LLMTimeoutError(
                f"request took {elapsed:.3f}s (deadline {self.request_timeout_s}s)",
                timeout_s=self.request_timeout_s,
            )

    def _overall_remaining(self, overall_started: float) -> Optional[float]:
        """Wall-clock budget left for this logical request (all attempts)."""
        if self.total_timeout_s is None:
            return None
        return self.total_timeout_s - (self._clock() - overall_started)

    def _check_overall(
        self, overall_started: float, cause: Optional[Exception]
    ) -> None:
        """Refuse to start another attempt past the overall budget."""
        remaining = self._overall_remaining(overall_started)
        if remaining is not None and remaining <= 0:
            with self._counter_lock:
                self.overall_timeouts += 1
            self._m_overall_timeouts.inc()
            elapsed = self._clock() - overall_started
            raise LLMTimeoutError(
                f"overall budget of {self.total_timeout_s}s exhausted "
                f"({elapsed:.3f}s across attempts)",
                timeout_s=float(self.total_timeout_s or 0.0),
            ) from cause

    def _sleep_backoff(self, delay: float, overall_started: float) -> None:
        """Backoff clamped so sleeps never outlive the overall budget or
        the ambient query deadline (the compounding-timeout fix)."""
        remaining = self._overall_remaining(overall_started)
        if remaining is not None:
            delay = min(delay, max(remaining, 0.0))
        budget = remaining_budget()
        if budget is not None:
            delay = min(delay, budget)
        if delay > 0:
            self._sleeper(delay)

    def _note_failure(self) -> None:
        if self.circuit_breaker is not None:
            self.circuit_breaker.record_failure()

    def _spend_retry(self, cause: Exception) -> None:
        """Charge one retry against the run budget, or give up."""
        with self._counter_lock:
            if (
                self.retry_budget is not None
                and self.retries_performed >= self.retry_budget
            ):
                self.budget_exhaustions += 1
                self._m_budget_exhaustions.inc()
                raise TransientLLMError(
                    f"retry budget of {self.retry_budget} exhausted"
                ) from cause
            self.retries_performed += 1
        self._m_retries.inc()

    def forget(
        self, model: str, prompt: str, max_output_tokens: Optional[int]
    ) -> None:
        """Drop the cached response to this request, if any."""
        with self._cache_lock:
            self._cache.pop((model, prompt, max_output_tokens), None)

    def _backoff(self, attempt: int) -> float:
        delay = self.backoff_base_s * (2**attempt)
        if self.backoff_jitter > 0.0:
            with self._counter_lock:
                u = self._jitter_rng.random()
            delay *= 1.0 - self.backoff_jitter * u
        return delay
