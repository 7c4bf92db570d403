"""The gateway's composable middleware stack.

Every HTTP request flows through an ordered list of middlewares before
it reaches a route handler, and back through them (in reverse) on the
way out::

    request-id  ->  auth  ->  rate-limit  ->  [route handler]
        ^                                          |
        +---------- access log (after) <-----------+

Each middleware implements :class:`Middleware`: ``before`` may
short-circuit the request by returning a :class:`Response` (a 401 from
auth, a 429 from the rate limiter), and ``after`` observes the final
response (the access logger records every request, including the
short-circuited ones). The stack is plain data — a list on the
:class:`~repro.gateway.server.Gateway` — so tests can compose ad-hoc
stacks and deployments can drop e.g. auth entirely.

The rate limiter here is deliberately *distinct* from the serving
layer's :class:`~repro.serving.session.TenantQuota` admission control:
the token bucket bounds request *rate* at the network edge (requests
per second with a burst allowance, cheap to evaluate before any JSON is
parsed into the service), while the quota bounds *concurrency* inside
the service (queries queued-plus-running). A tenant can be under its
quota yet over its rate, and vice versa.
"""

from __future__ import annotations

import itertools
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from ..llm.client import TokenBucket

__all__ = [
    "AccessLogMiddleware",
    "AccessRecord",
    "BearerAuthMiddleware",
    "Middleware",
    "RateLimitMiddleware",
    "RequestContext",
    "RequestIdMiddleware",
    "Response",
]


@dataclass
class RequestContext:
    """Everything the middlewares and route handlers know about one
    in-flight HTTP request. Middlewares annotate it in place
    (``request_id``, ``tenant``); the route handler adds ``query_id``
    once a query is admitted so the access log can link the two."""

    method: str
    path: str
    #: Decoded query-string parameters (single-valued).
    params: Dict[str, str] = field(default_factory=dict)
    #: Header map, keys lower-cased.
    headers: Dict[str, str] = field(default_factory=dict)
    body: bytes = b""
    remote: str = ""
    request_id: str = ""
    tenant: str = ""
    #: Filled by the query routes after admission (for the access log).
    query_id: str = ""
    started: float = field(default_factory=time.monotonic)

    def json(self) -> Dict[str, Any]:
        """The request body parsed as a JSON object ({} when empty).

        Raises ``ValueError`` on malformed JSON or a non-object payload
        (the server maps that to a 400).
        """
        import json as json_module

        if not self.body:
            return {}
        payload = json_module.loads(self.body.decode("utf-8"))
        if not isinstance(payload, dict):
            raise ValueError("request body must be a JSON object")
        return payload


@dataclass
class Response:
    """What a route handler (or a short-circuiting middleware) returns.

    ``payload`` is serialized as JSON; a ``stream`` (an iterator of raw
    byte frames) switches the connection to chunked/SSE delivery and
    ``payload`` is ignored.
    """

    status: int = 200
    payload: Optional[Dict[str, Any]] = None
    headers: Dict[str, str] = field(default_factory=dict)
    stream: Optional[Any] = None


class Middleware:
    """Base middleware: override ``before`` and/or ``after``."""

    def before(self, ctx: RequestContext) -> Optional[Response]:
        """Runs before the route handler. Returning a Response
        short-circuits the request (later middlewares and the handler
        never run); returning None passes the request on."""
        return None

    def after(self, ctx: RequestContext, response: Response) -> None:
        """Runs after the response is determined (handler or
        short-circuit), in reverse stack order. Must not raise."""


# ----------------------------------------------------------------------
# Request ids
# ----------------------------------------------------------------------


class RequestIdMiddleware(Middleware):
    """Assign every request a correlation id.

    A client-supplied ``X-Request-Id`` header wins (so callers can stitch
    gateway access logs into their own); otherwise a process-unique
    ``req-NNNNNN`` is generated. The id is echoed on the response, logged
    by the access logger, and propagated by the query routes into the
    ``serve:query`` trace span and every progress event — which is what
    makes ``/ops/traces/<query_id>`` reachable from an access-log line
    alone.
    """

    #: Response header the id is echoed on (same name as the request).
    HEADER = "X-Request-Id"

    def __init__(self) -> None:
        self._counter = itertools.count(1)

    def before(self, ctx: RequestContext) -> Optional[Response]:
        supplied = ctx.headers.get("x-request-id", "").strip()
        ctx.request_id = supplied or f"req-{next(self._counter):06d}"
        return None

    def after(self, ctx: RequestContext, response: Response) -> None:
        response.headers.setdefault(self.HEADER, ctx.request_id)


# ----------------------------------------------------------------------
# Bearer-token auth
# ----------------------------------------------------------------------


class BearerAuthMiddleware(Middleware):
    """Map ``Authorization: Bearer <token>`` to a tenant.

    ``tokens`` is the static credential table (token -> tenant name).
    Requests without a valid token are rejected 401; the matched tenant
    is stamped on the context and overrides anything the body claims, so
    one tenant cannot charge another's ledger. ``/ops/*`` routes stay
    open by default (health probes don't carry credentials); pass
    ``protect_ops=True`` to close them too.
    """

    def __init__(self, tokens: Dict[str, str], protect_ops: bool = False):
        self.tokens = dict(tokens)
        self.protect_ops = protect_ops

    def before(self, ctx: RequestContext) -> Optional[Response]:
        if not self.protect_ops and ctx.path.startswith("/ops/"):
            return None
        header = ctx.headers.get("authorization", "")
        scheme, _, token = header.partition(" ")
        tenant = (
            self.tokens.get(token.strip())
            if scheme.lower() == "bearer"
            else None
        )
        if tenant is None:
            return Response(
                status=401,
                payload={
                    "error": "unauthorized",
                    "message": "missing or unknown bearer token",
                },
                headers={"WWW-Authenticate": "Bearer"},
            )
        ctx.tenant = tenant
        return None


# ----------------------------------------------------------------------
# Token-bucket rate limiting
# ----------------------------------------------------------------------


class RateLimitMiddleware(Middleware):
    """Per-tenant token-bucket rate limiting at the network edge.

    One :class:`~repro.llm.client.TokenBucket` per tenant (auto-created
    on first sight), the same bucket that throttles LLM calls. Over-rate
    requests are shed 429 with both a ``Retry-After`` header and a
    machine-precision ``retry_after_s`` in the body — same typed-shed
    shape as the serving layer's :class:`~repro.serving.Overloaded`, so
    clients use one backoff path for both.
    """

    def __init__(
        self,
        rate_per_s: float,
        burst: Optional[float] = None,
        clock: Callable[[], float] = time.monotonic,
    ):
        self.rate_per_s = rate_per_s
        self.burst = burst if burst is not None else max(1.0, rate_per_s)
        self._clock = clock
        self._buckets: Dict[str, TokenBucket] = {}
        self._lock = threading.Lock()
        self.shed = 0

    def _bucket(self, tenant: str) -> TokenBucket:
        with self._lock:
            bucket = self._buckets.get(tenant)
            if bucket is None:
                bucket = TokenBucket(
                    self.rate_per_s, self.burst, clock=self._clock
                )
                self._buckets[tenant] = bucket
            return bucket

    def before(self, ctx: RequestContext) -> Optional[Response]:
        if ctx.path.startswith("/ops/"):
            return None  # the ops surface must stay reachable under load
        tenant = ctx.tenant or "default"
        granted, retry_after = self._bucket(tenant).try_acquire()
        if granted:
            return None
        with self._lock:
            self.shed += 1
        return Response(
            status=429,
            payload={
                "error": "rate_limited",
                "reason": "token_bucket",
                "tenant": tenant,
                "retry_after_s": round(retry_after, 3),
            },
            headers={"Retry-After": str(max(1, int(retry_after + 0.999)))},
        )


# ----------------------------------------------------------------------
# Structured access logging
# ----------------------------------------------------------------------


@dataclass
class AccessRecord:
    """One access-log line, structured. ``render`` is the text form."""

    method: str
    path: str
    status: int
    duration_ms: float
    request_id: str
    tenant: str
    query_id: str
    remote: str

    def render(self) -> str:
        return (
            f"{self.method} {self.path} {self.status} "
            f"{self.duration_ms:.1f}ms "
            f"request_id={self.request_id or '-'} "
            f"tenant={self.tenant or '-'} "
            f"query_id={self.query_id or '-'} "
            f"remote={self.remote or '-'}"
        )

    def as_dict(self) -> Dict[str, Any]:
        return {
            "method": self.method,
            "path": self.path,
            "status": self.status,
            "duration_ms": round(self.duration_ms, 1),
            "request_id": self.request_id,
            "tenant": self.tenant,
            "query_id": self.query_id,
            "remote": self.remote,
        }


class AccessLogMiddleware(Middleware):
    """Record every request (including middleware-shed ones) as an
    :class:`AccessRecord` in a bounded ring buffer, optionally echoing
    the rendered line to a sink (e.g. ``print`` in the CLI)."""

    def __init__(
        self,
        max_records: int = 1024,
        sink: Optional[Callable[[str], None]] = None,
    ):
        self.max_records = max_records
        self.sink = sink
        self._lock = threading.Lock()
        self._records: List[AccessRecord] = []

    def after(self, ctx: RequestContext, response: Response) -> None:
        record = AccessRecord(
            method=ctx.method,
            path=ctx.path,
            status=response.status,
            duration_ms=(time.monotonic() - ctx.started) * 1000.0,
            request_id=ctx.request_id,
            tenant=ctx.tenant,
            query_id=ctx.query_id,
            remote=ctx.remote,
        )
        with self._lock:
            self._records.append(record)
            if len(self._records) > self.max_records:
                del self._records[: -self.max_records]
        if self.sink is not None:
            try:
                self.sink(record.render())
            except Exception:  # noqa: BLE001 - logging must never kill a request
                pass

    def records(self) -> List[AccessRecord]:
        """Snapshot of the retained records (oldest first)."""
        with self._lock:
            return list(self._records)
