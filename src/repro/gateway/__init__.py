"""repro.gateway — the HTTP/JSON network front end.

Promotes :class:`~repro.serving.QueryService` from an in-process library
to a real server: a stdlib ``ThreadingHTTPServer`` behind a composable
middleware stack (request ids, bearer auth, per-tenant token-bucket rate
limiting, structured access logs), query routes with chunked/SSE
progress streaming, and an ``/ops`` surface exposing metrics, traces,
per-tenant cost ledgers, and scheduler/cluster/optimizer stats. See
:mod:`repro.gateway.server` for the route table and docs/GATEWAY.md for
the wire contract.
"""

from .client import GatewayClient, GatewayError, StreamHandle
from .middleware import (
    AccessLogMiddleware,
    AccessRecord,
    BearerAuthMiddleware,
    Middleware,
    RateLimitMiddleware,
    RequestContext,
    RequestIdMiddleware,
    Response,
)
from ..llm.client import TokenBucket
from .server import Gateway, GatewayConfig, error_response, format_sse

__all__ = [
    "AccessLogMiddleware",
    "AccessRecord",
    "BearerAuthMiddleware",
    "Gateway",
    "GatewayClient",
    "GatewayConfig",
    "GatewayError",
    "Middleware",
    "RateLimitMiddleware",
    "RequestContext",
    "RequestIdMiddleware",
    "Response",
    "StreamHandle",
    "TokenBucket",
    "error_response",
    "format_sse",
]
