"""repro.observability — unified tracing, metrics and cost accounting.

The paper's explainability tenet ("users must be able to inspect what
the system did and what it cost") and the ROADMAP's production north
star both demand one telemetry surface. This package provides it:

* :class:`Tracer` / :class:`Span` — hierarchical query traces
  (query → plan → operator → transform → llm_request) with stable ids,
  propagated across thread pools via :mod:`contextvars` and *linked*
  (not reparented) across the request scheduler's batches.
* :class:`MetricsRegistry` — process-wide counters, gauges and
  histograms (with percentile snapshots) that the LLM reliability
  layer, the request scheduler, the execution engine, the partitioner
  and the fault injector all publish into. Their legacy ``metrics()``
  methods remain as per-instance compatibility shims.
* :class:`CostAccount` — a per-query ledger of simulated tokens,
  dollars, retries and cache/dedup savings per operator, attached to
  ``LunaResult.trace`` and charged as each request span finishes.
* Exporters — JSON trace documents and the ``python -m repro trace``
  tree renderer.

Invariants
----------
* **Span propagation**: the current span is carried in a shared
  ``ContextVar``; thread pools must submit tasks through
  ``contextvars.copy_context().run`` (one copy per task). The scheduler
  links member request spans to their batch span by attribute, never by
  parentage, because one batch serves many queries.
* **Conservative cost accounting**: cache hits and dedup-shared
  requests count their tokens at zero simulated dollars, so token
  totals never understate work and ``saved_usd`` is reportable.
* **Aggregate metrics**: registry instruments are shared across
  component instances (Prometheus semantics); per-instance numbers stay
  on the instances.
"""

from .cost import CostAccount, OperatorCost
from .export import (
    TRACE_EXPORT_VERSION,
    render_trace_tree,
    trace_to_dict,
    write_trace_json,
)
from .metrics import Counter, Gauge, Histogram, MetricsRegistry, get_registry
from .tracing import Span, Tracer

__all__ = [
    "CostAccount",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "OperatorCost",
    "Span",
    "TRACE_EXPORT_VERSION",
    "Tracer",
    "get_registry",
    "render_trace_tree",
    "trace_to_dict",
    "write_trace_json",
]
