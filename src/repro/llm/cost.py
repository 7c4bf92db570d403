"""Cost and virtual-latency accounting across LLM calls.

Luna's optimizer (paper §6.1) "makes trade-offs based on cost vs
efficiency". The :class:`CostTracker` is the ledger those trade-offs are
measured against: every call is recorded with its model, token usage,
dollar cost and virtual latency, and benches report the aggregates.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from .base import Usage, price_usd


@dataclass
class CallRecord:
    """One completion call as seen by the ledger."""

    model: str
    input_tokens: int
    output_tokens: int
    cost_usd: float
    latency_s: float
    cached: bool = False


@dataclass
class CostSummary:
    """Aggregate view over a set of call records."""

    calls: int = 0
    cached_calls: int = 0
    input_tokens: int = 0
    output_tokens: int = 0
    cost_usd: float = 0.0
    latency_s: float = 0.0

    @property
    def total_tokens(self) -> int:
        """Input plus output tokens."""
        return self.input_tokens + self.output_tokens


class CostTracker:
    """Thread-safe billing ledger of a backend's LLM usage.

    It answers "what did this backend bill in total"; a query's share is
    its span's :class:`~repro.observability.CostAccount`, not a diff of
    this ledger (other threads bill here too).
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._records: List[CallRecord] = []

    def record(
        self,
        model: str,
        usage: Usage,
        latency_s: float,
        cached: bool = False,
    ) -> CallRecord:
        """Record one call. Cached calls cost nothing and take no time."""
        cost = 0.0 if cached else price_usd(model, usage)
        record = CallRecord(
            model=model,
            input_tokens=usage.input_tokens,
            output_tokens=usage.output_tokens,
            cost_usd=cost,
            latency_s=0.0 if cached else latency_s,
            cached=cached,
        )
        with self._lock:
            self._records.append(record)
        return record

    def records(self) -> List[CallRecord]:
        """A snapshot list of all recorded entries."""
        with self._lock:
            return list(self._records)

    def reset(self) -> None:
        """Discard all recorded entries."""
        with self._lock:
            self._records.clear()

    def summary(self, model: Optional[str] = None) -> CostSummary:
        """Aggregate, optionally filtered by model."""
        result = CostSummary()
        for record in self.records():
            if model is not None and record.model != model:
                continue
            result.calls += 1
            if record.cached:
                result.cached_calls += 1
            result.input_tokens += record.input_tokens
            result.output_tokens += record.output_tokens
            result.cost_usd += record.cost_usd
            result.latency_s += record.latency_s
        return result

    def by_model(self) -> Dict[str, CostSummary]:
        """Per-model aggregate summaries."""
        models = {record.model for record in self.records()}
        return {name: self.summary(model=name) for name in sorted(models)}
