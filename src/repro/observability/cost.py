"""Per-query cost accounting, charged as spans finish.

ZenDB and ScaleDoc both report per-operator cost/accuracy accounting as
the basis for optimization decisions; Luna's optimizer needs the same
ledger. A :class:`CostAccount` is the running account of one span (an
*accounting root*: a query, a plan operator, an executor plan, a
planner run). When an ``llm_request`` span finishes, the tracer charges
it to every account enclosing it by the spans' live parent links, never
the retained span log, so accounts stay exact whatever the tracer keeps.
:meth:`CostAccount.from_spans` replays the same rule over a retained
trace, for exports.

Accounting is **conservative**: cache hits and dedup-shared requests
count their tokens (the prompt was still constructed and the answer
still consumed) at **zero simulated dollars** — so cache/dedup savings
are directly reportable as ``saved_usd``.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Dict, Iterator, List, Optional, Tuple

if TYPE_CHECKING:
    from .tracing import Span

#: Span kinds an account books: requests for their spend, operators and
#: transforms for their own wall time.
_BOOKED_KINDS = ("llm_request", "operator", "transform")

#: Serializes charges: the requests of one query finish on many threads.
_LEDGER_LOCK = threading.Lock()


@dataclass
class OperatorCost:
    """Cost rollup for one plan operator (or pseudo-operator)."""

    operator: str
    llm_calls: int = 0
    cached_calls: int = 0
    dedup_hits: int = 0
    input_tokens: int = 0
    output_tokens: int = 0
    cost_usd: float = 0.0
    #: Dollars *not* spent because the response came from the cache or a
    #: dedup-shared in-flight call.
    saved_usd: float = 0.0
    retries: int = 0
    wall_s: float = 0.0

    @property
    def total_tokens(self) -> int:
        """Input plus output tokens."""
        return self.input_tokens + self.output_tokens

    def as_dict(self) -> Dict[str, Any]:
        """Flat dict view (stable keys)."""
        return {
            "operator": self.operator,
            "llm_calls": self.llm_calls,
            "cached_calls": self.cached_calls,
            "dedup_hits": self.dedup_hits,
            "input_tokens": self.input_tokens,
            "output_tokens": self.output_tokens,
            "cost_usd": round(self.cost_usd, 6),
            "saved_usd": round(self.saved_usd, 6),
            "retries": self.retries,
            "wall_s": round(self.wall_s, 6),
        }


@dataclass
class CostAccount:
    """One query's complete cost ledger, keyed by operator."""

    trace_id: str = ""
    operators: Dict[str, OperatorCost] = field(default_factory=dict)
    wall_clock_s: float = 0.0

    # ------------------------------------------------------------------

    @property
    def llm_calls(self) -> int:
        """LLM requests issued by the query (incl. cached/deduped)."""
        return sum(op.llm_calls for op in self.operators.values())

    @property
    def cached_calls(self) -> int:
        """Requests served from the response cache."""
        return sum(op.cached_calls for op in self.operators.values())

    @property
    def dedup_hits(self) -> int:
        """Requests that shared another request's in-flight upstream call."""
        return sum(op.dedup_hits for op in self.operators.values())

    @property
    def input_tokens(self) -> int:
        """Prompt tokens across all requests."""
        return sum(op.input_tokens for op in self.operators.values())

    @property
    def output_tokens(self) -> int:
        """Completion tokens across all requests."""
        return sum(op.output_tokens for op in self.operators.values())

    @property
    def total_tokens(self) -> int:
        """Input plus output tokens."""
        return self.input_tokens + self.output_tokens

    @property
    def cost_usd(self) -> float:
        """Simulated dollars actually spent."""
        return sum(op.cost_usd for op in self.operators.values())

    @property
    def saved_usd(self) -> float:
        """Simulated dollars avoided via cache hits and dedup."""
        return sum(op.saved_usd for op in self.operators.values())

    @property
    def retries(self) -> int:
        """Transient-failure retries burned by the query's requests."""
        return sum(op.retries for op in self.operators.values())

    def operator(self, name: str) -> OperatorCost:
        """Rollup record for one operator (created on first access)."""
        record = self.operators.get(name)
        if record is None:
            record = OperatorCost(operator=name)
            self.operators[name] = record
        return record

    def merge(self, other: "CostAccount") -> "CostAccount":
        """Accumulate another account's rollups into this one.

        The serving layer keeps one long-lived account per tenant and
        merges every served query's account into it, so operator names
        aggregate across queries (all ``op[0]:Count`` spend lands in one
        row). Returns self for chaining.
        """
        for name, op in other.operators.items():
            record = self.operator(name)
            record.llm_calls += op.llm_calls
            record.cached_calls += op.cached_calls
            record.dedup_hits += op.dedup_hits
            record.input_tokens += op.input_tokens
            record.output_tokens += op.output_tokens
            record.cost_usd += op.cost_usd
            record.saved_usd += op.saved_usd
            record.retries += op.retries
            record.wall_s += op.wall_s
        self.wall_clock_s += other.wall_clock_s
        return self

    def record_saving(self, operator: str, saved_usd: float) -> None:
        """Book dollars *not* spent (a serving-cache hit) to an operator."""
        self.operator(operator).saved_usd += saved_usd

    def as_dict(self) -> Dict[str, Any]:
        """JSON-exportable view (totals plus per-operator table)."""
        return {
            "trace_id": self.trace_id,
            "totals": {
                "llm_calls": self.llm_calls,
                "cached_calls": self.cached_calls,
                "dedup_hits": self.dedup_hits,
                "input_tokens": self.input_tokens,
                "output_tokens": self.output_tokens,
                "cost_usd": round(self.cost_usd, 6),
                "saved_usd": round(self.saved_usd, 6),
                "retries": self.retries,
                "wall_clock_s": round(self.wall_clock_s, 6),
            },
            "operators": [
                self.operators[name].as_dict() for name in sorted(self.operators)
            ],
        }

    def render(self) -> str:
        """Human-readable per-operator cost table."""
        header = (
            f"{'operator':<28} {'calls':>5} {'cached':>6} {'dedup':>5} "
            f"{'tokens':>8} {'cost':>9} {'saved':>9}"
        )
        lines = [header, "-" * len(header)]
        for name in sorted(self.operators):
            op = self.operators[name]
            lines.append(
                f"{name:<28} {op.llm_calls:>5} {op.cached_calls:>6} "
                f"{op.dedup_hits:>5} {op.total_tokens:>8} "
                f"${op.cost_usd:>8.4f} ${op.saved_usd:>8.4f}"
            )
        lines.append(
            f"{'TOTAL':<28} {self.llm_calls:>5} {self.cached_calls:>6} "
            f"{self.dedup_hits:>5} {self.total_tokens:>8} "
            f"${self.cost_usd:>8.4f} ${self.saved_usd:>8.4f}"
        )
        return "\n".join(lines)

    def book(self, span: "Span", owner: str) -> None:
        """Charge one finished span to the row ``owner``: a request's
        tokens and dollars, or an operator's/transform's own wall time."""
        if span.kind != "llm_request":
            # A transform under a Luna operator is covered by the
            # operator's wall time; only self-owned spans add theirs.
            if owner == span.name:
                self.operator(owner).wall_s += span.duration_s
            return
        record = self.operator(owner)
        attrs = span.attributes
        record.llm_calls += 1
        record.input_tokens += int(attrs.get("input_tokens", 0) or 0)
        record.output_tokens += int(attrs.get("output_tokens", 0) or 0)
        record.cost_usd += float(attrs.get("cost_usd", 0.0) or 0.0)
        record.saved_usd += float(attrs.get("saved_usd", 0.0) or 0.0)
        record.retries += int(attrs.get("retries", 0) or 0)
        if attrs.get("cached"):
            record.cached_calls += 1
        if attrs.get("dedup"):
            record.dedup_hits += 1

    @classmethod
    def from_spans(cls, spans: List["Span"]) -> "CostAccount":
        """Replay a retained span log into an account (trace exports),
        by the rule :func:`charge` applies live, with the log's outermost
        spans as the root: on a fully retained trace the two agree."""
        account = cls()
        by_id: Dict[str, "Span"] = {span.span_id: span for span in spans}
        for span in spans:
            if span.parent_id is None and not account.trace_id:
                account.trace_id = span.trace_id
                account.wall_clock_s = span.duration_s
            if span.kind in _BOOKED_KINDS:
                chain = _attribute(span, lambda s: by_id.get(s.parent_id or ""))
                account.book(span, [owner for _, owner in chain][-1])
        return account


def open_account(span: "Span") -> CostAccount:
    """Make ``span`` an accounting root; returns its running account."""
    span.account = CostAccount(trace_id=span.trace_id)
    return span.account


def charge(span: "Span") -> None:
    """Book a just-finished span to every account enclosing it (called
    by :meth:`Tracer.finish`). A root's finish closes its account: the
    figures are final and only the caller of :func:`open_account` keeps
    it, so retained spans do not hold ledgers."""
    if span.kind in _BOOKED_KINDS:
        with _LEDGER_LOCK:
            for ancestor, owner in _attribute(span, lambda s: s.parent):
                if ancestor.account is not None:
                    ancestor.account.book(span, owner)
    if span.account is not None:
        span.account.wall_clock_s = span.duration_s
        span.account = None


def _attribute(
    span: "Span", parent_of: Callable[["Span"], Optional["Span"]]
) -> Iterator[Tuple["Span", str]]:
    """The attribution rule, walked from ``span`` up its ancestors.

    Yields ``(ancestor, owner)`` for ``span`` itself and each ancestor:
    ``owner`` is the row ``span`` books to in an account rooted at that
    ancestor — the nearest ``operator`` at or below it (its name is
    unique per plan node, so two filters in one plan roll up
    separately), else the nearest ``transform``, else ``plan``, else
    the pseudo-operator ``(query)``.
    """
    operator: Optional[str] = None
    transform: Optional[str] = None
    plan: Optional[str] = None
    current: Optional["Span"] = span
    while current is not None:
        if current.kind == "operator" and operator is None:
            operator = current.name
        elif current.kind == "transform" and transform is None:
            transform = current.name
        elif current.kind == "plan" and plan is None:
            plan = current.name
        yield current, operator or transform or plan or "(query)"
        current = parent_of(current)
