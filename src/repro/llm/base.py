"""Core LLM abstractions: model specs, responses, and the client protocol.

The paper's optimizer (§6.1) chooses between models of different cost and
quality — "GPT-4 versus Llama 7B". We model that axis explicitly with
:class:`ModelSpec`: each registered model has a quality score, per-token
pricing, latency characteristics and a context window. The simulated
models degrade output fidelity according to their quality score, so the
cost/quality trade-off the optimizer navigates is real.
"""

from __future__ import annotations

import abc
import json
import re
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from .errors import MalformedOutputError, UnknownModelError


@dataclass(frozen=True)
class ModelSpec:
    """Static description of one model offering.

    ``quality`` in [0, 1] drives the simulated error rate (1.0 = oracle).
    Prices are dollars per million tokens, the unit hosted APIs bill in.
    ``latency_base_s`` + ``latency_per_1k_tokens_s`` define the virtual
    latency model used by the cost tracker.
    """

    name: str
    quality: float
    input_price_per_mtok: float
    output_price_per_mtok: float
    context_window: int
    latency_base_s: float = 0.2
    latency_per_1k_tokens_s: float = 0.5

    def __post_init__(self) -> None:
        if not 0.0 <= self.quality <= 1.0:
            raise ValueError(f"quality must be in [0, 1], got {self.quality}")
        if self.context_window <= 0:
            raise ValueError("context_window must be positive")

    def cost_usd(self, input_tokens: int, output_tokens: int) -> float:
        """Dollar cost of one call at this model's prices."""
        return (
            input_tokens * self.input_price_per_mtok
            + output_tokens * self.output_price_per_mtok
        ) / 1_000_000.0

    def latency_s(self, input_tokens: int, output_tokens: int) -> float:
        """Virtual wall-clock latency of one call."""
        return (
            self.latency_base_s
            + (input_tokens + output_tokens) / 1000.0 * self.latency_per_1k_tokens_s
        )


#: The built-in model tiers. ``sim-large`` stands in for a frontier model
#: (GPT-4-class pricing and quality), ``sim-small`` for a cheap open model
#: (Llama-7B-class), ``sim-medium`` in between. ``sim-oracle`` is a
#: zero-noise tier used by tests that need deterministic perfection.
DEFAULT_MODELS: Dict[str, ModelSpec] = {
    "sim-large": ModelSpec(
        name="sim-large",
        quality=0.95,
        input_price_per_mtok=10.0,
        output_price_per_mtok=30.0,
        context_window=128_000,
        latency_base_s=0.6,
        latency_per_1k_tokens_s=1.2,
    ),
    "sim-medium": ModelSpec(
        name="sim-medium",
        quality=0.85,
        input_price_per_mtok=1.0,
        output_price_per_mtok=3.0,
        context_window=32_000,
        latency_base_s=0.3,
        latency_per_1k_tokens_s=0.6,
    ),
    "sim-small": ModelSpec(
        name="sim-small",
        quality=0.70,
        input_price_per_mtok=0.1,
        output_price_per_mtok=0.3,
        context_window=8_000,
        latency_base_s=0.1,
        latency_per_1k_tokens_s=0.2,
    ),
    "sim-oracle": ModelSpec(
        name="sim-oracle",
        quality=1.0,
        input_price_per_mtok=10.0,
        output_price_per_mtok=30.0,
        context_window=1_000_000,
        latency_base_s=0.6,
        latency_per_1k_tokens_s=1.2,
    ),
}


def get_model_spec(name: str) -> ModelSpec:
    """Look up a built-in model spec by name."""
    try:
        return DEFAULT_MODELS[name]
    except KeyError:
        raise UnknownModelError(
            f"unknown model {name!r}; known: {sorted(DEFAULT_MODELS)}"
        ) from None


def price_usd(model: str, usage: "Usage") -> float:
    """List price of one response; 0.0 for a model with no price card."""
    spec = DEFAULT_MODELS.get(model)
    if spec is None:
        return 0.0
    return spec.cost_usd(usage.input_tokens, usage.output_tokens)


def repair_json(text: str) -> Any:
    """Parse model output as JSON, tolerating the usual LLM damage.

    Tries, in order: direct parse; stripping Markdown code fences;
    extracting the outermost ``{...}`` or ``[...]`` span; removing
    trailing commas; and closing unbalanced brackets/braces on truncated
    output. Raises :class:`MalformedOutputError` when nothing works.
    """
    candidates = [text]
    fenced = re.search(r"```(?:json)?\s*(.*?)```", text, re.DOTALL)
    if fenced:
        candidates.append(fenced.group(1))
    for opener, closer in (("{", "}"), ("[", "]")):
        start = text.find(opener)
        end = text.rfind(closer)
        if start != -1 and end > start:
            candidates.append(text[start : end + 1])
        if start != -1:
            candidates.append(_close_brackets(text[start:]))
    for candidate in candidates:
        for attempt in (candidate, re.sub(r",\s*([}\]])", r"\1", candidate)):
            try:
                return json.loads(attempt)
            except (json.JSONDecodeError, ValueError):
                continue
    raise MalformedOutputError("could not parse output as JSON", raw_output=text)


def _close_brackets(fragment: str) -> str:
    """Best-effort completion of a truncated JSON fragment."""
    stack: List[str] = []
    in_string = False
    escaped = False
    string_start = -1
    for position, ch in enumerate(fragment):
        if escaped:
            escaped = False
            continue
        if ch == "\\":
            escaped = True
            continue
        if ch == '"':
            in_string = not in_string
            if in_string:
                string_start = position
            continue
        if in_string:
            continue
        if ch in "{[":
            stack.append("}" if ch == "{" else "]")
        elif ch in "}]" and stack:
            stack.pop()
    repaired = fragment
    if in_string:
        # The cut fell inside a string. If that string is an object *key*
        # (preceded by '{' or ','), drop it — a quote-closed key with no
        # value is still invalid. A cut *value* (preceded by ':') can be
        # closed in place. Inside an array, closing in place is valid too.
        before = fragment[:string_start].rstrip()
        if before.endswith(("{", ",")) and (stack and stack[-1] == "}"):
            repaired = before
        else:
            repaired += '"'
    # Drop a dangling comma/colon left at the end.
    repaired = re.sub(r"[,:]\s*$", "", repaired)
    return repaired + "".join(reversed(stack))


@dataclass
class Usage:
    """Token usage of one or more calls (additive)."""

    input_tokens: int = 0
    output_tokens: int = 0
    calls: int = 0

    @property
    def total_tokens(self) -> int:
        """Input plus output tokens."""
        return self.input_tokens + self.output_tokens

    def add(self, other: "Usage") -> None:
        """Accumulate another usage record into this one."""
        self.input_tokens += other.input_tokens
        self.output_tokens += other.output_tokens
        self.calls += other.calls


@dataclass
class LLMResponse:
    """The result of one completion call."""

    text: str
    model: str
    usage: Usage = field(default_factory=Usage)
    latency_s: float = 0.0
    cached: bool = False


class LLMClient(abc.ABC):
    """Protocol every LLM backend implements.

    ``complete`` is synchronous and the only method a backend must
    write; ``complete_json``, ``complete_many`` and ``forget`` have
    defaults built on it. Parallel batches and caching are layered on
    top by :class:`repro.llm.client.ReliableLLM` and the scheduler.
    """

    @abc.abstractmethod
    def complete(
        self,
        prompt: str,
        model: str = "sim-large",
        max_output_tokens: Optional[int] = None,
        temperature: float = 0.0,
    ) -> LLMResponse:
        """Generate a completion for ``prompt`` using ``model``."""

    def complete_json(
        self,
        prompt: str,
        model: str = "sim-large",
        max_output_tokens: Optional[int] = None,
        json_retries: int = 2,
    ) -> Any:
        """Complete and parse the output as JSON, retrying malformed output.

        Retries nudge the temperature, which takes them out of response
        caches and the scheduler's dedup/batch pool (a retry must not be
        collapsed onto the request that just produced garbage), and the
        malformed answer is :meth:`forget`-ten so a cached copy never
        poisons a later identical request.
        """
        last_error: Optional[MalformedOutputError] = None
        for attempt in range(json_retries + 1):
            response = self.complete(
                prompt,
                model=model,
                max_output_tokens=max_output_tokens,
                temperature=0.0 if attempt == 0 else 0.1,
            )
            try:
                return repair_json(response.text)
            except MalformedOutputError as exc:
                last_error = exc
                self.forget(model, prompt, max_output_tokens)
        assert last_error is not None
        raise last_error

    def forget(
        self, model: str, prompt: str, max_output_tokens: Optional[int]
    ) -> None:
        """Drop any cached response to this request (no cache: no-op)."""

    def complete_many(
        self,
        prompts: List[str],
        model: str = "sim-large",
        max_output_tokens: Optional[int] = None,
        parallelism: int = 8,
        return_exceptions: bool = False,
    ) -> "List[LLMResponse | Exception]":
        """Complete each prompt in turn, in input order.

        With ``return_exceptions`` a failed completion occupies its slot
        as the exception instance instead of aborting the batch.
        ``parallelism`` is a hint this sequential default ignores.
        """
        del parallelism
        results: "List[LLMResponse | Exception]" = []
        for prompt in prompts:
            try:
                results.append(
                    self.complete(
                        prompt, model=model, max_output_tokens=max_output_tokens
                    )
                )
            except Exception as exc:  # noqa: BLE001 - isolate per prompt
                if not return_exceptions:
                    raise
                results.append(exc)
        return results
