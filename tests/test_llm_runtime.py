"""Unit tests for the LLM runtime: tokens, prompts, specs, cost ledger."""

import pytest

from repro.llm import (
    CostTracker,
    DEFAULT_MODELS,
    MalformedOutputError,
    PromptTemplate,
    UnknownModelError,
    Usage,
    count_tokens,
    get_model_spec,
    parse_task_prompt,
    render_task_prompt,
    split_into_chunks,
    truncate_to_tokens,
)


class TestTokens:
    def test_empty(self):
        assert count_tokens("") == 0

    def test_words_floor(self):
        # short words: at least one token per word
        assert count_tokens("a b c d") >= 4

    def test_long_prose_scales_with_chars(self):
        text = "abcdefgh " * 100
        assert count_tokens(text) >= len(text) / 5

    def test_monotone_in_length(self):
        assert count_tokens("hello world again") >= count_tokens("hello world")

    def test_truncate_respects_budget(self):
        text = "word " * 100
        truncated = truncate_to_tokens(text, 10)
        assert count_tokens(truncated) <= 10
        assert truncated.startswith("word")

    def test_truncate_zero(self):
        assert truncate_to_tokens("anything", 0) == ""

    def test_truncate_noop_when_fits(self):
        assert truncate_to_tokens("short", 100) == "short"


class TestTaskPrompts:
    def test_roundtrip(self):
        prompt = render_task_prompt(
            "filter", {"condition": "is it windy", "document": "line1\nline2"}
        )
        task, sections = parse_task_prompt(prompt)
        assert task == "filter"
        assert sections["condition"] == "is it windy"
        assert sections["document"] == "line1\nline2"

    def test_invalid_task_name(self):
        with pytest.raises(ValueError):
            render_task_prompt("Bad Name!", {})

    def test_invalid_section_name(self):
        with pytest.raises(ValueError):
            render_task_prompt("ok", {"bad name": "x"})

    def test_parse_without_marker_raises(self):
        with pytest.raises(MalformedOutputError):
            parse_task_prompt("just some text")

    def test_template_missing_field(self):
        template = PromptTemplate(task="t", instructions="i", required_fields=("a",))
        with pytest.raises(ValueError, match="missing"):
            template.render(b="x")

    def test_template_renders_instructions_section(self):
        template = PromptTemplate(task="t", instructions="do the thing")
        task, sections = parse_task_prompt(template.render(extra="1"))
        assert task == "t"
        assert sections["instructions"] == "do the thing"
        assert sections["extra"] == "1"


class TestChunking:
    def test_chunks_cover_all_words(self):
        text = " ".join(f"w{i}" for i in range(50))
        chunks = split_into_chunks(text, chunk_tokens=10)
        rejoined = " ".join(chunks).split()
        assert set(rejoined) == {f"w{i}" for i in range(50)}

    def test_overlap(self):
        text = " ".join(f"w{i}" for i in range(20))
        chunks = split_into_chunks(text, chunk_tokens=10, overlap_tokens=2)
        first_tail = chunks[0].split()[-2:]
        second_head = chunks[1].split()[:2]
        assert first_tail == second_head

    def test_empty_text(self):
        assert split_into_chunks("", 10) == []

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            split_into_chunks("x", 0)
        with pytest.raises(ValueError):
            split_into_chunks("x", 10, overlap_tokens=10)


class TestModelSpecs:
    def test_tiers_ordered_by_quality_and_price(self):
        large = get_model_spec("sim-large")
        small = get_model_spec("sim-small")
        assert large.quality > small.quality
        assert large.input_price_per_mtok > small.input_price_per_mtok
        assert large.context_window > small.context_window

    def test_unknown_model(self):
        with pytest.raises(UnknownModelError):
            get_model_spec("gpt-99")

    def test_cost_formula(self):
        spec = get_model_spec("sim-large")
        cost = spec.cost_usd(1_000_000, 0)
        assert cost == pytest.approx(spec.input_price_per_mtok)

    def test_latency_increases_with_tokens(self):
        spec = get_model_spec("sim-large")
        assert spec.latency_s(10_000, 100) > spec.latency_s(100, 100)

    def test_all_default_models_valid(self):
        for name, spec in DEFAULT_MODELS.items():
            assert spec.name == name
            assert 0 < spec.quality <= 1.0


class TestCostTracker:
    def test_records_and_summary(self):
        tracker = CostTracker()
        tracker.record("sim-large", Usage(1000, 100, 1), latency_s=2.0)
        tracker.record("sim-small", Usage(500, 50, 1), latency_s=1.0)
        summary = tracker.summary()
        assert summary.calls == 2
        assert summary.input_tokens == 1500
        assert summary.cost_usd > 0

    def test_cached_calls_are_free(self):
        tracker = CostTracker()
        tracker.record("sim-large", Usage(1000, 100, 1), latency_s=2.0, cached=True)
        summary = tracker.summary()
        assert summary.cost_usd == 0.0
        assert summary.latency_s == 0.0
        assert summary.cached_calls == 1

    def test_filter_by_model(self):
        tracker = CostTracker()
        tracker.record("sim-large", Usage(10, 1, 1), 0.1)
        tracker.record("sim-large", Usage(20, 2, 1), 0.1)
        assert tracker.summary(model="sim-large").calls == 2
        assert tracker.summary(model="sim-small").calls == 0

    def test_by_model_and_reset(self):
        tracker = CostTracker()
        tracker.record("sim-large", Usage(10, 1, 1), 0.1)
        tracker.record("sim-small", Usage(10, 1, 1), 0.1)
        assert set(tracker.by_model()) == {"sim-large", "sim-small"}
        tracker.reset()
        assert tracker.summary().calls == 0

    def test_larger_model_costs_more(self):
        tracker = CostTracker()
        usage = Usage(10_000, 1_000, 1)
        large = tracker.record("sim-large", usage, 1.0)
        small = tracker.record("sim-small", usage, 1.0)
        assert large.cost_usd > small.cost_usd * 10
