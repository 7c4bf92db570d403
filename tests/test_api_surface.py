"""Tests pinning the public API surface and remaining thin spots."""

import pytest

from repro import (
    ArynPartitioner,
    DocSet,
    Document,
    Element,
    Luna,
    LunaResult,
    NaiveTextPartitioner,
    RagPipeline,
    SycamoreContext,
    Table,
    __version__,
)
from repro.execution import Executor, Plan
from repro.llm import ReliableLLM, SimulatedLLM


class TestTopLevelExports:
    def test_version(self):
        assert __version__ == "0.1.0"

    def test_all_exports_resolve(self):
        import repro

        for name in repro.__all__:
            assert getattr(repro, name) is not None

    def test_subpackage_all_exports_resolve(self):
        import importlib

        for module_name in (
            "repro.docmodel",
            "repro.llm",
            "repro.embedding",
            "repro.indexes",
            "repro.execution",
            "repro.partitioner",
            "repro.sycamore",
            "repro.luna",
            "repro.rag",
            "repro.datagen",
            "repro.evaluation",
        ):
            module = importlib.import_module(module_name)
            for name in getattr(module, "__all__", []):
                assert getattr(module, name) is not None, f"{module_name}.{name}"


class TestExecutorValidation:
    def test_batch_size_validation(self):
        with pytest.raises(ValueError):
            Executor(batch_size=0)

    def test_unknown_plan_node_kind(self):
        from repro.execution.plan import PlanNode

        bogus = Plan(PlanNode(kind="teleport", name="t", parent=Plan.from_items([1]).node))
        with pytest.raises(ValueError, match="unknown plan node kind"):
            Executor().take_all(bogus)


class TestContextDefaults:
    def test_context_wraps_bare_backend(self):
        backend = SimulatedLLM(seed=1)
        ctx = SycamoreContext(llm=backend)
        assert isinstance(ctx.llm, ReliableLLM)
        assert ctx.llm.backend is backend

    def test_context_accepts_prewrapped(self):
        wrapped = ReliableLLM(SimulatedLLM(seed=1))
        ctx = SycamoreContext(llm=wrapped)
        assert ctx.llm is wrapped

    def test_default_model_used_by_transforms(self):
        ctx = SycamoreContext(default_model="sim-small", parallelism=1)
        doc = Document.from_text("a gusty crosswind near the runway")
        ctx.read.documents([doc]).llm_filter("wind").count()
        models = {r.model for r in ctx.cost_tracker.records()}
        assert models == {"sim-small"}


class TestLunaResultSurface:
    def test_result_fields_complete(self, indexed_context):
        luna = Luna(indexed_context, planner_model="sim-oracle", policy="quality")
        result = luna.query("How many incidents were caused by icing?", index="ntsb")
        assert isinstance(result, LunaResult)
        assert result.question
        assert result.index == "ntsb"
        assert result.plan.nodes and result.optimized_plan.nodes
        assert isinstance(result.optimization_log, list)
        assert isinstance(result.code, str) and result.code
        assert result.trace.entries
        # Plans are distinct objects: editing the optimized plan must not
        # mutate the recorded original.
        result.optimized_plan.nodes[0].params["index"] = "tampered"
        assert result.plan.nodes[0].params["index"] == "ntsb"


class TestNaivePartitionerSurface:
    def test_chunk_size_respected(self, ntsb_corpus):
        _, raws = ntsb_corpus
        small = NaiveTextPartitioner(chunk_chars=300).partition(raws[0])
        large = NaiveTextPartitioner(chunk_chars=5000).partition(raws[0])
        assert len(small.elements) > len(large.elements)
        assert all(len(e.text) <= 300 for e in small.elements)


class TestRagSurfaceDefaults:
    def test_retrieval_mode_default_vector(self, indexed_context):
        rag = RagPipeline(indexed_context.catalog.get("ntsb"), indexed_context.llm)
        assert rag.retrieval == "vector"
        assert rag.top_k == 5
