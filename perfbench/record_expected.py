"""Regenerate the committed expected outputs in perfbench/expected/.

    python3 perfbench/record_expected.py

Writes ``ingest.json`` (per pool document: chunk count and extracted
properties) and ``answers.json`` (per question: the canonical answer and
partial flag, once through ``Luna.query`` as the query workload asks and
once through ``QueryService`` as serve and api ask). The outputs are the
program's own, recorded at the commit that defines the benchmark; a
later commit that changes any of them fails the workloads' answer
checks. Run it only when a change to the answers is intended.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from repro import ArynPartitioner, Luna, SycamoreContext  # noqa: E402

import corpora  # noqa: E402
from harness import EXPECTED_DIR, canonical  # noqa: E402
from ingest import ingest_one  # noqa: E402
from query import build_context  # noqa: E402
from serve import INDEX, ServingStack  # noqa: E402

#: Documents per scratch index while recording (keeps the quadratic
#: vector-index insert out of the recording time).
BATCH = 40


def record_ingest() -> dict:
    records, raws = corpora.ingest_pool()
    ctx = SycamoreContext(parallelism=1, seed=0)
    partitioner = ArynPartitioner(seed=0)
    documents = {}
    for start in range(0, len(raws), BATCH):
        name = f"batch{start}"
        for raw in raws[start:start + BATCH]:
            ingest_one(ctx, partitioner, raw, name)
        chunks: dict = {}
        for chunk in ctx.catalog.get(name).all_documents():
            chunks.setdefault(chunk.parent_id, []).append(chunk)
        for raw in raws[start:start + BATCH]:
            mine = chunks[raw.doc_id]
            props = mine[0].properties
            documents[raw.doc_id] = {
                "chunks": len(mine),
                "properties": canonical(
                    {name: props.get(name) for name in corpora.INGEST_SCHEMA}),
            }
    ctx.close()
    return {"pool": {"ntsb": [corpora.INGEST_NTSB_POOL, corpora.INGEST_NTSB_SEED],
                     "earnings": [corpora.INGEST_EARNINGS_POOL,
                                  corpora.INGEST_EARNINGS_SEED]},
            "documents": documents}


def record_answers() -> dict:
    corpus = corpora.query_corpus()
    asked = corpus.suite() + corpus.ntsb_variants() + corpus.earnings_variants()
    ctx = build_context(corpus)
    luna = Luna(ctx)
    through_luna = {}
    for question in asked:
        result = luna.query(question.question, question.index)
        through_luna[question.question] = {"answer": canonical(result.answer),
                                           "partial": bool(result.partial)}
    ctx.close()
    stack = ServingStack(corpus, [])
    served = {}
    for question in corpus.ntsb_variants():
        result = stack.service.submit(question.question, INDEX).result(timeout=120)
        served[question.question] = {"answer": canonical(result.answer),
                                     "partial": bool(result.partial)}
    stack.close()
    return {"corpora": {"ntsb": [corpora.NTSB_DOCS, corpora.NTSB_SEED],
                        "earnings": [corpora.EARNINGS_DOCS, corpora.EARNINGS_SEED]},
            "luna": through_luna, "served": served}


def write_json(path: Path, data: dict) -> None:
    """Sections as blocks, one entry per line, so a changed answer is a
    one-line diff."""
    sections = []
    for key, value in sorted(data.items()):
        if isinstance(value, dict) and all(isinstance(v, dict) for v in value.values()):
            entries = ",\n".join(f"  {json.dumps(k)}: {json.dumps(v, sort_keys=True)}"
                                 for k, v in sorted(value.items()))
            sections.append(f"{json.dumps(key)}: {{\n{entries}\n }}")
        else:
            sections.append(f"{json.dumps(key)}: {json.dumps(value, sort_keys=True)}")
    path.write_text("{\n " + ",\n ".join(sections) + "\n}\n", encoding="utf-8")


def main() -> int:
    EXPECTED_DIR.mkdir(exist_ok=True)
    for name, record in (("answers", record_answers), ("ingest", record_ingest)):
        path = EXPECTED_DIR / f"{name}.json"
        write_json(path, record())
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
