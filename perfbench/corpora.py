"""Fixed corpora and the templated question pool, with ground truth.

The corpora are generated from constant seeds, so the committed expected
outputs (``expected/``) cover them completely. The workload seed never
changes a corpus: it draws which documents are ingested, which questions
are asked, in what order, and when. Ground truth is computed from the
generator records, never from rendered text, as
``repro.datagen.questions`` does for the paper's 18-question suite.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Dict, List, Sequence, Tuple

from repro.datagen import (
    SECTORS,
    BenchmarkQuestion,
    build_full_suite,
    generate_earnings_corpus,
    generate_ntsb_corpus,
)
from repro.llm.knowledge import US_STATES

#: Query/serve/api corpora (the sizes and seeds of benchmarks/conftest.py).
NTSB_DOCS, NTSB_SEED = 80, 21
EARNINGS_DOCS, EARNINGS_SEED = 60, 22
#: Ingest draws its documents from these larger pools.
INGEST_NTSB_POOL, INGEST_NTSB_SEED = 320, 31
INGEST_EARNINGS_POOL, INGEST_EARNINGS_SEED = 120, 32

NTSB_SCHEMA = {
    "state": "string",
    "incident_year": "int",
    "weather_related": "bool",
    "injuries_fatal": "int",
    "aircraft": "string",
}
EARNINGS_SCHEMA = {
    "company": "string",
    "sector": "string",
    "fiscal_year": "int",
    "revenue_musd": "float",
    "revenue_growth_pct": "float",
    "ceo_changed": "bool",
}
#: The ingest pipeline runs one schema over the mixed corpus.
INGEST_SCHEMA = {
    **NTSB_SCHEMA,
    "company": "string",
    "sector": "string",
    "revenue_musd": "float",
    "ceo_changed": "bool",
}
#: Ingest field -> ground-truth attribute, per dataset.
NTSB_TRUTH_FIELDS = {
    "state": "state",
    "incident_year": "year",
    "weather_related": "weather_related",
    "injuries_fatal": "injuries_fatal",
    "aircraft": "aircraft",
}
EARNINGS_TRUTH_FIELDS = {
    "company": "company",
    "sector": "sector",
    "revenue_musd": "revenue_musd",
    "ceo_changed": "ceo_changed",
}

YEARS = (2021, 2022, 2023)
PERCENT_GRADE = {"correct_rel_tol": 0.05, "plausible_rel_tol": 0.25, "correct_abs_tol": 2.0}

#: Cause phrase -> predicate over an IncidentRecord.
CAUSES: Dict[str, Callable] = {
    "wind": lambda r: r.cause_detail == "wind",
    "icing": lambda r: r.cause_detail == "icing",
    "turbulence": lambda r: r.cause_detail == "turbulence",
    "thunderstorm": lambda r: r.cause_detail == "thunderstorm",
    "engine failure": lambda r: r.cause_detail == "engine_failure",
    "bird strike": lambda r: r.cause_detail == "bird_strike",
    "mechanical failure": lambda r: r.cause_category == "mechanical",
    "pilot error": lambda r: r.cause_category == "pilot_error",
}
ENVIRONMENTAL_CAUSES = ("wind", "icing", "turbulence", "thunderstorm")


@dataclass
class QueryCorpus:
    """The NTSB and earnings corpora behind query, serve and api."""

    ntsb_records: list
    ntsb_raws: list
    earnings_records: list
    earnings_raws: list

    def suite(self) -> List[BenchmarkQuestion]:
        """The paper's 18 questions."""
        return build_full_suite(self.ntsb_records, self.earnings_records)

    def ntsb_variants(self) -> List[BenchmarkQuestion]:
        """Templated NTSB questions in the suite's shapes (not the suite's own)."""
        own = {q.question for q in self.suite()}
        return [q for q in ntsb_variants(self.ntsb_records) if q.question not in own]

    def earnings_variants(self) -> List[BenchmarkQuestion]:
        """Templated earnings questions in the suite's shapes."""
        own = {q.question for q in self.suite()}
        return [
            q for q in earnings_variants(self.earnings_records) if q.question not in own
        ]


def query_corpus() -> QueryCorpus:
    """Generate the fixed query corpora."""
    ntsb_records, ntsb_raws = generate_ntsb_corpus(NTSB_DOCS, seed=NTSB_SEED)
    earnings_records, earnings_raws = generate_earnings_corpus(
        EARNINGS_DOCS, seed=EARNINGS_SEED
    )
    return QueryCorpus(ntsb_records, ntsb_raws, earnings_records, earnings_raws)


def ingest_pool() -> Tuple[list, list]:
    """(records, raw documents) of the mixed ingest pool, NTSB first."""
    n_records, n_raws = generate_ntsb_corpus(INGEST_NTSB_POOL, seed=INGEST_NTSB_SEED)
    e_records, e_raws = generate_earnings_corpus(
        INGEST_EARNINGS_POOL, seed=INGEST_EARNINGS_SEED
    )
    return list(n_records) + list(e_records), list(n_raws) + list(e_raws)


def scope(question: BenchmarkQuestion) -> int:
    """How narrow a question is: one step per state, year or cause filter
    on top of a state or year (``n-cause-wind`` 0 ... ``n-TX-2021-wind`` 3)."""
    parts = question.qid.split("-")[1:]
    state = any(len(p) == 2 and p.isupper() for p in parts)
    year = any(p.isdigit() for p in parts)
    cause = (state or year) and any(p in CAUSES for p in parts)
    return int(state) + int(year) + int(cause)


def popularity_ranking(questions: Sequence[BenchmarkQuestion]) -> List[BenchmarkQuestion]:
    """A fixed popularity order, broad questions first: many analysts ask
    the broad questions, few ask each narrow one. Fixed, so every seed
    sees the same popular questions and accuracy and spend per query do
    not swing with which questions a seed makes popular."""
    ranked = list(questions)
    random.Random(0x5EB7E).shuffle(ranked)
    ranked.sort(key=scope)
    return ranked


def zipf_weights(n: int, exponent: float = 1.0) -> List[float]:
    """Zipf weights for ranks 1..n."""
    return [1.0 / (rank ** exponent) for rank in range(1, n + 1)]


# ----------------------------------------------------------------------
# Templated variants
# ----------------------------------------------------------------------


def _count(qid: str, question: str, expected: int, **kw) -> BenchmarkQuestion:
    return BenchmarkQuestion(qid, question, "ntsb", "count", expected, **kw)


def _most_common(counter: Counter) -> List[str]:
    if not counter:
        return []
    top = max(counter.values())
    return [value for value, count in counter.items() if count == top]


def ntsb_variants(records: Sequence) -> List[BenchmarkQuestion]:
    """Templated NTSB questions in the shapes of the paper suite."""
    out: List[BenchmarkQuestion] = []
    env = [r for r in records if r.cause_category == "environmental"]
    for cause, pred in CAUSES.items():
        matching = [r for r in records if pred(r)]
        out.append(_count(f"n-cause-{cause}", f"How many incidents were caused by {cause}?",
                          len(matching)))
        out.append(BenchmarkQuestion(
            f"n-pct-{cause}", f"What percent of incidents were caused by {cause}?", "ntsb",
            "percentage", 100.0 * len(matching) / max(len(records), 1),
            grade_kwargs=dict(PERCENT_GRADE)))
        if matching:
            out.append(BenchmarkQuestion(
                f"n-topstate-{cause}", f"Which state had the most incidents caused by {cause}?",
                "ntsb", "categorical", _most_common(Counter(r.state for r in matching))))
    for cause in ENVIRONMENTAL_CAUSES:
        part = [r for r in env if CAUSES[cause](r)]
        out.append(BenchmarkQuestion(
            f"n-envpct-{cause}",
            f"What percent of environmentally caused incidents were due to {cause}?",
            "ntsb", "percentage", 100.0 * len(part) / max(len(env), 1),
            grade_kwargs=dict(PERCENT_GRADE)))
    for year in YEARS:
        in_year = [r for r in records if r.year == year]
        out.append(_count(f"n-weather-{year}", f"How many incidents in {year} were weather related?",
                          sum(1 for r in in_year if r.weather_related)))
        if in_year:
            out.append(BenchmarkQuestion(
                f"n-topstate-{year}", f"Which state had the most incidents in {year}?", "ntsb",
                "categorical", _most_common(Counter(r.state for r in in_year))))
        out.append(BenchmarkQuestion(
            f"n-fatal-{year}", f"What was the total fatal injuries across incidents in {year}?",
            "ntsb", "numeric", float(sum(r.injuries_fatal for r in in_year)),
            grade_kwargs={"correct_abs_tol": 0.5, "plausible_rel_tol": 0.3}))
    for name, code in US_STATES.items():
        in_state = [r for r in records if r.state == code]
        out.append(_count(f"n-serious-{code}", f"How many serious incidents happened in {name}?",
                          sum(1 for r in in_state if r.injuries_serious > 0), ambiguous=True))
        if in_state:  # a total over no incidents has no answer
            out.append(BenchmarkQuestion(
                f"n-fatal-{code}",
                f"What was the total fatal injuries across incidents in {name}?",
                "ntsb", "numeric", float(sum(r.injuries_fatal for r in in_state)),
                grade_kwargs={"correct_abs_tol": 0.5, "plausible_rel_tol": 0.3}))
        for cause, pred in CAUSES.items():
            out.append(_count(f"n-{code}-{cause}",
                              f"How many incidents in {name} were caused by {cause}?",
                              sum(1 for r in in_state if pred(r))))
        for year in YEARS:
            in_both = [r for r in in_state if r.year == year]
            out.append(_count(f"n-{code}-{year}", f"How many incidents in {name} happened in {year}?",
                              len(in_both)))
            for cause, pred in CAUSES.items():
                out.append(_count(
                    f"n-{code}-{year}-{cause}",
                    f"How many incidents in {name} in {year} were caused by {cause}?",
                    sum(1 for r in in_both if pred(r))))
    return out


def earnings_variants(records: Sequence) -> List[BenchmarkQuestion]:
    """Templated earnings questions in the shapes of the paper suite."""
    out: List[BenchmarkQuestion] = []
    for move in ("raised", "lowered"):
        out.append(BenchmarkQuestion(
            f"e-guidance-{move}", f"How many companies {move} guidance?", "earnings", "count",
            sum(1 for r in records if r.guidance == move)))
    for mood in ("positive", "negative"):
        out.append(BenchmarkQuestion(
            f"e-topsector-{mood}", f"Which sector had the most companies with {mood} sentiment?",
            "earnings", "categorical",
            _most_common(Counter(r.sector for r in records if r.sentiment == mood))))
    for sector in SECTORS:
        in_sector = [r for r in records if r.sector == sector]
        for move in ("raised", "lowered"):
            out.append(BenchmarkQuestion(
                f"e-{sector}-{move}",
                f"How many companies in the {sector} sector {move} guidance?", "earnings",
                "count", sum(1 for r in in_sector if r.guidance == move)))
        if not in_sector:
            continue
        for mood in ("positive", "negative"):
            out.append(BenchmarkQuestion(
                f"e-{sector}-{mood}",
                f"What percent of companies in the {sector} sector had {mood} sentiment?",
                "earnings", "percentage",
                100.0 * sum(1 for r in in_sector if r.sentiment == mood) / len(in_sector),
                grade_kwargs=dict(PERCENT_GRADE)))
        out.append(BenchmarkQuestion(
            f"e-{sector}-growth",
            f"What was the average revenue growth of companies in the {sector} sector?",
            "earnings", "numeric",
            sum(r.revenue_growth_pct for r in in_sector) / len(in_sector),
            grade_kwargs={"correct_rel_tol": 0.05, "plausible_rel_tol": 0.3,
                          "correct_abs_tol": 1.0}))
        out.append(BenchmarkQuestion(
            f"e-{sector}-revenue",
            f"What was the total revenue of companies in the {sector} sector?", "earnings",
            "numeric", float(sum(r.revenue_musd for r in in_sector)),
            grade_kwargs={"correct_rel_tol": 0.03, "plausible_rel_tol": 0.25}))
        out.append(BenchmarkQuestion(
            f"e-{sector}-fastest",
            f"List the fastest growing companies in the {sector} market.", "earnings", "list",
            [r.company for r in sorted(in_sector, key=lambda x: -x.revenue_growth_pct)[:5]],
            grade_kwargs={"correct_jaccard": 0.6, "plausible_jaccard": 0.15}))
    return out
