"""Deterministic end-to-end fixture.

Builds a synthetic three-source corpus, an exact-fingerprint mock script for
every LLM call the run should make, an eval corpus with planted contamination,
and the full set of expected outcomes. Responses are keyed by fingerprint with
no stage defaults, so any unplanned or malformed request fails the run loudly
instead of being absorbed.

Corpus shape (120 documents):
  alpha  60 = 5 heuristic rejects + 10 llm rejects + 45 passing
  beta   40 = 3 heuristic rejects +  6 llm rejects + 31 passing
  gamma  20 = 2 heuristic rejects +  4 llm rejects + 14 passing

Of the 90 passing documents, alternating docs get 1 or 3 personas (45 each,
180 candidates). 12 candidates fail verification as incorrect, 8 as leaked,
and 5 single-persona questions are planted verbatim in the eval corpus, so a
complete run writes exactly 155 records.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import yaml

from qaforge.classify import build_classify_request
from qaforge.config import PipelineConfig, config_from_dict
from qaforge.filtering import build_filter_request, truncate_for_llm
from qaforge.gateway import MockScript, StageTag, run_fingerprint
from qaforge.generate import DemoLibrary, build_generate_request
from qaforge.types import CandidateQA, Domain, Persona, make_doc_id, make_record_id
from qaforge.verify import build_verify_request

SEED = 1234
EXPECTED_RECORDS = 155

# source -> (heuristic rejects, llm rejects, passing)
SOURCE_SHAPE = {"alpha": (5, 10, 45), "beta": (3, 6, 31), "gamma": (2, 4, 14)}

# 4 too_short (one whitespace-only), 3 low_alpha, 3 boilerplate across sources
HEURISTIC_PLAN = {
    "alpha": ["whitespace", "short", "low_alpha", "boiler", "boiler"],
    "beta": ["short", "low_alpha", "boiler"],
    "gamma": ["short", "low_alpha"],
}

DOMAIN_CYCLE = [
    Domain.SCIENCE, Domain.COMMERCE, Domain.HEALTHCARE,
    Domain.EDUCATION, Domain.CODE, Domain.LIFESTYLE,
]

SINGLE_PERSONA = "Duty Officer"
TRIPLE_PERSONAS = ["Records Analyst", "Network Planner", "Field Auditor"]

N_CONTAMINATED = 5
N_INCORRECT = 12
N_LEAKED = 8

FILTER_PASS = "QUALIFIED: yes\nREASON: clear, self-contained source material"
FILTER_REJECTS = {
    "llm_not_self_contained": "QUALIFIED: no\nREASON: needs surrounding context to make sense",
    "llm_non_informative": "QUALIFIED: no\nREASON: no informative value beyond boilerplate",
}
VERIFY_RESPONSES = {
    "pass": "CORRECT: yes\nLEAKAGE: no\nRATIONALE: grounded in the document",
    "incorrect": "CORRECT: no\nLEAKAGE: no\nRATIONALE: contradicts the document",
    "leaked": "CORRECT: yes\nLEAKAGE: yes\nRATIONALE: the question restates the answer",
}


@dataclass
class PlannedCandidate:
    rank: int
    label: str
    question: str
    answer: str
    verify: str = "pass"  # pass | incorrect | leaked
    contaminated: bool = False

    @property
    def survives(self) -> bool:
        return self.verify == "pass" and not self.contaminated


@dataclass
class PlannedDoc:
    gi: int
    source: str
    text: str
    kind: str  # heuristic | llm_reject | pass
    heuristic_reason: str = ""
    filter_reason: str = ""
    domain: Optional[Domain] = None
    candidates: list[PlannedCandidate] = field(default_factory=list)

    @property
    def doc_id(self) -> str:
        return make_doc_id(self.source, self.text)


@dataclass
class FixtureBundle:
    root: Path
    config_dict: dict
    config_path: Path
    mock_path: Path
    eval_dir: Path
    docs: list[PlannedDoc]
    expected: dict
    expected_records: list[dict]

    def config(self) -> PipelineConfig:
        return config_from_dict(json.loads(json.dumps(self.config_dict)))


def _passing_text(gi: int, source: str) -> str:
    return (
        f"Record file {gi} belongs to the {source} monitoring network. "
        f"The station tally for cycle {gi} lists several regional facilities "
        f"and the operators reconcile the ledger every quarter. Totals are "
        f"archived for audit and throughput stayed within expected bounds "
        f"for the period under review."
    )


def _heuristic_text(kind: str, gi: int) -> str:
    if kind == "whitespace":
        return "   \n\t   "
    if kind == "short":
        return f"Short note {gi}."
    if kind == "low_alpha":
        return ("#$%^&*() {}[]<> " * 16).strip() + f" x{gi}"
    nav = "Home | Products | Support | Legal"
    return "\n".join(
        [
            nav,
            f"Update {gi} covers the west corridor stations in detail this cycle.",
            nav,
            f"Crews completed the scheduled calibration pass for group {gi} today.",
            nav,
            f"The next review window for these stations opens in month {gi % 12 + 1}.",
        ]
    )


def _register_question(gi: int, source: str, rank: int) -> str:
    return f"What count does register {gi} of the {source} ledger list for station {rank}?"


def _notice_question(gi: int, source: str) -> str:
    return (
        f"According to notice {gi} of the {source} registry, what number "
        f"identifies the facility in district {gi % 9 + 1}?"
    )


def plan_docs() -> list[PlannedDoc]:
    docs: list[PlannedDoc] = []
    gi = 0
    pass_index = 0
    singles = 0
    triples = 0
    for source, (n_heur, n_llm, n_pass) in SOURCE_SHAPE.items():
        for kind in HEURISTIC_PLAN[source]:
            reason = "too_short" if kind in ("whitespace", "short") else (
                "low_alpha" if kind == "low_alpha" else "boilerplate_heavy"
            )
            docs.append(
                PlannedDoc(gi=gi, source=source, text=_heuristic_text(kind, gi),
                           kind="heuristic", heuristic_reason=reason)
            )
            gi += 1
        assert len(HEURISTIC_PLAN[source]) == n_heur
        for j in range(n_llm):
            flavor = "llm_not_self_contained" if j % 2 == 0 else "llm_non_informative"
            docs.append(
                PlannedDoc(gi=gi, source=source, text=_passing_text(gi, source),
                           kind="llm_reject", filter_reason=flavor)
            )
            gi += 1
        for _ in range(n_pass):
            domain = DOMAIN_CYCLE[pass_index % len(DOMAIN_CYCLE)]
            doc = PlannedDoc(gi=gi, source=source, text=_passing_text(gi, source),
                             kind="pass", domain=domain)
            if pass_index % 2 == 0:
                contaminated = singles < N_CONTAMINATED
                question = (
                    _notice_question(gi, source) if contaminated
                    else _register_question(gi, source, 1)
                )
                answer = str(1000 + gi) if contaminated else str(3000 + 10 * gi + 1)
                doc.candidates = [
                    PlannedCandidate(rank=1, label=SINGLE_PERSONA, question=question,
                                     answer=answer, contaminated=contaminated)
                ]
                singles += 1
            else:
                cands = []
                for rank, label in enumerate(TRIPLE_PERSONAS, 1):
                    verify = "pass"
                    if rank == 2 and triples < N_INCORRECT:
                        verify = "incorrect"
                    if rank == 3 and N_INCORRECT <= triples < N_INCORRECT + N_LEAKED:
                        verify = "leaked"
                    cands.append(
                        PlannedCandidate(
                            rank=rank, label=label,
                            question=_register_question(gi, source, rank),
                            answer=str(3000 + 10 * gi + rank),
                            verify=verify,
                        )
                    )
                doc.candidates = cands
                triples += 1
            docs.append(doc)
            pass_index += 1
            gi += 1
    assert len(docs) == 120
    return docs


def _write_jsonl(path: Path, rows) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row, ensure_ascii=False) + "\n")


def build_mock_script(docs: list[PlannedDoc], cfg: PipelineConfig) -> MockScript:
    script = MockScript()
    lib = DemoLibrary.load(cfg.generate.demo_path)
    demos_cache = {}
    for doc in docs:
        if doc.kind == "heuristic":
            continue
        llm_text = truncate_for_llm(doc.text, cfg.filter)
        freq = build_filter_request(llm_text, cfg.filter)
        if doc.kind == "llm_reject":
            script.add(StageTag.FILTER, run_fingerprint(freq), FILTER_REJECTS[doc.filter_reason])
            continue
        script.add(StageTag.FILTER, run_fingerprint(freq), FILTER_PASS)

        labels = [c.label for c in doc.candidates]
        creq = build_classify_request(llm_text, cfg.classify)
        script.add(
            StageTag.CLASSIFY,
            run_fingerprint(creq),
            f"DOMAIN: {doc.domain.value}\nPERSONAS: " + "; ".join(labels),
        )

        if doc.domain not in demos_cache:
            demos_cache[doc.domain] = lib.sample_demos(
                doc.domain, cfg.generate.k_shots, cfg.run.seed
            )
        demos = demos_cache[doc.domain]
        for cand in doc.candidates:
            persona = Persona(label=cand.label, rank=cand.rank)
            greq = build_generate_request(llm_text, persona, demos, cfg.generate)
            script.add(
                StageTag.GENERATE,
                run_fingerprint(greq),
                f"QUESTION: {cand.question}\nANSWER: {cand.answer}",
            )
            qa = CandidateQA(
                doc_id=doc.doc_id, domain=doc.domain, persona=persona,
                question=cand.question, answer=cand.answer,
                few_shot_ids=[d.demo_id for d in demos], gen_fingerprint="",
            )
            vreq = build_verify_request(llm_text, qa, cfg.verify)
            script.add(StageTag.VERIFY, run_fingerprint(vreq), VERIFY_RESPONSES[cand.verify])
    return script


def expected_outcomes(docs: list[PlannedDoc]) -> tuple[dict, list[dict]]:
    n_heur = sum(1 for d in docs if d.kind == "heuristic")
    n_llm_reject = sum(1 for d in docs if d.kind == "llm_reject")
    passing = [d for d in docs if d.kind == "pass"]
    candidates = [c for d in passing for c in d.candidates]
    n_incorrect = sum(1 for c in candidates if c.verify == "incorrect")
    n_leaked = sum(1 for c in candidates if c.verify == "leaked")
    n_contaminated = sum(1 for c in candidates if c.verify == "pass" and c.contaminated)
    survivors = [(d, c) for d in passing for c in d.candidates if c.survives]

    filter_reasons = {}
    for d in docs:
        if d.kind == "heuristic":
            key = f"reject:{d.heuristic_reason}"
            filter_reasons[key] = filter_reasons.get(key, 0) + 1
        elif d.kind == "llm_reject":
            key = f"reject:{d.filter_reason}"
            filter_reasons[key] = filter_reasons.get(key, 0) + 1
    filter_reasons["pass"] = len(passing)

    expected = {
        "docs": len(docs),
        "records": len(survivors),
        "funnel": {
            "ingest": {"in": 120, "pass": 120, "reject": 0, "drop": 0},
            "filter": {"in": 120, "pass": 90, "reject": n_heur + n_llm_reject, "drop": 0},
            "classify": {"in": 90, "pass": 90, "reject": 0, "drop": 0},
            "generate": {"in": len(candidates), "pass": len(candidates), "reject": 0, "drop": 0},
            "verify": {"in": len(candidates),
                       "pass": len(candidates) - n_incorrect - n_leaked,
                       "reject": n_incorrect + n_leaked, "drop": 0},
            "decontaminate": {"in": len(candidates) - n_incorrect - n_leaked,
                              "pass": len(survivors), "reject": n_contaminated, "drop": 0},
            "distill": {"in": 0, "pass": 0, "reject": 0, "drop": 0},
            "write": {"in": len(survivors), "pass": len(survivors), "reject": 0, "drop": 0},
        },
        "gateway_calls": {
            "filter": len(docs) - n_heur,
            "classify": len(passing),
            "generate": len(candidates),
            "verify": len(candidates),
        },
        "filter_reasons": filter_reasons,
        "verify_reasons": {"reject:incorrect": n_incorrect, "reject:leaked": n_leaked,
                           "pass": len(candidates) - n_incorrect - n_leaked},
        "decontaminate_reasons": {"reject:contaminated": n_contaminated,
                                  "pass": len(survivors)},
    }
    expected_records = [
        {
            "record_id": make_record_id(d.doc_id, c.rank, c.question),
            "doc_id": d.doc_id,
            "source": d.source,
            "domain": d.domain.value,
            "persona": {"label": c.label, "rank": c.rank},
            "question": c.question,
            "answer": c.answer,
        }
        for d, c in survivors
    ]
    return expected, expected_records


def build_fixture(root) -> FixtureBundle:
    root = Path(root)
    root.mkdir(parents=True, exist_ok=True)
    eval_dir = root / "evals"
    (eval_dir / "nested").mkdir(parents=True, exist_ok=True)

    docs = plan_docs()
    config_dict = {
        "sources": [
            {"source": s, "path": str(root / f"{s}.jsonl")} for s in SOURCE_SHAPE
        ],
        "run": {
            "seed": SEED,
            "out": str(root / "records.jsonl"),
            "run_dir": str(root / "run"),
        },
        "gateway": {"mock_script": str(root / "mock.jsonl")},
        "decontaminate": {"eval_dir": str(eval_dir), "ngram": 13},
    }
    cfg = config_from_dict(json.loads(json.dumps(config_dict)))

    for source in SOURCE_SHAPE:
        _write_jsonl(root / f"{source}.jsonl",
                     [{"text": d.text} for d in docs if d.source == source])

    planted = [
        c.question
        for d in docs for c in d.candidates
        if c.contaminated
    ]
    assert len(planted) == N_CONTAMINATED
    _write_jsonl(eval_dir / "planted.jsonl", [{"text": q} for q in planted])
    _write_jsonl(
        eval_dir / "filler.jsonl",
        [
            {"text": "The committee reviewed harbor dredging schedules across four coastal "
                     "municipalities before publishing the consolidated maintenance plan."},
            {"text": "Volunteers catalogued migratory bird sightings along the river delta "
                     "throughout the spring survey window for the regional atlas."},
        ],
    )
    _write_jsonl(
        eval_dir / "nested" / "extra.jsonl",
        [
            {"text": "A travelling exhibition of early printing equipment opened in the "
                     "city archive and will remain on display until the end of autumn."},
        ],
    )

    build_mock_script(docs, cfg).save(str(root / "mock.jsonl"))
    config_path = root / "config.yaml"
    config_path.write_text(yaml.safe_dump(config_dict))

    expected, expected_records = expected_outcomes(docs)
    return FixtureBundle(
        root=root,
        config_dict=config_dict,
        config_path=config_path,
        mock_path=root / "mock.jsonl",
        eval_dir=eval_dir,
        docs=docs,
        expected=expected,
        expected_records=expected_records,
    )


def build_throughput_corpus(path, n_docs: int = 10_000) -> None:
    """A plain corpus for measuring non-LLM stage throughput."""
    rows = (
        {
            "text": (
                f"Bulletin {i} from the coastal observation program summarizes tide "
                f"gauge readings for sector {i % 40}. Technicians compared the new "
                f"figures against the running average and filed the calibration "
                f"report with the district office for archival and later review."
            )
        }
        for i in range(n_docs)
    )
    _write_jsonl(Path(path), rows)
