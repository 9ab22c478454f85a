"""The SFT distill stage (generate.sft_distill) end to end on the shared fixture.

Every surviving candidate gets a scripted distill reply. Most state the
verified answer; every OMIT_EVERY-th does not, so it is re-asked once, the
re-ask falls to a stage default that does not state the answer either, and
the record ships without an explanation.
"""

from __future__ import annotations

from fixture_builder import build_fixture

from conftest import read_jsonl
from qaforge.filtering import truncate_for_llm
from qaforge.gateway import Gateway, MockProvider, MockScript, StageTag, run_fingerprint
from qaforge.generate import build_distill_request
from qaforge.pipeline import resume_run, run_pipeline
from qaforge.types import CandidateQA, Persona, make_record_id

OMIT_EVERY = 40
NO_ANSWER = "EXPLANATION: The material describes the register without giving its figures."


def explanation(answer: str) -> str:
    return f"The register totals are listed in the material, and the count given is {answer}."


def distill_script(bundle, cfg):
    """The fixture's script plus distill replies; returns it and {record_id: explanation}."""
    script = MockScript.load(str(bundle.mock_path))
    script.set_default(StageTag.DISTILL, NO_ANSWER)  # what every re-ask gets
    expected = {}
    survivors = [(d, c) for d in bundle.docs for c in d.candidates if c.survives]
    for i, (doc, cand) in enumerate(survivors):
        qa = CandidateQA(doc_id=doc.doc_id, domain=doc.domain,
                         persona=Persona(label=cand.label, rank=cand.rank),
                         question=cand.question, answer=cand.answer)
        req = build_distill_request(qa, truncate_for_llm(doc.text, cfg.filter), cfg.generate)
        text = None if i % OMIT_EVERY == 0 else explanation(cand.answer)
        script.add(StageTag.DISTILL, run_fingerprint(req),
                   NO_ANSWER if text is None else f"EXPLANATION: {text}")
        expected[make_record_id(doc.doc_id, cand.rank, cand.question)] = text
    return script, expected


def test_sft_distill_run_and_resume(tmp_path):
    bundle = build_fixture(tmp_path)
    cfg = bundle.config()
    cfg.generate.sft_distill = True
    script, expected = distill_script(bundle, cfg)
    omitted = sum(text is None for text in expected.values())
    assert len(expected) == 155 and omitted == 4

    provider = MockProvider(script)
    report = run_pipeline(cfg, gateway=Gateway(provider, concurrency=4, sleep=lambda _s: None))

    assert report.funnel_consistent, report.funnel_problems
    assert report.funnel["distill"]["in"] == report.funnel["decontaminate"]["pass"] == 155
    assert report.reasons["distill"] == {"pass:explained": 155 - omitted, "pass:omitted": omitted}
    # One call per explained record, two (first ask and re-ask) per omitted one.
    assert provider.calls["distill"] == 155 + omitted

    rows = read_jsonl(bundle.root / "run" / "ledgers" / "distill.jsonl")
    assert sorted((r["outcome"], r["reason"]) for r in rows) == sorted(
        ("pass", "omitted" if text is None else "explained") for text in expected.values())
    assert sorted(r["data"]["explanation"] or "" for r in rows) == sorted(
        text or "" for text in expected.values())

    records = read_jsonl(bundle.root / "records.jsonl")
    assert len(records) == 155
    for rec in records:
        text = expected[rec["record_id"]]
        assert rec["explanation"] == text
        assert rec["audit"]["distill"] == {"outcome": "pass", "explained": text is not None}

    before = (bundle.root / "records.jsonl").read_bytes()
    again = MockProvider(script)
    resume_run(str(bundle.root / "run"), gateway=Gateway(again, sleep=lambda _s: None))
    assert again.total_calls == 0
    assert (bundle.root / "records.jsonl").read_bytes() == before
