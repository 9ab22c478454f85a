"""Demo sampling, QA generation guards, and optional explanation distilling."""

import pytest

from qaforge.config import GenerateConfig
from qaforge.errors import ConfigError
from qaforge.gateway import MockScript, StageTag, run_fingerprint
from qaforge.generate import (
    AnswerTooLongError,
    DemoLibrary,
    PreLeakError,
    build_generate_request,
    contains_word_seq,
    distill_cot,
    generate_qa,
)
from qaforge.types import CandidateQA, DemoExample, Document, Domain, Persona, make_doc_id

from conftest import SequenceProvider, write_jsonl

CFG = GenerateConfig()
DOC = Document(doc_id=make_doc_id("t", "body"), source="t", text="body")
PERSONA = Persona(label="chemist", rank=1)


# ---------------------------------------------------------------- word seq


@pytest.mark.parametrize(
    "haystack,needle,expected",
    [
        ("Is the answer forty two?", "forty two", True),
        ("What is FORTY-two?", "forty two", True),
        ("forty things, two ideas", "forty two", False),
        ("short", "a much longer needle", False),
        ("anything", "", False),
        ("the Bank of England was founded", "bank of england", True),
    ],
)
def test_contains_word_seq(haystack, needle, expected):
    assert contains_word_seq(haystack, needle) is expected


# ---------------------------------------------------------------- demo library


def test_packaged_library_loads():
    lib = DemoLibrary.load(None)
    assert len(lib.demos) == 22
    by_domain = {}
    for demo in lib.demos:
        by_domain.setdefault(demo.domain, []).append(demo)
    assert set(by_domain) == set(Domain)
    assert all(len(v) == 2 for v in by_domain.values())
    assert len({d.demo_id for d in lib.demos}) == 22


def test_empty_library_rejected():
    with pytest.raises(ConfigError):
        DemoLibrary([])


def test_library_loads_from_file(tmp_path):
    path = tmp_path / "demos.jsonl"
    write_jsonl(path, [{"domain": "math", "question": "2+2?", "answer": "4"}])
    lib = DemoLibrary.load(str(path))
    assert len(lib.demos) == 1 and lib.demos[0].domain is Domain.MATH


def test_library_rejects_bad_domain(tmp_path):
    path = tmp_path / "demos.jsonl"
    write_jsonl(path, [{"domain": "astrology", "question": "q", "answer": "a"}])
    with pytest.raises(ConfigError):
        DemoLibrary.load(str(path))


def test_sample_demos_deterministic():
    lib = DemoLibrary.load(None)
    a = lib.sample_demos(Domain.SCIENCE, 2, seed=7)
    b = lib.sample_demos(Domain.SCIENCE, 2, seed=7)
    assert [d.demo_id for d in a] == [d.demo_id for d in b]
    assert all(d.domain is Domain.SCIENCE for d in a)


def test_sample_demos_zero_k():
    assert DemoLibrary.load(None).sample_demos(Domain.MATH, 0, seed=1) == []


def test_sample_demos_tops_up_from_general():
    lib = DemoLibrary.load(None)  # 2 per domain
    picked = lib.sample_demos(Domain.CODE, 4, seed=3)
    assert len(picked) == 4
    assert sum(1 for d in picked if d.domain is Domain.CODE) == 2
    assert sum(1 for d in picked if d.domain is Domain.GENERAL) == 2


def test_sample_demos_general_never_tops_up_itself():
    lib = DemoLibrary.load(None)
    picked = lib.sample_demos(Domain.GENERAL, 5, seed=3)
    assert len(picked) == 2


# ---------------------------------------------------------------- generation


def gen_gateway(gw_factory, response):
    script = MockScript()
    script.set_default(StageTag.GENERATE, response)
    return gw_factory(script=script)


def test_generate_success(gw_factory):
    gw = gen_gateway(gw_factory, "QUESTION: How many towns does the reservoir serve?\nANSWER: Three towns")
    demos = DemoLibrary.load(None).sample_demos(Domain.GENERAL, 2, seed=0)
    qa = generate_qa("doc body", DOC, Domain.GENERAL, PERSONA, demos, gw, CFG)
    assert qa.question == "How many towns does the reservoir serve?"
    assert qa.answer == "Three towns"
    assert qa.doc_id == DOC.doc_id
    assert qa.persona is PERSONA
    assert qa.few_shot_ids == [d.demo_id for d in demos]
    expected_req = build_generate_request("doc body", PERSONA, demos, CFG)
    assert qa.gen_fingerprint == run_fingerprint(expected_req)


def test_long_answer_recovers_via_reask(gw_factory):
    long_answer = "x" * 300
    provider = SequenceProvider(
        [f"QUESTION: What is it?\nANSWER: {long_answer}", "QUESTION: What is it?\nANSWER: short"]
    )
    gw = gw_factory(provider=provider)
    qa = generate_qa("doc body", DOC, Domain.GENERAL, PERSONA, [], gw, CFG)
    assert qa.answer == "short"
    assert len(provider.requests) == 2
    assert "too long" in provider.requests[1].user
    # Fingerprint identifies the original request, not the corrective one.
    assert qa.gen_fingerprint == run_fingerprint(provider.requests[0])


def test_long_answer_twice_is_rejected(gw_factory):
    long_answer = "x" * 300
    gw = gen_gateway(gw_factory, f"QUESTION: What is it?\nANSWER: {long_answer}")
    with pytest.raises(AnswerTooLongError):
        generate_qa("doc body", DOC, Domain.GENERAL, PERSONA, [], gw, CFG)


def test_answer_length_bound_is_inclusive(gw_factory):
    answer = "y" * 160
    gw = gen_gateway(gw_factory, f"QUESTION: What is it?\nANSWER: {answer}")
    qa = generate_qa("doc body", DOC, Domain.GENERAL, PERSONA, [], gw, CFG)
    assert len(qa.answer) == 160


def test_question_containing_answer_is_rejected(gw_factory):
    gw = gen_gateway(gw_factory, "QUESTION: Is the answer forty two?\nANSWER: forty two")
    with pytest.raises(PreLeakError):
        generate_qa("doc body", DOC, Domain.GENERAL, PERSONA, [], gw, CFG)


def test_generate_request_mentions_persona_and_demos():
    demos = [DemoExample(demo_id="d1", domain=Domain.MATH, question="2+2?", answer="4", note="")]
    req = build_generate_request("doc body", Persona(label="actuary", rank=2), demos, CFG)
    assert req.stage_tag is StageTag.GENERATE
    assert "actuary" in req.user
    assert "2+2?" in req.user
    assert "doc body" in req.user


# ---------------------------------------------------------------- distilling


def make_qa(answer="three towns"):
    return CandidateQA(
        doc_id=DOC.doc_id,
        domain=Domain.GENERAL,
        persona=PERSONA,
        question="How many towns?",
        answer=answer,
        few_shot_ids=[],
        gen_fingerprint="f",
    )


def test_distill_keeps_explanation_containing_answer(gw_factory):
    provider = SequenceProvider(["EXPLANATION: The text lists three towns, so three towns."])
    gw = gw_factory(provider=provider)
    out = distill_cot(make_qa(), "doc body", gw, CFG)
    assert out is not None and "three towns" in out
    assert len(provider.requests) == 1


def test_distill_retries_once_for_missing_answer(gw_factory):
    provider = SequenceProvider(
        ["EXPLANATION: It follows from the text.", "EXPLANATION: Counting gives three towns."]
    )
    gw = gw_factory(provider=provider)
    out = distill_cot(make_qa(), "doc body", gw, CFG)
    assert out == "Counting gives three towns."
    assert len(provider.requests) == 2
    assert "did not state the answer" in provider.requests[1].user


def test_distill_gives_up_quietly(gw_factory):
    provider = SequenceProvider(["EXPLANATION: Vague words.", "EXPLANATION: Still vague."])
    gw = gw_factory(provider=provider)
    assert distill_cot(make_qa(), "doc body", gw, CFG) is None
    assert len(provider.requests) == 2


def test_distill_parse_failure_returns_none(gw_factory):
    provider = SequenceProvider(["no tags"])
    gw = gw_factory(provider=provider, max_reasks=0)
    assert distill_cot(make_qa(), "doc body", gw, CFG) is None
