"""Heuristic and model-based document filtering."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from qaforge.config import FilterConfig
from qaforge.errors import StructuredParseError
from qaforge.filtering import (
    build_filter_request,
    count_alnum,
    heuristic_filter,
    llm_filter,
    truncate_for_llm,
)
from qaforge.gateway import MockScript, StageTag
from qaforge.types import Document, FilterReason, make_doc_id

from conftest import tricky_text

CFG = FilterConfig()


def make_doc(text, source="t"):
    return Document(doc_id=make_doc_id(source, text), source=source, text=text)


def make_prose(n_chars):
    sentence = "The reservoir north of the old mill supplies drinking water to three towns. "
    reps = n_chars // len(sentence) + 1
    return (sentence * reps)[:n_chars].strip().ljust(n_chars, "x")


# ---------------------------------------------------------------- heuristics


@pytest.mark.parametrize("text", ["", "   \n\t  ", "too short to matter", make_prose(199)])
def test_short_documents_rejected(text):
    verdict = heuristic_filter(make_doc(text), CFG)
    assert not verdict.qualified
    assert verdict.reason is FilterReason.TOO_SHORT
    assert verdict.phase == "heuristic"


def test_minimum_length_prose_passes():
    verdict = heuristic_filter(make_doc(make_prose(200)), CFG)
    assert verdict.qualified and verdict.phase == "heuristic"


def test_symbol_soup_rejected():
    text = ("#$%^&* ()[]{} <> " * 20)[:300]
    assert len(text.strip()) >= 200
    verdict = heuristic_filter(make_doc(text), CFG)
    assert verdict.reason is FilterReason.LOW_ALPHA


def test_length_checked_before_alpha():
    verdict = heuristic_filter(make_doc("#$%^&*"), CFG)
    assert verdict.reason is FilterReason.TOO_SHORT


def test_repeated_lines_rejected():
    nav = "Home | About | Contact | Sign in"
    body = [make_prose(80) for _ in range(3)]
    text = "\n".join([nav, body[0], nav, body[1], nav, body[2]])
    verdict = heuristic_filter(make_doc(text), CFG)
    assert verdict.reason is FilterReason.BOILERPLATE_HEAVY


def test_few_lines_never_boilerplate():
    nav = "Home | About | Contact | Sign in this is padding text"
    text = "\n".join([nav, nav, make_prose(150)])
    verdict = heuristic_filter(make_doc(text), CFG)
    assert verdict.qualified


def test_repeat_ratio_at_threshold_passes():
    # 3 repeats out of 10 lines is exactly the 0.3 bound, which is exclusive.
    nav = "Home | About"
    lines = [nav, nav, nav] + [make_prose(60) + str(i) for i in range(7)]
    verdict = heuristic_filter(make_doc("\n".join(lines)), CFG)
    assert verdict.qualified


def test_single_paragraph_prose_passes():
    verdict = heuristic_filter(make_doc(make_prose(2000)), CFG)
    assert verdict.qualified


def reference_top_repeat(lines):
    """Brute-force count of the most repeated line: O(lines^2), the reference."""
    return max(lines.count(ln) for ln in set(lines))


@given(
    raw_lines=st.lists(st.sampled_from(["Home | About", "  Home | About ", "menu", "", "  ",
                                        "The reservoir feeds three towns.", "x"]), max_size=40),
    max_boilerplate=st.floats(min_value=0.0, max_value=1.0),
)
def test_boilerplate_verdict_matches_bruteforce(raw_lines, max_boilerplate):
    cfg = FilterConfig(min_chars=1, min_alpha=0.0, max_boilerplate=max_boilerplate)
    text = "\n".join(raw_lines + ["closing line"])
    lines = [ln.strip() for ln in text.strip().splitlines() if ln.strip()]
    heavy = len(lines) >= 5 and reference_top_repeat(lines) / len(lines) > max_boilerplate
    verdict = heuristic_filter(make_doc(text), cfg)
    assert verdict.qualified is not heavy
    assert verdict.reason is (FilterReason.BOILERPLATE_HEAVY if heavy else FilterReason.NONE)


@given(tricky_text)
def test_count_alnum_matches_isalnum(text):
    assert count_alnum(text) == sum(ch.isalnum() for ch in text)


# ---------------------------------------------------------------- truncation


def test_truncation_cuts_only_over_limit():
    cfg = FilterConfig(max_chars=100)
    short = make_prose(50)
    assert truncate_for_llm(short, cfg) == short
    long = make_prose(250)
    cut = truncate_for_llm(long, cfg)
    assert len(cut) == 100 and long.startswith(cut)


# ---------------------------------------------------------------- llm pass


def scripted_gateway(gw_factory, response):
    script = MockScript()
    script.set_default(StageTag.FILTER, response)
    return gw_factory(script=script)


def test_llm_accept(gw_factory):
    gw = scripted_gateway(gw_factory, "QUALIFIED: yes\nREASON: informative and self-contained")
    verdict = llm_filter(make_prose(300), gw, CFG)
    assert verdict.qualified and verdict.phase == "llm"
    assert verdict.reason is FilterReason.NONE


@pytest.mark.parametrize(
    "reason_text,expected",
    [
        ("needs surrounding context to make sense", FilterReason.LLM_NOT_SELF_CONTAINED),
        ("not self-contained", FilterReason.LLM_NOT_SELF_CONTAINED),
        ("carries no informative content", FilterReason.LLM_NON_INFORMATIVE),
        ("mostly boilerplate", FilterReason.LLM_NON_INFORMATIVE),
        ("tone is too promotional", FilterReason.LLM_OTHER),
    ],
)
def test_llm_reject_reason_mapping(gw_factory, reason_text, expected):
    gw = scripted_gateway(gw_factory, f"QUALIFIED: no\nREASON: {reason_text}")
    verdict = llm_filter(make_prose(300), gw, CFG)
    assert not verdict.qualified
    assert verdict.reason is expected
    assert verdict.phase == "llm"


def test_llm_nonsense_qualified_value_raises(gw_factory):
    gw = scripted_gateway(gw_factory, "QUALIFIED: banana\nREASON: whatever")
    with pytest.raises(StructuredParseError):
        llm_filter(make_prose(300), gw, CFG)


def test_llm_garbage_exhausts_reasks_then_raises(gw_factory):
    script = MockScript()
    script.set_default(StageTag.FILTER, "no tags here at all")
    provider_gw = gw_factory(script=script, max_reasks=2)
    with pytest.raises(StructuredParseError):
        llm_filter(make_prose(300), provider_gw, CFG)
    assert provider_gw.reasks == 2


def test_filter_request_carries_document_and_config():
    cfg = FilterConfig(model="m-filter", temperature=0.25, max_output_tokens=99)
    req = build_filter_request("the document body", cfg)
    assert req.stage_tag is StageTag.FILTER
    assert req.model == "m-filter"
    assert req.temperature == 0.25
    assert req.max_output_tokens == 99
    assert "the document body" in req.user
