"""Binary reward scoring: extraction, normalization, judge escalation."""

import io
import json
from typing import Optional

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qaforge.config import RewardConfig
from qaforge.errors import TransientProviderError
from qaforge.gateway import MockScript, StageTag
from qaforge.reward import (
    _TAIL_CHARS,
    RewardRequest,
    RewardVerifier,
    _find_boxed,
    extract_final_answer,
    normalize_answer,
    score_rollout_files,
    serve_stdin,
)

from conftest import stage_requests, tricky_text

# (gold, rollout, expected reward) across markers, case, punctuation, numerals.
SCORE_TABLE = [
    ("Paris", "The capital is France's largest city.\nAnswer: Paris", 1),
    ("paris", "Answer: Paris.", 1),
    ("1,000", "Computing the total step by step.\n1000.0", 1),
    ("1000.0", "Answer: 1,000", 1),
    ("42", "The answer is clear.\n\\boxed{42}", 1),
    ("42", "\\boxed{42.0}", 1),
    ("Yes", "answer: yes", 1),
    ("  3.50 ", "Final Answer: 3.5", 1),
    ("x = 5", "Answer:   x  =  5", 1),
    ("The Eiffel Tower", "ANSWER: the eiffel tower!", 1),
    ("7", "Reasoning through it.\nanswer: 7\nThat settles it.", 1),
    ("-5", "Answer: -5.0", 1),
    ("0.5", "\\boxed{0.50}", 1),
    ("A", "After much deliberation.\nA", 1),
    ("blue", "ANSWER: Blue.", 1),
    ("1234567", "Answer: 1,234,567", 1),
    ("3", "Answer: 2\nWait, that is wrong.\nAnswer: 3", 1),
    ("10", "\\boxed{5}\nAnswer: 10", 1),
    ("5", "Answer: 10\nso finally \\boxed{5}", 1),
    ("alpha", "ANSWER: ALPHA", 1),
    ("100", "The total comes to\n100.", 1),
    ("Mount Everest", "One line of context.\nMount Everest", 1),
    ("½", "Answer: ½", 1),
    ("Paris", "Answer: London", 0),
    ("42", "Answer: 24", 0),
    ("1000", "Answer: 100", 0),
    ("yes", "Answer: no", 0),
    ("3.14", "Answer: 3.1415", 0),
    ("Paris", "I cannot determine the answer.", 0),
    ("7", "", 0),
    ("December 25", "Answer: December 24", 0),
    ("cat", "catalogue", 0),
    ("5", "Answer:", 0),
    ("1,000", "Answer: 1000.5", 0),
    ("x = 5", "Answer: x = 6", 0),
    ("no", "Answer: No, definitely not", 0),
]


@pytest.mark.parametrize("gold,rollout,expected", SCORE_TABLE)
def test_exact_reward_table(gold, rollout, expected):
    result = RewardVerifier().score(RewardRequest(question="q", gold_answer=gold, rollout=rollout))
    assert result.reward == expected
    assert result.method == "exact"


def test_table_is_large_enough():
    assert len(SCORE_TABLE) >= 30


# ---------------------------------------------------------------------------
# Extraction
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "rollout,expected",
    [
        ("Answer: 42", "42"),
        ("final answer: forty two", "forty two"),
        ("Work:\n\\boxed{x+1}", "x+1"),
        ("\\boxed{\\frac{1}{2}}", "\\frac{1}{2}"),
        ("no markers here\nlast line", "last line"),
        ("", ""),
        ("   \n  \n", ""),
        ("Answer: first\nmore text\nAnswer: second", "second"),
        ("\\boxed{old}\ntext\nAnswer: new", "new"),
        ("Answer: old\ntext \\boxed{new}", "new"),
    ],
)
def test_extract_final_answer(rollout, expected):
    assert extract_final_answer(rollout) == expected


def test_marker_list_is_configuration():
    cfg = RewardConfig(marker_prefixes=["result:"], use_boxed=False)
    assert extract_final_answer("Result: 9\nAnswer: 8", cfg) == "9\nAnswer: 8".splitlines()[0]
    # boxed disabled: falls back to the last non-empty line
    assert extract_final_answer("\\boxed{3}", cfg) == "\\boxed{3}"


# The forward scan that extract_final_answer replaced, kept as the reference
# its backward walk must match on every input and config.
def reference_find_boxed(text: str) -> Optional[tuple[int, str]]:
    marker = r"\boxed{"
    start = text.rfind(marker)
    if start < 0:
        return None
    depth = 1
    i = start + len(marker)
    while i < len(text) and depth:
        if text[i] == "{":
            depth += 1
        elif text[i] == "}":
            depth -= 1
        i += 1
    if depth:
        return start, text[start + len(marker) :].strip()
    return start, text[start + len(marker) : i - 1].strip()


def reference_extract(rollout: str, cfg: Optional[RewardConfig] = None) -> str:
    cfg = cfg or RewardConfig()
    candidates: list[tuple[int, str]] = []
    if cfg.use_boxed:
        boxed = reference_find_boxed(rollout)
        if boxed:
            candidates.append(boxed)
    pos = 0
    for line in rollout.splitlines(keepends=True):
        stripped = line.strip().lower()
        for prefix in cfg.marker_prefixes:
            if stripped.startswith(prefix):
                value = line.strip()[len(prefix) :].strip()
                if value:
                    candidates.append((pos, value))
                break
        pos += len(line)
    if candidates:
        return max(candidates, key=lambda c: c[0])[1]
    lines = [ln.strip() for ln in rollout.splitlines() if ln.strip()]
    return lines[-1] if lines else ""


# Line separators of str.splitlines, characters whose lower() changes length
# or depends on context, markers in several cases, and braces.
_PIECES = ["\n", "\r", "\r\n", "\x0b", "\x1c", "\x85", "\u2028", " ", "\t", "\u0130", "\u03a3",
           "\u03c2", "A\u03a3", "answer:", "Answer: 1", "ANSWER:  ", "Final Answer: 2",
           "final answer:", "Result: 3", "\\boxed{", "\\boxed{4}", "\\boxed{}", "{", "}", "x"]
# Long lines push the markers across the first and later slice cuts.
_piece = st.one_of(st.sampled_from(_PIECES), tricky_text,
                   st.integers(1, 3 * _TAIL_CHARS).map(lambda n: "y" * n))
_rollouts = st.one_of(tricky_text, st.lists(_piece, max_size=40).map("".join))
_prefix = st.one_of(st.sampled_from(["answer:", "final answer:", "Answer:", "", "result:",
                                     "\u03c3", "\u03c2", "i\u0307", "answer", "answer: 1"]), tricky_text)
_configs = st.builds(RewardConfig, marker_prefixes=st.lists(_prefix, max_size=3),
                     use_boxed=st.booleans())


@settings(max_examples=1000, deadline=None)
@given(_rollouts, _configs)
@example("Answer: early\n" + "y" * _TAIL_CHARS + "\nbare", RewardConfig())
@example("\\boxed{7}\n" + "y" * 2 * _TAIL_CHARS + "\nAnswer:\ntail", RewardConfig())
@example("A\u03a3\nx", RewardConfig(marker_prefixes=["\u03c2"]))
@example("\u0130answer: 5", RewardConfig(marker_prefixes=["i\u0307answer:"]))
@example("\u03c2 7", RewardConfig(marker_prefixes=["\u03c3"]))  # lower(), not casefold()
@example("Answer:\nplain", RewardConfig(marker_prefixes=["answer:", "answer"]))
def test_extract_matches_the_forward_scan(rollout, cfg):
    assert extract_final_answer(rollout, cfg) == reference_extract(rollout, cfg)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from(["{", "}", "\\boxed{", "x", " ", "\n"]) | tricky_text).map("".join))
def test_find_boxed_matches_the_char_loop(text):
    assert _find_boxed(text) == reference_find_boxed(text)


@pytest.mark.parametrize("sep", ["\n", "\r\n", "\r", "\x85"])
@pytest.mark.parametrize("head,tail", [
    ("Answer: early", "bare last line"),      # marker before the cut, none after
    ("Answer: early", "Answer: late"),        # markers on both sides of the cut
    ("\\boxed{early}", "plain"),             # boxed answer before the cut
    ("\\boxed{early}", "Answer: late"),
    ("Answer: early", "answer:"),             # empty value after the cut
    ("", "\n\n"),
])
def test_extract_at_a_slice_cut(sep, head, tail):
    """A separator (\\r\\n included) lands on each side of the first slice's cut."""
    for shift in range(-3, 4):
        filler = "y" * (_TAIL_CHARS + shift - len(tail) - len(sep))
        for rollout in (head + sep + filler + sep + tail,
                        head + sep + filler + sep + filler + sep + filler + sep + tail):
            for cfg in (RewardConfig(), RewardConfig(use_boxed=False)):
                assert extract_final_answer(rollout, cfg) == reference_extract(rollout, cfg)


_LINE = "Some long reasoning about the problem, one step at a time.\n"
_MB = _LINE * (1_000_000 // len(_LINE))


@pytest.mark.parametrize("rollout,extracted,reward", [
    (_MB + _MB + "7", "7", 1),
    (_MB + _MB + "Answer: 7", "7", 1),
    (_MB + "\\boxed{" + _MB, _MB.strip(), 0),
], ids=["bare", "marker-last", "unclosed-boxed"])
def test_two_megabyte_rollouts_score(rollout, extracted, reward):
    result = RewardVerifier().score(RewardRequest(question="q", gold_answer="7", rollout=rollout))
    assert (result.extracted_answer, result.reward) == (extracted, reward)


@pytest.mark.parametrize(
    "raw,normalized",
    [
        ("  Paris.  ", "paris"),
        ("1,000", "1000"),
        ("1000.0", "1000"),
        ("1,234.50", "1234.5"),
        ("YES!", "yes"),
        ("a  b\tc", "a b c"),
        ("-3.10", "-3.1"),
        ("version 2.0 of 3,000 units", "version 2 of 3000 units"),
        ("12,34", "12,34"),
    ],
)
def test_normalize_answer(raw, normalized):
    assert normalize_answer(raw) == normalized


@settings(max_examples=150, deadline=None)
@given(st.text(max_size=200), st.text(min_size=1, max_size=50))
def test_reward_is_binary_and_deterministic(rollout, gold):
    first = RewardVerifier().score(RewardRequest(question="q", gold_answer=gold, rollout=rollout))
    second = RewardVerifier().score(RewardRequest(question="q", gold_answer=gold, rollout=rollout))
    assert first.reward in (0, 1)
    assert (first.reward, first.method, first.extracted_answer) == (
        second.reward,
        second.method,
        second.extracted_answer,
    )


@settings(max_examples=100, deadline=None)
@given(st.text(min_size=1, max_size=60))
def test_normalization_symmetry(answer):
    """A value always matches itself, however the surface form is perturbed."""
    perturbed = "  " + answer.upper() + ".  "
    req = RewardRequest(question="q", gold_answer=answer, rollout="Answer: " + perturbed)
    got = RewardVerifier().score(req)
    if normalize_answer(answer):
        if extract_final_answer(req.rollout) == perturbed.strip():
            assert got.reward == 1


# ---------------------------------------------------------------------------
# Judge escalation
# ---------------------------------------------------------------------------


def _judge_script(reply):
    script = MockScript()
    script.set_default(StageTag.JUDGE, reply)
    return script


def test_exact_hit_skips_judge(gw_factory):
    gateway = gw_factory(_judge_script("MATCH: yes"))
    verifier = RewardVerifier(cfg=RewardConfig(judge=True), gateway=gateway)
    result = verifier.score(RewardRequest(question="q", gold_answer="7", rollout="Answer: 7"))
    assert result.reward == 1 and result.method == "exact"
    assert stage_requests(gateway, StageTag.JUDGE) == 0
    assert verifier.counters.judge_calls == 0


def test_judge_accepts_semantic_match(gw_factory):
    gateway = gw_factory(_judge_script("MATCH: yes"))
    verifier = RewardVerifier(cfg=RewardConfig(judge=True), gateway=gateway)
    req = RewardRequest(
        question="What is the capital of France?",
        gold_answer="Paris",
        rollout="Answer: The city of Paris, France",
    )
    result = verifier.score(req)
    assert result.reward == 1 and result.method == "judge"
    assert stage_requests(gateway, StageTag.JUDGE) == 1


def test_judge_rejects_mismatch(gw_factory):
    gateway = gw_factory(_judge_script("MATCH: no"))
    verifier = RewardVerifier(cfg=RewardConfig(judge=True), gateway=gateway)
    result = verifier.score(RewardRequest(question="q", gold_answer="Paris", rollout="Answer: Lyon"))
    assert result.reward == 0 and result.method == "judge"


class _DeadProvider:
    def send(self, req):
        raise TransientProviderError("socket reset")


def test_judge_transport_failure_fails_closed(gw_factory):
    gateway = gw_factory(provider=_DeadProvider(), max_attempts=3)
    verifier = RewardVerifier(cfg=RewardConfig(judge=True), gateway=gateway)
    result = verifier.score(RewardRequest(question="q", gold_answer="Paris", rollout="Answer: Lyon"))
    assert result.reward == 0 and result.method == "judge"
    assert verifier.counters.judge_failures == 1


def test_judge_parse_garbage_fails_closed(gw_factory):
    gateway = gw_factory(_judge_script("I refuse to use the format"))
    verifier = RewardVerifier(cfg=RewardConfig(judge=True), gateway=gateway)
    result = verifier.score(RewardRequest(question="q", gold_answer="Paris", rollout="Answer: Lyon"))
    assert result.reward == 0
    assert verifier.counters.judge_failures == 1


def test_judge_never_raises_and_degrades_to_exact_without_gateway():
    verifier = RewardVerifier(cfg=RewardConfig(judge=True), gateway=None)
    result = verifier.score(RewardRequest(question="q", gold_answer="Paris", rollout="Answer: Lyon"))
    assert result.reward == 0 and result.method == "exact"


def test_judge_reward_uses_extracted_answer(gw_factory):
    gateway = gw_factory(_judge_script("MATCH: yes"))
    req = RewardRequest(question="q", gold_answer="Paris", rollout="blah\nAnswer: Lutetia")
    result = RewardVerifier(cfg=RewardConfig(judge=True), gateway=gateway).score(req)
    assert result.extracted_answer == "Lutetia"


def test_judged_score_extracts_once(gw_factory, monkeypatch):
    calls = []

    def counted(rollout, cfg=None):
        calls.append(rollout)
        return extract_final_answer(rollout, cfg)

    monkeypatch.setattr("qaforge.reward.extract_final_answer", counted)
    gateway = gw_factory(_judge_script("MATCH: yes"))
    verifier = RewardVerifier(cfg=RewardConfig(judge=True), gateway=gateway)
    result = verifier.score(RewardRequest(question="q", gold_answer="Paris", rollout="Answer: Lutetia"))
    assert result.reward == 1 and result.method == "judge"
    assert len(calls) == 1


# ---------------------------------------------------------------------------
# Batch and stdin interfaces
# ---------------------------------------------------------------------------


def test_score_rollout_files(tmp_path):
    dataset = tmp_path / "qa.jsonl"
    rollouts = tmp_path / "rollouts.jsonl"
    dataset.write_text(
        json.dumps({"record_id": "r1", "question": "Q1", "answer": "7"})
        + "\n"
        + json.dumps({"record_id": "r2", "question": "Q2", "answer": "blue"})
        + "\n"
    )
    rollouts.write_text(
        json.dumps({"record_id": "r1", "rollout": "Answer: 7"})
        + "\n"
        + json.dumps({"record_id": "r2", "rollout": "Answer: red"})
        + "\n"
        + json.dumps({"record_id": "missing", "rollout": "Answer: x"})
        + "\n"
    )
    out = io.StringIO()
    summary = score_rollout_files(str(dataset), str(rollouts), out, RewardVerifier())
    assert summary == {"scored": 2, "unmatched": 1, "malformed": 0}
    lines = [json.loads(l) for l in out.getvalue().splitlines()]
    assert [l["reward"] for l in lines] == [1, 0]
    assert out.getvalue().splitlines()[0] == \
        '{"record_id": "r1", "reward": 1, "method": "exact", "extracted_answer": "7"}'


def test_score_rollout_files_counts_malformed_lines(tmp_path):
    dataset = tmp_path / "qa.jsonl"
    rollouts = tmp_path / "rollouts.jsonl"
    dataset.write_text(json.dumps({"record_id": "r1", "question": "Q1", "answer": "7"}) + "\n")
    rollouts.write_text(
        "[1,2]\n"
        '{"record_id": "r1", "rollout": 5}\n'
        '{"record_id": ["r1"], "rollout": "Answer: 7"}\n'
        "{not json\n"
        + "[" * 100_000 + "]" * 100_000 + "\n"
        + json.dumps({"record_id": "r1", "rollout": "Answer: 7"}) + "\n"
    )
    out = io.StringIO()
    summary = score_rollout_files(str(dataset), str(rollouts), out, RewardVerifier())
    assert summary == {"scored": 1, "unmatched": 0, "malformed": 5}
    assert [json.loads(l)["reward"] for l in out.getvalue().splitlines()] == [1]


def test_serve_stdin_line_protocol():
    requests = [
        {"question": "q", "gold_answer": "7", "rollout": "Answer: 7"},
        {"question": "q", "gold_answer": "7", "rollout": "Answer: 8"},
        {"gold_answer_missing": True},
    ]
    in_fh = io.StringIO("\n".join(json.dumps(r) for r in requests) + "\n")
    out_fh = io.StringIO()
    served = serve_stdin(RewardVerifier(), in_fh, out_fh)
    lines = [json.loads(l) for l in out_fh.getvalue().splitlines()]
    assert served == 2
    assert lines[0]["reward"] == 1 and lines[1]["reward"] == 0
    assert "error" in lines[2]
    assert out_fh.getvalue().splitlines()[0] == '{"reward": 1, "method": "exact", "extracted_answer": "7"}'


# Lone surrogates are valid JSON string escapes but cannot be encoded to UTF-8.
any_text = st.text(st.characters() | st.characters(categories=["Cs"]), max_size=12)
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | any_text,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(any_text, inner, max_size=3),
    max_leaves=8,
)
request_like = st.fixed_dictionaries(
    {}, optional={name: json_values for name in ("question", "gold_answer", "rollout")}
)


@settings(max_examples=200, deadline=None)
@given(st.lists((json_values | request_like).map(json.dumps), max_size=6))
@example(["[1,2]", '{"gold_answer": 5, "rollout": "5"}',
          '{"gold_answer": "\\ud800", "rollout": "Answer: \\ud800"}',
          "[" * 100_000 + "]" * 100_000])
def test_serve_stdin_answers_every_json_line(lines):
    in_fh = io.StringIO("".join(line + "\n" for line in lines))
    raw = io.BytesIO()
    # Strict UTF-8 like a real stdout, so an unencodable reply would raise here.
    out_fh = io.TextIOWrapper(raw, encoding="utf-8", write_through=True)
    served = serve_stdin(RewardVerifier(), in_fh, out_fh)
    replies = [json.loads(r) for r in raw.getvalue().decode("utf-8").splitlines()]
    assert len(replies) == len(lines)
    assert all(("reward" in r) != ("error" in r) for r in replies)
    assert served == sum("reward" in r for r in replies)


def test_empty_gold_never_rewards():
    result = RewardVerifier().score(RewardRequest(question="q", gold_answer="  ", rollout="\n\n"))
    assert result.reward == 0
