"""N-gram decontamination: frozen cases, brute-force oracle, properties."""

import random
import re
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qaforge.decontam import (
    ContaminationReport,
    build_index,
    gram_hash,
    is_contaminated,
    load_eval_dir,
    normalize_text,
)
from qaforge.types import content_hash

from conftest import tricky_text

# ---------------------------------------------------------------------------
# Brute-force oracle: explicit window enumeration over word tuples with plain
# set membership, no hashing. Shares only the normalizer with production.
# ---------------------------------------------------------------------------


def oracle_eval_grams(eval_texts, n):
    grams = set()
    for text in eval_texts:
        words = normalize_text(text)
        if not words:
            continue
        if len(words) < n:
            grams.add(tuple(words))
        else:
            for i in range(len(words) - n + 1):
                grams.add(tuple(words[i : i + n]))
    return grams


def oracle_contaminated(question, answer, eval_texts, n):
    """Returns (contaminated, matched_gram_count, first_match_offset)."""
    grams = oracle_eval_grams(eval_texts, n)
    q_words = normalize_text(question)
    a_words = normalize_text(answer)
    matches = []
    for base, words in ((0, q_words), (len(q_words), a_words)):
        if not words:
            continue
        if len(words) < n:
            windows = [(0, tuple(words))]
        else:
            windows = [(i, tuple(words[i : i + n])) for i in range(len(words) - n + 1)]
        for off, window in windows:
            if window in grams:
                matches.append(base + off)
    if not matches:
        return (False, 0, None)
    return (True, len(matches), matches[0])


# ---------------------------------------------------------------------------
# Normalization
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "text,words",
    [
        ("The CAT, sat!", ["the", "cat", "sat"]),
        ("a  b\t\nc", ["a", "b", "c"]),
        ("don't stop", ["don", "t", "stop"]),
        ("x_y coordinates", ["x", "y", "coordinates"]),
        ("42.5% of 1,000", ["42", "5", "of", "1", "000"]),
        ("", []),
        ("?!...", []),
        ("Café au lait", ["café", "au", "lait"]),
    ],
)
def test_normalize_text(text, words):
    assert normalize_text(text) == words


def reference_normalize_text(text):
    """The per-character normalizer the fast paths replace."""
    lowered = text.lower()
    cleaned = "".join(ch if ch.isalnum() else " " for ch in lowered)
    return cleaned.split()


@given(tricky_text)
def test_normalize_text_matches_char_loop_reference(text):
    assert normalize_text(text) == reference_normalize_text(text)


def test_word_class_is_isalnum_on_every_code_point():
    every = "".join(map(chr, range(sys.maxunicode + 1)))
    assert "".join(re.findall(r"[^\W_]", every)) == "".join(filter(str.isalnum, every))


@given(st.lists(st.text(), max_size=15))
def test_gram_hash_pinned_to_content_hash(words):
    assert gram_hash(words) == int(content_hash(" ".join(words), bits=64), 16)


def test_normalization_hides_nothing():
    """Case and punctuation differences cannot mask an overlap."""
    span = "the committee approved the final budget for the western library branch in march"
    idx = build_index([span], n=13)
    report = is_contaminated(
        "The COMMITTEE approved; the final BUDGET, for the western library branch... in March?",
        "",
        idx,
    )
    assert report.contaminated


# ---------------------------------------------------------------------------
# Frozen report values
# ---------------------------------------------------------------------------


def test_exact_window_match_report():
    eval_text = "alpha beta gamma delta epsilon zeta eta"
    idx = build_index([eval_text], n=3)
    # Question shares two windows: (beta gamma delta) at offset 1 and
    # (gamma delta epsilon) at offset 2.
    report = is_contaminated("zzz beta gamma delta epsilon yyy", "", idx)
    assert report == ContaminationReport(True, 2, 1)


def test_clean_pair_report():
    idx = build_index(["one two three four five six seven eight nine ten eleven twelve thirteen"], n=13)
    report = is_contaminated("completely unrelated words in this question", "and answer", idx)
    assert report == ContaminationReport(False, 0, None)


def test_answer_offset_is_shifted_past_question():
    idx = build_index(["red green blue"], n=3)
    report = is_contaminated("first second third fourth", "red green blue", idx)
    # Answer segment starts at word index 4 of the concatenated pair.
    assert report.contaminated and report.first_match_offset == 4


def test_empty_eval_stream():
    idx = build_index([], n=13)
    assert len(idx.grams) == 0 and idx.source_count == 0
    assert not is_contaminated("any question at all", "any answer", idx).contaminated


def test_whitespace_only_eval_items_are_skipped():
    idx = build_index(["   ", "\t", "?!"], n=5)
    assert idx.source_count == 0
    assert not is_contaminated("some words here", "", idx).contaminated


def test_eval_lines_that_are_not_utf8_are_skipped(tmp_path):
    (tmp_path / "bench.jsonl").write_bytes(
        b'{"text": "alpha"}\n{"text": "bad \xff byte"}\n{"text": "lone \\ud800"}\n'
        b'\xff\n{"text": "omega"}\n'
    )
    assert list(load_eval_dir(str(tmp_path))) == ["alpha", "omega"]


def test_thirteen_word_span_detected_at_default_n():
    span = "the quick brown fox jumps over the lazy dog near the old barn"
    assert len(span.split()) == 13
    idx = build_index([f"intro words {span} outro words"], n=13)
    assert is_contaminated(f"Q prefix {span} suffix", "", idx).contaminated


def test_no_shared_vocabulary_is_clean():
    idx = build_index(["alpha beta gamma delta"], n=3)
    assert not is_contaminated("one two three four five", "six seven", idx).contaminated


# ---------------------------------------------------------------------------
# Boundary semantics
# ---------------------------------------------------------------------------


def test_overlap_spanning_question_answer_boundary_does_not_count():
    # Concatenated QA contains "a b c d e" but no window may cross the
    # question/answer boundary, and neither segment alone matches.
    idx = build_index(["a b c d e"], n=5)
    report = is_contaminated("x1 x2 a b", "c d e", idx)
    assert not report.contaminated


def test_short_eval_item_matches_equally_short_segment():
    idx = build_index(["The cat sat"], n=13)
    assert is_contaminated("the cat sat", "", idx).contaminated
    assert is_contaminated("something else", "The cat... SAT", idx).contaminated


def test_short_eval_item_does_not_match_inside_longer_text():
    # A 3-word eval item yields one 3-word gram; a 20-word question yields
    # only 13-word windows, so containment alone is not a match.
    idx = build_index(["the cat sat"], n=13)
    question = "earlier today the cat sat on the warm stone wall watching birds fly over the quiet garden fence"
    assert len(normalize_text(question)) >= 13
    assert not is_contaminated(question, "", idx).contaminated


def test_empty_question_still_checks_answer():
    idx = build_index(["final answer tokens"], n=13)
    assert is_contaminated("?!", "final answer tokens", idx).contaminated


# ---------------------------------------------------------------------------
# Oracle equivalence and properties
# ---------------------------------------------------------------------------


def _random_text(rng, vocab, lo, hi):
    return " ".join(rng.choice(vocab) for _ in range(rng.randint(lo, hi)))


def run_oracle_trials(trials, seed=0):
    """Randomized production-vs-oracle comparison; returns mismatch list."""
    rng = random.Random(seed)
    vocab = [f"w{i}" for i in range(18)]
    mismatches = []
    for trial in range(trials):
        n = rng.choice([3, 7, 13])
        eval_texts = [_random_text(rng, vocab, 1, 40) for _ in range(rng.randint(1, 30))]
        question = _random_text(rng, vocab, 0, 60)
        answer = _random_text(rng, vocab, 0, 20)
        # Half the trials plant a copied eval span to force overlap pressure.
        if rng.random() < 0.5 and eval_texts:
            src = normalize_text(rng.choice(eval_texts))
            if src:
                lo = rng.randint(0, max(0, len(src) - n))
                span = " ".join(src[lo : lo + n])
                if rng.random() < 0.5:
                    question = f"{question} {span}"
                else:
                    answer = f"{span} {answer}"
        idx = build_index(eval_texts, n=n)
        got = is_contaminated(question, answer, idx)
        want = oracle_contaminated(question, answer, eval_texts, n)
        if (got.contaminated, got.matched_gram_count, got.first_match_offset) != want:
            mismatches.append((trial, n, question, answer, eval_texts, got, want))
    return mismatches


def test_oracle_equivalence_sample():
    assert run_oracle_trials(200, seed=11) == []


@settings(max_examples=150, deadline=None)
@given(
    eval_texts=st.lists(
        st.lists(st.sampled_from("abcdefg"), min_size=1, max_size=20).map(" ".join),
        min_size=0,
        max_size=10,
    ),
    question=st.lists(st.sampled_from("abcdefg"), min_size=0, max_size=30).map(" ".join),
    answer=st.lists(st.sampled_from("abcdefg"), min_size=0, max_size=10).map(" ".join),
    n=st.sampled_from([2, 3, 5]),
)
def test_property_oracle_equivalence(eval_texts, question, answer, n):
    idx = build_index(eval_texts, n=n)
    got = is_contaminated(question, answer, idx)
    assert (got.contaminated, got.matched_gram_count, got.first_match_offset) == oracle_contaminated(
        question, answer, eval_texts, n
    )


@settings(max_examples=100, deadline=None)
@given(
    base=st.lists(st.sampled_from("abcde"), min_size=1, max_size=15).map(" ".join),
    extra=st.lists(st.sampled_from("abcde"), min_size=1, max_size=15).map(" ".join),
    question=st.lists(st.sampled_from("abcde"), min_size=1, max_size=25).map(" ".join),
    n=st.sampled_from([2, 3, 5]),
)
def test_property_adding_eval_text_is_monotone(base, extra, question, n):
    """Growing the eval set can only flip clean -> contaminated, never back."""
    before = is_contaminated(question, "", build_index([base], n=n))
    after = is_contaminated(question, "", build_index([base, extra], n=n))
    if before.contaminated:
        assert after.contaminated
        assert after.matched_gram_count >= before.matched_gram_count


def test_gram_hash_is_order_sensitive():
    assert gram_hash(("a", "b", "c")) != gram_hash(("c", "b", "a"))
    assert gram_hash(("a", "b")) == gram_hash(("a", "b"))


def test_build_index_rejects_bad_n():
    with pytest.raises(ValueError):
        build_index(["text"], n=0)
