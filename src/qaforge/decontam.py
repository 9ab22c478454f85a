"""Word n-gram decontamination against evaluation corpora.

A QA pair is contaminated when any n-word window of its question or answer
also appears in an evaluation text. Texts are compared after aggressive
normalization (case, punctuation, whitespace) so that surface formatting
cannot hide an overlap. Short texts still participate: any segment shorter
than n words contributes its whole word sequence as a single gram, on both the
eval side and the query side, so tiny benchmark items remain detectable.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Optional, Sequence

from .errors import IngestError

DEFAULT_NGRAM = 13

# Byte table for ASCII text: alphanumerics stay, every other byte becomes a space.
_ASCII_WORD_BYTES = bytes(b if b < 128 and chr(b).isalnum() else 0x20 for b in range(256))
# A maximal run of str.isalnum() characters: \w is isalnum() plus "_".
_WORD_RE = re.compile(r"[^\W_]+")


def normalize_text(text: str) -> list[str]:
    """Lowercase, map punctuation to spaces, collapse whitespace, split to words."""
    lowered = text.lower()
    # Test the lowered text: U+212A KELVIN SIGN is not ASCII, its lowercase "k" is.
    if lowered.isascii():
        return lowered.encode("ascii").translate(_ASCII_WORD_BYTES).decode("ascii").split()
    return _WORD_RE.findall(lowered)


def gram_hash(words: Sequence[str]) -> int:
    # 64-bit hashes keep the index to 8 bytes per gram; collisions at this
    # width are vanishingly rare for corpus-scale gram counts. The value is
    # int(content_hash(" ".join(words), bits=64), 16) without the hex round trip.
    data = " ".join(words).encode("utf-8")
    digest = hashlib.blake2b(len(data).to_bytes(8, "big") + data, digest_size=8).digest()
    return int.from_bytes(digest, "big")


def _segment_grams(words: Sequence[str], n: int) -> Iterator[tuple[int, Sequence[str]]]:
    """Yield (start_offset, window) for one contiguous segment.

    Windows never span segments; a non-empty segment shorter than n words
    yields itself as one gram.
    """
    if not words:
        return
    if len(words) < n:
        yield 0, tuple(words)
        return
    for i in range(len(words) - n + 1):
        yield i, tuple(words[i : i + n])


@dataclass
class NGramIndex:
    n: int = DEFAULT_NGRAM
    grams: set[int] = field(default_factory=set)
    source_count: int = 0

    def add_text(self, text: str) -> None:
        words = normalize_text(text)
        if not words:
            return
        for _, window in _segment_grams(words, self.n):
            self.grams.add(gram_hash(window))
        self.source_count += 1


@dataclass
class ContaminationReport:
    contaminated: bool
    matched_gram_count: int = 0
    first_match_offset: Optional[int] = None


def build_index(eval_texts: Iterable[str], n: int = DEFAULT_NGRAM) -> NGramIndex:
    if n < 1:
        raise ValueError("n must be >= 1")
    index = NGramIndex(n=n)
    for text in eval_texts:
        index.add_text(text)
    return index


def is_contaminated(question: str, answer: str, index: NGramIndex) -> ContaminationReport:
    """Check a QA pair against the index.

    The question and answer are scanned as separate segments, which is what a
    boundary marker between them would achieve: no window mixes question words
    with answer words. Offsets are word positions in the concatenated
    question-then-answer sequence.
    """
    q_words = normalize_text(question)
    a_words = normalize_text(answer)
    matched = 0
    first: Optional[int] = None
    for base, words in ((0, q_words), (len(q_words), a_words)):
        for start, window in _segment_grams(words, index.n):
            if gram_hash(window) in index.grams:
                matched += 1
                if first is None:
                    first = base + start
    return ContaminationReport(
        contaminated=matched > 0,
        matched_gram_count=matched,
        first_match_offset=first,
    )


def load_eval_dir(eval_dir: str) -> Iterator[str]:
    """Yield eval texts from every .jsonl file under eval_dir (line format: {"text": ...})."""
    if not os.path.isdir(eval_dir):
        raise IngestError(f"eval dir not found: {eval_dir}")
    paths = sorted(
        os.path.join(root, name)
        for root, _, names in os.walk(eval_dir)
        for name in names
        if name.endswith(".jsonl")
    )
    for path in paths:
        with open(path, "r", encoding="utf-8") as fh:
            for raw in fh:
                if not raw.strip():
                    continue
                try:
                    rec = json.loads(raw)
                except json.JSONDecodeError:
                    continue
                text = rec.get("text") if isinstance(rec, dict) else None
                if isinstance(text, str) and text:
                    yield text


def build_index_from_dir(eval_dir: str, n: int = DEFAULT_NGRAM) -> NGramIndex:
    return build_index(load_eval_dir(eval_dir), n=n)
