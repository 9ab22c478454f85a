"""Shared record types for the document-to-QA pipeline."""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Iterable, Iterator, Optional

PIPELINE_VERSION = "0.1.0"
STAGES = ("ingest", "filter", "classify", "generate", "verify", "decontaminate", "distill", "write")


def content_hash(*parts: str, bits: int = 128) -> str:
    """Stable hex digest over an ordered tuple of strings.

    Each part is length-framed before hashing so ("ab", "c") and ("a", "bc")
    cannot collide.
    """
    h = hashlib.blake2b(digest_size=bits // 8)
    for part in parts:
        data = part.encode("utf-8")
        h.update(len(data).to_bytes(8, "big"))
        h.update(data)
    return h.hexdigest()


def make_doc_id(source: str, text: str) -> str:
    # Outer whitespace is not identity: "  x  " and "x" are the same document.
    return content_hash(source, text.strip())


class Domain(str, Enum):
    MATH = "math"
    SCIENCE = "science"
    CODE = "code"
    HEALTHCARE = "healthcare"
    COMMERCE = "commerce"
    LIFESTYLE = "lifestyle"
    SOCIAL_SCIENCE = "social_science"
    EDUCATION = "education"
    ARTS_ENTERTAINMENT = "arts_entertainment"
    GENERAL = "general"
    OTHER = "other"


# Human-readable labels injected into the classification prompt, in enum order.
DOMAIN_LABELS = {
    Domain.MATH: "math",
    Domain.SCIENCE: "science",
    Domain.CODE: "code",
    Domain.HEALTHCARE: "healthcare",
    Domain.COMMERCE: "commerce",
    Domain.LIFESTYLE: "lifestyle",
    Domain.SOCIAL_SCIENCE: "social science",
    Domain.EDUCATION: "education",
    Domain.ARTS_ENTERTAINMENT: "arts & entertainment",
    Domain.GENERAL: "general",
    Domain.OTHER: "other",
}


def _fold_label(label: str) -> str:
    out = []
    for ch in label.lower().replace("&", " and "):
        out.append(ch if ch.isalnum() else " ")
    return "_".join("".join(out).split())


_DOMAIN_BY_FOLDED = {_fold_label(lbl): dom for dom, lbl in DOMAIN_LABELS.items()}
_DOMAIN_BY_FOLDED.update({_fold_label(d.value): d for d in Domain})


def snap_domain(label: str) -> Domain:
    """Map a free-form domain label onto the closed enum; unknown labels become OTHER."""
    return _DOMAIN_BY_FOLDED.get(_fold_label(label), Domain.OTHER)


@dataclass
class Document:
    doc_id: str
    source: str
    text: str


@dataclass
class SourceSpec:
    source: str
    path: str
    quota: Optional[int] = None
    weight_seed: int = 0


class FilterReason(str, Enum):
    NONE = ""
    TOO_SHORT = "too_short"
    LOW_ALPHA = "low_alpha"
    BOILERPLATE_HEAVY = "boilerplate_heavy"
    LLM_NON_INFORMATIVE = "llm_non_informative"
    LLM_NOT_SELF_CONTAINED = "llm_not_self_contained"
    LLM_OTHER = "llm_other"


@dataclass
class FilterVerdict:
    qualified: bool
    reason: FilterReason = FilterReason.NONE
    phase: str = "heuristic"  # "heuristic" or "llm"


@dataclass
class Persona:
    label: str
    rank: int  # 1-based and unique within a document


@dataclass
class DemoExample:
    demo_id: str
    domain: Domain
    question: str
    answer: str
    note: str = ""


@dataclass
class CandidateQA:
    doc_id: str
    domain: Domain
    persona: Persona
    question: str
    answer: str
    few_shot_ids: list[str] = field(default_factory=list)
    gen_fingerprint: str = ""


@dataclass
class VerifyVerdict:
    correct: bool
    leaked: bool

    @property
    def passed(self) -> bool:
        return self.correct and not self.leaked


def make_record_id(doc_id: str, persona_rank: int, question: str) -> str:
    return content_hash(doc_id, str(persona_rank), question)


# What json_object, and so line_fields, raises on a line it cannot use.
BAD_LINE = (ValueError, RecursionError)
# Writes ledger rows and dataset lines; json.dumps with these flags makes an encoder per call.
JSON_LINE = json.JSONEncoder(ensure_ascii=False, sort_keys=True)


def json_object(raw: str | bytes) -> dict[str, Any]:
    """The JSON object on one input line: the one line-parse rule in qaforge.

    Every reader of source, eval, dataset, rollout, ledger, mock-script and
    demo lines, and of a provider's reply body, parses here and catches
    BAD_LINE: ValueError (not JSON, not UTF-8, not an object) or RecursionError.
    """
    obj = json.loads(raw)
    if not isinstance(obj, dict):
        raise ValueError(f"expected a JSON object, got {type(obj).__name__}")
    return obj


def line_fields(raw: str | bytes, defaults: dict[str, Optional[str]]) -> dict[str, str]:
    """The named string fields of one JSON-object line; a None default marks a required one.

    Raises BAD_LINE, with a ValueError saying what is wrong.
    """
    obj = json_object(raw)
    fields = {name: obj.get(name, default) for name, default in defaults.items()}
    bad = [name for name, value in fields.items() if not isinstance(value, str)]
    if bad:
        raise ValueError(f"missing or not a string: {', '.join(bad)}")
    return fields


def text_records(lines: Iterable[str]) -> Iterator[Optional[dict[str, Any]]]:
    """Per corpus line, its record if "text" is a string that encodes as UTF-8, else None."""
    for raw in lines:
        rec = None
        try:
            obj = json_object(raw)
            if isinstance(obj.get("text"), str):
                obj["text"].encode("utf-8")  # UnicodeEncodeError on a lone surrogate
                rec = obj
        except BAD_LINE:
            pass
        yield rec
