"""Document quality filtering: cheap heuristics first, then an LLM pass.

The heuristic gate exists to keep obviously hopeless documents away from the
model: the LLM filter is never invoked on a heuristic reject.
"""

from __future__ import annotations

import string
from collections import Counter

from . import prompts
from .config import FilterConfig
from .gateway import ChatRequest, Gateway, StageTag, parse_yes_no
from .errors import StructuredParseError
from .types import Document, FilterReason, FilterVerdict

# Single-paragraph prose arrives as one long line; the repeated-line test is
# meaningless below a handful of lines.
_MIN_LINES_FOR_BOILERPLATE = 5

_ASCII_ALNUM = (string.ascii_letters + string.digits).encode("ascii")


def count_alnum(text: str) -> int:
    """How many characters of text are alphanumeric, as str.isalnum() decides."""
    if text.isascii():
        # For ASCII, isalnum() is exactly [0-9A-Za-z]: count what deleting them removes.
        return len(text) - len(text.encode("ascii").translate(None, _ASCII_ALNUM))
    return sum(map(str.isalnum, text))


def truncate_for_llm(text: str, cfg: FilterConfig) -> str:
    """Over-long documents are cut to max_chars for every LLM stage, not rejected."""
    return text if len(text) <= cfg.max_chars else text[: cfg.max_chars]


def heuristic_filter(doc: Document, cfg: FilterConfig) -> FilterVerdict:
    text = doc.text.strip()
    if not text or len(text) < cfg.min_chars:  # min_chars may be 0
        return FilterVerdict(qualified=False, reason=FilterReason.TOO_SHORT, phase="heuristic")
    if count_alnum(text) / len(text) < cfg.min_alpha:
        return FilterVerdict(qualified=False, reason=FilterReason.LOW_ALPHA, phase="heuristic")
    lines = [ln for ln in map(str.strip, text.splitlines()) if ln]
    if len(lines) >= _MIN_LINES_FOR_BOILERPLATE:
        top = Counter(lines).most_common(1)[0][1]
        if top / len(lines) > cfg.max_boilerplate:
            return FilterVerdict(
                qualified=False, reason=FilterReason.BOILERPLATE_HEAVY, phase="heuristic"
            )
    return FilterVerdict(qualified=True, phase="heuristic")


def build_filter_request(llm_text: str, cfg: FilterConfig) -> ChatRequest:
    user = prompts.FILTER_TEMPLATE.format(document=llm_text)
    return prompts.stage_request(StageTag.FILTER, user, cfg.model, cfg.temperature,
                                 cfg.max_output_tokens)


def _map_reject_reason(reason_text: str) -> FilterReason:
    lowered = reason_text.lower()
    if "self-contained" in lowered or "self contained" in lowered or "context" in lowered:
        return FilterReason.LLM_NOT_SELF_CONTAINED
    if "informative" in lowered or "boilerplate" in lowered:
        return FilterReason.LLM_NON_INFORMATIVE
    return FilterReason.LLM_OTHER


def llm_filter(llm_text: str, gateway: Gateway, cfg: FilterConfig) -> FilterVerdict:
    """Ask the model whether the document is usable. Parse errors propagate."""
    req = build_filter_request(llm_text, cfg)
    fields = gateway.complete_structured(req, ["QUALIFIED", "REASON"])
    qualified = parse_yes_no(fields["QUALIFIED"])
    if qualified is None:
        raise StructuredParseError(f"unparseable QUALIFIED value: {fields['QUALIFIED']!r}")
    if qualified:
        return FilterVerdict(qualified=True, phase="llm")
    return FilterVerdict(qualified=False, reason=_map_reject_reason(fields["REASON"]), phase="llm")
