"""Persona-conditioned QA generation with few-shot demonstrations.

One candidate QA pair per (document, persona). Demonstrations come from a
domain-keyed library: the library bootstraps generation quality before any
model output exists, so a seed set ships inside the package.
"""

from __future__ import annotations

import importlib.resources
import random
from typing import Optional, Sequence

from . import prompts
from .config import GenerateConfig
from .decontam import normalize_text
from .errors import ConfigError, RequestRejectedError, StructuredParseError
from .gateway import ChatRequest, Gateway, StageTag, run_fingerprint
from .types import (
    BAD_LINE,
    CandidateQA,
    DemoExample,
    Document,
    Domain,
    Persona,
    content_hash,
    line_fields,
)


class AnswerTooLongError(Exception):
    """Answer exceeded the length bound even after one corrective re-ask."""


class PreLeakError(Exception):
    """The generated question already contains the answer verbatim."""


def contains_word_seq(haystack: str, needle: str) -> bool:
    """True when needle's normalized words appear contiguously inside haystack's."""
    h = normalize_text(haystack)
    n = normalize_text(needle)
    if not n or len(n) > len(h):
        return False
    return any(h[i : i + len(n)] == n for i in range(len(h) - len(n) + 1))


class DemoLibrary:
    def __init__(self, demos: Sequence[DemoExample]):
        if not demos:
            raise ConfigError("demo library is empty")
        self.demos = list(demos)
        self._by_domain: dict[Domain, list[DemoExample]] = {}
        for demo in self.demos:
            self._by_domain.setdefault(demo.domain, []).append(demo)

    @classmethod
    def load(cls, path: Optional[str] = None) -> "DemoLibrary":
        """Load demos from a JSONL file; with no path, load the packaged seed set."""
        if path is None:
            raw = importlib.resources.files("qaforge").joinpath("data/demos.jsonl").read_bytes()
        else:
            with open(path, "rb") as fh:
                raw = fh.read()
        demos = []
        for lineno, line in enumerate(raw.splitlines(), 1):
            if not line.strip():
                continue
            try:
                rec = line_fields(line, {"domain": None, "question": None, "answer": None,
                                         "note": ""})
                domain = Domain(rec["domain"])
            except BAD_LINE as exc:
                raise ConfigError(f"demo library line {lineno}: {exc}") from exc
            demos.append(
                DemoExample(
                    demo_id=content_hash(rec["domain"], rec["question"])[:12],
                    domain=domain,
                    question=rec["question"],
                    answer=rec["answer"],
                    note=rec["note"],
                )
            )
        return cls(demos)

    def sample_demos(self, domain: Domain, k: int, seed: int) -> list[DemoExample]:
        """Deterministic k-demo draw for a domain, topped up from GENERAL when thin."""
        if k <= 0:
            return []
        rng = random.Random(f"demos:{seed}:{domain.value}")
        pool = list(self._by_domain.get(domain, []))
        picked = rng.sample(pool, min(k, len(pool)))
        if len(picked) < k and domain != Domain.GENERAL:
            chosen_ids = {d.demo_id for d in picked}
            backup = [d for d in self._by_domain.get(Domain.GENERAL, []) if d.demo_id not in chosen_ids]
            picked += rng.sample(backup, min(k - len(picked), len(backup)))
        return picked


def build_generate_request(
    llm_text: str, persona: Persona, demos: list[DemoExample], cfg: GenerateConfig
) -> ChatRequest:
    user = prompts.GENERATE_TEMPLATE.format(
        few_shot=prompts.few_shot_block(demos), document=llm_text, persona=persona.label)
    return prompts.stage_request(StageTag.GENERATE, user, cfg.model, cfg.temperature,
                                 cfg.max_output_tokens)


def generate_qa(
    llm_text: str,
    doc: Document,
    domain: Domain,
    persona: Persona,
    demos: list[DemoExample],
    gateway: Gateway,
    cfg: GenerateConfig,
) -> CandidateQA:
    """Generate one QA candidate for a persona.

    The length bound is enforced mechanically with one corrective re-ask; the
    prompt's "relatively short" instruction alone is not trusted. A question
    that already contains its answer verbatim is rejected here, before the
    model-based check stage spends tokens on it.
    """
    req = build_generate_request(llm_text, persona, demos, cfg)
    too_long = (f"\n\nYour previous answer was too long. ANSWER must be at most "
                f"{cfg.answer_max_chars} characters. Give the shortest correct answer.")
    fields = gateway.complete_structured(
        req, ["QUESTION", "ANSWER"],
        check=lambda f: too_long if len(f["ANSWER"].strip()) > cfg.answer_max_chars else None)
    question, answer = fields["QUESTION"].strip(), fields["ANSWER"].strip()
    if len(answer) > cfg.answer_max_chars:
        raise AnswerTooLongError(f"answer still {len(answer)} chars after re-ask")
    if contains_word_seq(question, answer):
        raise PreLeakError("answer appears verbatim inside the question")
    return CandidateQA(
        doc_id=doc.doc_id,
        domain=domain,
        persona=persona,
        question=question,
        answer=answer,
        few_shot_ids=[d.demo_id for d in demos],
        gen_fingerprint=run_fingerprint(req),
    )


def build_distill_request(qa: CandidateQA, llm_text: str, cfg: GenerateConfig) -> ChatRequest:
    user = prompts.DISTILL_TEMPLATE.format(
        question=qa.question, answer=qa.answer, excerpt=llm_text[: cfg.excerpt_chars])
    return prompts.stage_request(StageTag.DISTILL, user, cfg.distill_model,
                                 cfg.distill_temperature, cfg.max_output_tokens)


def distill_cot(
    qa: CandidateQA, llm_text: str, gateway: Gateway, cfg: GenerateConfig
) -> Optional[str]:
    """Optional short reasoning trace for SFT-style training.

    The explanation must actually contain the verified answer; otherwise one
    re-ask, and on a second miss the record simply ships without an
    explanation. Nothing here is allowed to kill a verified record: an
    unparseable reply or a provider refusal of the request also yields None.
    """
    req = build_distill_request(qa, llm_text, cfg)
    no_answer = ("\n\nYour previous explanation did not state the answer. "
                 "End the explanation by stating the answer itself.")
    try:
        fields = gateway.complete_structured(
            req, ["EXPLANATION"],
            check=lambda f: None if contains_word_seq(f["EXPLANATION"], qa.answer) else no_answer)
    except (StructuredParseError, RequestRejectedError):
        return None
    explanation = fields["EXPLANATION"].strip()
    return explanation if contains_word_seq(explanation, qa.answer) else None
