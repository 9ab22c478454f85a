"""Domain classification and persona assignment."""

from __future__ import annotations

import re

from . import prompts
from .config import ClassifyConfig
from .gateway import ChatRequest, Gateway, StageTag
from .types import Domain, Persona, snap_domain


class NoPersonasError(Exception):
    """The model produced no usable persona labels."""


_BULLET_RE = re.compile(r"^\s*(?:[-*•]|\d+[.)])\s*")
_MAX_LABEL_WORDS = 8


def parse_personas(raw: str, max_personas: int = 3) -> list[Persona]:
    """Split a delimited persona list into ranked labels.

    Accepts semicolons, newlines, or bulleted lines; falls back to commas when
    the reply is a single comma-joined line. Labels are deduplicated after
    case folding and capped at max_personas; rank is assignment order.
    """
    parts = re.split(r"[;\n]+", raw)
    parts = [_BULLET_RE.sub("", p).strip() for p in parts]
    parts = [p for p in parts if p]
    if len(parts) == 1 and "," in parts[0]:
        parts = [p.strip() for p in parts[0].split(",") if p.strip()]
    personas: list[Persona] = []
    seen: set[str] = set()
    for label in parts:
        label = label.strip().strip(".")
        folded = label.casefold()
        if not label or folded in seen:
            continue
        if len(label.split()) > _MAX_LABEL_WORDS:
            continue
        seen.add(folded)
        personas.append(Persona(label=label, rank=len(personas) + 1))
        if len(personas) == max_personas:
            break
    return personas


def build_classify_request(llm_text: str, cfg: ClassifyConfig) -> ChatRequest:
    user = prompts.CLASSIFY_TEMPLATE.format(domains=prompts.DOMAINS_CLAUSE, document=llm_text)
    return prompts.stage_request(StageTag.CLASSIFY, user, cfg.model, cfg.temperature,
                                 cfg.max_output_tokens)


def classify_and_assign(
    llm_text: str, gateway: Gateway, cfg: ClassifyConfig
) -> tuple[Domain, list[Persona]]:
    """Classify one document and propose its reader personas.

    Off-list domain labels snap to OTHER rather than failing: the enum is
    closed so downstream grouping stays total. An empty persona list raises
    NoPersonasError, which the orchestrator records as a drop.
    """
    req = build_classify_request(llm_text, cfg)
    fields = gateway.complete_structured(req, ["DOMAIN", "PERSONAS"])
    domain = snap_domain(fields["DOMAIN"])
    personas = parse_personas(fields["PERSONAS"], max_personas=cfg.max_personas)
    if not personas:
        raise NoPersonasError(f"no usable personas in: {fields['PERSONAS']!r}")
    return domain, personas
