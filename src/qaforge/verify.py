"""Model-based QA checking: answer correctness and question-to-answer leakage.

Both checks ride in one request because they read the same material; the
verdict only passes when the answer is correct and nothing leaked.
"""

from __future__ import annotations

from . import prompts
from .config import VerifyConfig
from .errors import StructuredParseError
from .gateway import ChatRequest, Gateway, StageTag, parse_yes_no
from .types import CandidateQA, VerifyVerdict


def build_verify_request(llm_text: str, qa: CandidateQA, cfg: VerifyConfig) -> ChatRequest:
    user = prompts.VERIFY_TEMPLATE.format(few_shot=prompts.VERIFY_FEW_SHOT, document=llm_text,
                                          question=qa.question, answer=qa.answer)
    return prompts.stage_request(StageTag.VERIFY, user, cfg.model, cfg.temperature,
                                 cfg.max_output_tokens)


def verify_qa(llm_text: str, qa: CandidateQA, gateway: Gateway, cfg: VerifyConfig) -> VerifyVerdict:
    """Check one candidate against its source. Parse errors propagate as drops."""
    req = build_verify_request(llm_text, qa, cfg)
    fields = gateway.complete_structured(req, ["CORRECT", "LEAKAGE", "RATIONALE"])
    correct = parse_yes_no(fields["CORRECT"])
    leaked = parse_yes_no(fields["LEAKAGE"])
    if correct is None or leaked is None:
        raise StructuredParseError(
            f"unparseable verdict: CORRECT={fields['CORRECT']!r} LEAKAGE={fields['LEAKAGE']!r}"
        )
    return VerifyVerdict(correct=correct, leaked=leaked)
