"""Prompt templates for the pipeline stages, and the one stage-request constructor.

All stage prompts elicit plain "FIELD: value" lines so responses parse without
any structured-output API. The format contract travels in the system message;
the task text and the material travel in the user message. Each stage formats
its template and hands the text, with its config's model, temperature and
token cap, to stage_request: no other code builds a ChatRequest for a stage.
The system message, the user message, the stage tag and the model feed the
request fingerprint, so editing a template here changes every fingerprint
downstream of it (and therefore invalidates recorded mock scripts).
tests/test_golden_requests.py pins those fingerprints to literal values.
"""

from __future__ import annotations

from typing import Sequence

from .gateway import ChatRequest, StageTag
from .types import DOMAIN_LABELS, DemoExample

FORMAT_SYSTEM = (
    "You follow the output format exactly: reply only with the requested "
    "'FIELD: value' lines, one field per line, and nothing else."
)

FILTER_TEMPLATE = """You are a helpful data analyst. You will be given a material which can come from very diverse sources and may not be well-structured. In this stage, your task is to identify whether the material is qualified for the following criteria:
- The material is informative and self-contained for the user
- It's possible to extract question and corresponding answer from the material
- The content has sufficient depth and clarity

Based on the above instructions, identify whether the material is qualified or not.

Respond with:
QUALIFIED: yes or no
REASON: a short reason

Material:
{document}"""

DOMAINS_CLAUSE = ", ".join(DOMAIN_LABELS.values())

CLASSIFY_TEMPLATE = """You are a helpful data analyst. You will be given a material which can come from very diverse sources and may not be well-structured. In this stage, your task is to identify the domain and persona of the material.

Here are the instructions for the domain and persona:
- The domain is the main topic of the material. You should choose one from the following domains: {domains}
- The persona is the intended audience of the material. If the material is intended for multiple personas, you should list several personas that will be interested in the material

Based on the above instructions, identify the domain and persona of the material.

Respond with:
DOMAIN: one domain from the list
PERSONAS: short persona descriptions separated by semicolons

Material:
{document}"""

GENERATE_TEMPLATE = """You will be given a material which can come from very diverse sources and may not be well-structured. In this stage, your task is to generate a question and answer pair from the material.

Here are the instructions for the question and answer generation:
- You will act as the given persona. You should generate a question and answer pair from your perspective
- Both the question and answer should be totally from the material. Do not generate any information that is not in the material
- You should generate such a question that its corresponding answer is relatively short and can be easily and clearly verified
- Ensure the question is natural and reflects genuine curiosity from the target persona
- Ensure that the question is self-contained: include any context needed to answer it without seeing the material

{few_shot}

Based on the above instructions and examples, generate a question and answer pair from the material.

Respond with:
QUESTION: the question
ANSWER: the short answer

Material:
{document}

Persona:
{persona}"""

VERIFY_TEMPLATE = """You are a data labeler. You will be given a material and a question and answer pair generated from the material. Your task is to check whether the question and answer pair is correct according to the material and whether there is info leakage from the question to the answer.

Here are the instructions for checking:
- For the answer correctness, you should check whether the answer is correct according to the original material
- The information leakage indicates that the question explicitly provides information about the answer and then the answer can be directly obtained from the question
- Ensure the question requires genuine understanding of the source material rather than copying the question text

{few_shot}

Based on the above instructions and examples, check the QA pair extracted from the original material in terms of the answer correctness and info leakage.

Respond with:
CORRECT: yes or no
LEAKAGE: yes or no
RATIONALE: a short rationale

Material:
{document}

QA Pair:
Question: {question}
Answer: {answer}"""

JUDGE_TEMPLATE = """You are grading answers. Decide whether the candidate answer expresses the same final answer as the reference answer for the given question. Differences of casing, punctuation, spacing, or phrasing do not matter; the conveyed answer must match.

Respond with:
MATCH: yes or no

Question: {question}
Reference answer: {gold}
Candidate answer: {candidate}"""

DISTILL_TEMPLATE = """You will be given a question, its verified short answer, and an excerpt of the source material. Write a brief explanation (two to four sentences) that reasons from the material toward the answer and ends by stating the answer itself.

Respond with:
EXPLANATION: the explanation

Question: {question}
Answer: {answer}

Source excerpt:
{excerpt}"""

# Hand-written check exemplars: one clean pair, one pair whose question gives
# the answer away. Shipped here because the checking stage is few-shot.
VERIFY_FEW_SHOT = """Example 1:
Material: The Mariana Trench reaches a maximum known depth of about 10,935 meters at the Challenger Deep, making it the deepest point of any ocean.
Question: What is the approximate maximum known depth, in meters, of the Mariana Trench?
Answer: About 10,935 meters.
CORRECT: yes
LEAKAGE: no
RATIONALE: The depth matches the material and the question does not reveal it.

Example 2:
Material: The Bank of England, founded in 1694, is the central bank of the United Kingdom.
Question: The Bank of England was founded in 1694, so in what year was the Bank of England founded?
Answer: 1694.
CORRECT: yes
LEAKAGE: yes
RATIONALE: The question states the founding year, so the answer can be read directly from the question."""


def few_shot_block(demos: Sequence[DemoExample]) -> str:
    blocks = [f"Example {i}:\nQuestion: {d.question}\nAnswer: {d.answer}"
              for i, d in enumerate(demos, 1)]
    return "\n\n".join(blocks) if blocks else "(no examples)"


def stage_request(stage: StageTag, user: str, model: str, temperature: float,
                  max_output_tokens: int) -> ChatRequest:
    """The one constructor of stage requests: FORMAT_SYSTEM plus the rendered template."""
    return ChatRequest(model=model, system=FORMAT_SYSTEM, user=user, stage_tag=stage,
                       max_output_tokens=max_output_tokens, temperature=temperature)
