"""Golden stage requests: literal fingerprints for fixed inputs and the default config.

Mock scripts are keyed by request fingerprint, so the exact bytes of every
stage request are a contract. Every other test derives its fingerprints from
the request builders themselves; this one pins them to literal values, so a
changed template byte, system message, stage tag or model binding fails here.
The three corrective re-asks (an unparseable reply, generate's over-long
answer, distill's explanation without the answer) are pinned the same way,
and so are four nested ones: a second parse re-ask, a parse re-ask inside
the length or distill re-ask, and a length re-ask after a parse re-ask, which
starts again from the original request.
"""

import pytest

from qaforge.classify import build_classify_request
from qaforge.config import ClassifyConfig, FilterConfig, GenerateConfig, RewardConfig, VerifyConfig
from qaforge.filtering import build_filter_request
from qaforge.gateway import ChatResponse, Gateway, StageTag, run_fingerprint
from qaforge.generate import build_distill_request, build_generate_request, distill_cot, generate_qa
from qaforge.reward import RewardRequest, RewardVerifier
from qaforge.types import CandidateQA, DemoExample, Document, Domain, Persona
from qaforge.verify import build_verify_request

# Longer than generate.excerpt_chars (2000), so the distill excerpt cut is pinned too.
DOC = (
    "The Harbor Authority dredged the north channel to a depth of 14 meters in 2019, "
    "allowing container ships with a draft of up to 13 meters to dock at the east quay. "
) * 15
PERSONA = Persona(label="Port Logistics Planner", rank=2)
DEMOS = [
    DemoExample(demo_id="d1", domain=Domain.COMMERCE,
                question="What is the minimum order quantity?", answer="500 units"),
    DemoExample(demo_id="d2", domain=Domain.COMMERCE,
                question="Which quarter saw the highest revenue?", answer="Q3"),
]
QA = CandidateQA(
    doc_id="doc-1", domain=Domain.COMMERCE, persona=PERSONA,
    question="To what depth was the north channel dredged in 2019?", answer="14 meters",
)


class RecordingGateway:
    """Stands in for the gateway: records each request and answers MATCH: yes."""

    def __init__(self):
        self.requests = []

    def complete_structured(self, req, fields):
        self.requests.append(req)
        return {"MATCH": "yes"}


def judge_request():
    gateway = RecordingGateway()
    req = RewardRequest(question=QA.question, gold_answer=QA.answer,
                        rollout="The channel is deep.\nAnswer: fourteen meters")
    result = RewardVerifier(cfg=RewardConfig(judge=True), gateway=gateway).score(req)
    assert result.reward == 1 and result.method == "judge"
    assert len(gateway.requests) == 1
    return gateway.requests[0]


REQUESTS = {
    "filter": lambda: build_filter_request(DOC, FilterConfig()),
    "classify": lambda: build_classify_request(DOC, ClassifyConfig()),
    "generate": lambda: build_generate_request(DOC, PERSONA, DEMOS, GenerateConfig()),
    "verify": lambda: build_verify_request(DOC, QA, VerifyConfig()),
    "distill": lambda: build_distill_request(QA, DOC, GenerateConfig()),
    "judge": judge_request,
}

# stage -> (fingerprint, model, temperature, max_output_tokens)
GOLDEN = {
    "filter": ("22e23e4ea0c3f67d8107f94a92dad3c9", "gpt-4.1", 0.0, 256),
    "classify": ("981ef42f05249ee35f330c890f8c3ff9", "gpt-4.1-mini", 0.0, 256),
    "generate": ("8d1dac4a1462ad19865be362a36e6e83", "gpt-4.1", 0.7, 1024),
    "verify": ("5c9473cda74d69f8a27fd78daf603494", "gpt-4.1-mini", 0.0, 512),
    "distill": ("2f63f3113ed1925878fc53641176a4ae", "gpt-4.1", 0.7, 1024),
    "judge": ("0bdbf2ce31bd8f89340880e7051b5060", "gpt-4.1-mini", 0.0, 64),
}


@pytest.mark.parametrize("stage", sorted(GOLDEN))
def test_stage_request_is_pinned(stage):
    req = REQUESTS[stage]()
    assert req.stage_tag == StageTag(stage)
    assert (run_fingerprint(req), req.model, req.temperature, req.max_output_tokens) \
        == GOLDEN[stage]


class ScriptedProvider:
    """Replies with the given texts in order and records every request it is sent."""

    def __init__(self, replies):
        self.replies = list(replies)
        self.requests = []

    def send(self, req):
        self.requests.append(req)
        return ChatResponse(text=self.replies[len(self.requests) - 1])


def reask_request(call, replies):
    """The last request that call(gateway) sends while the provider plays replies."""
    provider = ScriptedProvider(replies)
    call(Gateway(provider))
    assert len(provider.requests) == len(replies)
    return provider.requests[-1]


GARBAGE = "The channel is 14 meters deep."
SHORT_QA = f"QUESTION: {QA.question}\nANSWER: {QA.answer}"
LONG_QA = f"QUESTION: {QA.question}\nANSWER: {'fourteen meters below mean sea level ' * 6}"
MISS = "EXPLANATION: The channel was deepened."
HIT = "EXPLANATION: The north channel was dredged to 14 meters."


def structured(gw):
    return gw.complete_structured(build_generate_request(DOC, PERSONA, DEMOS, GenerateConfig()),
                                  ["QUESTION", "ANSWER"])


def generate(gw):
    return generate_qa(DOC, Document(doc_id="doc-1", source="port", text=DOC),
                       Domain.COMMERCE, PERSONA, DEMOS, gw, GenerateConfig())


def distill(gw):
    return distill_cot(QA, DOC, gw, GenerateConfig())


REASKS = {
    "parse": lambda: reask_request(structured, [GARBAGE, SHORT_QA]),
    "answer_length": lambda: reask_request(generate, [LONG_QA, SHORT_QA]),
    "distill": lambda: reask_request(distill, [MISS, HIT]),
    "parse_twice": lambda: reask_request(structured, [GARBAGE, GARBAGE, SHORT_QA]),
    "parse_in_length": lambda: reask_request(generate, [LONG_QA, GARBAGE, SHORT_QA]),
    "length_after_parse": lambda: reask_request(generate, [GARBAGE, LONG_QA, SHORT_QA]),
    "parse_in_distill": lambda: reask_request(distill, [MISS, GARBAGE, HIT]),
}

# re-ask -> (stage, fingerprint, model, temperature, max_output_tokens)
GOLDEN_REASKS = {
    "parse": ("generate", "1c5009ec2ecb976eaacba33cb291b853", "gpt-4.1", 0.7, 1024),
    "answer_length": ("generate", "097568dc9b25dd840506e2f7832aa568", "gpt-4.1", 0.7, 1024),
    "distill": ("distill", "7d17f71320bf4ee96b716f063dfa67b9", "gpt-4.1", 0.7, 1024),
    "parse_twice": ("generate", "9fbc1c652a300576e8dd10642e86f27b", "gpt-4.1", 0.7, 1024),
    "parse_in_length": ("generate", "76b6a588e6ecf14e5df135452db6c919", "gpt-4.1", 0.7, 1024),
    # The same request as answer_length: the length re-ask starts from the original.
    "length_after_parse": ("generate", "097568dc9b25dd840506e2f7832aa568", "gpt-4.1", 0.7, 1024),
    "parse_in_distill": ("distill", "d420f96af1f6bbc075281bf2362e7e2e", "gpt-4.1", 0.7, 1024),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_REASKS))
def test_reask_request_is_pinned(name):
    req = REASKS[name]()
    assert (req.stage_tag.value, run_fingerprint(req), req.model, req.temperature,
            req.max_output_tokens) == GOLDEN_REASKS[name]
