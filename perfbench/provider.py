"""Synthetic chat provider that answers from a workload plan.

The provider finds the document a request is about by the tag at the start of
every planned document, and the candidate by its persona label (generate) or
question (verify). Its reply and its latency are pure functions of the seed's
plan and the request. Only the transient fault needs state: it fails the first
send of a planned request and lets the gateway's retry of the same request
through, which a pure function cannot tell apart.

A request counts as the first ask when the user message still ends the way
the stage template ends (the document, the persona label or the answer);
re-asks append a correction after it. Planned unparseable and over-long
replies are given to first asks only, so every planned item still reaches
its planned outcome after one re-ask.
"""

from __future__ import annotations

import re
import threading
import time
from typing import Callable, Optional

from qaforge.errors import TransientProviderError
from qaforge.gateway import ChatRequest, ChatResponse, StageTag, run_fingerprint

from workloads import (
    GARBAGE_REPLY,
    TAG_PREFIX,
    TAG_SUFFIX,
    VERIFY_REPLIES,
    PlannedCandidate,
    PlannedDoc,
)

_TAG_RE = re.compile(re.escape(TAG_PREFIX) + r"(\d+)" + re.escape(TAG_SUFFIX))
# Generate calls take several times longer than the short judgement calls.
STAGE_LATENCY = {StageTag.GENERATE: 4.0}


class SyntheticProvider:
    """Plan-driven provider; thread-safe; records every send for the harness."""

    def __init__(self, docs: list[PlannedDoc], latency_s: float,
                 sleep: Callable[[float], None] = time.sleep):
        self.docs = {d.idx: d for d in docs}
        self.latency_s = latency_s
        self._sleep = sleep
        self._lock = threading.Lock()
        self._sends_by_fp: dict[str, int] = {}
        self.calls = 0
        self.sleep_total = 0.0
        self.first_send_at: Optional[float] = None

    def _resolve(self, req: ChatRequest) -> tuple[PlannedDoc, Optional[PlannedCandidate], str, bool]:
        """(document, candidate, plan key, whether this is the first ask)."""
        m = _TAG_RE.search(req.user)
        if m is None:
            raise ValueError("request names no planned document")
        doc = self.docs[int(m.group(1))]
        stage = req.stage_tag
        if stage == StageTag.GENERATE:
            cand = next(c for c in doc.candidates if c.label in req.user)
            return doc, cand, f"generate:{cand.rank}", req.user.endswith(cand.label)
        if stage == StageTag.VERIFY:
            cand = next(c for c in doc.candidates if c.question in req.user)
            return doc, cand, f"verify:{cand.rank}", req.user.endswith(cand.answer)
        return doc, None, stage.value, req.user.endswith(doc.tail)

    def latency(self, req: ChatRequest) -> float:
        """Planned heavy-tailed delay of the request's (stage, item) key."""
        return self._latency(req, *self._resolve(req))

    def reply(self, req: ChatRequest) -> tuple[str, str]:
        """(reply text, fault) for a request; fault is "" or "transient"."""
        return self._reply(req, *self._resolve(req))

    def _latency(self, req, doc, cand, key, first_ask) -> float:
        if self.latency_s <= 0:
            return 0.0
        return self.latency_s * STAGE_LATENCY.get(req.stage_tag, 1.0) * doc.latency[key]

    def _reply(self, req, doc, cand, key, first_ask) -> tuple[str, str]:
        fault = doc.faults.get(key, "") if first_ask else ""
        if fault == "garbage":
            return GARBAGE_REPLY, ""
        stage = req.stage_tag
        if stage == StageTag.FILTER:
            text = doc.filter_reply
        elif stage == StageTag.CLASSIFY:
            text = f"DOMAIN: {doc.domain}\nPERSONAS: " + "; ".join(c.label for c in doc.candidates)
        elif stage == StageTag.GENERATE:
            answer = cand.answer
            if fault == "long":
                answer = f"{cand.answer}, as the report states at length " + "and so on " * 20
            text = f"QUESTION: {cand.question}\nANSWER: {answer}"
        elif stage == StageTag.VERIFY:
            text = VERIFY_REPLIES[cand.verify]
        else:
            raise ValueError(f"unplanned stage {stage.value}")
        return text, fault

    def send(self, req: ChatRequest) -> ChatResponse:
        now = time.perf_counter()
        fingerprint = run_fingerprint(req)
        resolved = self._resolve(req)
        text, fault = self._reply(req, *resolved)
        delay = self._latency(req, *resolved)
        with self._lock:
            if self.first_send_at is None:
                self.first_send_at = now
            self.calls += 1
            self.sleep_total += delay
            nth = self._sends_by_fp.get(fingerprint, 0) + 1
            self._sends_by_fp[fingerprint] = nth
        if delay:
            self._sleep(delay)
        if fault == "transient" and nth == 1:
            raise TransientProviderError("synthetic timeout")
        return ChatResponse(
            text=text,
            input_tokens=(len(req.system) + len(req.user)) // 4,
            output_tokens=len(text) // 4,
            provider_latency=delay,
        )
