"""Provider-agnostic chat gateway.

Every LLM call in the pipeline goes through Gateway.complete so that
concurrency caps, rate limiting, retries, and cost accounting live in exactly
one place. Stages never import providers directly.

Two providers ship here: an OpenAI-style HTTP provider for live runs and a
deterministic mock that replays scripted responses keyed by request
fingerprint. The mock is what makes end-to-end tests reproducible without
network access: identical requests hash to identical fingerprints, so a
scripted run yields byte-identical responses regardless of scheduling.
"""

from __future__ import annotations

import json
import os
import random
import re
import threading
import time
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Callable, Optional

from .config import GatewayConfig
from .errors import (
    PermanentProviderError,
    RequestRejectedError,
    StructuredParseError,
    TransientProviderError,
    TransportError,
)
from .types import BAD_LINE, content_hash, json_object, line_fields


class StageTag(str, Enum):
    FILTER = "filter"
    CLASSIFY = "classify"
    GENERATE = "generate"
    VERIFY = "verify"
    JUDGE = "judge"
    DISTILL = "distill"


@dataclass
class ChatRequest:
    model: str
    system: str
    user: str
    stage_tag: StageTag
    max_output_tokens: int = 1024
    temperature: float = 0.0


@dataclass
class ChatResponse:
    text: str
    input_tokens: int = 0
    output_tokens: int = 0
    provider_latency: float = 0.0


def run_fingerprint(req: ChatRequest) -> str:
    """Deterministic identity of a request.

    Covers stage_tag, system, user, and model; sampling knobs like temperature
    are deliberately excluded so a retried or re-tuned request keeps its
    identity for mock routing.
    """
    return content_hash(req.stage_tag.value, req.system, req.user, req.model)


def reask(req: ChatRequest, note: str) -> ChatRequest:
    """The same request with a corrective note appended to the user message."""
    return replace(req, user=req.user + note)


@dataclass
class StageCost:
    requests: int = 0
    input_tokens: int = 0
    output_tokens: int = 0
    retries: int = 0
    reasks: int = 0
    failures: int = 0


class CostLedger:
    """Thread-safe per-(model, stage) accounting.

    Invariant: requests = successes + permanent failures; retries are counted
    separately and never inflate the request count. A re-ask is a request of
    its own and also counts one reask.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._cells: dict[tuple[str, str], StageCost] = {}

    def _cell(self, model: str, stage: StageTag) -> StageCost:
        return self._cells.setdefault((model, stage.value), StageCost())

    def record_success(self, model: str, stage: StageTag, resp: ChatResponse, retries: int) -> None:
        with self._lock:
            cell = self._cell(model, stage)
            cell.requests += 1
            cell.input_tokens += resp.input_tokens
            cell.output_tokens += resp.output_tokens
            cell.retries += retries

    def record_failure(self, model: str, stage: StageTag, retries: int) -> None:
        with self._lock:
            cell = self._cell(model, stage)
            cell.requests += 1
            cell.failures += 1
            cell.retries += retries

    def record_reask(self, model: str, stage: StageTag) -> None:
        with self._lock:
            self._cell(model, stage).reasks += 1

    def total(self, fieldname: str) -> int:
        with self._lock:
            return sum(getattr(c, fieldname) for c in self._cells.values())

    def snapshot(self, pricing: Optional[dict[str, dict[str, float]]] = None) -> dict:
        """Nested {model: {stage: counters}} view plus totals and optional cost estimate."""
        with self._lock:
            cells = {k: StageCost(**vars(v)) for k, v in self._cells.items()}
        totals = vars(StageCost())
        out: dict = {"models": {}, "totals": totals}
        est_cost = 0.0
        for (model, stage), cell in sorted(cells.items()):
            counters = out["models"].setdefault(model, {})[stage] = vars(cell)
            for name, value in counters.items():
                totals[name] += value
            if pricing and model in pricing:
                price = pricing[model]
                est_cost += cell.input_tokens * price.get("input_per_1m", 0.0) / 1e6
                est_cost += cell.output_tokens * price.get("output_per_1m", 0.0) / 1e6
        if pricing:
            totals["estimated_cost_usd"] = round(est_cost, 6)
        return out


class TokenBucket:
    """Blocking token-bucket admission: capacity burst, steady refill per second."""

    def __init__(
        self,
        capacity: float,
        refill_per_s: float,
        clock: Callable[[], float] = time.monotonic,
        sleep: Callable[[float], None] = time.sleep,
    ):
        if capacity < 1 or refill_per_s <= 0:
            raise ValueError("token bucket needs capacity >= 1 and refill > 0")
        self.capacity = float(capacity)
        self.refill_per_s = float(refill_per_s)
        self._clock = clock
        self._sleep = sleep
        self._tokens = float(capacity)
        self._stamp = clock()
        self._lock = threading.Lock()

    def acquire(self) -> None:
        while True:
            with self._lock:
                now = self._clock()
                self._tokens = min(self.capacity, self._tokens + (now - self._stamp) * self.refill_per_s)
                self._stamp = now
                # Epsilon guards against refill rounding just under 1.0 after a
                # computed wait, which would otherwise spin forever on a clock
                # that only advances via sleep.
                if self._tokens >= 1.0 - 1e-9:
                    self._tokens = max(0.0, self._tokens - 1.0)
                    return
                wait = (1.0 - self._tokens) / self.refill_per_s
            # Sleep outside the lock so other threads can race for the next token.
            self._sleep(wait)


@dataclass
class MockScript:
    """Scripted responses keyed by (stage_tag, fingerprint), with per-stage defaults.

    File format: one JSON object per line with keys stage_tag, fingerprint
    (or the literal string "default"), and response.
    """

    responses: dict[tuple[str, str], str] = field(default_factory=dict)
    defaults: dict[str, str] = field(default_factory=dict)

    def add(self, stage: StageTag, fingerprint: str, response: str) -> None:
        self.responses[(stage.value, fingerprint)] = response

    def set_default(self, stage: StageTag, response: str) -> None:
        self.defaults[stage.value] = response

    def lookup(self, stage: StageTag, fingerprint: str) -> str:
        key = (stage.value, fingerprint)
        if key in self.responses:
            return self.responses[key]
        if stage.value in self.defaults:
            return self.defaults[stage.value]
        raise PermanentProviderError(
            f"mock script has no entry or default for stage={stage.value} fingerprint={fingerprint}"
        )

    @classmethod
    def load(cls, path: str) -> "MockScript":
        script = cls()
        with open(path, "rb") as fh:
            for lineno, raw in enumerate(fh, 1):
                if not raw.strip():
                    continue
                try:
                    rec = line_fields(raw, {"stage_tag": None, "fingerprint": None, "response": None})
                    stage = StageTag(rec["stage_tag"])
                except BAD_LINE as exc:
                    raise PermanentProviderError(f"{path}:{lineno}: bad mock script line: {exc}") from exc
                if rec["fingerprint"] == "default":
                    script.set_default(stage, rec["response"])
                else:
                    script.add(stage, rec["fingerprint"], rec["response"])
        return script

    def save(self, path: str) -> None:
        rows = [(stage, "default", response) for stage, response in sorted(self.defaults.items())]
        rows += [(*key, response) for key, response in sorted(self.responses.items())]
        with open(path, "w", encoding="utf-8") as fh:
            for stage, fingerprint, response in rows:
                fh.write(json.dumps({"stage_tag": stage, "fingerprint": fingerprint,
                                     "response": response}, ensure_ascii=False) + "\n")


class MockProvider:
    """Deterministic provider replaying a MockScript; call counts are per stage."""

    def __init__(self, script: MockScript):
        self.script = script
        self._lock = threading.Lock()
        self.calls: dict[str, int] = {}

    @property
    def total_calls(self) -> int:
        with self._lock:
            return sum(self.calls.values())

    def send(self, req: ChatRequest) -> ChatResponse:
        with self._lock:
            self.calls[req.stage_tag.value] = self.calls.get(req.stage_tag.value, 0) + 1
        text = self.script.lookup(req.stage_tag, run_fingerprint(req))
        return ChatResponse(
            text=text,
            input_tokens=len(req.system.split()) + len(req.user.split()),
            output_tokens=len(text.split()),
        )


class HTTPProvider:
    """Minimal OpenAI-style chat-completions client.

    Transient vs permanent classification: 408/429/5xx and connection errors
    retry; other 4xx fail immediately. 400/413/422 reject only the request at
    hand (RequestRejectedError); the rest (401/403/404, ...) affect every request.
    """

    def __init__(self, base_url: str, api_key_env: str = "OPENAI_API_KEY", timeout: float = 120.0):
        self.base_url = base_url.rstrip("/")
        self.api_key_env = api_key_env
        self.timeout = timeout

    def send(self, req: ChatRequest) -> ChatResponse:
        key = os.environ.get(self.api_key_env, "")
        if not key:
            raise PermanentProviderError(f"missing API key in ${self.api_key_env}")
        payload = {
            "model": req.model,
            "messages": [
                {"role": "system", "content": req.system},
                {"role": "user", "content": req.user},
            ],
            "max_tokens": req.max_output_tokens,
            "temperature": req.temperature,
        }
        import requests  # loaded on first send: no other path needs the HTTP stack

        try:
            resp = requests.post(
                f"{self.base_url}/chat/completions",
                json=payload,
                headers={"Authorization": f"Bearer {key}"},
                timeout=self.timeout,
            )
        except requests.RequestException as exc:
            raise TransientProviderError(f"transport failure: {exc}") from exc
        if resp.status_code in (408, 429) or resp.status_code >= 500:
            raise TransientProviderError(f"provider returned {resp.status_code}")
        if resp.status_code in (400, 413, 422):
            raise RequestRejectedError(f"provider returned {resp.status_code}: {resp.text[:200]}")
        if resp.status_code >= 400:
            raise PermanentProviderError(f"provider returned {resp.status_code}: {resp.text[:200]}")
        try:
            body = json_object(resp.content)
        except BAD_LINE as exc:
            raise TransientProviderError(f"malformed provider response: {exc}") from exc
        choices = body.get("choices")
        first = choices[0] if isinstance(choices, list) and choices else None
        message = first.get("message") if isinstance(first, dict) else None
        if not isinstance(message, dict):
            raise TransientProviderError("malformed provider response: no choices[0].message")
        # Content that is not a string reads as "", which the parse re-asks
        # handle; a token count that is not an int reads as 0.
        text = message.get("content")
        usage = body.get("usage") if isinstance(body.get("usage"), dict) else {}
        tokens = [usage.get(name) for name in ("prompt_tokens", "completion_tokens")]
        input_tokens, output_tokens = (n if type(n) is int else 0 for n in tokens)
        return ChatResponse(text=text if isinstance(text, str) else "",
                            input_tokens=input_tokens, output_tokens=output_tokens)


# Tag lines look like "FIELD: value", optionally bold-wrapped by chatty models.
_TAG_RE = re.compile(r"^\s*\*{0,2}([A-Z][A-Z0-9_]*)\*{0,2}\s*:\s?(.*)$")


def parse_tagged_block(text: str, fields: list[str]) -> dict[str, str]:
    """Parse "FIELD: value" lines; values run until the next tag line.

    Returns only the requested fields. Raises StructuredParseError when any
    requested field is missing or empty.
    """
    collected: dict[str, list[str]] = {}
    current: Optional[str] = None
    for line in text.splitlines():
        m = _TAG_RE.match(line)
        if m:
            current = m.group(1)
            collected.setdefault(current, []).append(m.group(2))
        elif current is not None:
            collected[current].append(line)
    out: dict[str, str] = {}
    missing: list[str] = []
    for name in fields:
        value = "\n".join(collected.get(name, [])).strip()
        if value:
            out[name] = value
        else:
            missing.append(name)
    if missing:
        raise StructuredParseError(f"missing fields: {', '.join(missing)}")
    return out


def parse_yes_no(value: str) -> Optional[bool]:
    head = value.strip().lower().split()
    if not head:
        return None
    word = head[0].rstrip(".,;:!")
    if word in ("yes", "y", "true"):
        return True
    if word in ("no", "n", "false"):
        return False
    return None


class Gateway:
    """Bounded-concurrency, rate-limited, retrying front door for chat requests."""

    def __init__(
        self,
        provider,
        *,
        concurrency: int = 8,
        rate: Optional[TokenBucket] = None,
        max_attempts: int = 5,
        backoff_base: float = 1.0,
        backoff_cap: float = 60.0,
        max_reasks: int = 2,
        sleep: Callable[[float], None] = time.sleep,
        rng: Optional[random.Random] = None,
    ):
        if concurrency < 1:
            raise ValueError("concurrency must be >= 1")
        if max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if max_reasks < 0:
            raise ValueError("max_reasks must be >= 0")
        self.provider = provider
        self.concurrency = concurrency
        self.ledger = CostLedger()
        self.max_attempts = max_attempts
        self.backoff_base = backoff_base
        self.backoff_cap = backoff_cap
        self.max_reasks = max_reasks
        self._semaphore = threading.Semaphore(concurrency)
        self._rate = rate
        self._sleep = sleep
        self._rng = rng or random.Random()

    @property
    def reasks(self) -> int:
        """Parse and check re-asks sent so far, over every model and stage."""
        return self.ledger.total("reasks")

    def complete(self, req: ChatRequest) -> ChatResponse:
        """One logical request: admission, provider call, bounded retries.

        Raises TransportError after max_attempts transient failures and lets
        permanent failures through immediately; both count one ledger failure.
        """
        retries = 0
        for attempt in range(1, self.max_attempts + 1):
            try:
                with self._semaphore:
                    if self._rate is not None:
                        self._rate.acquire()
                    resp = self.provider.send(req)
            except TransientProviderError:
                if attempt == self.max_attempts:
                    self.ledger.record_failure(req.model, req.stage_tag, retries)
                    raise TransportError(
                        f"gave up after {attempt} attempts ({req.stage_tag.value})",
                        attempts=attempt,
                    ) from None
                retries += 1
                delay = min(self.backoff_cap, self.backoff_base * (2 ** (attempt - 1)))
                self._sleep(delay * self._rng.uniform(0.5, 1.0))
                continue
            except PermanentProviderError:
                self.ledger.record_failure(req.model, req.stage_tag, retries)
                raise
            self.ledger.record_success(req.model, req.stage_tag, resp, retries)
            return resp
        raise AssertionError("unreachable")

    def complete_structured(
        self, req: ChatRequest, fields: list[str],
        check: Optional[Callable[[dict[str, str]], Optional[str]]] = None,
    ) -> dict[str, str]:
        """complete() plus tagged-field parsing, with corrective re-asks.

        An unparseable reply is re-asked up to max_reasks times. Then, when
        check(fields) returns a note, the original request is re-asked once
        with that note appended; that re-ask has its own parse budget, and its
        fields come back unchecked, so the caller gives the verdict. Each
        re-ask is a new request with its own fingerprint and ledger row, and
        counts one ledger reask.
        """
        attempt_req = req
        for attempt in range(self.max_reasks + 1):
            if attempt:
                self.ledger.record_reask(req.model, req.stage_tag)
                attempt_req = reask(
                    attempt_req,
                    f"\n\nYour previous reply could not be parsed ({error}). "
                    f"Respond again with exactly these fields, one per line, "
                    f"each as 'FIELD: value': {', '.join(fields)}.",
                )
            try:
                out = parse_tagged_block(self.complete(attempt_req).text, fields)
                break
            except StructuredParseError as exc:
                error = exc
        else:
            raise StructuredParseError(f"unparseable after {self.max_reasks + 1} tries: {error}")
        if check is None or (note := check(out)) is None:
            return out
        self.ledger.record_reask(req.model, req.stage_tag)
        return self.complete_structured(reask(req, note), fields)


def build_gateway(gcfg: GatewayConfig) -> Gateway:
    if gcfg.mock_script:
        provider = MockProvider(MockScript.load(gcfg.mock_script))
    else:
        provider = HTTPProvider(gcfg.base_url, gcfg.api_key_env)
    rate = None
    if gcfg.rate_capacity or gcfg.rate_refill_per_s:
        rate = TokenBucket(gcfg.rate_capacity, gcfg.rate_refill_per_s)
    return Gateway(
        provider,
        concurrency=gcfg.concurrency,
        rate=rate,
        max_attempts=gcfg.max_attempts,
        backoff_base=gcfg.backoff_base,
        backoff_cap=gcfg.backoff_cap,
        max_reasks=gcfg.max_reasks,
    )
