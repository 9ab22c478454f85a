"""Binary reward scoring for RL rollouts against short reference answers.

Reward is always 0 or 1. Cheap normalized exact matching runs first; an
optional LLM judge is consulted only on an exact miss, and any judge failure
scores 0. Training must never stall or crash on a reward call, and a dead
judge must never hand out free reward.
"""

from __future__ import annotations

import json
import re
import sys
from dataclasses import dataclass, field
from typing import IO, TYPE_CHECKING, Optional

from .config import RewardConfig
from .errors import GatewayError
from .types import BAD_LINE, line_fields

if TYPE_CHECKING:
    from .gateway import Gateway


@dataclass
class RewardRequest:
    question: str
    gold_answer: str
    rollout: str


@dataclass
class RewardResult:
    reward: int
    method: str  # "exact" or "judge"
    extracted_answer: str


@dataclass
class RewardCounters:
    exact_hits: int = 0
    judge_calls: int = 0
    judge_failures: int = 0


_BRACE_RE = re.compile(r"[{}]")
# Size of the first tail slice that extract_final_answer splits; later ones double.
_TAIL_CHARS = 512


def _find_boxed(text: str) -> Optional[tuple[int, str]]:
    """Last \\boxed{...} span with balanced braces; returns (position, content)."""
    marker = r"\boxed{"
    start = text.rfind(marker)
    if start < 0:
        return None
    depth = 1
    i = start + len(marker)
    while depth:
        brace = _BRACE_RE.search(text, i)
        if brace is None:
            return start, text[start + len(marker) :].strip()
        depth += 1 if brace.group() == "{" else -1
        i = brace.end()
    return start, text[start + len(marker) : i - 1].strip()


def extract_final_answer(rollout: str, cfg: Optional[RewardConfig] = None) -> str:
    """Pull the model's final answer out of a free-form rollout.

    Recognized markers (configurable): a boxed answer and lines starting with
    an answer prefix. When several markers appear, the one latest in the text
    wins, since rollouts state their final answer last. With no marker at all,
    the last non-empty line is taken.

    Lines are walked from the end, in slices that double in size and start
    right after a "\\n", so the cost follows the answer's distance from the end.
    """
    cfg = cfg or RewardConfig()
    boxed = _find_boxed(rollout) if cfg.use_boxed else None
    floor = boxed[0] if boxed else -1  # a line starting here or before loses to boxed
    prefixes = cfg.marker_prefixes
    last = ""  # last non-empty line
    end, size = len(rollout), _TAIL_CHARS
    while end:
        start = rollout.rfind("\n", 0, max(end - size, 0)) + 1
        pos = end
        for line in reversed(rollout[start:end].splitlines(keepends=True)):
            pos -= len(line)
            if pos <= floor:
                return boxed[1]
            stripped = line.strip()
            last = last or stripped
            lowered = stripped.lower()
            for prefix in prefixes:
                if lowered.startswith(prefix):
                    value = stripped[len(prefix) :].strip()
                    if value:
                        return value
                    break
        if end == len(rollout):
            # The tail decided nothing. A matching line's lowered text is part
            # of rollout.lower(), so a prefix found nowhere there matches no line.
            whole = rollout.lower()
            if not any(prefix in whole for prefix in prefixes):
                prefixes = ()
        if not prefixes and (boxed or last):
            return boxed[1] if boxed else last
        end, size = start, size * 2
    return last


_PLAIN_NUMBER_RE = re.compile(r"^-?\d{1,3}(?:,\d{3})+(?:\.\d+)?$|^-?\d+(?:\.\d+)?$")
_SPACE_RE = re.compile(r"\s+")


def _canon_number(token: str) -> str:
    if not _PLAIN_NUMBER_RE.match(token):
        return token
    token = token.replace(",", "")
    if "." in token:
        token = token.rstrip("0").rstrip(".")
    return token


def normalize_answer(text: str) -> str:
    """Case, whitespace, terminal punctuation, and plain-decimal canonicalization.

    "1,000" and "1000.0" normalize identically; so do "Paris." and "paris".
    Applied to both sides of every comparison, never to one. casefold rather
    than lower so case variants like the micro sign match under round-trips.
    """
    out = text.strip().casefold()
    out = _SPACE_RE.sub(" ", out)
    out = out.rstrip(".,;:!? ")
    return " ".join(_canon_number(tok) for tok in out.split(" ") if tok)


@dataclass
class RewardVerifier:
    """Exact-first scorer with optional judge escalation."""

    cfg: RewardConfig = field(default_factory=RewardConfig)
    gateway: Optional[Gateway] = None
    counters: RewardCounters = field(default_factory=RewardCounters)

    def score(self, req: RewardRequest) -> RewardResult:
        """1 on a normalized exact match with a non-blank gold answer.

        On a miss, and only when cfg.judge is on and a gateway is set, the
        judge rules on the answer already extracted. Fail-closed: a judge
        failure or a MATCH that is neither yes nor no scores 0.
        """
        extracted = extract_final_answer(req.rollout, self.cfg)
        if req.gold_answer.strip() and normalize_answer(extracted) == normalize_answer(req.gold_answer):
            self.counters.exact_hits += 1
            return RewardResult(reward=1, method="exact", extracted_answer=extracted)
        if not (self.cfg.judge and self.gateway is not None):
            return RewardResult(reward=0, method="exact", extracted_answer=extracted)
        from . import prompts
        from .gateway import StageTag, parse_yes_no
        user = prompts.JUDGE_TEMPLATE.format(question=req.question, gold=req.gold_answer,
                                             candidate=extracted)
        chat = prompts.stage_request(StageTag.JUDGE, user, self.cfg.judge_model,
                                     self.cfg.judge_temperature, max_output_tokens=64)
        self.counters.judge_calls += 1
        try:
            match = parse_yes_no(self.gateway.complete_structured(chat, ["MATCH"])["MATCH"])
        except GatewayError:
            match = None
        if match is None:
            self.counters.judge_failures += 1
        return RewardResult(reward=1 if match else 0, method="judge", extracted_answer=extracted)


def score_rollout_files(
    dataset_path: str,
    rollouts_path: str,
    out_fh: IO[str],
    verifier: RewardVerifier,
) -> dict[str, int]:
    """Join rollouts to gold records on record_id and score each one.

    A gold line without string record_id, question and answer is skipped, so
    its rollouts count as unmatched. A rollout line that --stdin would answer
    with an error, or that is not UTF-8, counts as malformed. Result lines are
    ASCII-escaped, as --stdin's are.
    """
    gold: dict[str, tuple[str, str]] = {}
    with open(dataset_path, "rb") as fh:
        for raw in fh:
            try:
                rec = line_fields(raw, {"record_id": None, "question": None, "answer": None})
            except BAD_LINE:
                continue
            gold[rec["record_id"]] = (rec["question"], rec["answer"])
    scored = 0
    unmatched = 0
    malformed = 0
    with open(rollouts_path, "rb") as fh:
        for raw in fh:
            if not raw.strip():
                continue
            try:
                roll = line_fields(raw, {"record_id": "", "rollout": ""})
            except BAD_LINE:
                malformed += 1
                continue
            record_id = roll["record_id"]
            if record_id not in gold:
                unmatched += 1
                continue
            question, answer = gold[record_id]
            result = verifier.score(
                RewardRequest(question=question, gold_answer=answer, rollout=roll["rollout"])
            )
            out_fh.write(json.dumps({"record_id": record_id, **vars(result)}) + "\n")
            scored += 1
    return {"scored": scored, "unmatched": unmatched, "malformed": malformed}


def serve_stdin(verifier: RewardVerifier, in_fh: IO[str] = sys.stdin, out_fh: IO[str] = sys.stdout) -> int:
    """Line-delimited request/response loop for long-running reward serving.

    Input lines: {"question", "gold_answer", "rollout"}, a JSON object whose
    fields are strings. One result line out per request, flushed immediately so
    a training loop can pipe through us; a malformed line gets an
    {"error": "bad request: ..."} line and serving continues.
    """
    served = 0
    for raw in in_fh:
        if not raw.strip():
            continue
        try:
            request = RewardRequest(
                **line_fields(raw, {"question": "", "gold_answer": None, "rollout": ""}))
        except BAD_LINE as exc:
            out_fh.write(json.dumps({"error": f"bad request: {exc}"}) + "\n")
            out_fh.flush()
            continue
        result = verifier.score(request)
        # ASCII-escaped, so a lone surrogate escape echoed from the request
        # cannot fail to encode on a UTF-8 stdout.
        out_fh.write(json.dumps(vars(result)) + "\n")
        out_fh.flush()
        served += 1
    return served
