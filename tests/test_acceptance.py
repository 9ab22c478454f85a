"""Acceptance gate: one test per released guarantee, each at its stated bound.

Every check runs against fully scripted providers, so the expected numbers
are exact by construction rather than tuned to observed output. The shared
corpus comes from fixture_builder: 120 documents, 560 scripted LLM calls,
155 surviving records.
"""

from __future__ import annotations

import dataclasses
import json
import os
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from types import SimpleNamespace

import pytest

from fixture_builder import EXPECTED_RECORDS, build_fixture, build_throughput_corpus
from test_decontam import run_oracle_trials
from test_reward import SCORE_TABLE

import qaforge
from qaforge.classify import build_classify_request
from qaforge.config import FilterConfig, RewardConfig, config_from_dict
from qaforge.decontam import build_index, build_index_from_dir, is_contaminated
from qaforge.errors import TransientProviderError, TransportError
from qaforge.filtering import build_filter_request, heuristic_filter, truncate_for_llm
from qaforge.gateway import (
    ChatRequest,
    ChatResponse,
    Gateway,
    MockProvider,
    MockScript,
    StageTag,
    TokenBucket,
    run_fingerprint,
)
from qaforge.generate import DemoLibrary, build_generate_request
from qaforge.ingest import dedup, sample_mixture
from qaforge.ledger import RunLedger
from qaforge.pipeline import resume_run, run_pipeline
from qaforge.reward import RewardRequest, RewardVerifier, exact_reward
from qaforge.types import CandidateQA, Domain, Persona, SourceSpec, make_record_id
from qaforge.verify import build_verify_request


WORKER_VARIANTS = (1, 4, 16)
EXPECTED_TOTAL_CALLS = 560  # 110 filter + 90 classify + 180 generate + 180 verify


def counted_gateway(mock_path, concurrency: int = 8) -> tuple[MockProvider, Gateway]:
    provider = MockProvider(MockScript.load(str(mock_path)))
    return provider, Gateway(provider, concurrency=concurrency, sleep=lambda _s: None)


def read_rows(path) -> list[dict]:
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        for raw in fh:
            if raw.strip():
                rows.append(json.loads(raw))
    return rows


def rows_sans_timestamp(path) -> list[dict]:
    return [{k: v for k, v in row.items() if k != "created_at"} for row in read_rows(path)]


@pytest.fixture(scope="module")
def e2e(tmp_path_factory):
    """One shared corpus, run to completion at several worker counts."""
    root = tmp_path_factory.mktemp("acceptance")
    bundle = build_fixture(root)
    runs = {}
    t0 = time.perf_counter()
    for name, workers in [("w1", 1), ("w4", 4), ("w16", 16), ("w4_repeat", 4)]:
        cfg = bundle.config()
        cfg.run.out = str(root / f"records_{name}.jsonl")
        cfg.run.run_dir = str(root / f"run_{name}")
        provider, gw = counted_gateway(bundle.mock_path, concurrency=workers)
        report = run_pipeline(cfg, gateway=gw)
        runs[name] = SimpleNamespace(
            cfg=cfg,
            report=report,
            provider=provider,
            out=Path(cfg.run.out),
            run_dir=Path(cfg.run.run_dir),
        )
    elapsed = time.perf_counter() - t0
    return SimpleNamespace(bundle=bundle, runs=runs, elapsed=elapsed, root=root)


def test_c1_end_to_end_determinism_across_worker_counts(e2e):
    """120 docs -> exactly 155 records, byte-stable modulo timestamps, <30s."""
    bundle = e2e.bundle
    expected = bundle.expected

    for name, run in e2e.runs.items():
        assert run.report.records_written == EXPECTED_RECORDS, name
        assert run.report.funnel == expected["funnel"], name
        assert run.report.funnel_consistent, (name, run.report.funnel_problems)
        assert run.provider.calls == expected["gateway_calls"], name
        assert run.report.reasons["filter"] == expected["filter_reasons"], name
        assert run.report.reasons["verify"] == expected["verify_reasons"], name
        assert run.report.reasons["decontaminate"] == expected["decontaminate_reasons"], name

    # Same ordered rows regardless of parallelism, and across repeat runs.
    reference = rows_sans_timestamp(e2e.runs["w1"].out)
    assert len(reference) == EXPECTED_RECORDS
    for name in ("w4", "w16", "w4_repeat"):
        assert rows_sans_timestamp(e2e.runs[name].out) == reference, name

    # Every written record matches its planned content field for field.
    by_id = {row["record_id"]: row for row in reference}
    assert len(by_id) == EXPECTED_RECORDS
    planned = bundle.expected_records
    assert {r["record_id"] for r in planned} == set(by_id)
    for want in planned:
        got = by_id[want["record_id"]]
        for key, value in want.items():
            assert got[key] == value, (want["record_id"], key)

    assert e2e.elapsed < 30.0, f"four full runs took {e2e.elapsed:.1f}s"


def test_c2_decontamination_matches_bruteforce_oracle():
    """Hashed n-gram screen agrees with a literal substring oracle, 1000 trials <10s."""
    t0 = time.perf_counter()
    mismatches = run_oracle_trials(1000, seed=2026)
    elapsed = time.perf_counter() - t0
    assert mismatches == []
    assert elapsed < 10.0, f"oracle comparison took {elapsed:.1f}s"

    # Question and answer are separate segments: no phantom n-gram may span
    # the boundary between them.
    idx = build_index(["alpha beta gamma delta epsilon"], n=5)
    report = is_contaminated("zub one two alpha beta", "gamma delta epsilon", idx)
    assert not report.contaminated

    # Segments shorter than n match whole-for-whole, never by containment.
    short_idx = build_index(["the cat sat"], n=5)
    assert is_contaminated("", "the cat sat", short_idx).contaminated
    wordy = "yesterday afternoon the cat sat quietly near the old stone wall watching birds"
    assert not is_contaminated(wordy, "", short_idx).contaminated

    # An empty question still leaves the answer subject to screening.
    planted = "the committee approved the revised harbor dredging schedule for four coastal towns"
    full_idx = build_index([planted], n=13)
    assert is_contaminated("", planted, full_idx).contaminated
    assert not is_contaminated("", "", full_idx).contaminated


def test_c3_interrupted_runs_resume_without_rework(e2e, tmp_path):
    """Crash at any stage, resume, and the combined LLM spend is still exact."""
    bundle = e2e.bundle
    reference = rows_sans_timestamp(e2e.runs["w4"].out)

    class Interrupt(BaseException):
        pass

    def crash_hook(stage_name: str, nth: int):
        state = {"count": 0}
        lock = threading.Lock()

        def hook(stage, item_id, outcome):
            if stage != stage_name:
                return
            with lock:
                state["count"] += 1
                fire = state["count"] == nth
            if fire:
                raise Interrupt()

        return hook

    points = [
        ("ingest", 60),
        ("filter", 40),
        ("classify", 30),
        ("generate", 50),
        ("verify", 60),
        ("decontaminate", 70),
        ("write", 60),
    ]
    for stage_name, nth in points:
        cfg = bundle.config()
        cfg.run.out = str(tmp_path / f"{stage_name}.jsonl")
        cfg.run.run_dir = str(tmp_path / f"run_{stage_name}")

        first_provider, first_gw = counted_gateway(bundle.mock_path, concurrency=4)
        with pytest.raises(Interrupt):
            run_pipeline(cfg, gateway=first_gw, on_stage_logged=crash_hook(stage_name, nth))

        second_provider, second_gw = counted_gateway(bundle.mock_path)
        report = resume_run(cfg.run.run_dir, gateway=second_gw)

        assert report.records_written == EXPECTED_RECORDS, stage_name
        assert report.funnel_consistent, (stage_name, report.funnel_problems)
        assert rows_sans_timestamp(cfg.run.out) == reference, stage_name

        combined = dict(first_provider.calls)
        for stage, count in second_provider.calls.items():
            combined[stage] = combined.get(stage, 0) + count
        assert combined == bundle.expected["gateway_calls"], stage_name
        assert first_provider.total_calls + second_provider.total_calls == EXPECTED_TOTAL_CALLS

    # Resuming an already-finished run touches nothing and calls no provider.
    done = e2e.runs["w4"]
    before = done.out.read_bytes()
    provider, gw = counted_gateway(bundle.mock_path)
    report = resume_run(str(done.run_dir), gateway=gw)
    assert report.records_written == EXPECTED_RECORDS
    assert provider.total_calls == 0
    assert done.out.read_bytes() == before


KILL_AFTER_NTH_VERIFY = """
import json, os, sys, threading
from qaforge.config import config_from_dict
from qaforge.gateway import Gateway, MockProvider, MockScript
from qaforge.pipeline import run_pipeline

cfg = config_from_dict(json.loads(sys.argv[1]))
seen = os.open(sys.argv[2], os.O_WRONLY | os.O_CREAT | os.O_APPEND)
nth, verified, lock = int(sys.argv[3]), [0], threading.Lock()

def hook(stage, item_id, outcome):
    with lock:
        os.write(seen, (json.dumps([stage, item_id, outcome]) + "\\n").encode())
        verified[0] += stage == "verify"
        if verified[0] == nth:
            os._exit(137)

provider = MockProvider(MockScript.load(cfg.gateway.mock_script))
gateway = Gateway(provider, concurrency=16, sleep=lambda _s: None)
run_pipeline(cfg, gateway=gateway, on_stage_logged=hook)
"""


def test_a_run_killed_mid_append_keeps_every_logged_row_and_resumes_exactly(e2e, tmp_path):
    """os._exit at concurrency 16 runs no cleanup: no finally, no close, no join."""
    bundle = e2e.bundle
    cfg = bundle.config()
    cfg.run.out = str(tmp_path / "records.jsonl")
    cfg.run.run_dir = str(tmp_path / "run")
    seen_path = tmp_path / "seen.jsonl"
    src = os.path.dirname(os.path.dirname(qaforge.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-c", KILL_AFTER_NTH_VERIFY,
         json.dumps(dataclasses.asdict(cfg)), str(seen_path), "90"],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 137, proc.stderr

    seen = [tuple(json.loads(line)) for line in seen_path.read_text().splitlines()]
    assert sum(stage == "verify" for stage, _, _ in seen) == 90
    ledger = RunLedger(cfg.run.run_dir)
    try:
        missing = [row for row in seen if ledger.outcome(row[0], row[1]) != row[2]]
    finally:
        ledger.close()
    assert missing == []

    _, gw = counted_gateway(bundle.mock_path)
    report = resume_run(cfg.run.run_dir, gateway=gw)
    assert report.records_written == EXPECTED_RECORDS
    assert rows_sans_timestamp(cfg.run.out) == rows_sans_timestamp(e2e.runs["w4"].out)
    reference = e2e.runs["w4"].report
    assert report.funnel == reference.funnel
    assert report.reasons == reference.reasons
    assert report.funnel_consistent, report.funnel_problems


def test_c4_reward_scoring_table_and_judge_escalation():
    """Frozen scoring table is exact; the judge only runs on exact misses."""
    assert len(SCORE_TABLE) >= 30
    for gold, rollout, want in SCORE_TABLE:
        result = exact_reward(RewardRequest(question="q", gold_answer=gold, rollout=rollout))
        assert result.reward == want, (gold, rollout)
        assert result.method == "exact"

    def judge_verifier(reply: str) -> tuple[MockProvider, RewardVerifier]:
        script = MockScript()
        script.set_default(StageTag.JUDGE, reply)
        provider = MockProvider(script)
        gw = Gateway(provider, sleep=lambda _s: None)
        return provider, RewardVerifier(cfg=RewardConfig(judge=True), gateway=gw)

    # Exact hit: no judge traffic at all.
    provider, verifier = judge_verifier("MATCH: yes")
    result = verifier.score(RewardRequest(question="q", gold_answer="Paris", rollout="Answer: Paris"))
    assert result.reward == 1 and result.method == "exact"
    assert provider.total_calls == 0
    assert verifier.counters.exact_hits == 1

    # Exact miss escalates once; the judge verdict decides the score.
    miss = RewardRequest(question="q", gold_answer="Paris", rollout="Answer: the French capital")
    provider, verifier = judge_verifier("MATCH: yes")
    result = verifier.score(miss)
    assert result.reward == 1 and result.method == "judge"
    assert provider.total_calls == 1
    assert verifier.counters.judge_calls == 1

    provider, verifier = judge_verifier("MATCH: no")
    result = verifier.score(miss)
    assert result.reward == 0 and result.method == "judge"

    # Fail closed: provider outage scores 0 rather than guessing.
    class DeadProvider:
        def send(self, req):
            raise TransientProviderError("socket reset")

    gw = Gateway(DeadProvider(), max_attempts=2, sleep=lambda _s: None)
    verifier = RewardVerifier(cfg=RewardConfig(judge=True), gateway=gw)
    result = verifier.score(miss)
    assert result.reward == 0 and result.method == "judge"
    assert verifier.counters.judge_failures == 1

    # Fail closed: a judge reply that parses but answers neither yes nor no.
    provider, verifier = judge_verifier("MATCH: kind of")
    result = verifier.score(miss)
    assert result.reward == 0 and result.method == "judge"
    assert verifier.counters.judge_failures == 1


def test_c5_record_structure_and_funnel_conservation(e2e):
    """Every written record is well formed and the ledger math closes."""
    run = e2e.runs["w4"]
    cfg = run.cfg
    rows = read_rows(run.out)
    assert len(rows) == EXPECTED_RECORDS

    domain_values = {d.value for d in Domain}
    for row in rows:
        assert row["persona"]["rank"] in (1, 2, 3)
        assert 0 < len(row["answer"]) <= cfg.generate.answer_max_chars
        assert row["question"].strip()
        assert row["domain"] in domain_values
        assert row["record_id"] == make_record_id(
            row["doc_id"], row["persona"]["rank"], row["question"]
        )
        assert row["pipeline_version"]
        assert row["created_at"]
        audit = row["audit"]
        assert audit["filter"]["outcome"] == "pass"
        assert audit["classify"]["outcome"] == "pass"
        assert audit["generate"]["outcome"] == "pass" and audit["generate"]["fingerprint"]
        assert audit["verify"] == {"outcome": "pass", "correct": True, "leaked": False}
        assert audit["decontaminate"] == {"outcome": "clean", "matched_grams": 0}

    proportions = run.report.dataset["domain_proportions"]
    assert abs(sum(proportions.values()) - 1.0) < 1e-9
    assert run.report.dataset["records"] == EXPECTED_RECORDS

    # Replay the on-disk ledger from scratch; it must reproduce the funnel
    # and account for every written row.
    ledger = RunLedger(str(run.run_dir))
    try:
        assert ledger.replay_funnel() == run.report.funnel
        write_pass = sum(
            1 for e in ledger.entries("write") if e["outcome"] == "pass"
        )
        assert write_pass == len(rows)
        assert {e["item_id"] for e in ledger.entries("write")} == {
            row["record_id"] for row in rows
        }
    finally:
        ledger.close()


def test_c6_gateway_concurrency_rate_and_retry_discipline():
    """In-flight cap, token-bucket admission, and jittered backoff all hold."""

    class GaugeProvider:
        def __init__(self, hold_s: float):
            self.hold_s = hold_s
            self.in_flight = 0
            self.peak = 0
            self._lock = threading.Lock()

        def send(self, req):
            with self._lock:
                self.in_flight += 1
                self.peak = max(self.peak, self.in_flight)
            time.sleep(self.hold_s)
            with self._lock:
                self.in_flight -= 1
            return ChatResponse(text="ok", input_tokens=1, output_tokens=1)

    for cap in (1, 8):
        provider = GaugeProvider(hold_s=0.01)
        gw = Gateway(provider, concurrency=cap, sleep=lambda _s: None)
        reqs = [
            ChatRequest(model="m", system="s", user=f"u{i}", stage_tag=StageTag.FILTER)
            for i in range(32)
        ]
        with ThreadPoolExecutor(max_workers=16) as pool:
            list(pool.map(gw.complete, reqs))
        assert provider.peak <= cap, cap
        if cap > 1:
            assert provider.peak >= 2  # the cap, not the pool, was the limiter

    # Admission never exceeds capacity + refill * elapsed on a fake clock.
    class FakeClock:
        def __init__(self):
            self.t = 0.0

        def now(self):
            return self.t

        def sleep(self, dt):
            self.t += dt

    fc = FakeClock()
    bucket = TokenBucket(capacity=5, refill_per_s=2.0, clock=fc.now, sleep=fc.sleep)
    for i in range(25):
        bucket.acquire()
        admitted = i + 1
        assert admitted <= 5 + 2.0 * fc.t + 1e-6, (admitted, fc.t)
    assert fc.t == pytest.approx((25 - 5) / 2.0)

    # Two transient failures recover with delays inside the jitter envelope.
    class FlakyProvider:
        def __init__(self, failures: int):
            self.failures = failures
            self.calls = 0

        def send(self, req):
            self.calls += 1
            if self.calls <= self.failures:
                raise TransientProviderError("throttled")
            return ChatResponse(text="ok", input_tokens=1, output_tokens=1)

    delays: list[float] = []
    gw = Gateway(FlakyProvider(2), sleep=delays.append, max_attempts=5)
    req = ChatRequest(model="m", system="s", user="u", stage_tag=StageTag.FILTER)
    assert gw.complete(req).text == "ok"
    assert len(delays) == 2
    assert 0.5 <= delays[0] <= 1.0
    assert 1.0 <= delays[1] <= 2.0
    assert gw.ledger.total("requests") == 1
    assert gw.ledger.total("retries") == 2
    assert gw.ledger.total("failures") == 0

    # Exhaustion surfaces the attempt count and books exactly one failure.
    class AlwaysDown:
        def send(self, req):
            raise TransientProviderError("unavailable")

    delays = []
    gw = Gateway(AlwaysDown(), sleep=delays.append, max_attempts=3)
    with pytest.raises(TransportError) as exc_info:
        gw.complete(req)
    assert exc_info.value.attempts == 3
    assert len(delays) == 2
    assert gw.ledger.total("requests") == 1
    assert gw.ledger.total("retries") == 2
    assert gw.ledger.total("failures") == 1


ALTERNA_TEXT = (
    "Alterna Bank is a Canadian direct bank that operates as a subsidiary of "
    "Alterna Savings, a credit union based in Ottawa. As a federally regulated "
    "bank it is a member of the Canada Deposit Insurance Corporation (CDIC), so "
    "eligible deposits are insured up to the statutory limit. Unlike most other "
    "direct banks, which serve customers online or by phone only, some Alterna "
    "Bank accounts can also be reached in person because the parent credit union "
    "makes its branch network available to them. The bank offers savings "
    "accounts, chequing accounts, and mortgages with no monthly fees on its core "
    "products."
)

ALTERNA_QA = [
    (
        "Financial Analyst",
        "In examining the regulatory protection for depositors, is Alterna Bank "
        "a member of the Canada Deposit Insurance Corporation (CDIC)?",
        "Yes, Alterna Bank is a member of Canada Deposit Insurance Corporation (CDIC).",
    ),
    (
        "Commerce Student",
        "In Canadian direct banking, what is notable about the way Alterna Bank "
        "allows its customers to access their accounts compared to most other "
        "direct banks?",
        "Some Alterna Bank accounts can be accessed through branches, unlike most "
        "other direct banks.",
    ),
]


def test_c7_known_document_regression(tmp_path):
    """A realistic banking document yields its two planned records verbatim."""
    corpus = tmp_path / "banking.jsonl"
    corpus.write_text(json.dumps({"text": ALTERNA_TEXT}) + "\n", encoding="utf-8")

    cfg = config_from_dict(
        {
            "sources": [{"source": "banking", "path": str(corpus)}],
            "run": {
                "seed": 7,
                "out": str(tmp_path / "records.jsonl"),
                "run_dir": str(tmp_path / "run"),
            },
            "gateway": {"concurrency": 2, "mock_script": str(tmp_path / "mock.jsonl")},
        }
    )

    script = MockScript()
    llm_text = truncate_for_llm(ALTERNA_TEXT, cfg.filter)
    script.add(
        StageTag.FILTER,
        run_fingerprint(build_filter_request(llm_text, cfg.filter)),
        "QUALIFIED: yes\nREASON: self-contained facts about one institution",
    )
    labels = "; ".join(label for label, _q, _a in ALTERNA_QA)
    script.add(
        StageTag.CLASSIFY,
        run_fingerprint(build_classify_request(llm_text, cfg.classify)),
        f"DOMAIN: commerce\nPERSONAS: {labels}",
    )
    demos = DemoLibrary.load(cfg.generate.demo_path).sample_demos(
        Domain.COMMERCE, cfg.generate.k_shots, cfg.run.seed
    )
    doc_rows = read_rows(corpus)
    assert len(doc_rows) == 1
    for rank, (label, question, answer) in enumerate(ALTERNA_QA, start=1):
        persona = Persona(label=label, rank=rank)
        greq = build_generate_request(llm_text, persona, demos, cfg.generate)
        script.add(
            StageTag.GENERATE,
            run_fingerprint(greq),
            f"QUESTION: {question}\nANSWER: {answer}",
        )
        qa = CandidateQA(
            doc_id="", domain=Domain.COMMERCE, persona=persona,
            question=question, answer=answer,
            few_shot_ids=[d.demo_id for d in demos], gen_fingerprint="",
        )
        script.add(
            StageTag.VERIFY,
            run_fingerprint(build_verify_request(llm_text, qa, cfg.verify)),
            "CORRECT: yes\nLEAKAGE: no\nRATIONALE: stated in the document",
        )
    script.save(cfg.gateway.mock_script)

    report = run_pipeline(cfg)
    assert report.records_written == 2
    assert report.funnel_consistent, report.funnel_problems

    rows = read_rows(cfg.run.out)
    assert len(rows) == 2
    for row, (label, question, answer) in zip(rows, ALTERNA_QA):
        assert row["source"] == "banking"
        assert row["domain"] == "commerce"
        assert row["persona"]["label"] == label
        assert row["question"] == question
        assert row["answer"] == answer
    assert [row["persona"]["rank"] for row in rows] == [1, 2]


def test_c8_non_llm_throughput(e2e, tmp_path):
    """Ingest + heuristics + contamination screen sustain 5k docs/min."""
    n_docs = 10_000
    corpus = tmp_path / "bulk.jsonl"
    build_throughput_corpus(corpus, n_docs=n_docs)
    spec = SourceSpec(source="bulk", path=str(corpus))
    fcfg = FilterConfig()
    index = build_index_from_dir(str(e2e.bundle.eval_dir), 13)

    processed = 0
    flagged = 0
    t0 = time.perf_counter()
    for doc in dedup(sample_mixture([spec])):
        verdict = heuristic_filter(doc, fcfg)
        report = is_contaminated(doc.text, "", index)
        processed += 1
        if not verdict.qualified or report.contaminated:
            flagged += 1
    elapsed = time.perf_counter() - t0

    assert processed == n_docs
    assert flagged == 0
    rate_per_min = processed / elapsed * 60.0
    assert rate_per_min >= 5000, f"{rate_per_min:.0f} docs/min over {elapsed:.2f}s"
