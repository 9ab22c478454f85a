"""Tests of the benchmark's own inputs, provider and oracle.

    PYTHONPATH=src python -m pytest -q perfbench
"""

from __future__ import annotations

import filecmp
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import pytest  # noqa: E402

from qaforge.classify import build_classify_request  # noqa: E402
from qaforge.config import PipelineConfig  # noqa: E402
from qaforge.errors import TransientProviderError  # noqa: E402
from qaforge.filtering import build_filter_request, truncate_for_llm  # noqa: E402
from qaforge.generate import DemoLibrary, build_generate_request  # noqa: E402
from qaforge.types import Domain, Persona  # noqa: E402

from provider import SyntheticProvider  # noqa: E402
from workloads import (  # noqa: E402
    GARBAGE_REPLY,
    check_dataset,
    plan_pipeline,
    plan_reward,
    write_pipeline_inputs,
)


def _tree_equal(a: str, b: str) -> bool:
    cmp = filecmp.dircmp(a, b)
    if cmp.left_only or cmp.right_only or cmp.funny_files:
        return False
    _, mismatch, errors = filecmp.cmpfiles(a, b, cmp.common_files, shallow=False)
    return not mismatch and not errors and all(
        _tree_equal(os.path.join(a, d), os.path.join(b, d)) for d in cmp.common_dirs)


@pytest.mark.parametrize("workload", ["llm_latency", "cpu_bulk"])
def test_fixed_seed_gives_byte_identical_inputs(tmp_path, workload):
    # Paths inside config.json differ by root, so compare everything else.
    for name in ("a", "b"):
        write_pipeline_inputs(plan_pipeline(workload, 7), str(tmp_path / name))
        os.remove(tmp_path / name / "config.json")
    assert _tree_equal(str(tmp_path / "a"), str(tmp_path / "b"))
    write_pipeline_inputs(plan_pipeline(workload, 8), str(tmp_path / "c"))
    assert (tmp_path / "a" / "web.jsonl").read_bytes() != (tmp_path / "c" / "web.jsonl").read_bytes()


def test_reward_requests_are_a_function_of_the_seed():
    assert plan_reward(3) == plan_reward(3)
    assert plan_reward(3) != plan_reward(4)


def _records(inputs) -> list[str]:
    return [json.dumps(dict(r, audit={}, created_at="2026-01-01T00:00:00+00:00"))
            for r in inputs.expected_records]


def test_oracle_rejects_an_altered_and_a_missing_record(tmp_path):
    inputs = plan_pipeline("llm_latency", 5)
    lines = _records(inputs)
    good = tmp_path / "good.jsonl"
    good.write_text("\n".join(lines) + "\n")
    assert check_dataset(str(good), inputs.expected_records) == []

    altered = list(lines)
    rec = json.loads(altered[len(altered) // 2])
    rec["answer"] = rec["answer"] + "0"
    altered[len(altered) // 2] = json.dumps(rec)
    bad = tmp_path / "altered.jsonl"
    bad.write_text("\n".join(altered) + "\n")
    assert check_dataset(str(bad), inputs.expected_records)

    missing = tmp_path / "missing.jsonl"
    missing.write_text("\n".join(lines[:3] + lines[4:]) + "\n")
    assert check_dataset(str(missing), inputs.expected_records)


def _requests(inputs):
    """One request per document-level stage and one generate request, built by qaforge."""
    cfg = PipelineConfig()
    doc = next(d for d in inputs.docs if d.kind == "pass")
    text = truncate_for_llm(doc.text, cfg.filter)
    cand = doc.candidates[0]
    demos = DemoLibrary.load().sample_demos(Domain(doc.domain), cfg.generate.k_shots, 0)
    return [
        build_filter_request(text, cfg.filter),
        build_classify_request(text, cfg.classify),
        build_generate_request(text, Persona(cand.label, cand.rank), demos, cfg.generate),
    ]


def test_provider_latency_and_reply_are_pure_functions_of_seed_and_request():
    inputs = plan_pipeline("llm_latency", 11)
    reqs = _requests(inputs)
    a = SyntheticProvider(inputs.docs, 0.01, sleep=lambda s: None)
    b = SyntheticProvider(plan_pipeline("llm_latency", 11).docs, 0.01, sleep=lambda s: None)
    for req in reqs:
        assert a.latency(req) == b.latency(req) > 0
        assert a.reply(req) == b.reply(req)

    other = plan_pipeline("llm_latency", 12)
    c = SyntheticProvider(other.docs, 0.01, sleep=lambda s: None)
    other_reqs = _requests(other)
    assert [c.latency(r) for r in other_reqs] != [a.latency(r) for r in reqs]


def test_provider_faults_hit_first_asks_only():
    inputs = plan_pipeline("llm_latency", 11)
    provider = SyntheticProvider(inputs.docs, 0.0)
    cfg = PipelineConfig()
    for doc in inputs.docs:
        if doc.faults.get("filter") not in ("garbage", "transient"):
            continue
        req = build_filter_request(truncate_for_llm(doc.text, cfg.filter), cfg.filter)
        if doc.faults["filter"] == "garbage":
            assert provider.reply(req)[0] == GARBAGE_REPLY
            req.user += "\n\nYour previous reply could not be parsed."
            assert provider.reply(req)[0] == doc.filter_reply
        else:
            with pytest.raises(TransientProviderError):
                provider.send(req)
            assert provider.send(req).text == doc.filter_reply
    assert any(d.faults.get("filter") for d in inputs.docs)
