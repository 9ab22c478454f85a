"""Resident memory: ledger bytes per entry, index bytes per gram, lazy imports.

The import checks start fresh processes, so they see what a reward server
loads before it answers, not what earlier tests happened to import.
"""

from __future__ import annotations

import gc
import json
import os
import subprocess
import sys
import tracemalloc

from qaforge.config import load_config
from qaforge.decontam import build_index
from qaforge.ledger import RunLedger

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def held_bytes(build):
    """Bytes still allocated after build() returns, with its result kept alive."""
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        kept = build()
        gc.collect()
        return kept, tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()


def generate_row(i):
    return {
        "question": f"Under the {i}th amendment, which office must countersign a permit "
                    f"for discharging treated water into the river basin?",
        "answer": f"The regional water authority, within {i % 90 + 10} days of the filing.",
        "few_shot_ids": [f"demo-{i % 7}", f"demo-{i % 11}"],
    }


def test_ledger_memory_per_entry_is_bounded(tmp_path):
    n = 20_000

    def log_all():
        ledger = RunLedger(str(tmp_path))
        for i in range(n):
            ledger.log("generate", f"{i:016x}{i:016x}:p{i % 3}", "pass",
                       fingerprint=f"{i:032x}", data=generate_row(i))
        return ledger

    ledger, logging = held_bytes(log_all)
    ledger.close()
    del ledger
    reloaded, loading = held_bytes(lambda: RunLedger(str(tmp_path)))
    try:
        assert reloaded.count("generate") == n
        assert reloaded.get("generate", f"{5:016x}{5:016x}:p2")["data"] == generate_row(5)
    finally:
        reloaded.close()
    assert os.path.getsize(tmp_path / "ledgers" / "generate.jsonl") / n > 300
    assert logging / n <= 300, f"{logging / n:.0f} B per entry while logging"
    assert loading / n <= 300, f"{loading / n:.0f} B per entry after a reload"


def test_index_memory_per_gram_is_bounded():
    texts = [" ".join(f"w{i}x{j}" for j in range(40)) for i in range(2_000)]
    index, held = held_bytes(lambda: build_index(texts, n=13))
    assert len(index.grams) == 2_000 * 28
    assert held / len(index.grams) <= 16, f"{held / len(index.grams):.1f} B per gram"


def _imported_modules(args, stdin=""):
    """Modules a fresh `python -X importtime <args>` process imported, and its stdout."""
    env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run([sys.executable, "-X", "importtime", *args], input=stdin,
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr[-2000:]
    modules = {line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines()
               if line.startswith("import time:")}
    return modules, proc.stdout


def test_cli_and_reward_server_never_load_the_http_stack():
    modules, _ = _imported_modules(["-c", "import qaforge.cli"])
    assert "qaforge.cli" in modules
    assert "requests" not in modules

    request = {"question": "q", "gold_answer": "Paris", "rollout": "Answer: Paris"}
    modules, out = _imported_modules(["-m", "qaforge", "reward", "--stdin"],
                                     stdin=json.dumps(request) + "\n")
    assert json.loads(out.splitlines()[0])["reward"] == 1.0
    assert "qaforge.reward" in modules
    assert "requests" not in modules


# The document pipeline and what only it uses; a reward server never runs them.
PIPELINE_ONLY = {
    "qaforge.pipeline", "qaforge.ledger", "qaforge.ingest", "qaforge.decontam",
    "qaforge.classify", "qaforge.generate", "qaforge.filtering", "qaforge.verify",
    "yaml", "concurrent.futures", "statistics",
}


def test_reward_server_loads_only_the_reward_path():
    request = {"question": "q", "gold_answer": "Paris", "rollout": "Answer: Paris"}
    modules, out = _imported_modules(["-m", "qaforge", "reward", "--stdin"],
                                     stdin=json.dumps(request) + "\n")
    assert json.loads(out.splitlines()[0])["reward"] == 1
    assert {m for m in modules if m.startswith("qaforge.")} == {
        "qaforge.cli", "qaforge.config", "qaforge.errors", "qaforge.types", "qaforge.reward"}
    assert not PIPELINE_ONLY & modules, sorted(PIPELINE_ONLY & modules)


def test_stats_loads_the_report_not_the_pipeline(tmp_path):
    dataset = tmp_path / "records.jsonl"
    dataset.write_text(json.dumps({"domain": "science", "source": "web", "answer": "Paris"}) + "\n")
    modules, out = _imported_modules(["-m", "qaforge", "stats", "--dataset", str(dataset)])
    assert "records: 1" in out
    assert "qaforge.report" in modules
    unwanted = {f"qaforge.{m}" for m in ("pipeline", "gateway", "generate", "decontam", "ingest",
                                         "classify", "filtering", "verify", "prompts")}
    unwanted |= {"concurrent.futures", "yaml"}
    assert not unwanted & modules, sorted(unwanted & modules)


def test_judging_reward_server_adds_the_gateway_not_the_pipeline(tmp_path):
    script = tmp_path / "judge.jsonl"
    script.write_text(json.dumps({"stage_tag": "judge", "fingerprint": "default",
                                  "response": "MATCH: yes"}) + "\n")
    request = {"question": "Capital of France?", "gold_answer": "Paris",
               "rollout": "Answer: the city of Paris"}
    modules, out = _imported_modules(
        ["-m", "qaforge", "reward", "--stdin", "--judge", "--mock", str(script)],
        stdin=json.dumps(request) + "\n")
    assert json.loads(out.splitlines()[0]) == {
        "reward": 1, "method": "judge", "extracted_answer": "the city of Paris"}
    assert {"qaforge.gateway", "qaforge.prompts"} <= modules
    assert not PIPELINE_ONLY & modules, sorted(PIPELINE_ONLY & modules)


def test_a_json_config_loads_without_yaml(tmp_path):
    cfg = {"sources": [{"source": "web", "path": "web.jsonl"}],
           "gateway": {"backoff_base": 0.5, "concurrency": 3}}
    (tmp_path / "config.json").write_text(json.dumps(cfg, indent=1))
    (tmp_path / "config.yaml").write_text("sources:\n  - {source: web, path: web.jsonl}\n"
                                          "gateway:\n  backoff_base: 0.5\n  concurrency: 3\n")
    assert load_config(str(tmp_path / "config.json")) == load_config(str(tmp_path / "config.yaml"))
    modules, out = _imported_modules(
        ["-c", "import sys; from qaforge.config import load_config; "
               "print(load_config(sys.argv[1]).gateway.concurrency)", str(tmp_path / "config.json")])
    assert out.strip() == "3"
    assert "yaml" not in modules
