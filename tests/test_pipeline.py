"""Config handling, run ledgers, orchestration, resume, and the CLI."""

import fcntl
import json
import os
import signal
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest
import yaml

import qaforge
from qaforge import cli, pipeline
from qaforge.config import (
    canonical_json,
    config_from_dict,
    config_to_dict,
    load_config,
)
from qaforge.errors import (
    ConfigDriftError,
    ConfigError,
    PermanentProviderError,
    RequestRejectedError,
    RunDirLockedError,
    TransientProviderError,
    TransportError,
)
from qaforge.filtering import heuristic_filter
from qaforge.gateway import (
    ChatRequest,
    ChatResponse,
    Gateway,
    HTTPProvider,
    MockProvider,
    MockScript,
    StageTag,
    TokenBucket,
    run_fingerprint,
)
from qaforge.ledger import RunLedger
from qaforge.pipeline import (
    DROP_REASONS,
    _DatasetWriter,
    build_gateway,
    resume_run,
    run_pipeline,
)
from qaforge.report import dataset_stats, funnel_and_reasons
from qaforge.types import STAGES, Document

from conftest import read_jsonl, write_jsonl
from fixture_builder import build_fixture
from test_gateway import FakeClock, FakeHTTPResponse, FlakyProvider


def prose(tag, n_chars=400):
    sentence = f"Plant {tag} produces ammonia for regional fertilizer suppliers every season. "
    reps = n_chars // len(sentence) + 1
    return (sentence * reps)[:n_chars].strip().ljust(n_chars, "x")


def default_script():
    script = MockScript()
    script.set_default(StageTag.FILTER, "QUALIFIED: yes\nREASON: informative and self-contained")
    script.set_default(StageTag.CLASSIFY, "DOMAIN: science\nPERSONAS: chemist")
    script.set_default(
        StageTag.GENERATE,
        "QUESTION: What compound does the plant make at scale?\nANSWER: Ammonia",
    )
    script.set_default(StageTag.VERIFY, "CORRECT: yes\nLEAKAGE: no\nRATIONALE: matches the text")
    return script


def mini_config(tmp_path, n_docs=2, concurrency=2):
    """A tiny runnable corpus plus mock script and config file on disk."""
    corpus = tmp_path / "corpus.jsonl"
    write_jsonl(corpus, [{"text": prose(i)} for i in range(n_docs)])
    mock_path = tmp_path / "mock.jsonl"
    default_script().save(str(mock_path))
    cfg_dict = {
        "sources": [{"source": "mini", "path": str(corpus)}],
        "run": {
            "seed": 7,
            "out": str(tmp_path / "records.jsonl"),
            "run_dir": str(tmp_path / "run"),
        },
        "gateway": {"concurrency": concurrency, "mock_script": str(mock_path)},
    }
    cfg_path = tmp_path / "config.yaml"
    cfg_path.write_text(yaml.safe_dump(cfg_dict))
    return cfg_path, cfg_dict


# ---------------------------------------------------------------- config


def test_load_config_roundtrip(tmp_path):
    cfg_path, cfg_dict = mini_config(tmp_path)
    cfg = load_config(str(cfg_path))
    assert cfg.gateway.concurrency == 2 and cfg.run.seed == 7
    assert cfg.sources[0].source == "mini"
    assert cfg.filter.min_chars == 200  # untouched sections keep defaults
    assert canonical_json(cfg) == canonical_json(load_config(str(cfg_path)))


def test_unknown_section_rejected():
    with pytest.raises(ConfigError, match="unknown config sections"):
        config_from_dict({"filtre": {}})


def test_unknown_key_rejected():
    with pytest.raises(ConfigError, match="unknown keys"):
        config_from_dict({"filter": {"min_charss": 100}})


def test_unknown_source_key_rejected():
    with pytest.raises(ConfigError, match="sources"):
        config_from_dict({"sources": [{"source": "a", "path": "p", "quotas": 3}]})


@pytest.mark.parametrize(
    "data",
    [
        {"gateway": {"concurrency": 0}},
        {"generate": {"answer_max_chars": 0}},
        {"decontaminate": {"ngram": 0}},
        {"gateway": {"max_attempts": 0}},
        {"gateway": {"max_reasks": -1}},
        {"sources": [{"source": "a", "path": "p"}, {"source": "a", "path": "q"}]},
        {"classify": {"max_personas": 0}},
        {"classify": {"max_personas": -1}},
        {"gateway": {"rate_capacity": 5, "rate_refill_per_s": 0}},
        {"gateway": {"rate_capacity": 0.5, "rate_refill_per_s": 10}},
        {"gateway": {"rate_capacity": 0, "rate_refill_per_s": 10}},
        {"gateway": {"backoff_base": -1.0}},
        {"gateway": {"backoff_base": float("nan")}},
        {"gateway": {"backoff_cap": -1.0}},
        {"gateway": {"backoff_cap": float("nan")}},
        {"gateway": {"backoff_base": "1e-3"}},
        {"gateway": {"concurrency": "4"}},
        {"gateway": {"concurrency": True}},
        {"gateway": {"concurrency": 2.5}},
        {"gateway": {"rate_capacity": True, "rate_refill_per_s": 1}},
        {"filter": {"min_alpha": None}},
        {"decontaminate": {"ngram": "13"}},
        {"sources": [{"source": "a", "path": "p", "quota": "3"}]},
        {"sources": [{"source": "a", "path": "p", "weight_seed": False}]},
        {"filter": {"model": 5}},
        {"generate": {"sft_distill": "no"}},
        {"reward": {"use_boxed": 1}},
        {"run": {"out": None}},
        {"decontaminate": {"eval_dir": 7}},
        {"gateway": {"mock_script": ["mock.jsonl"]}},
        {"sources": [{"source": 1, "path": "p"}]},
        {"reward": {"marker_prefixes": "answer:"}},
        {"reward": {"marker_prefixes": ["answer:", 3]}},
        {"gateway": {"pricing": {"m": {"input_per_1m": "2.0"}}}},
        {"gateway": {"pricing": {"m": {"output_per_1m": True}}}},
        {"gateway": {"pricing": {"m": {"input_per_1M": 2.0}}}},
        {"gateway": {"pricing": {"m": None}}},
        {"gateway": {"pricing": {"m": 2.0}}},
        {"gateway": {"pricing": {1: {"input_per_1m": 2.0}}}},
        {"gateway": {"pricing": [{"input_per_1m": 2.0}]}},
        {"gateway": {"pricing": {"m": {"input_per_1m": float("nan")}}}},
        {"gateway": {"pricing": {"m": {"output_per_1m": float("inf")}}}},
        {"gateway": {"pricing": {"m": {"input_per_1m": -1}}}},
        {"sources": [{"source": "a"}]},
        {"sources": [{"path": "p"}]},
        {"sources": [None]},
        {"sources": [{"source": "a", "path": "p", "quota": -1}]},
        {"filter": {"temperature": float("nan")}},
        {"classify": {"temperature": -0.5}},
        {"generate": {"temperature": -1}},
        {"generate": {"distill_temperature": float("inf")}},
        {"verify": {"temperature": float("nan")}},
        {"reward": {"judge_temperature": -1.0}},
        {"filter": {"max_output_tokens": 0}},
        {"classify": {"max_output_tokens": -1}},
        {"generate": {"max_output_tokens": 0}},
        {"verify": {"max_output_tokens": 0}},
        {"filter": {"max_chars": 0}},
        {"filter": {"min_chars": -1}},
        {"filter": {"min_alpha": 7.0}},
        {"filter": {"max_boilerplate": float("nan")}},
        {"generate": {"k_shots": -1}},
        {"generate": {"excerpt_chars": 0}},
    ],
)
def test_bound_validation(data):
    with pytest.raises(ConfigError):
        config_from_dict(data)


def test_stage_bounds_take_their_edges():
    cfg = config_from_dict({
        "filter": {"temperature": 0, "max_output_tokens": 1, "max_chars": 1, "min_chars": 0,
                   "min_alpha": 1, "max_boilerplate": 0.0},
        "generate": {"k_shots": 0, "excerpt_chars": 1, "distill_temperature": 2.0},
    })
    assert (cfg.filter.max_chars, cfg.filter.min_alpha, cfg.generate.k_shots) == (1, 1, 0)


def test_pricing_takes_a_number_per_known_key():
    pricing = {"m1": {"input_per_1m": 2, "output_per_1m": 8.5}, "m2": {"output_per_1m": 1.0}, "m3": {}}
    assert config_from_dict({"gateway": {"pricing": pricing}}).gateway.pricing == pricing


@pytest.mark.parametrize(
    "section, key, bad",
    [
        ("decontaminate", "eval_dir", "evals-typo"),
        ("gateway", "mock_script", "mock-typo.jsonl"),
        ("generate", "demo_path", "demos-typo.jsonl"),
        ("sources", "path", "corpus-typo.jsonl"),
        ("sources", "path", "corpus-dir/"),  # a directory is not a source file
        ("decontaminate", "eval_dir", "evals-empty/"),  # an eval dir with no .jsonl file
    ],
)
def test_a_bad_path_writes_nothing_to_the_run_dir(tmp_path, capsys, section, key, bad):
    cfg_path, cfg_dict = mini_config(tmp_path)
    if bad.endswith("/"):
        (tmp_path / bad).mkdir()
    where = cfg_dict["sources"][0] if section == "sources" else cfg_dict.setdefault(section, {})
    good = where.get(key)
    where[key] = str(tmp_path / bad)
    cfg_path.write_text(yaml.safe_dump(cfg_dict))
    assert cli.main(["run", "--config", str(cfg_path)]) == 1
    assert "error:" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()
    # Once the path is fixed, the same run dir takes a fresh run.
    if good is None:
        del where[key]
    else:
        where[key] = good
    cfg_path.write_text(yaml.safe_dump(cfg_dict))
    assert cli.main(["run", "--config", str(cfg_path)]) == 0


def test_a_dangling_eval_file_writes_nothing_to_the_run_dir(tmp_path, capsys):
    cfg_path, cfg_dict = mini_config(tmp_path)
    evals = tmp_path / "evals"
    evals.mkdir()
    write_jsonl(evals / "bench.jsonl", [{"text": "An unrelated benchmark question."}])
    (evals / "gone.jsonl").symlink_to(tmp_path / "missing.jsonl")
    cfg_dict["decontaminate"] = {"eval_dir": str(evals)}
    cfg_path.write_text(yaml.safe_dump(cfg_dict))
    assert cli.main(["run", "--config", str(cfg_path)]) == 1
    assert "gone.jsonl" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()
    (evals / "gone.jsonl").unlink()
    assert cli.main(["run", "--config", str(cfg_path)]) == 0


def test_duplicate_source_names_fail_before_the_run_dir(tmp_path, capsys):
    cfg_path, cfg_dict = mini_config(tmp_path)
    cfg_dict["sources"].append(dict(cfg_dict["sources"][0]))
    cfg_path.write_text(yaml.safe_dump(cfg_dict))
    assert cli.main(["run", "--config", str(cfg_path)]) == 1
    assert "duplicate source names" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_rate_config_gives_a_limiter_that_takes_one_token_per_attempt(tmp_path):
    _, cfg_dict = mini_config(tmp_path)
    cfg_dict["gateway"].update(rate_capacity=3, rate_refill_per_s=0.5)
    gw = build_gateway(config_from_dict(cfg_dict).gateway)
    assert (gw._rate.capacity, gw._rate.refill_per_s) == (3, 0.5)
    assert build_gateway(config_from_dict({}).gateway)._rate is None

    clock = FakeClock()
    gw._rate = TokenBucket(gw._rate.capacity, gw._rate.refill_per_s, clock=clock, sleep=clock.sleep)
    gw.provider, gw._sleep = FlakyProvider(failures=2), lambda _s: None
    req = ChatRequest(model="m", system="s", user="u", stage_tag=StageTag.FILTER)
    gw.complete(req)  # three attempts take the three tokens of the burst
    assert (gw.provider.calls, clock.t) == (3, 0.0)
    gw.complete(req)  # the fourth attempt waits for one refill: 1 / 0.5 s
    assert (gw.provider.calls, clock.t) == (4, pytest.approx(2.0))


def test_a_number_read_as_a_string_is_an_error_line(tmp_path, capsys):
    cfg_path, cfg_dict = mini_config(tmp_path)
    # PyYAML reads 1e-3 (no dot) as a string.
    cfg_path.write_text(yaml.safe_dump(cfg_dict) + "filter: {min_alpha: 1e-3}\n")
    assert cli.main(["run", "--config", str(cfg_path)]) == 1
    assert "error: filter.min_alpha must be float, got '1e-3'" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()
    # An int where a float belongs, and None for an optional int, still load.
    cfg = config_from_dict({"gateway": {"backoff_base": 0, "rate_capacity": 3,
                                        "rate_refill_per_s": 1},
                            "sources": [{"source": "a", "path": "p", "quota": None}]})
    assert (cfg.gateway.backoff_base, cfg.gateway.rate_capacity) == (0, 3)


def test_empty_config_is_all_defaults():
    cfg = config_from_dict({})
    assert cfg.gateway.concurrency == 4
    assert cfg.decontaminate.ngram == 13
    assert cfg.generate.answer_max_chars == 160


def test_canonical_json_detects_any_change(tmp_path):
    cfg_path, cfg_dict = mini_config(tmp_path)
    base = canonical_json(load_config(str(cfg_path)))
    cfg_dict["run"]["seed"] = 8
    cfg_path.write_text(yaml.safe_dump(cfg_dict))
    assert canonical_json(load_config(str(cfg_path))) != base


# ---------------------------------------------------------------- ledger


def test_ledger_log_and_duplicate(tmp_path):
    ledger = RunLedger(str(tmp_path))
    assert ledger.log("filter", "d1", "pass", data={"phase": "llm"}) is True
    assert ledger.log("filter", "d1", "reject") is False  # first entry wins
    assert ledger.get("filter", "d1")["outcome"] == "pass"
    assert ledger.count("filter") == 1
    ledger.close()


def test_ledger_persists_across_instances(tmp_path):
    first = RunLedger(str(tmp_path))
    first.log("verify", "i1", "reject", reason="leaked")
    first.close()
    second = RunLedger(str(tmp_path))
    entry = second.get("verify", "i1")
    assert entry["reason"] == "leaked"
    assert second.log("verify", "i1", "pass") is False
    second.close()


def test_ledger_tolerates_torn_tail(tmp_path):
    ledger = RunLedger(str(tmp_path))
    ledger.log("generate", "g1", "pass")
    ledger.close()
    path = tmp_path / "ledgers" / "generate.jsonl"
    with open(path, "a", encoding="utf-8") as fh:
        fh.write('{"item_id": "g2", "outco')  # crash mid-append
    reloaded = RunLedger(str(tmp_path))
    assert reloaded.get("generate", "g1") is not None
    assert reloaded.get("generate", "g2") is None
    assert reloaded.log("generate", "g2", "drop", reason="parse") is True
    reloaded.close()


def test_ledger_append_after_torn_tail_survives_the_next_load(tmp_path):
    ledger = RunLedger(str(tmp_path))
    ledger.log("generate", "a", "pass")
    ledger.close()
    path = tmp_path / "ledgers" / "generate.jsonl"
    with open(path, "a", encoding="utf-8") as fh:
        fh.write('{"item_id": "b", "outc')  # crash mid-append
    resumed = RunLedger(str(tmp_path))
    assert resumed.log("generate", "c", "pass", data={"question": "why?"}) is True
    resumed.close()
    reloaded = RunLedger(str(tmp_path))
    try:
        assert reloaded.get("generate", "c")["data"] == {"question": "why?"}
        assert reloaded.get("generate", "b") is None
        assert [row["item_id"] for row in reloaded.entries("generate")] == ["a", "c"]
    finally:
        reloaded.close()
    assert [json.loads(line)["item_id"] for line in path.read_text().splitlines()] == ["a", "c"]


# Stage files a killed process can leave, built from complete lines a and b and
# a line x whose reserved range was not (or only partly) written.
@pytest.mark.parametrize("layout", [
    pytest.param(lambda a, x, b: a + b"\0" * len(x) + b, id="unwritten"),
    pytest.param(lambda a, x, b: a + x[:9] + b"\0" * (len(x) - 9) + b, id="partly_written"),
    pytest.param(lambda a, x, b: a + b + b"\0" * 30, id="torn_nul_tail"),
])
def test_ledger_load_skips_nul_runs_and_appends_past_them(tmp_path, layout):
    ledger = RunLedger(str(tmp_path))
    for item_id, outcome in [("a", "pass"), ("x", "reject"), ("b", "drop")]:
        ledger.log("generate", item_id, outcome, data={"n": item_id})
    ledger.close()
    path = tmp_path / "ledgers" / "generate.jsonl"
    a, x, b = path.read_bytes().splitlines(keepends=True)
    path.write_bytes(layout(a, x, b))
    end_of_b = path.read_bytes().index(b) + len(b)

    resumed = RunLedger(str(tmp_path))
    assert resumed.get("generate", "a")["data"] == {"n": "a"}
    assert resumed.get("generate", "b")["data"] == {"n": "b"}
    assert resumed.get("generate", "x") is None
    assert [row["item_id"] for row in resumed.entries("generate")] == ["a", "b"]
    assert funnel_and_reasons(resumed)[0]["generate"] == {"in": 2, "pass": 1, "reject": 0, "drop": 1}
    assert resumed.log("generate", "c", "pass", data={"n": "c"}) is True
    resumed.close()
    assert path.read_bytes()[end_of_b:] == json.dumps(
        {"data": {"n": "c"}, "fingerprint": "", "item_id": "c", "outcome": "pass", "reason": ""},
        ensure_ascii=False, sort_keys=True).encode() + b"\n"

    reloaded = RunLedger(str(tmp_path))
    try:
        assert [row["item_id"] for row in reloaded.entries("generate")] == ["a", "b", "c"]
        assert reloaded.get("generate", "c")["data"] == {"n": "c"}
        assert funnel_and_reasons(reloaded)[0]["generate"]["in"] == 3
    finally:
        reloaded.close()


def blocking_pwrite(monkeypatch, item_id):
    """Make os.pwrite of item_id's line set `entered`, then wait for `release`."""
    entered, release, real = threading.Event(), threading.Event(), os.pwrite

    def pwrite(fd, data, offset):
        if f'"item_id": "{item_id}"'.encode() in data:
            entered.set()
            assert release.wait(timeout=10)
        return real(fd, data, offset)

    monkeypatch.setattr(os, "pwrite", pwrite)
    return entered, release


def test_ledger_write_holds_the_lock_and_every_other_log_waits_for_it(tmp_path, monkeypatch):
    ledger = RunLedger(str(tmp_path))
    entered, release = blocking_pwrite(monkeypatch, "slow")
    results = {}

    def log(name, item_id, thread):
        results[name] = ledger.log("generate", item_id, "pass", data={"thread": thread})

    first = threading.Thread(target=log, args=("first", "slow", 1))
    first.start()
    assert entered.wait(timeout=10)
    # While the slow line is being written, a log of the same id and a log of
    # another id both wait, and neither row can be read yet.
    same = threading.Thread(target=log, args=("same", "slow", 2))
    other = threading.Thread(target=log, args=("other", "fast", 3))
    same.start()
    other.start()
    same.join(timeout=0.2)
    other.join(timeout=0.2)
    assert same.is_alive() and other.is_alive() and results == {}
    assert ledger.get("generate", "slow") is None and ledger.get("generate", "fast") is None
    release.set()
    for thread in (first, same, other):
        thread.join(timeout=10)
        assert not thread.is_alive()
    assert results == {"first": True, "same": False, "other": True}
    assert ledger.get("generate", "slow")["data"] == {"thread": 1}
    assert ledger.get("generate", "fast")["data"] == {"thread": 3}
    ledger.close()
    reloaded = RunLedger(str(tmp_path))
    assert [row["item_id"] for row in reloaded.entries("generate")] == ["slow", "fast"]
    reloaded.close()


@pytest.mark.parametrize("fault", ["raise", "short"])
def test_ledger_failed_write_unreserves_the_id(tmp_path, monkeypatch, fault):
    ledger = RunLedger(str(tmp_path))
    real = os.pwrite

    def pwrite(fd, data, offset):
        monkeypatch.setattr(os, "pwrite", real)
        if fault == "raise":
            raise OSError(28, "No space left on device")
        return real(fd, data[:5], offset)

    monkeypatch.setattr(os, "pwrite", pwrite)
    with pytest.raises(OSError):
        ledger.log("verify", "v1", "pass")
    assert ledger.get("verify", "v1") is None and ledger.count("verify") == 0
    assert ledger.log("verify", "v1", "reject", reason="leaked") is True
    assert ledger.outcome_counts("verify") == {("reject", "leaked"): 1}
    ledger.close()
    reloaded = RunLedger(str(tmp_path))
    assert [(r["item_id"], r["outcome"]) for r in reloaded.entries("verify")] == [("v1", "reject")]
    reloaded.close()


def test_ledger_unlocked_get_agrees_with_racing_writers(tmp_path):
    """Every item has one winning entry, and every get returns that entry."""
    ledger = RunLedger(str(tmp_path))
    n_threads, n_items = 16, 200
    won = [[] for _ in range(n_threads)]
    seen = [[] for _ in range(n_threads)]
    start = threading.Barrier(n_threads)

    def work(t):
        start.wait(timeout=10)
        for i in range(n_items):
            if ledger.log("generate", f"i{i}", "pass", data={"thread": t}):
                won[t].append(i)
            seen[t].append((i, ledger.get("generate", f"i{i}")["data"]["thread"]))

    threads = [threading.Thread(target=work, args=(t,)) for t in range(n_threads)]
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(th.is_alive() for th in threads)
    ledger.close()
    winner = {i: t for t, items in enumerate(won) for i in items}
    assert sum(map(len, won)) == len(winner) == n_items
    assert all(winner[i] == t for rows in seen for i, t in rows)
    rows = read_jsonl(tmp_path / "ledgers" / "generate.jsonl")
    assert sorted((r["item_id"], r["data"]["thread"]) for r in rows) \
        == sorted((f"i{i}", t) for i, t in winner.items())


def test_ledger_rejects_unknown_stage(tmp_path):
    ledger = RunLedger(str(tmp_path))
    with pytest.raises(ValueError):
        ledger.log("nonsense", "x", "pass")
    ledger.close()


def test_funnel_and_reasons_counts(tmp_path):
    ledger = RunLedger(str(tmp_path))
    ledger.log("filter", "a", "pass")
    ledger.log("filter", "b", "reject", reason="too_short")
    ledger.log("filter", "c", "drop", reason="parse")
    funnel, reasons = funnel_and_reasons(ledger)
    assert funnel["filter"] == {"in": 3, "pass": 1, "reject": 1, "drop": 1}
    assert reasons["filter"] == {"pass": 1, "reject:too_short": 1, "drop:parse": 1}
    assert funnel["verify"] == {"in": 0, "pass": 0, "reject": 0, "drop": 0}
    assert "verify" not in reasons
    assert list(funnel) == list(STAGES)
    counts = ledger.outcome_counts("filter")
    assert counts[("reject", "too_short")] == 1
    ledger.close()


# ---------------------------------------------------------------- writer


def test_writer_salvages_torn_line(tmp_path):
    path = tmp_path / "out.jsonl"
    good = json.dumps({"record_id": "r1", "answer": "a"})
    path.write_text(good + "\n" + '{"record_id": "r2", "ans')
    writer = _DatasetWriter(str(path), resume=True)
    writer.close()
    assert path.read_text() == good + "\n"
    assert writer.count == 1


def test_writer_fresh_run_truncates(tmp_path):
    path = tmp_path / "out.jsonl"
    path.write_text("stale\n")
    writer = _DatasetWriter(str(path), resume=False)
    writer.close()
    assert path.read_text() == ""


def test_write_rows_hold_ids_only(tmp_path):
    cfg_path, _ = mini_config(tmp_path, n_docs=3)
    run_pipeline(load_config(str(cfg_path)))
    rows = RunLedger(str(tmp_path / "run")).entries("write")
    # Workers log in completion order; the dataset is in drain order.
    assert sorted((e["item_id"], e["outcome"], e["data"]) for e in rows) == sorted(
        (r["record_id"], "pass", {}) for r in read_jsonl(tmp_path / "records.jsonl")
    )


def test_ledger_rows_and_dataset_lines_are_the_bytes_of_json_dumps(tmp_path):
    # Both are written by the one shared encoder, types.JSON_LINE.
    bundle = build_fixture(tmp_path)
    provider = MockProvider(MockScript.load(str(bundle.mock_path)))
    run_pipeline(bundle.config(), gateway=Gateway(provider, concurrency=4, sleep=lambda _s: None))
    ledgers = sorted((bundle.root / "run" / "ledgers").glob("*.jsonl"))
    counts = {}
    for path in [bundle.root / "records.jsonl", *ledgers]:
        lines = path.read_bytes().splitlines(keepends=True)
        for raw in lines:
            dumped = json.dumps(json.loads(raw), ensure_ascii=False, sort_keys=True) + "\n"
            assert raw == dumped.encode("utf-8"), path.name
        counts[path.stem] = len(lines)
    assert counts["records"] == 155 and sum(counts.values()) > 1000, counts


def test_resume_after_a_source_edit_refuses_to_mix_datasets(tmp_path, capsys):
    """Records already written came from a line that is gone: exit 2, dataset untouched."""
    cfg_path, _ = mini_config(tmp_path, n_docs=8, concurrency=1)

    class Boom(BaseException):
        pass

    writes = []

    def crash_on_sixth_write(stage, item_id, outcome):
        if stage == "write":
            writes.append(item_id)
            if len(writes) == 6:
                raise Boom()

    with pytest.raises(Boom):
        run_pipeline(load_config(str(cfg_path)), on_stage_logged=crash_on_sixth_write)
    out = tmp_path / "records.jsonl"
    before = out.read_bytes()
    assert len(read_jsonl(out)) >= 1
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text("".join(corpus.read_text().splitlines(keepends=True)[1:]))
    assert cli.main(["resume", "--run-dir", str(tmp_path / "run")]) == 2
    assert "sources changed" in capsys.readouterr().err
    assert out.read_bytes() == before


def test_resume_with_an_extra_dataset_line_exits_2(tmp_path, capsys):
    cfg_path, _ = mini_config(tmp_path, n_docs=3)
    run_pipeline(load_config(str(cfg_path)))
    out = tmp_path / "records.jsonl"
    with open(out, "a", encoding="utf-8") as fh:
        fh.write(json.dumps({"record_id": "stray"}) + "\n")
    before = out.read_bytes()
    assert cli.main(["resume", "--run-dir", str(tmp_path / "run")]) == 2
    assert "holds 4 records" in capsys.readouterr().err
    assert out.read_bytes() == before


def test_resume_rewrites_a_torn_last_record(tmp_path):
    cfg_path, _ = mini_config(tmp_path, n_docs=3)
    run_pipeline(load_config(str(cfg_path)))
    out = tmp_path / "records.jsonl"
    lines = out.read_bytes().splitlines(keepends=True)
    out.write_bytes(b"".join(lines[:2]) + lines[2][:-40])
    provider = MockProvider(default_script())
    report = resume_run(str(tmp_path / "run"), gateway=Gateway(provider))
    assert provider.total_calls == 0
    assert report.records_written == 3
    again = out.read_bytes().splitlines(keepends=True)
    assert again[:2] == lines[:2]
    assert json.loads(again[2])["record_id"] == json.loads(lines[2])["record_id"]


def test_run_survives_source_lines_that_are_not_utf8(tmp_path):
    cfg_path, _ = mini_config(tmp_path, n_docs=2)
    with open(tmp_path / "corpus.jsonl", "ab") as fh:
        fh.write(b'{"text": "bad \xff byte"}\n{"text": "lone \\ud800"}\n')
    report = run_pipeline(load_config(str(cfg_path)))
    assert report.records_written == 2
    assert report.reasons["ingest"] == {"drop:parse": 2, "pass": 2}
    assert report.ingest["mini"]["dropped_parse"] == 2


def mixed_drop_config(tmp_path, concurrency):
    """Two sources, "b" with a quota, and a line for every ingest drop reason."""
    cfg_path, cfg_dict = mini_config(tmp_path, n_docs=0, concurrency=concurrency)
    corpus_a, corpus_b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    lines_a = [json.dumps({"text": prose(f"a{i}")}).encode() for i in range(3)] + [
        b"{not json}",
        b'{"text": "bad \xff byte"}',
        b"",  # a blank line
        json.dumps({"text": ""}).encode(),
        json.dumps({"text": prose("a0")}).encode(),  # a duplicate within "a"
    ]
    corpus_a.write_bytes(b"\n".join(lines_a) + b"\n")
    # The copy of a1 is a duplicate across sources; 7 valid lines, 3 of them over quota.
    write_jsonl(corpus_b, [{"text": prose(f"b{i}")} for i in range(6)] + [{"text": prose("a1")}])
    cfg_dict["sources"] = [{"source": "a", "path": str(corpus_a)},
                           {"source": "b", "path": str(corpus_b), "quota": 4, "weight_seed": 4}]
    cfg_path.write_text(yaml.safe_dump(cfg_dict))
    return load_config(str(cfg_path))


MIXED_DROP_INGEST = {
    "a": {"lines": 8, "kept": 3, "dropped_parse": 3, "dropped_empty": 1, "dropped_dup": 1,
          "dropped_over_quota": 0},
    "b": {"lines": 7, "kept": 3, "dropped_parse": 0, "dropped_empty": 0, "dropped_dup": 1,
          "dropped_over_quota": 3},
}


def assert_mixed_drop_report(report):
    assert report.ingest == MIXED_DROP_INGEST
    totals = {"pass": sum(row["kept"] for row in report.ingest.values())}
    for reason in ("parse", "empty", "dup", "over_quota"):
        totals[f"drop:{reason}"] = sum(row[f"dropped_{reason}"] for row in report.ingest.values())
    assert report.reasons["ingest"] == totals
    assert report.records_written == 6
    assert report.funnel_consistent, report.funnel_problems


@pytest.mark.parametrize("concurrency", [1, 4])
def test_report_ingest_block_accounts_for_every_line(tmp_path, concurrency):
    assert_mixed_drop_report(run_pipeline(mixed_drop_config(tmp_path, concurrency)))


def test_report_ingest_block_is_whole_after_a_crash_and_resume(tmp_path):
    cfg = mixed_drop_config(tmp_path, concurrency=2)

    class Boom(BaseException):
        pass

    ingested = []

    def crash_on_ninth_ingest_row(stage, item_id, outcome):
        if stage == "ingest":
            ingested.append(item_id)
            if len(ingested) == 9:
                raise Boom()

    with pytest.raises(Boom):
        run_pipeline(cfg, on_stage_logged=crash_on_ninth_ingest_row)
    provider = MockProvider(default_script())
    assert_mixed_drop_report(resume_run(str(tmp_path / "run"), gateway=Gateway(provider)))
    before = provider.total_calls
    # A resume of the finished run recounts the same block from the sources.
    assert_mixed_drop_report(resume_run(str(tmp_path / "run"), gateway=Gateway(provider)))
    assert provider.total_calls == before


# ---------------------------------------------------------------- stats


def test_dataset_stats_frozen_example(tmp_path):
    path = tmp_path / "data.jsonl"
    rows = [
        {"record_id": f"r{i}", "domain": d, "source": s, "answer": "x" * ln}
        for i, (d, s, ln) in enumerate(
            [
                ("math", "a", 1),
                ("math", "a", 2),
                ("science", "b", 3),
                ("science", "a", 4),
                ("other", "b", 100),
            ]
        )
    ]
    write_jsonl(path, rows)
    stats = dataset_stats(str(path))
    assert stats["records"] == 5
    assert stats["domains"] == {"math": 2, "other": 1, "science": 2}
    assert stats["domain_proportions"]["math"] == pytest.approx(0.4)
    assert sum(stats["domain_proportions"].values()) == pytest.approx(1.0)
    assert stats["sources"] == {"a": 3, "b": 2}
    assert stats["answer_length"] == {"min": 1, "median": 3, "p95": 100, "max": 100}


def test_dataset_stats_empty_file(tmp_path):
    path = tmp_path / "data.jsonl"
    path.write_text("")
    stats = dataset_stats(str(path))
    assert stats["records"] == 0 and stats["domains"] == {}


# ---------------------------------------------------------------- end to end


def test_a_blank_document_with_no_minimum_length_is_a_too_short_reject(tmp_path):
    cfg_path, cfg_dict = mini_config(tmp_path, n_docs=1)
    write_jsonl(tmp_path / "corpus.jsonl", [{"text": "   "}, {"text": prose(0)}])
    cfg_dict["filter"] = {"min_chars": 0}
    cfg_path.write_text(yaml.safe_dump(cfg_dict))
    assert cli.main(["run", "--config", str(cfg_path)]) == 0
    ledger = RunLedger(str(tmp_path / "run"))
    try:
        assert ledger.outcome_counts("filter") == {("reject", "too_short"): 1, ("pass", ""): 1}
        blank = next(row for row in ledger.entries("filter") if row["outcome"] == "reject")
        assert blank["data"]["phase"] == "heuristic"
    finally:
        ledger.close()
    assert len(read_jsonl(tmp_path / "records.jsonl")) == 1
    assert cli.main(["resume", "--run-dir", str(tmp_path / "run")]) == 0


def test_mini_run_end_to_end(tmp_path):
    cfg_path, _ = mini_config(tmp_path, n_docs=3)
    cfg = load_config(str(cfg_path))
    report = run_pipeline(cfg)
    assert report.records_written == 3
    assert report.funnel_consistent, report.funnel_problems
    assert report.funnel["filter"] == {"in": 3, "pass": 3, "reject": 0, "drop": 0}
    assert report.dataset["domains"] == {"science": 3}
    rows = read_jsonl(cfg.run.out)
    assert len(rows) == 3
    for row in rows:
        assert row["answer"] == "Ammonia"
        assert row["persona"] == {"label": "chemist", "rank": 1}
        assert row["audit"]["verify"]["outcome"] == "pass"
    # Run artifacts exist.
    assert (tmp_path / "run" / "config.json").exists()
    assert (tmp_path / "run" / "report.json").exists()
    assert (tmp_path / "run" / "ledgers" / "write.jsonl").exists()


CORRECTIVE_NOTES = ("could not be parsed", "answer was too long", "did not state the answer")


class CorrectingProvider:
    """The mini script, except that generate and distill replies need correcting.

    Generate: the first reply is unparseable, its parse re-ask gets an
    over-long answer, and the length re-ask a short one. Distill: the first
    explanation omits the answer, the re-ask states it.
    """

    def __init__(self):
        self.mock = MockProvider(default_script())
        self.requests = []
        self._lock = threading.Lock()

    def send(self, req):
        with self._lock:
            self.requests.append(req)
        if req.stage_tag == StageTag.GENERATE:
            if "answer was too long" in req.user:
                return ChatResponse(text="QUESTION: What does the plant make?\nANSWER: Ammonia")
            if "could not be parsed" in req.user:
                return ChatResponse(text="QUESTION: What does the plant make?\nANSWER: "
                                         + "ammonia for fertilizer " * 20)
            return ChatResponse(text="The plant makes ammonia.")
        if req.stage_tag == StageTag.DISTILL:
            if "did not state the answer" in req.user:
                return ChatResponse(text="EXPLANATION: The text says it makes ammonia.")
            return ChatResponse(text="EXPLANATION: The text names one product.")
        return self.mock.send(req)


def test_report_counts_every_reask_per_stage(tmp_path):
    cfg_path, _ = mini_config(tmp_path, n_docs=3)
    cfg = load_config(str(cfg_path))
    cfg.generate.sft_distill = True
    provider = CorrectingProvider()
    report = run_pipeline(cfg, gateway=Gateway(provider, concurrency=4, sleep=lambda _s: None))

    assert report.records_written == 3
    assert report.reasons["distill"] == {"pass:explained": 3}
    noted = [r for r in provider.requests if any(n in r.user for n in CORRECTIVE_NOTES)]
    assert len(noted) == 3 * 2 + 3
    assert "reasks" not in report.to_dict()
    per_stage = {}
    for stages in report.gateway["models"].values():
        for stage, cell in stages.items():
            per_stage[stage] = per_stage.get(stage, 0) + cell["reasks"]
    assert per_stage == {"filter": 0, "classify": 0, "generate": 6, "verify": 0, "distill": 3}
    assert report.gateway["totals"]["reasks"] == len(noted)
    assert "9 re-asks" in "\n".join(report.summary_lines())


def test_a_reply_without_content_is_a_ledgered_parse_drop(tmp_path, monkeypatch):
    """An HTTP 200 reply whose content is null, as for a refusal, drops its document."""
    cfg_path, _ = mini_config(tmp_path, n_docs=2)
    reply = FakeHTTPResponse(200, body={"choices": [{"message": {"content": None}}], "usage": None})
    monkeypatch.setattr("requests.post", lambda *a, **k: reply)
    monkeypatch.setenv("OPENAI_API_KEY", "sk-test")
    gw = Gateway(HTTPProvider("http://llm.internal/v1"), max_reasks=2, sleep=lambda _s: None)
    report = run_pipeline(load_config(str(cfg_path)), gateway=gw)
    assert report.reasons["filter"] == {"drop:parse": 2}
    assert report.records_written == 0 and report.funnel_consistent
    totals = report.gateway["totals"]
    assert (totals["requests"], totals["reasks"], totals["input_tokens"]) == (6, 4, 0)


def test_fresh_run_refuses_used_run_dir(tmp_path):
    cfg_path, _ = mini_config(tmp_path)
    cfg = load_config(str(cfg_path))
    run_pipeline(cfg)
    with pytest.raises(ConfigError, match="use resume"):
        run_pipeline(load_config(str(cfg_path)))


def test_resume_requires_snapshot(tmp_path):
    with pytest.raises(ConfigError, match="no config snapshot"):
        resume_run(str(tmp_path / "missing"))


def test_resume_completed_run_makes_no_calls(tmp_path):
    cfg_path, _ = mini_config(tmp_path, n_docs=2)
    cfg = load_config(str(cfg_path))
    run_pipeline(cfg)
    before = (tmp_path / "records.jsonl").read_bytes()
    provider = MockProvider(default_script())
    report = resume_run(str(tmp_path / "run"), gateway=Gateway(provider))
    assert provider.total_calls == 0
    assert report.records_written == 2
    assert (tmp_path / "records.jsonl").read_bytes() == before


def test_resume_detects_config_drift(tmp_path):
    cfg_path, cfg_dict = mini_config(tmp_path)
    run_pipeline(load_config(str(cfg_path)))
    cfg_dict["run"]["seed"] = 99
    drifted = tmp_path / "drifted.yaml"
    drifted.write_text(yaml.safe_dump(cfg_dict))
    with pytest.raises(ConfigDriftError):
        resume_run(str(tmp_path / "run"), config_path=str(drifted))


def test_resume_accepts_matching_config(tmp_path):
    cfg_path, _ = mini_config(tmp_path)
    run_pipeline(load_config(str(cfg_path)))
    report = resume_run(str(tmp_path / "run"), config_path=str(cfg_path))
    assert report.records_written == 2


def test_interrupted_run_resumes_to_same_dataset(tmp_path):
    cfg_path, cfg_dict = mini_config(tmp_path, n_docs=4, concurrency=1)
    cfg = load_config(str(cfg_path))

    class Boom(BaseException):
        pass

    calls = {"generate": 0}

    def crash_on_second_generate(stage, item_id, outcome):
        if stage == "generate":
            calls["generate"] += 1
            if calls["generate"] == 2:
                raise Boom()

    with pytest.raises(Boom):
        run_pipeline(cfg, on_stage_logged=crash_on_second_generate)
    report = resume_run(str(tmp_path / "run"))
    assert report.records_written == 4
    assert report.funnel_consistent, report.funnel_problems

    # Reference run in a clean directory produces the same records.
    ref_dict = dict(cfg_dict)
    ref_dict["run"] = dict(cfg_dict["run"], out=str(tmp_path / "ref.jsonl"),
                           run_dir=str(tmp_path / "ref_run"))
    ref_path = tmp_path / "ref.yaml"
    ref_path.write_text(yaml.safe_dump(ref_dict))
    run_pipeline(load_config(str(ref_path)))

    def body(path):
        return [{k: v for k, v in row.items() if k != "created_at"} for row in read_jsonl(path)]

    assert body(tmp_path / "records.jsonl") == body(tmp_path / "ref.jsonl")


def test_gateway_concurrency_sets_calls_in_flight(tmp_path):
    """gateway.concurrency alone decides how many LLM calls a run keeps in flight."""
    cfg_path, _ = mini_config(tmp_path, n_docs=12, concurrency=6)
    cfg = load_config(str(cfg_path))
    mock = MockProvider(default_script())
    lock = threading.Lock()
    state = {"now": 0, "peak": 0}

    class InFlightCounter:
        def send(self, req):
            with lock:
                state["now"] += 1
                state["peak"] = max(state["peak"], state["now"])
            try:
                time.sleep(0.1)
                return mock.send(req)
            finally:
                with lock:
                    state["now"] -= 1

    gw = build_gateway(cfg.gateway)
    gw.provider = InFlightCounter()
    report = run_pipeline(cfg, gateway=gw)
    assert report.records_written == 12
    assert report.concurrency == 6
    assert state["peak"] == 6


def test_ingest_stays_a_bounded_window_ahead_of_the_writer(tmp_path):
    """While the oldest document is stuck, at most 4 x concurrency more are ingested."""
    c = 2
    n_docs = 4 * c + 6
    cfg_path, _ = mini_config(tmp_path, n_docs=n_docs, concurrency=c)
    mock = MockProvider(default_script())
    entered, release = threading.Event(), threading.Event()

    class BlockFirstDocument:
        def send(self, req):
            if req.stage_tag == StageTag.FILTER and "Plant 0 " in req.user:
                entered.set()
                release.wait(timeout=30)
            return mock.send(req)

    lock = threading.Lock()
    counts = {"ingest": 0, "write": 0}

    def hook(stage, item_id, outcome):
        if stage in counts and outcome == "pass":
            with lock:
                counts[stage] += 1

    result = {}

    def run():
        gw = Gateway(BlockFirstDocument(), concurrency=c)
        result["report"] = run_pipeline(load_config(str(cfg_path)), gateway=gw,
                                        on_stage_logged=hook)

    runner = threading.Thread(target=run)
    runner.start()
    try:
        assert entered.wait(timeout=10)
        # Every other document in the window gets written while the head waits.
        deadline = time.monotonic() + 10
        while counts["write"] < 4 * c and time.monotonic() < deadline:
            time.sleep(0.01)
        time.sleep(0.2)
        with lock:
            ingested_while_blocked = counts["ingest"]
    finally:
        release.set()
        runner.join(timeout=30)
    assert ingested_while_blocked <= 4 * c + 1
    assert result["report"].records_written == n_docs
    assert result["report"].funnel_consistent, result["report"].funnel_problems


def test_an_abort_starts_no_document_queued_behind_a_busy_worker(tmp_path, monkeypatch):
    cfg_path, _ = mini_config(tmp_path, n_docs=3, concurrency=1)
    mock = MockProvider(default_script())
    entered, release, sent = threading.Event(), threading.Event(), []

    class BlockFirstDocument:
        def send(self, req):
            sent.append(req.user)
            if "Plant 0 " in req.user:
                entered.set()
                release.wait(timeout=30)
            return mock.send(req)

    class ReleasingPool(ThreadPoolExecutor):
        """Lets the busy worker go once the abort has cancelled what is queued."""

        def shutdown(self, wait=True, *, cancel_futures=False):
            super().shutdown(wait=False, cancel_futures=cancel_futures)
            release.set()
            super().shutdown(wait=wait)

    class Abort(BaseException):
        pass

    ingested = []

    def hook(stage, item_id, outcome):
        if stage == "ingest":
            ingested.append(item_id)
            if len(ingested) == 3:  # the first document is on the worker, the second queued
                assert entered.wait(timeout=10)
                raise Abort()

    monkeypatch.setattr(pipeline, "ThreadPoolExecutor", ReleasingPool)
    gw = Gateway(BlockFirstDocument(), concurrency=1)
    with pytest.raises(Abort):
        run_pipeline(load_config(str(cfg_path)), gateway=gw, on_stage_logged=hook)
    assert sent and all("Plant 0 " in user for user in sent)


# ---------------------------------------------------------------- heuristic gate


def gate_config(tmp_path, concurrency):
    """mini_config over five prose documents and three heuristic rejects.

    The rejects are too_short, low_alpha and boilerplate_heavy, and the first
    one follows a prose document, so it is logged while that one is in the pool.
    """
    cfg_path, cfg_dict = mini_config(tmp_path, concurrency=concurrency)
    texts = [prose(0), "Plant short note.", prose(1), "#$%^&*() " * 40, prose(2),
             "\n".join(["Subscribe for more plant news today."] * 12), prose(3), prose(4)]
    write_jsonl(tmp_path / "corpus.jsonl", [{"text": t} for t in texts])
    return cfg_path, cfg_dict, texts


def ledger_rows(run_dir):
    """Every ledger file's rows, sorted, with the write rows' created_at removed."""
    out = {}
    for path in sorted((run_dir / "ledgers").glob("*.jsonl")):
        rows = read_jsonl(path)
        for row in rows:
            row["data"].pop("created_at", None)
        out[path.name] = sorted(json.dumps(row, sort_keys=True) for row in rows)
    return out


def dataset_body(path):
    return [{k: v for k, v in row.items() if k != "created_at"} for row in read_jsonl(path)]


def test_heuristic_rejects_are_decided_on_the_ingest_thread(tmp_path):
    cfg_path, _, texts = gate_config(tmp_path, concurrency=4)
    cfg = load_config(str(cfg_path))
    logged_by = {}

    def hook(stage, item_id, outcome):
        logged_by[(stage, item_id)] = threading.get_ident()

    gw = build_gateway(cfg.gateway)
    report = run_pipeline(cfg, gateway=gw, on_stage_logged=hook)
    ledger = RunLedger(str(tmp_path / "run"))
    rows = ledger.entries("filter")
    ledger.close()
    heuristic = [e for e in rows if e["data"]["phase"] == "heuristic"]
    assert sorted(e["reason"] for e in heuristic) == ["boilerplate_heavy", "low_alpha", "too_short"]
    caller = threading.get_ident()
    assert {logged_by[("filter", e["item_id"])] for e in heuristic} == {caller}
    assert all(t != caller for (stage, _), t in logged_by.items() if stage == "classify")
    # The model sees exactly the heuristic passes.
    passes = sum(heuristic_filter(Document(doc_id=str(i), source="mini", text=t),
                                  cfg.filter).qualified for i, t in enumerate(texts))
    assert gw.provider.calls["filter"] == passes == 5
    assert report.records_written == 5
    assert report.funnel_consistent, report.funnel_problems


def test_crash_after_a_heuristic_reject_resumes_without_repeated_calls(tmp_path):
    cfg_path, cfg_dict, _ = gate_config(tmp_path, concurrency=2)
    sent = []
    lock = threading.Lock()

    class Recording:
        def __init__(self):
            self.mock = MockProvider(default_script())

        def send(self, req):
            with lock:
                sent.append(run_fingerprint(req))
            return self.mock.send(req)

    class Boom(BaseException):
        pass

    def crash_on_first_reject(stage, item_id, outcome):
        # The mock qualifies every document, so each filter reject is heuristic.
        if stage == "filter" and outcome == "reject":
            raise Boom()

    def recording_gateway(cfg):
        gw = build_gateway(cfg.gateway)
        gw.provider = Recording()
        return gw

    cfg = load_config(str(cfg_path))
    with pytest.raises(Boom):
        run_pipeline(cfg, gateway=recording_gateway(cfg), on_stage_logged=crash_on_first_reject)
    ledger = RunLedger(str(tmp_path / "run"))
    assert [e["data"]["phase"] for e in ledger.entries("filter") if e["outcome"] == "reject"] \
        == ["heuristic"]
    ledger.close()
    report = resume_run(str(tmp_path / "run"), gateway=recording_gateway(cfg))
    assert report.records_written == 5
    assert len(sent) == len(set(sent))

    ref_dict = dict(cfg_dict, run=dict(cfg_dict["run"], out=str(tmp_path / "ref.jsonl"),
                                       run_dir=str(tmp_path / "ref_run")))
    ref_path = tmp_path / "ref.yaml"
    ref_path.write_text(yaml.safe_dump(ref_dict))
    interrupted_calls = len(sent)
    ref_cfg = load_config(str(ref_path))
    run_pipeline(ref_cfg, gateway=recording_gateway(ref_cfg))
    assert len(sent) - interrupted_calls == interrupted_calls
    assert ledger_rows(tmp_path / "run") == ledger_rows(tmp_path / "ref_run")
    assert dataset_body(tmp_path / "records.jsonl") == dataset_body(tmp_path / "ref.jsonl")


# ---------------------------------------------------------------- run dir lock


def run_dir_files(tmp_path):
    """The bytes of the dataset and of every ledger file."""
    paths = [tmp_path / "records.jsonl", *sorted((tmp_path / "run" / "ledgers").glob("*.jsonl"))]
    return {p.name: p.read_bytes() for p in paths if p.exists()}


def test_a_second_run_on_a_locked_run_dir_fails_at_once(tmp_path, capsys):
    cfg_path, _ = mini_config(tmp_path, n_docs=1, concurrency=1)
    mock = MockProvider(default_script())
    entered, release = threading.Event(), threading.Event()

    class BlockFirstSend:
        def send(self, req):
            entered.set()
            release.wait(timeout=30)
            return mock.send(req)

    result = {}

    def first():
        gw = Gateway(BlockFirstSend(), concurrency=1)
        result["report"] = run_pipeline(load_config(str(cfg_path)), gateway=gw)

    runner = threading.Thread(target=first)
    runner.start()
    try:
        # One document: its ingest row is logged before its first send.
        assert entered.wait(timeout=10)
        before = run_dir_files(tmp_path)
        second = MockProvider(default_script())
        holder = f"is in use by pid {os.getpid()}"
        with pytest.raises(RunDirLockedError, match=holder):
            run_pipeline(load_config(str(cfg_path)), gateway=Gateway(second))
        with pytest.raises(RunDirLockedError, match=holder):
            resume_run(str(tmp_path / "run"), gateway=Gateway(second))
        assert cli.main(["resume", "--run-dir", str(tmp_path / "run")]) == cli.EXIT_FATAL
        assert f"error: run dir {tmp_path / 'run'} {holder}" in capsys.readouterr().err
        assert second.total_calls == 0
        assert run_dir_files(tmp_path) == before
    finally:
        release.set()
        runner.join(timeout=30)
    assert result["report"].records_written == 1
    # Released with the report written: a resume now takes the lock.
    assert resume_run(str(tmp_path / "run"), gateway=Gateway(second)).records_written == 1
    assert second.total_calls == 0


def test_a_lock_held_by_another_process_names_no_stale_pid(tmp_path, capsys):
    cfg_path, _ = mini_config(tmp_path)
    run_pipeline(load_config(str(cfg_path)))
    before = run_dir_files(tmp_path)
    # A finished run leaves the lock file empty, so a holder that writes no
    # pid is not mistaken for the last run's process.
    with open(tmp_path / "run" / "run.lock", "rb") as fh:
        assert fh.read() == b""
        fcntl.flock(fh, fcntl.LOCK_EX)
        assert cli.main(["resume", "--run-dir", str(tmp_path / "run")]) == cli.EXIT_FATAL
    assert "is in use by another process" in capsys.readouterr().err
    assert run_dir_files(tmp_path) == before


SIGKILL_AT_SECOND_GENERATE = """
import os, signal, sys
from qaforge.config import load_config
from qaforge.pipeline import run_pipeline

generated = []

def hook(stage, item_id, outcome):
    if stage == "generate":
        generated.append(item_id)
        if len(generated) == 2:
            os.kill(os.getpid(), signal.SIGKILL)

run_pipeline(load_config(sys.argv[1]), on_stage_logged=hook)
"""


def test_a_holder_killed_with_sigkill_leaves_a_run_dir_that_resumes(tmp_path):
    cfg_path, cfg_dict = mini_config(tmp_path, n_docs=4, concurrency=1)
    src = os.path.dirname(os.path.dirname(qaforge.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.Popen([sys.executable, "-c", SIGKILL_AT_SECOND_GENERATE, str(cfg_path)],
                            env=env, stderr=subprocess.PIPE, text=True)
    _, err = proc.communicate(timeout=60)
    assert proc.returncode == -signal.SIGKILL, err
    assert (tmp_path / "run" / "run.lock").read_text() == f"{proc.pid}\n"

    report = resume_run(str(tmp_path / "run"))
    assert report.records_written == 4
    assert report.funnel_consistent, report.funnel_problems
    ref_dict = dict(cfg_dict, run=dict(cfg_dict["run"], out=str(tmp_path / "ref.jsonl"),
                                       run_dir=str(tmp_path / "ref_run")))
    ref_path = tmp_path / "ref.yaml"
    ref_path.write_text(yaml.safe_dump(ref_dict))
    run_pipeline(load_config(str(ref_path)))
    assert ledger_rows(tmp_path / "run") == ledger_rows(tmp_path / "ref_run")
    assert dataset_body(tmp_path / "records.jsonl") == dataset_body(tmp_path / "ref.jsonl")


# ---------------------------------------------------------------- failure policy


class DocFaultProvider:
    """Default mock replies, except at one stage for the document tagged "Plant 0".

    There the fault is returned as the reply text, or raised when it is an
    exception.
    """

    def __init__(self, stage, fault):
        self.mock = MockProvider(default_script())
        self.stage = stage
        self.fault = fault

    def send(self, req):
        if req.stage_tag == self.stage and "Plant 0 " in req.user:
            if isinstance(self.fault, Exception):
                raise self.fault
            return ChatResponse(text=self.fault)
        return self.mock.send(req)


# (drop reason, stage it shows at, ledger stage, fault for document 0)
DROP_CASES = [
    ("parse", StageTag.FILTER, "filter", "no tagged fields at all"),
    ("no_persona", StageTag.CLASSIFY, "classify", "DOMAIN: science\nPERSONAS: ."),
    ("answer_too_long", StageTag.GENERATE, "generate",
     "QUESTION: What does the plant make?\nANSWER: " + "ammonia " * 40),
    ("pre_leak", StageTag.GENERATE, "generate",
     "QUESTION: Does the plant make Ammonia?\nANSWER: Ammonia"),
    ("provider", StageTag.VERIFY, "verify", RequestRejectedError("provider returned 400")),
]


def test_every_drop_reason_has_a_case():
    assert sorted(DROP_REASONS.values()) == sorted(case[0] for case in DROP_CASES)


@pytest.mark.parametrize("reason,tag,stage,fault", DROP_CASES, ids=[c[0] for c in DROP_CASES])
def test_per_item_failure_is_a_ledgered_drop(tmp_path, reason, tag, stage, fault):
    cfg_path, _ = mini_config(tmp_path, n_docs=3)
    gw = Gateway(DocFaultProvider(tag, fault), sleep=lambda s: None)
    report = run_pipeline(load_config(str(cfg_path)), gateway=gw)
    assert report.records_written == 2
    assert report.funnel_consistent, report.funnel_problems
    assert report.reasons[stage][f"drop:{reason}"] == 1
    # The drop is memoised: a resume asks the provider nothing.
    provider = DocFaultProvider(tag, fault)
    again = resume_run(str(tmp_path / "run"), gateway=Gateway(provider))
    assert provider.mock.total_calls == 0
    assert again.records_written == 2


def mock_without_verify():
    script = default_script()
    script.defaults.pop(StageTag.VERIFY.value)
    return MockProvider(script)


RUN_SCOPED = {
    "unauthorized": lambda: DocFaultProvider(
        StageTag.VERIFY, PermanentProviderError("provider returned 401: bad key")),
    "mock_miss": mock_without_verify,
    "retries_exhausted": lambda: DocFaultProvider(
        StageTag.VERIFY, TransientProviderError("provider returned 503")),
}


@pytest.mark.parametrize("kind", sorted(RUN_SCOPED))
def test_run_scoped_failure_aborts_then_resumes(tmp_path, kind):
    cfg_path, _ = mini_config(tmp_path, n_docs=3, concurrency=1)
    gw = Gateway(RUN_SCOPED[kind](), max_attempts=2, sleep=lambda s: None)
    expected = TransportError if kind == "retries_exhausted" else PermanentProviderError
    with pytest.raises(expected):
        run_pipeline(load_config(str(cfg_path)), gateway=gw)
    ledger = RunLedger(str(tmp_path / "run"))
    assert all(e["outcome"] == "pass" for e in ledger.entries("verify"))
    ledger.close()
    report = resume_run(str(tmp_path / "run"), gateway=Gateway(MockProvider(default_script())))
    assert report.records_written == 3
    assert report.funnel_consistent, report.funnel_problems


def test_empty_corpus_run(tmp_path):
    corpus = tmp_path / "empty.jsonl"
    corpus.write_text("")
    cfg = config_from_dict(
        {
            "sources": [{"source": "none", "path": str(corpus)}],
            "run": {"out": str(tmp_path / "records.jsonl"), "run_dir": str(tmp_path / "run")},
            "gateway": {"mock_script": None},
        }
    )
    mock_path = tmp_path / "mock.jsonl"
    default_script().save(str(mock_path))
    cfg.gateway.mock_script = str(mock_path)
    report = run_pipeline(cfg)
    assert report.records_written == 0
    assert report.funnel_consistent
    assert dataset_stats(cfg.run.out)["records"] == 0


def test_config_snapshot_matches_original(tmp_path):
    cfg_path, _ = mini_config(tmp_path)
    cfg = load_config(str(cfg_path))
    run_pipeline(cfg)
    with open(tmp_path / "run" / "config.json", "r", encoding="utf-8") as fh:
        snap = config_from_dict(json.load(fh))
    assert canonical_json(snap) == canonical_json(load_config(str(cfg_path)))


def test_a_snapshot_write_that_fails_leaves_no_config_json(tmp_path, monkeypatch):
    ref, bundle = build_fixture(tmp_path / "ref"), build_fixture(tmp_path / "run")

    def fixture_gateway(b):
        return Gateway(MockProvider(MockScript.load(str(b.mock_path))), concurrency=4,
                       sleep=lambda _s: None)

    run_pipeline(ref.config(), gateway=fixture_gateway(ref))
    real = pipeline.config_to_dict
    # The last key cannot be encoded, so the write fails after the others.
    monkeypatch.setattr(pipeline, "config_to_dict", lambda cfg: {**real(cfg), "zz": object()})
    with pytest.raises(TypeError):
        run_pipeline(bundle.config(), gateway=fixture_gateway(bundle))
    assert not (bundle.root / "run" / "config.json").exists()
    monkeypatch.setattr(pipeline, "config_to_dict", real)
    report = run_pipeline(bundle.config(), gateway=fixture_gateway(bundle))
    assert report.funnel_consistent, report.funnel_problems
    assert dataset_body(bundle.root / "records.jsonl") == dataset_body(ref.root / "records.jsonl")
    assert report.records_written == 155


@pytest.mark.parametrize("root", ["[]", "0", "false", '""'])
def test_cli_config_root_that_is_not_a_mapping_is_fatal(tmp_path, monkeypatch, capsys, root):
    (tmp_path / "c.json").write_text(root + "\n")
    monkeypatch.chdir(tmp_path)
    assert cli.main(["run", "--config", "c.json"]) == 1
    err = capsys.readouterr().err
    assert err.count("error:") == 1 and "error: config root must be a mapping" in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c.json"]


def qaforge_subprocess(*args, cwd=None):
    """`python -m qaforge ARGS` in a child process, with this qaforge first on its path."""
    src = os.path.dirname(os.path.dirname(qaforge.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, "-m", "qaforge", *map(str, args)], cwd=cwd, env=env,
                          stdin=subprocess.DEVNULL, capture_output=True, text=True, timeout=60)


@pytest.mark.parametrize("name, text, command", [
    pytest.param("deep.json", "[" * 200_000 + "]" * 200_000, ["run"], id="json"),
    pytest.param("deep.yaml", "a: " + "[" * 100_000 + "]" * 100_000, ["run"], id="yaml"),
    pytest.param("deep.json", "[" * 200_000 + "]" * 200_000, ["reward", "--stdin"], id="reward"),
])
def test_cli_config_nested_too_deeply_is_fatal(tmp_path, name, text, command):
    (tmp_path / name).write_text(text + "\n")
    proc = qaforge_subprocess(*command, "--config", name, cwd=tmp_path)
    assert proc.returncode == 1, proc.stderr[-2000:]
    assert proc.stderr.count("error:") == 1 and f"error: cannot parse config {name}" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert sorted(p.name for p in tmp_path.iterdir()) == [name]


def tree_bytes(root):
    """Every file under root, by relative path, with its bytes."""
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def test_a_resume_whose_config_snapshot_is_nested_too_deeply_is_fatal(tmp_path):
    cfg_path, _ = mini_config(tmp_path)
    assert cli.main(["run", "--config", str(cfg_path)]) == 0
    run_dir = tmp_path / "run"
    (run_dir / "config.json").write_text("[" * 200_000 + "]" * 200_000 + "\n")
    before = tree_bytes(run_dir)
    proc = qaforge_subprocess("resume", "--run-dir", run_dir)
    assert proc.returncode == 1, proc.stderr[-2000:]
    assert proc.stderr.count("error:") == 1
    assert f"error: cannot parse config snapshot {run_dir / 'config.json'}" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert tree_bytes(run_dir) == before


def test_an_empty_yaml_config_is_all_defaults(tmp_path):
    (tmp_path / "empty.yaml").write_text("# no settings\n")
    assert canonical_json(load_config(str(tmp_path / "empty.yaml"))) == canonical_json(
        config_from_dict({}))


# ---------------------------------------------------------------- cli


def test_cli_run_and_stats(tmp_path, capsys):
    cfg_path, _ = mini_config(tmp_path, n_docs=2)
    assert cli.main(["run", "--config", str(cfg_path)]) == 0
    out = capsys.readouterr().out
    assert "records written: 2" in out
    assert cli.main(["stats", "--dataset", str(tmp_path / "records.jsonl")]) == 0
    out = capsys.readouterr().out
    assert "records: 2" in out and "science" in out


def test_cli_worker_and_out_overrides(tmp_path, capsys):
    cfg_path, _ = mini_config(tmp_path)
    override_out = tmp_path / "elsewhere.jsonl"
    code = cli.main(
        [
            "run", "--config", str(cfg_path),
            "--out", str(override_out),
            "--run-dir", str(tmp_path / "run2"),
        ]
    )
    assert code == 0
    assert override_out.exists()
    assert len(read_jsonl(override_out)) == 2


def test_cli_stats_empty_dataset(tmp_path, capsys):
    path = tmp_path / "empty.jsonl"
    path.write_text("")
    assert cli.main(["stats", "--dataset", str(path)]) == 0
    assert "0 records" in capsys.readouterr().out


def test_cli_missing_dataset_is_fatal(tmp_path, capsys):
    assert cli.main(["stats", "--dataset", str(tmp_path / "nope.jsonl")]) == 1


def test_cli_bad_config_is_fatal(tmp_path, capsys):
    bad = tmp_path / "bad.yaml"
    bad.write_text("filter:\n  min_charss: 10\n")
    assert cli.main(["run", "--config", str(bad)]) == 1
    assert "error:" in capsys.readouterr().err


def test_cli_resume_and_drift_exit_codes(tmp_path, capsys):
    cfg_path, cfg_dict = mini_config(tmp_path)
    assert cli.main(["run", "--config", str(cfg_path)]) == 0
    capsys.readouterr()
    assert cli.main(["resume", "--run-dir", str(tmp_path / "run"),
                     "--config", str(cfg_path)]) == 0
    capsys.readouterr()
    cfg_dict["classify"] = {"max_personas": 2}
    drifted = tmp_path / "drifted.yaml"
    drifted.write_text(yaml.safe_dump(cfg_dict))
    assert cli.main(["resume", "--run-dir", str(tmp_path / "run"),
                     "--config", str(drifted)]) == 2
    assert "drift" in capsys.readouterr().err


def test_cli_decontaminate(tmp_path, capsys):
    dataset = tmp_path / "data.jsonl"
    write_jsonl(
        dataset,
        [
            {"record_id": "r1", "question": "What is the tallest mountain on Earth above sea level?",
             "answer": "Mount Everest"},
            {"record_id": "r2", "question": "Which gas do plants absorb from the air?",
             "answer": "Carbon dioxide"},
        ],
    )
    eval_dir = tmp_path / "evals"
    eval_dir.mkdir()
    write_jsonl(eval_dir / "bench.jsonl",
                [{"text": "What is the tallest mountain on Earth above sea level?"}])
    code = cli.main(["decontaminate", "--dataset", str(dataset),
                     "--eval-dir", str(eval_dir), "--ngram", "5"])
    assert code == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["checked"] == 2
    assert summary["contaminated"] == 1
    assert summary["written"] == 1
    kept = read_jsonl(summary["out"])
    assert [r["record_id"] for r in kept] == ["r2"]


def test_cli_decontaminate_out_may_be_the_dataset(tmp_path, capsys):
    dataset = tmp_path / "data.jsonl"
    kept = {"record_id": "r2", "question": "Which gas do plants absorb from the air?",
            "answer": "Carbon dioxide"}
    write_jsonl(dataset, [
        {"record_id": "r1", "question": "What is the tallest mountain on Earth above sea level?",
         "answer": "Mount Everest"},
        kept,
    ])
    eval_dir = tmp_path / "evals"
    eval_dir.mkdir()
    write_jsonl(eval_dir / "bench.jsonl",
                [{"text": "What is the tallest mountain on Earth above sea level?"}])
    code = cli.main(["decontaminate", "--dataset", str(dataset), "--eval-dir", str(eval_dir),
                     "--ngram", "5", "--out", str(dataset)])
    assert code == 0
    summary = json.loads(capsys.readouterr().out)
    assert (summary["checked"], summary["contaminated"], summary["written"]) == (2, 1, 1)
    assert read_jsonl(dataset) == [kept]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["data.jsonl", "evals"]


@pytest.mark.parametrize("error", [OSError, RuntimeError])
def test_cli_decontaminate_that_fails_partway_leaves_no_tmp_file(tmp_path, capsys, monkeypatch,
                                                                  error):
    dataset = tmp_path / "data.jsonl"
    write_jsonl(dataset, [{"record_id": f"r{i}", "question": f"Question {i}?", "answer": "A"}
                          for i in range(3)])
    eval_dir = tmp_path / "evals"
    eval_dir.mkdir()
    write_jsonl(eval_dir / "bench.jsonl", [{"text": "An unrelated benchmark question."}])
    out = tmp_path / "clean.jsonl"
    out.write_bytes(b'{"record_id": "old"}\n')
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir() if p.is_file()}
    import qaforge.decontam

    screen = qaforge.decontam.is_contaminated
    calls = []

    def failing_screen(question, answer, index):
        calls.append(question)
        if len(calls) == 2:
            raise error("screen failed")
        return screen(question, answer, index)

    monkeypatch.setattr(qaforge.decontam, "is_contaminated", failing_screen)
    args = ["decontaminate", "--dataset", str(dataset), "--eval-dir", str(eval_dir),
            "--out", str(out)]
    if error is OSError:
        assert cli.main(args) == 1
        assert capsys.readouterr().err.startswith("error: screen failed")
    else:
        with pytest.raises(RuntimeError):
            cli.main(args)
    assert len(calls) == 2
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir() if p.is_file()} == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["clean.jsonl", "data.jsonl", "evals"]


@pytest.mark.parametrize("ngram", ["0", "-3"])
def test_cli_decontaminate_rejects_an_ngram_below_one(tmp_path, capsys, ngram):
    dataset = tmp_path / "data.jsonl"
    write_jsonl(dataset, [{"record_id": "r1", "question": "Q", "answer": "A"}])
    eval_dir = tmp_path / "evals"
    eval_dir.mkdir()
    write_jsonl(eval_dir / "bench.jsonl", [{"text": "An unrelated benchmark question."}])
    code = cli.main(["decontaminate", "--dataset", str(dataset), "--eval-dir", str(eval_dir),
                     "--ngram", ngram])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "--ngram" in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["data.jsonl", "evals"]


def test_cli_decontaminate_fails_closed_on_an_eval_dir_without_eval_files(tmp_path, capsys):
    dataset = tmp_path / "data.jsonl"
    write_jsonl(dataset, [{"record_id": "r1", "question": "Q", "answer": "A"}])
    eval_dir = tmp_path / "evals"
    eval_dir.mkdir()
    (eval_dir / "notes.txt").write_text("not an eval file\n")
    code = cli.main(["decontaminate", "--dataset", str(dataset), "--eval-dir", str(eval_dir)])
    assert code == 1
    assert capsys.readouterr().err == f"error: eval dir holds no .jsonl file: {eval_dir}\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["data.jsonl", "evals"]


def test_cli_reward_batch(tmp_path, capsys):
    dataset = tmp_path / "data.jsonl"
    write_jsonl(dataset, [
        {"record_id": "r1", "question": "q1", "answer": "42"},
        {"record_id": "r2", "question": "q2", "answer": "Paris"},
    ])
    rollouts = tmp_path / "rollouts.jsonl"
    write_jsonl(rollouts, [
        {"record_id": "r1", "rollout": "Working it out...\nFinal answer: 42"},
        {"record_id": "r2", "rollout": "I think the answer is London"},
    ])
    out = tmp_path / "scored.jsonl"
    code = cli.main(["reward", "--dataset", str(dataset),
                     "--rollouts", str(rollouts), "--out", str(out)])
    assert code == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["scored"] == 2 and summary["unmatched"] == 0
    rows = read_jsonl(out)
    assert [r["reward"] for r in rows] == [1.0, 0.0]


def test_cli_reward_judge_with_mock(tmp_path, capsys):
    dataset = tmp_path / "data.jsonl"
    write_jsonl(dataset, [{"record_id": "r1", "question": "q1", "answer": "Paris"}])
    rollouts = tmp_path / "rollouts.jsonl"
    write_jsonl(rollouts, [{"record_id": "r1", "rollout": "Answer: the French capital"}])
    script = MockScript()
    script.set_default(StageTag.JUDGE, "MATCH: yes")
    mock_path = tmp_path / "judge.jsonl"
    script.save(str(mock_path))
    out = tmp_path / "scored.jsonl"
    code = cli.main(["reward", "--judge", "--mock", str(mock_path), "--dataset", str(dataset),
                     "--rollouts", str(rollouts), "--out", str(out)])
    assert code == 0
    summary = json.loads(capsys.readouterr().out)
    assert (summary["judge_calls"], summary["judge_failures"]) == (1, 0)
    assert [(r["reward"], r["method"]) for r in read_jsonl(out)] == [(1, "judge")]


def reward_batch(tmp_path, capsys, gold_lines: bytes, rollout_lines: bytes):
    """Run qaforge reward in batch mode on raw file bytes: (exit code, summary, result lines)."""
    (tmp_path / "gold.jsonl").write_bytes(gold_lines)
    (tmp_path / "rollouts.jsonl").write_bytes(rollout_lines)
    out = tmp_path / "scored.jsonl"
    code = cli.main(["reward", "--dataset", str(tmp_path / "gold.jsonl"),
                     "--rollouts", str(tmp_path / "rollouts.jsonl"), "--out", str(out)])
    summary = json.loads(capsys.readouterr().out) if code == 0 else None
    return code, summary, out.read_bytes().splitlines() if out.exists() else []


GOLD_R1 = b'{"record_id": "r1", "question": "Q1", "answer": "7"}\n'


@pytest.mark.parametrize("bad_gold", [
    b"{not json\n",
    b'{"question": "Q2", "answer": "8"}\n',
    b'{"record_id": 5, "question": "Q2", "answer": "8"}\n',
    b'["r2", "Q2", "8"]\n',
], ids=["not-json", "no-record-id", "int-record-id", "array"])
def test_reward_batch_skips_a_bad_gold_line(tmp_path, capsys, bad_gold):
    rollouts = b'{"record_id": "r1", "rollout": "Answer: 7"}\n{"record_id": "r2", "rollout": "8"}\n'
    code, summary, lines = reward_batch(tmp_path, capsys, bad_gold + GOLD_R1, rollouts)
    assert code == 0
    assert (summary["scored"], summary["unmatched"], summary["malformed"]) == (1, 1, 0)
    assert [json.loads(line)["reward"] for line in lines] == [1]


def test_reward_batch_scores_a_rollout_with_a_lone_surrogate(tmp_path, capsys):
    rollouts = b'{"record_id": "r1", "rollout": "Answer: \\ud800"}\n'
    code, summary, lines = reward_batch(tmp_path, capsys, GOLD_R1, rollouts)
    assert code == 0 and summary["scored"] == 1
    assert lines == [b'{"record_id": "r1", "reward": 0, "method": "exact", '
                     b'"extracted_answer": "\\ud800"}']


def test_reward_batch_counts_a_rollout_that_is_not_utf8_as_malformed(tmp_path, capsys):
    rollouts = b'{"record_id": "r1", "rollout": "Answer: \xff"}\n'
    rollouts += b'{"record_id": "r1", "rollout": "Answer: 7"}\n'
    code, summary, lines = reward_batch(tmp_path, capsys, GOLD_R1, rollouts)
    assert code == 0
    assert (summary["scored"], summary["malformed"]) == (1, 1)


@pytest.mark.parametrize("bad_line", [
    b"[1,2]\n",
    b'{"record_id": "r9", "question": 5, "answer": "x"}\n',
    b'{"record_id": "r9", "question": "Q \xff", "answer": "x"}\n',
], ids=["array", "int-question", "not-utf8"])
def test_cli_decontaminate_counts_a_bad_line_as_malformed(tmp_path, capsys, bad_line):
    dataset = tmp_path / "data.jsonl"
    good = b'{"record_id": "r1", "question": "Which gas do plants absorb?", "answer": "CO2"}\n'
    dataset.write_bytes(bad_line + good)
    eval_dir = tmp_path / "evals"
    eval_dir.mkdir()
    write_jsonl(eval_dir / "bench.jsonl", [{"text": "An unrelated benchmark question."}])
    assert cli.main(["decontaminate", "--dataset", str(dataset), "--eval-dir", str(eval_dir)]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert (summary["checked"], summary["malformed"], summary["written"]) == (1, 1, 1)
    assert (tmp_path / "data.jsonl.clean.jsonl").read_bytes() == good


@pytest.mark.parametrize("bad_line", [b"[1,2]\n", b'"text"\n', b'{"domain": "math"}\n', b"\xff\n"],
                         ids=["array", "string", "missing-fields", "not-utf8"])
def test_stats_skip_a_line_that_is_not_a_record(tmp_path, capsys, bad_line):
    path = tmp_path / "data.jsonl"
    good = b'{"record_id": "r1", "domain": "math", "source": "a", "answer": "42"}\n'
    path.write_bytes(good + bad_line + good)
    stats = dataset_stats(str(path))
    assert (stats["records"], stats["malformed"]) == (2, 1)
    assert stats["domains"] == {"math": 2}
    assert cli.main(["stats", "--dataset", str(path)]) == 0
    out = capsys.readouterr().out
    assert "records: 2" in out and "malformed lines skipped: 1" in out


def test_console_script_installed(tmp_path):
    cfg_path, _ = mini_config(tmp_path)
    proc = subprocess.run(
        [sys.executable, "-m", "qaforge", "run", "--config", str(cfg_path)],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert "records written: 2" in proc.stdout
