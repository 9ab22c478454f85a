"""The eval index is pinned in the run dir, and a resume screens against it."""

from __future__ import annotations

import json
import os
import sys
import threading
import time

import pytest

from fixture_builder import build_fixture

from conftest import read_jsonl, write_jsonl
from qaforge import cli, decontam
from qaforge.decontam import INDEX_FILE, build_index, build_index_from_dir, is_contaminated, read_index
from qaforge.errors import ConfigDriftError
from qaforge.gateway import Gateway, MockProvider, MockScript
from qaforge.pipeline import _RunContext, resume_run, run_pipeline
from qaforge.types import SourceSpec


class Interrupt(BaseException):
    pass


def counted_gateway(bundle, concurrency=4):
    provider = MockProvider(MockScript.load(str(bundle.mock_path)))
    return provider, Gateway(provider, concurrency=concurrency, sleep=lambda _s: None)


def crash_at_first(stage_name):
    def hook(stage, item_id, outcome):
        if stage == stage_name:
            raise Interrupt()

    return hook


def sans_created_at(rows):
    for row in rows:
        row.pop("created_at", None)
        if isinstance(row.get("data"), dict):
            row["data"].pop("created_at", None)
    return rows


def ledger_rows(run_dir, stage):
    return sorted(json.dumps(row, sort_keys=True)
                  for row in sans_created_at(read_jsonl(run_dir / "ledgers" / f"{stage}.jsonl")))


@pytest.fixture(scope="module")
def reference(tmp_path_factory):
    """One uninterrupted run on the original eval dir."""
    bundle = build_fixture(tmp_path_factory.mktemp("reference"))
    provider, gw = counted_gateway(bundle)
    run_pipeline(bundle.config(), gateway=gw)
    run_dir = bundle.root / "run"
    return {
        "calls": dict(provider.calls),
        "decontaminate": ledger_rows(run_dir, "decontaminate"),
        "generate": read_jsonl(run_dir / "ledgers" / "generate.jsonl"),
        "dataset": sans_created_at(read_jsonl(bundle.root / "records.jsonl")),
    }


def crashed_run(root, stage="decontaminate"):
    bundle = build_fixture(root)
    provider, gw = counted_gateway(bundle, concurrency=1)
    with pytest.raises(Interrupt):
        run_pipeline(bundle.config(), gateway=gw, on_stage_logged=crash_at_first(stage))
    return bundle, provider


def test_resume_screens_against_the_pinned_index(tmp_path, reference):
    bundle, first = crashed_run(tmp_path)
    run_dir = bundle.root / "run"
    screened = {row["item_id"] for row in read_jsonl(run_dir / "ledgers" / "decontaminate.jsonl")}
    clean = [json.loads(r)["item_id"] for r in reference["decontaminate"]
             if json.loads(r)["outcome"] == "pass"]
    remaining = [item for item in clean if item not in screened]
    assert remaining
    question = next(r["data"]["question"] for r in reference["generate"]
                    if r["item_id"] == remaining[-1])
    # The eval dir changes between the crash and the resume: one more text
    # would now contaminate a candidate that has not been screened yet.
    (bundle.eval_dir / "late.jsonl").write_text(json.dumps({"text": question}) + "\n")
    assert is_contaminated(question, "", build_index_from_dir(str(bundle.eval_dir))).contaminated

    second, gw = counted_gateway(bundle)
    report = resume_run(str(run_dir), gateway=gw)

    assert report.funnel_consistent, report.funnel_problems
    assert ledger_rows(run_dir, "decontaminate") == reference["decontaminate"]
    assert sans_created_at(read_jsonl(bundle.root / "records.jsonl")) == reference["dataset"]
    combined = dict(first.calls)
    for stage, count in second.calls.items():
        combined[stage] = combined.get(stage, 0) + count
    assert combined == reference["calls"]


def test_pinned_index_round_trips(tmp_path):
    bundle = build_fixture(tmp_path)
    run_pipeline(bundle.config(), gateway=counted_gateway(bundle)[1])
    pinned = read_index(str(bundle.root / "run" / INDEX_FILE), 13)
    assert pinned == build_index_from_dir(str(bundle.eval_dir), 13)
    assert list(pinned.grams) == sorted(set(pinned.grams))


@pytest.mark.parametrize("damage", ["version", "ngram", "truncated", "empty"])
def test_damaged_index_header_refuses_resume(tmp_path, damage):
    bundle, _ = crashed_run(tmp_path)
    path = bundle.root / "run" / INDEX_FILE
    blob = bytearray(path.read_bytes())
    if damage == "version":
        blob[8] += 1
    elif damage == "ngram":
        blob[12] += 1
    elif damage == "truncated":
        del blob[-3:]
    else:
        del blob[:]
    path.write_bytes(bytes(blob))

    provider, gw = counted_gateway(bundle)
    with pytest.raises(ConfigDriftError):
        resume_run(str(bundle.root / "run"), gateway=gw)
    assert provider.total_calls == 0
    assert cli.main(["resume", "--run-dir", str(bundle.root / "run")]) == cli.EXIT_DRIFT


def test_run_dir_without_pinned_index_resumes(tmp_path, reference):
    bundle, first = crashed_run(tmp_path)
    run_dir = bundle.root / "run"
    (run_dir / INDEX_FILE).unlink()  # as a run dir from before pinning

    second, gw = counted_gateway(bundle)
    report = resume_run(str(run_dir), gateway=gw)

    assert report.funnel_consistent, report.funnel_problems
    assert sans_created_at(read_jsonl(bundle.root / "records.jsonl")) == reference["dataset"]
    assert first.total_calls + second.total_calls == sum(reference["calls"].values())
    assert read_index(str(run_dir / INDEX_FILE), 13) == build_index_from_dir(str(bundle.eval_dir))


def test_run_without_eval_dir_pins_an_empty_index(tmp_path):
    path = tmp_path / INDEX_FILE
    bundle = build_fixture(tmp_path / "fixture")
    cfg = bundle.config()
    cfg.decontaminate.eval_dir = ""
    cfg.run.run_dir = str(tmp_path)
    run_pipeline(cfg, gateway=counted_gateway(bundle)[1])
    assert read_index(str(path), 13) == build_index([], 13)


# The first candidate screened builds and pins the index, on its worker; the
# other workers wait for it under the run context's lock.


def test_first_send_comes_before_the_index_build(tmp_path, monkeypatch, reference):
    bundle = build_fixture(tmp_path)
    provider, gw = counted_gateway(bundle)
    path = bundle.root / "run" / INDEX_FILE
    events, sent = [], threading.Event()
    send = provider.send

    def recording_send(req):
        events.append("send")
        sent.set()
        return send(req)

    real_build = decontam.build_index_from_dir

    def recording_build(eval_dir, n=13):
        # Were the build to run before the pool started, no send could come.
        events.append(("build", sent.wait(timeout=10)))
        return real_build(eval_dir, n)

    pinned_at_screen = []

    def hook(stage, item_id, outcome):
        if stage == "decontaminate":
            pinned_at_screen.append(path.exists())

    provider.send = recording_send
    monkeypatch.setattr(decontam, "build_index_from_dir", recording_build)
    report = run_pipeline(bundle.config(), gateway=gw, on_stage_logged=hook)

    assert events[0] == "send"
    assert [e for e in events if e != "send"] == [("build", True)]
    assert pinned_at_screen and all(pinned_at_screen)
    assert report.funnel_consistent, report.funnel_problems
    assert read_index(str(path), 13) == real_build(str(bundle.eval_dir), 13)
    assert sans_created_at(read_jsonl(bundle.root / "records.jsonl")) == reference["dataset"]


def test_concurrent_first_screens_build_the_index_once(tmp_path, monkeypatch):
    bundle = build_fixture(tmp_path)
    cfg = bundle.config()
    os.makedirs(cfg.run.run_dir)
    builds = []
    real_build = decontam.build_index_from_dir

    def counting_build(eval_dir, n=13):
        builds.append(threading.get_ident())
        time.sleep(0.05)  # a window in which an unlocked second screen would build too
        return real_build(eval_dir, n)

    monkeypatch.setattr(decontam, "build_index_from_dir", counting_build)
    ctx = _RunContext(cfg=cfg, gateway=None, ledger=None, demos=None)
    start, got = threading.Barrier(16), []

    def screen():
        start.wait(timeout=10)
        got.append(ctx.eval_index())

    threads = [threading.Thread(target=screen, daemon=True) for _ in range(16)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert len(builds) == 1 and len(got) == 16
    assert all(index is got[0] for index in got)
    assert read_index(str(bundle.root / "run" / INDEX_FILE), 13) == got[0]


def test_abort_while_workers_wait_to_screen_ends_the_run(tmp_path, reference):
    bundle = build_fixture(tmp_path)
    run_dir = bundle.root / "run"
    screening = threading.Event()
    ingest_thread = []

    def hook(stage, item_id, outcome):
        if threading.get_ident() != ingest_thread[0]:
            if stage == "verify" and outcome == "pass":
                screening.set()  # this worker waits on the index next
        elif stage == "ingest" and screening.wait(timeout=0.5):
            raise Interrupt()

    result = {}

    def run():
        ingest_thread.append(threading.get_ident())
        try:
            run_pipeline(bundle.config(), gateway=counted_gateway(bundle)[1], on_stage_logged=hook)
        except BaseException as exc:
            result["exc"] = exc

    runner = threading.Thread(target=run, daemon=True)
    runner.start()
    runner.join(timeout=60)
    assert not runner.is_alive(), "run_pipeline hung after the ingest thread raised"
    assert isinstance(result.get("exc"), Interrupt)
    assert screening.is_set()

    report = resume_run(str(run_dir), gateway=counted_gateway(bundle)[1])
    assert report.funnel_consistent, report.funnel_problems
    assert ledger_rows(run_dir, "decontaminate") == reference["decontaminate"]
    assert sans_created_at(read_jsonl(bundle.root / "records.jsonl")) == reference["dataset"]
    assert read_index(str(run_dir / INDEX_FILE), 13) == build_index_from_dir(str(bundle.eval_dir))


def test_all_reject_corpus_pins_the_index(tmp_path):
    bundle = build_fixture(tmp_path / "fixture")
    write_jsonl(tmp_path / "junk.jsonl", [{"text": f"Too short {i}."} for i in range(5)])
    cfg = bundle.config()
    cfg.sources = [SourceSpec("junk", str(tmp_path / "junk.jsonl"))]
    run_dir = bundle.root / "run"
    provider, gw = counted_gateway(bundle)
    report = run_pipeline(cfg, gateway=gw)
    assert provider.total_calls == 0
    assert report.funnel["filter"] == {"in": 5, "pass": 0, "reject": 5, "drop": 0}
    # Nothing was screened, so nothing was pinned; the resume pins it.
    assert not (run_dir / INDEX_FILE).exists()
    provider, gw = counted_gateway(bundle)
    resume_run(str(run_dir), gateway=gw)
    assert provider.total_calls == 0
    pinned = read_index(str(run_dir / INDEX_FILE), 13)
    assert pinned == build_index_from_dir(str(bundle.eval_dir), 13)


def test_a_failed_index_build_ends_the_run(tmp_path, monkeypatch, reference):
    bundle = build_fixture(tmp_path)
    run_dir = bundle.root / "run"

    def failing_build(eval_dir, n=13):
        raise OSError("eval dir went away")

    monkeypatch.setattr(decontam, "build_index_from_dir", failing_build)
    result = {}

    def run():
        try:
            run_pipeline(bundle.config(), gateway=counted_gateway(bundle)[1])
        except BaseException as exc:
            result["exc"] = exc

    runner = threading.Thread(target=run, daemon=True)
    runner.start()
    runner.join(timeout=60)
    assert not runner.is_alive(), "run_pipeline hung after the index build failed"
    assert isinstance(result.get("exc"), OSError)
    assert not (run_dir / INDEX_FILE).exists()
    screened = run_dir / "ledgers" / "decontaminate.jsonl"
    assert not screened.exists() or screened.read_bytes() == b""

    monkeypatch.undo()
    report = resume_run(str(run_dir), gateway=counted_gateway(bundle)[1])
    assert report.funnel_consistent, report.funnel_problems
    assert ledger_rows(run_dir, "decontaminate") == reference["decontaminate"]
    assert sans_created_at(read_jsonl(bundle.root / "records.jsonl")) == reference["dataset"]
