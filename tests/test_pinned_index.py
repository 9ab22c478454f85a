"""The eval index is pinned in the run dir, and a resume screens against it."""

from __future__ import annotations

import gc
import json
import os
import subprocess
import sys
import threading
import time
import types
from collections import Counter
from functools import partial

import pytest

from fixture_builder import build_fixture
from test_pipeline import default_script, mini_config, prose

from conftest import read_jsonl, write_jsonl
from qaforge import cli, pipeline
from qaforge.config import load_config
from qaforge.decontam import (
    INDEX_FILE,
    IndexPin,
    build_index,
    build_index_from_dir,
    is_contaminated,
    read_index,
    write_index,
)
from qaforge.errors import ConfigDriftError, IngestError
from qaforge.gateway import Gateway, MockProvider, MockScript
from qaforge.ledger import RunLedger
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


# The first verified candidate starts the index build in a child process. A
# document whose LLM phase ends before the index is pinned parks its screen
# phase, which is submitted again once it is.


def within(seconds, fn):
    """Run fn on a thread; what it returned or raised, once it has ended within seconds."""
    out = {}

    def run():
        try:
            out["value"] = fn()
        except BaseException as exc:
            out["exc"] = exc

    runner = threading.Thread(target=run, daemon=True)
    runner.start()
    runner.join(timeout=seconds)
    assert not runner.is_alive(), f"still running after {seconds} s"
    return out


def spawn_spy(monkeypatch, rewrite=lambda args: args):
    """Record every child process started, its command passed through rewrite."""
    children, real = [], subprocess.Popen

    def spy(args, **kwargs):
        children.append((args, real(rewrite(args), **kwargs)))
        return children[-1][1]

    monkeypatch.setattr(subprocess, "Popen", spy)
    return children


def test_first_send_comes_before_the_index_build(tmp_path, monkeypatch, reference):
    bundle = build_fixture(tmp_path)
    provider, gw = counted_gateway(bundle)
    path = bundle.root / "run" / INDEX_FILE
    events = []
    send = provider.send

    def recording_send(req):
        events.append("send")
        return send(req)

    def recording_start(args):
        events.append("child")
        return args

    pinned_at_screen = []

    def hook(stage, item_id, outcome):
        if stage == "decontaminate":
            pinned_at_screen.append(path.exists())

    provider.send = recording_send
    children = spawn_spy(monkeypatch, recording_start)
    report = run_pipeline(bundle.config(), gateway=gw, on_stage_logged=hook)

    assert events[0] == "send" and events.count("child") == 1
    (args, child), = children
    assert args[1:] == ["-S", "-m", "qaforge.decontam", str(bundle.eval_dir), "13", str(path)]
    assert child.returncode == 0
    assert pinned_at_screen and all(pinned_at_screen)
    assert report.funnel_consistent, report.funnel_problems
    assert read_index(str(path), 13) == build_index_from_dir(str(bundle.eval_dir), 13)
    assert sans_created_at(read_jsonl(bundle.root / "records.jsonl")) == reference["dataset"]


def test_concurrent_first_screens_build_the_index_once(tmp_path, monkeypatch):
    bundle = build_fixture(tmp_path)
    cfg = bundle.config()
    os.makedirs(cfg.run.run_dir)
    children = spawn_spy(monkeypatch)
    ctx = _RunContext(cfg=cfg, gateway=None, ledger=None, demos=None)
    start, got = threading.Barrier(16), []

    def screen():
        start.wait(timeout=10)
        deadline = time.monotonic() + 30
        while (index := ctx.eval_index(wait=False)) is None and time.monotonic() < deadline:
            time.sleep(0.001)
        got.append(index)

    threads = [threading.Thread(target=screen, daemon=True) for _ in range(16)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
        ctx.pin.close()
    assert not any(thread.is_alive() for thread in threads)
    assert len(children) == 1 and len(got) == 16
    assert got[0] is not None and all(index is got[0] for index in got)
    assert read_index(str(bundle.root / "run" / INDEX_FILE), 13) == got[0]
    assert got[0] == build_index_from_dir(str(bundle.eval_dir), 13)


def test_the_index_child_imports_only_the_index_code(tmp_path, monkeypatch):
    bundle = build_fixture(tmp_path / "fixture")
    run_dir = tmp_path / "run"
    run_dir.mkdir()
    children = spawn_spy(monkeypatch, lambda args: [args[0], "-X", "importtime", *args[1:]])
    pin = IndexPin(str(run_dir), str(bundle.eval_dir), 13)
    try:
        index = pin.result(wait=True)
        timings = children[0][1].stderr.read().decode()
    finally:
        pin.close()
    imported = {line.rsplit("|", 1)[1].strip() for line in timings.splitlines() if "|" in line}
    ours = {name for name in imported if name.split(".")[0] == "qaforge"}
    assert {"qaforge", "qaforge.errors", "qaforge.types"} <= ours
    assert ours <= {"qaforge", "qaforge.decontam", "qaforge.errors", "qaforge.types"}
    assert "site" not in imported  # -S
    assert index == build_index_from_dir(str(bundle.eval_dir), 13)
    assert [p.name for p in run_dir.iterdir()] == [INDEX_FILE]  # no tmp file left


def hold_the_build(monkeypatch, released):
    """Make the build child look as if it runs until released is set."""

    class HeldChild(subprocess.Popen):
        def poll(self):
            return super().poll() if released.is_set() else None

        def wait(self, timeout=None):
            released.wait(timeout=30)
            return super().wait(timeout)

    monkeypatch.setattr(subprocess, "Popen", HeldChild)


def held_strings(screen):
    """Every str a parked screen holds, short of the run context it shares with the run."""
    seen, todo, found = set(), [screen], []
    while todo:
        obj = todo.pop()
        if id(obj) in seen or isinstance(obj, (_RunContext, type, types.FunctionType)):
            continue
        seen.add(id(obj))
        if isinstance(obj, str):
            found.append(obj)
        else:
            todo.extend(gc.get_referents(obj))
    return found


@pytest.mark.parametrize("concurrency", [1, 4, 16])
def test_parked_documents_cost_no_provider_call(tmp_path, monkeypatch, reference, concurrency):
    bundle = build_fixture(tmp_path)
    provider, gw = counted_gateway(bundle, concurrency)
    window = 4 * concurrency
    parked, released = [], threading.Event()
    process = pipeline._process_document

    def parking_process(ctx, doc):
        try:
            return process(ctx, doc)
        except pipeline.IndexPending:
            parked.append(doc.doc_id)
            if len(parked) >= window:
                released.set()
            raise

    monkeypatch.setattr(pipeline, "_process_document", parking_process)
    hold_the_build(monkeypatch, released)
    report = within(60, lambda: run_pipeline(bundle.config(), gateway=gw))["value"]

    assert len(parked) >= window
    assert report.funnel_consistent, report.funnel_problems
    assert provider.total_calls == 560 and dict(provider.calls) == reference["calls"]
    assert ledger_rows(bundle.root / "run", "decontaminate") == reference["decontaminate"]
    assert sans_created_at(read_jsonl(bundle.root / "records.jsonl")) == reference["dataset"]


@pytest.mark.parametrize("concurrency", [1, 4, 16])
def test_parked_screens_follow_every_llm_stage_and_read_no_ledger_row(tmp_path, monkeypatch,
                                                                      reference, concurrency):
    bundle = build_fixture(tmp_path)
    cfg = bundle.config()
    provider, gw = counted_gateway(bundle, concurrency)
    window, released, screening = 4 * concurrency, threading.Event(), threading.local()
    events, held, screened, in_screens = [], {}, [], Counter()
    process, get, send = pipeline._process_document, RunLedger.get, provider.send

    def counted_screen(screen, doc_id):
        screening.on = True
        try:
            return screen()
        finally:
            screening.on = False
            screened.append(doc_id)

    def parking_process(ctx, doc):
        try:
            return process(ctx, doc)
        except pipeline.IndexPending as exc:
            screen = exc.args[0]
        held[doc.doc_id] = held_strings(screen)
        if len(held) >= window:
            released.set()
        raise pipeline.IndexPending(partial(counted_screen, screen, doc.doc_id))

    def counted(what, fn):
        def call(*args):
            if getattr(screening, "on", False):
                in_screens[what] += 1
            return fn(*args)
        return call

    monkeypatch.setattr(pipeline, "_process_document", parking_process)
    monkeypatch.setattr(RunLedger, "get", counted("get", get))
    provider.send = counted("send", send)
    hold_the_build(monkeypatch, released)
    hook = lambda stage, item_id, outcome: events.append((stage, item_id.split(":")[0]))
    report = within(60, lambda: run_pipeline(cfg, gateway=gw, on_stage_logged=hook))["value"]

    assert len(held) >= window and sorted(screened) == sorted(held)
    assert in_screens == Counter()  # no RunLedger.get and no provider call from a parked screen
    assert all(max(map(len, strings)) <= cfg.filter.max_chars for strings in held.values())
    screened_docs = {doc_id for stage, doc_id in events if stage == "decontaminate"}
    assert set(held) <= screened_docs
    for doc_id in screened_docs:  # every LLM row of a document comes before its first screen
        order = [stage for stage, d in events if d == doc_id]
        first = order.index("decontaminate")
        assert {"generate", "verify"} & set(order[first:]) == set(), (doc_id, order)
    assert report.funnel_consistent, report.funnel_problems
    assert provider.total_calls == 560 and dict(provider.calls) == reference["calls"]
    assert sans_created_at(read_jsonl(bundle.root / "records.jsonl")) == reference["dataset"]


def long_document_config(root, max_chars, concurrency):
    """mini_config over 12 documents three times max_chars long, with an eval dir."""
    root.mkdir()
    cfg_path, _ = mini_config(root, concurrency=concurrency)
    write_jsonl(root / "corpus.jsonl", [{"text": prose(i, 3 * max_chars)} for i in range(12)])
    (root / "evals").mkdir()
    write_jsonl(root / "evals" / "eval.jsonl", [{"text": "An eval text about tidal power."}])
    cfg = load_config(str(cfg_path))
    cfg.filter.max_chars = max_chars
    cfg.decontaminate.eval_dir = str(root / "evals")
    return cfg, Gateway(MockProvider(default_script()), concurrency=concurrency,
                        sleep=lambda _s: None)


def test_parked_documents_keep_only_their_llm_text(tmp_path, monkeypatch):
    max_chars, concurrency = 1000, 2
    window, ref, held = 4 * concurrency, tmp_path / "ref", tmp_path / "held"
    lengths, parked, released = {}, {}, threading.Event()
    process = pipeline._process_document

    def recording_process(ctx, doc):
        lengths.setdefault(doc.doc_id, []).append(len(doc.text))
        try:
            return process(ctx, doc)
        except pipeline.IndexPending as exc:
            parked[doc.doc_id] = held_strings(exc.args[0])
            if len(parked) >= window:
                released.set()
            raise

    monkeypatch.setattr(pipeline, "_process_document", recording_process)
    # The reference run finds its index pinned before it starts, so nothing parks.
    ref_cfg, ref_gw = long_document_config(ref, max_chars, concurrency)
    os.makedirs(ref_cfg.run.run_dir)
    write_index(build_index_from_dir(ref_cfg.decontaminate.eval_dir, 13),
                os.path.join(ref_cfg.run.run_dir, INDEX_FILE))
    run_pipeline(ref_cfg, gateway=ref_gw)
    assert not parked

    lengths.clear()
    hold_the_build(monkeypatch, released)
    cfg, gw = long_document_config(held, max_chars, concurrency)
    report = within(60, lambda: run_pipeline(cfg, gateway=gw))["value"]

    assert len(parked) >= window
    assert all(seen == [3 * max_chars] for seen in lengths.values())  # each document runs once
    for strings in parked.values():  # a parked screen holds the max_chars cut, not the document
        assert max(map(len, strings)) == max_chars
    assert report.funnel_consistent, report.funnel_problems
    assert sans_created_at(read_jsonl(held / "records.jsonl")) == sans_created_at(
        read_jsonl(ref / "records.jsonl"))
    stages = sorted(path.stem for path in (ref / "run" / "ledgers").glob("*.jsonl"))
    assert stages == sorted(path.stem for path in (held / "run" / "ledgers").glob("*.jsonl"))
    for stage in stages:
        assert ledger_rows(held / "run", stage) == ledger_rows(ref / "run", stage), stage


def test_an_abort_while_the_index_builds_leaves_no_child(tmp_path, monkeypatch):
    bundle = build_fixture(tmp_path)
    run_dir = bundle.root / "run"
    # A build that would outlast the run: it opens its tmp file, as write_index
    # does, and only the abort can end it.
    stand_in = ("import os, sys, time; open(f'{sys.argv[1]}.{os.getpid()}.tmp', 'wb').close();"
                " time.sleep(60)")
    children = spawn_spy(monkeypatch, lambda args: [args[0], "-c", stand_in, args[-1]])
    tmp_at_abort = []

    def hook(stage, item_id, outcome):
        if stage == "ingest" and children:
            deadline = time.monotonic() + 10
            while not list(run_dir.glob("*.tmp")) and time.monotonic() < deadline:
                time.sleep(0.01)
            tmp_at_abort.extend(p.name for p in run_dir.glob("*.tmp"))
            raise Interrupt()

    gw = counted_gateway(bundle, concurrency=1)[1]
    got = within(30, lambda: run_pipeline(bundle.config(), gateway=gw, on_stage_logged=hook))
    assert isinstance(got.get("exc"), Interrupt)
    (_, child), = children
    assert child.returncode is not None  # killed and reaped
    with pytest.raises(ProcessLookupError):
        os.kill(child.pid, 0)
    assert tmp_at_abort == [f"{INDEX_FILE}.{child.pid}.tmp"]
    assert not list(run_dir.glob("*.tmp"))


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


def test_a_failed_index_build_ends_the_run(tmp_path, reference):
    bundle = build_fixture(tmp_path)
    run_dir = bundle.root / "run"
    aside = tmp_path / "evals-aside"
    lock = threading.Lock()

    def hook(stage, item_id, outcome):
        # Each screen follows its candidate's verify row, so the child starts
        # after the eval dir has gone.
        if stage == "verify":
            with lock:
                if not aside.exists():
                    bundle.eval_dir.rename(aside)

    gw = counted_gateway(bundle)[1]
    got = within(60, lambda: run_pipeline(bundle.config(), gateway=gw, on_stage_logged=hook))
    assert isinstance(got.get("exc"), IngestError)
    assert str(got["exc"]) == (
        f"eval index build failed: IngestError: eval dir not found: {bundle.eval_dir}")
    assert sorted(p.name for p in run_dir.iterdir()) == ["config.json", "ledgers", "run.lock"]
    screened = run_dir / "ledgers" / "decontaminate.jsonl"
    assert not screened.exists() or screened.read_bytes() == b""

    aside.rename(bundle.eval_dir)
    report = resume_run(str(run_dir), gateway=counted_gateway(bundle)[1])
    assert report.funnel_consistent, report.funnel_problems
    assert ledger_rows(run_dir, "decontaminate") == reference["decontaminate"]
    assert sans_created_at(read_jsonl(bundle.root / "records.jsonl")) == reference["dataset"]
