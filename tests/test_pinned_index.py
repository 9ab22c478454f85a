"""The eval index is pinned in the run dir, and a resume screens against it."""

from __future__ import annotations

import gc
import json
import os
import stat
import subprocess
import sys
import threading
import time
import types
from collections import Counter
from functools import partial
from pathlib import Path

import pytest

from fixture_builder import build_fixture
from test_pipeline import default_script, mini_config, prose

from conftest import read_jsonl, write_jsonl
from qaforge import cli, decontam, pipeline
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


def poll_index(pin, seconds=30):
    """pin.index(), called until it is not None or seconds have passed."""
    deadline = time.monotonic() + seconds
    while (index := pin.index()) is None and time.monotonic() < deadline:
        time.sleep(0.001)
    return index


def test_concurrent_first_screens_build_the_index_once(tmp_path, monkeypatch):
    bundle = build_fixture(tmp_path)
    run_dir = bundle.root / "run"
    run_dir.mkdir()
    children = spawn_spy(monkeypatch)
    pin = IndexPin(str(run_dir), str(bundle.eval_dir), 13)
    start, got = threading.Barrier(16), []

    def screen():
        start.wait(timeout=10)
        got.append(poll_index(pin))

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
        pin.close()
    assert not any(thread.is_alive() for thread in threads)
    assert len(children) == 1 and len(got) == 16
    assert got[0] is not None and all(index is got[0] for index in got)
    assert read_index(str(run_dir / INDEX_FILE), 13) == got[0]
    assert got[0] == build_index_from_dir(str(bundle.eval_dir), 13)


def test_the_index_child_imports_only_the_index_code(tmp_path, monkeypatch):
    bundle = build_fixture(tmp_path / "fixture")
    run_dir = tmp_path / "run"
    run_dir.mkdir()
    children = spawn_spy(monkeypatch, lambda args: [args[0], "-X", "importtime", *args[1:]])
    pin = IndexPin(str(run_dir), str(bundle.eval_dir), 13)
    try:
        index = poll_index(pin)
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


def test_all_reject_corpus_pins_no_index(tmp_path, monkeypatch):
    bundle = build_fixture(tmp_path / "fixture")
    write_jsonl(tmp_path / "junk.jsonl", [{"text": f"Too short {i}."} for i in range(5)])
    cfg = bundle.config()
    cfg.sources = [SourceSpec("junk", str(tmp_path / "junk.jsonl"))]
    run_dir = bundle.root / "run"
    children = spawn_spy(monkeypatch)
    provider, gw = counted_gateway(bundle)
    report = run_pipeline(cfg, gateway=gw)
    assert provider.total_calls == 0
    assert report.funnel["filter"] == {"in": 5, "pass": 0, "reject": 5, "drop": 0}
    # Nothing was screened, so nothing is pinned, by the run or by its resume.
    assert not (run_dir / INDEX_FILE).exists()
    provider, gw = counted_gateway(bundle)
    resume_run(str(run_dir), gateway=gw)
    assert provider.total_calls == 0
    assert not (run_dir / INDEX_FILE).exists() and children == []


def test_a_resume_without_a_pinned_index_calls_the_provider_while_it_builds(tmp_path, monkeypatch,
                                                                            reference):
    bundle, first = crashed_run(tmp_path, "classify")
    run_dir = bundle.root / "run"
    assert not (run_dir / INDEX_FILE).exists()  # killed before its first screen
    second, gw = counted_gateway(bundle)
    released, held_sends, parked = threading.Event(), [], []
    process, send = pipeline._process_document, second.send

    def recording_send(req):
        if not released.is_set():
            held_sends.append(req)
        return send(req)

    def parking_process(ctx, doc):
        try:
            return process(ctx, doc)
        except pipeline.IndexPending:
            parked.append(doc.doc_id)
            released.set()
            raise

    second.send = recording_send
    monkeypatch.setattr(pipeline, "_process_document", parking_process)
    hold_the_build(monkeypatch, released)
    fallback = threading.Timer(20, released.set)  # a resume that waits on the build ends too
    fallback.start()
    try:
        report = within(60, lambda: resume_run(str(run_dir), gateway=gw))["value"]
    finally:
        fallback.cancel()

    assert held_sends and parked
    assert report.funnel_consistent, report.funnel_problems
    assert ledger_rows(run_dir, "decontaminate") == reference["decontaminate"]
    assert sans_created_at(read_jsonl(bundle.root / "records.jsonl")) == reference["dataset"]
    combined = Counter(first.calls) + Counter(second.calls)
    assert dict(combined) == reference["calls"]
    assert read_index(str(run_dir / INDEX_FILE), 13) == build_index_from_dir(str(bundle.eval_dir))


# IndexPin on its own, with no pipeline around it.


def test_a_pin_over_a_missing_file_starts_its_build_at_the_first_index_call(tmp_path,
                                                                            monkeypatch):
    bundle = build_fixture(tmp_path / "fixture")
    children = spawn_spy(monkeypatch)
    pin = IndexPin(str(tmp_path), str(bundle.eval_dir), 13)
    try:
        assert children == [] and not (tmp_path / INDEX_FILE).exists()
        index = poll_index(pin)
    finally:
        pin.close()
    assert len(children) == 1
    assert index == build_index_from_dir(str(bundle.eval_dir), 13)
    assert index == read_index(str(tmp_path / INDEX_FILE), 13)


def test_a_pin_over_a_damaged_file_refuses_it(tmp_path, monkeypatch):
    (tmp_path / INDEX_FILE).write_bytes(b"QAFIDX\0\0")
    children = spawn_spy(monkeypatch)
    with pytest.raises(ConfigDriftError):
        IndexPin(str(tmp_path), str(tmp_path / "evals"), 13)
    assert children == []


def test_a_failed_build_raises_the_childs_line_on_every_call(tmp_path, monkeypatch):
    missing = tmp_path / "evals"
    children = spawn_spy(monkeypatch)
    pin = IndexPin(str(tmp_path), str(missing), 13)
    try:
        with pytest.raises(IngestError) as first:
            poll_index(pin)
        later = []
        for _ in range(3):  # the child's stderr is read once; the line is kept
            with pytest.raises(IngestError) as again:
                pin.index()
            later.append(str(again.value))
    finally:
        pin.close()
    assert str(first.value) == f"eval index build failed: IngestError: eval dir not found: {missing}"
    assert later == [str(first.value)] * 3
    assert len(children) == 1 and not (tmp_path / INDEX_FILE).exists()


@pytest.mark.parametrize("eval_dir", [None, ""])
def test_a_pin_without_an_eval_dir_writes_the_empty_index_at_the_first_call(tmp_path,
                                                                            monkeypatch, eval_dir):
    children = spawn_spy(monkeypatch)
    pin = IndexPin(str(tmp_path), eval_dir, 13)
    assert not (tmp_path / INDEX_FILE).exists()
    index = pin.index()
    pin.close()
    assert index == build_index([], 13) == read_index(str(tmp_path / INDEX_FILE), 13)
    assert pin.index() is index and children == []


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


def test_a_pin_removes_the_tmp_files_of_writers_that_no_longer_run(tmp_path):
    reaped = subprocess.Popen([sys.executable, "-c", "pass"])
    reaped.wait()
    names = [f"{INDEX_FILE}.{reaped.pid}.tmp", f"{INDEX_FILE}.{os.getpid()}.tmp",
             f"{INDEX_FILE}.x.tmp", "notes.tmp"]
    for name in names:
        (tmp_path / name).write_bytes(b"QAFIDX")
    IndexPin(str(tmp_path), None, 13).close()
    assert sorted(os.listdir(tmp_path)) == sorted(names[1:])


# The build child keeps a per-user cache of the indexes it builds, keyed on the
# eval files, n and the code, and a run reads a cached index itself; conftest
# gives each test an empty cache.


def cache_files():
    return sorted((Path(os.environ["XDG_CACHE_HOME"]) / "qaforge").glob("eval-index-*.bin"))


def pinned_bytes(run_dir, eval_dir):
    """The bytes of eval_index.bin once an IndexPin over a new run_dir has pinned it."""
    run_dir.mkdir()
    pin = IndexPin(str(run_dir), str(eval_dir), 13)
    try:
        assert poll_index(pin) is not None
    finally:
        pin.close()
    return (run_dir / INDEX_FILE).read_bytes()


def built_bytes(tmp_path, eval_dir):
    """The bytes of eval_dir's index built in-process, with no cache."""
    path = tmp_path / "plain.bin"
    write_index(build_index_from_dir(str(eval_dir), 13), str(path))
    return path.read_bytes()


def test_a_second_run_on_the_same_eval_set_pins_the_cached_index(tmp_path, monkeypatch,
                                                                  reference):
    bundle = build_fixture(tmp_path / "fixture")
    pinned = []
    for name in ("first", "second"):
        children = spawn_spy(monkeypatch)
        cfg = bundle.config()
        cfg.run.run_dir, cfg.run.out = str(tmp_path / name), str(tmp_path / f"{name}.jsonl")
        report = run_pipeline(cfg, gateway=counted_gateway(bundle)[1])
        assert report.funnel_consistent, report.funnel_problems
        assert sans_created_at(read_jsonl(cfg.run.out)) == reference["dataset"]
        pinned.append((tmp_path / name / INDEX_FILE).read_bytes())
        if name == "first":
            assert len(children) == 1
            (cache,) = cache_files()
            first_inode = cache.stat().st_ino
    assert children == []  # the second run read the cache itself
    assert pinned[0] == pinned[1] == built_bytes(tmp_path, bundle.eval_dir)
    assert cache_files() == [cache] and cache.read_bytes() == pinned[0]
    assert cache.stat().st_ino == first_inode  # the second run read it and wrote nothing


def test_a_cache_hit_pins_at_the_first_index_call_with_no_child(tmp_path, monkeypatch):
    bundle = build_fixture(tmp_path / "fixture")
    pinned_bytes(tmp_path / "first", bundle.eval_dir)
    children = spawn_spy(monkeypatch)
    run_dir = tmp_path / "second"
    run_dir.mkdir()
    pin = IndexPin(str(run_dir), str(bundle.eval_dir), 13)
    try:
        index = pin.index()
    finally:
        pin.close()
    assert index is not None and children == []
    assert index == build_index_from_dir(str(bundle.eval_dir), 13)
    assert (run_dir / INDEX_FILE).read_bytes() == built_bytes(tmp_path, bundle.eval_dir)
    assert os.listdir(run_dir) == [INDEX_FILE]  # no tmp file left
    assert pin.index() is index and children == []


def test_the_cache_keeps_the_four_most_recently_used_indexes(tmp_path):
    def eval_set(i):
        evals = tmp_path / f"evals{i}"
        evals.mkdir(exist_ok=True)
        write_jsonl(evals / "bench.jsonl", [{"text": f"the text of eval set number {i}"}])
        return evals

    keys = [os.path.basename(decontam._cache_file(str(eval_set(i)), 13)) for i in range(6)]
    for i in range(5):
        pinned_bytes(tmp_path / f"run{i}", eval_set(i))
    assert [p.name for p in cache_files()] == sorted(keys[1:5])  # the oldest is gone
    pinned_bytes(tmp_path / "hit1", eval_set(1))  # a hit makes set 1 the most recently used
    pinned_bytes(tmp_path / "run5", eval_set(5))
    assert [p.name for p in cache_files()] == sorted([keys[1], *keys[3:6]])


@pytest.mark.parametrize("damage", ["header", "truncated"])
def test_a_damaged_cache_file_is_rebuilt_and_overwritten(tmp_path, damage):
    bundle = build_fixture(tmp_path / "fixture")
    want = pinned_bytes(tmp_path / "first", bundle.eval_dir)
    (cache,) = cache_files()
    blob = bytearray(cache.read_bytes())
    if damage == "header":
        blob[:8] = b"NOTANIDX"
    else:
        del blob[-8:]
    cache.write_bytes(bytes(blob))
    assert pinned_bytes(tmp_path / "second", bundle.eval_dir) == want
    assert cache_files() == [cache] and cache.read_bytes() == want


def test_an_edited_eval_line_gets_its_own_cache_file(tmp_path):
    bundle = build_fixture(tmp_path / "fixture")
    old = pinned_bytes(tmp_path / "first", bundle.eval_dir)
    path = sorted(bundle.eval_dir.glob("*.jsonl"))[0]
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    text = "an eval line edited to hold words no other eval text has"
    path.write_text(json.dumps({"text": text}) + "\n" + "".join(lines[1:]), encoding="utf-8")
    new = pinned_bytes(tmp_path / "second", bundle.eval_dir)
    assert len(cache_files()) == 2 and new != old
    assert new == built_bytes(tmp_path, bundle.eval_dir)
    for run, hit in (("first", False), ("second", True)):
        index = read_index(str(tmp_path / run / INDEX_FILE), 13)
        assert is_contaminated(text, "", index).contaminated is hit


def test_an_eval_file_changed_during_the_build_is_not_cached(tmp_path, monkeypatch):
    evals = tmp_path / "evals"
    evals.mkdir()
    write_jsonl(evals / "bench.jsonl", [{"text": "the eval text as it was keyed"}])
    build = decontam.build_index_from_dir

    def edit_then_build(eval_dir, n):
        write_jsonl(evals / "bench.jsonl", [{"text": "the eval text as it was built"}])
        return build(eval_dir, n)

    monkeypatch.setattr(decontam, "build_index_from_dir", edit_then_build)
    decontam._pin_index(str(evals), 13, str(tmp_path / INDEX_FILE))
    assert (tmp_path / INDEX_FILE).read_bytes() == built_bytes(tmp_path, evals)
    assert cache_files() == []


def test_a_cache_home_that_is_a_file_leaves_a_plain_build(tmp_path, monkeypatch, reference):
    home = tmp_path / "not-a-dir"
    home.write_text("")
    monkeypatch.setenv("XDG_CACHE_HOME", str(home))
    bundle = build_fixture(tmp_path / "fixture")
    report = run_pipeline(bundle.config(), gateway=counted_gateway(bundle)[1])
    assert report.funnel_consistent, report.funnel_problems
    assert sans_created_at(read_jsonl(bundle.root / "records.jsonl")) == reference["dataset"]
    pinned = (bundle.root / "run" / INDEX_FILE).read_bytes()
    assert pinned == built_bytes(tmp_path, bundle.eval_dir)
    assert home.read_bytes() == b""


def test_the_cache_dir_is_private_to_its_user(tmp_path):
    bundle = build_fixture(tmp_path / "fixture")
    pinned_bytes(tmp_path / "run", bundle.eval_dir)
    (cache,) = cache_files()
    assert stat.S_IMODE(cache.parent.stat().st_mode) == 0o700


@pytest.mark.parametrize("shared", ["open", "foreign", "symlink"])
def test_a_cache_dir_that_others_can_change_is_not_used(tmp_path, monkeypatch, shared):
    # A planted index with a valid header and 0 grams would screen nothing.
    bundle = build_fixture(tmp_path / "fixture")
    name = os.path.basename(decontam._cache_file(str(bundle.eval_dir), 13))
    home = tmp_path / "home"
    planted = home / "qaforge" if shared != "symlink" else tmp_path / "private"
    planted.mkdir(parents=True)
    home.mkdir(exist_ok=True)
    write_index(decontam.NGramIndex(n=13), str(planted / name))
    planted.chmod(0o777 if shared == "open" else 0o700)
    if shared == "foreign":
        if os.getuid() != 0:
            pytest.skip("giving the dir to another user needs root")
        os.chown(planted, 65534, -1)
    elif shared == "symlink":
        (home / "qaforge").symlink_to(planted)
    monkeypatch.setenv("XDG_CACHE_HOME", str(home))
    assert pinned_bytes(tmp_path / "run", bundle.eval_dir) == built_bytes(tmp_path, bundle.eval_dir)
    assert os.listdir(planted) == [name]  # nothing was written there
    assert read_index(str(planted / name), 13).grams == decontam.NGramIndex(n=13).grams
