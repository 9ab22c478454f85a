"""The window between ingest and the dataset file, with no pipeline behind it.

Each test replaces pipeline._process_document with a stub, so there is no
provider, ledger or run dir: the window's writer is a list, and its run context
holds only what the window reads. Random delays come from fixed seeds.
"""

from __future__ import annotations

import random
import sys
import threading
import time
from functools import partial
from types import SimpleNamespace

import pytest

from qaforge import pipeline
from qaforge.types import Document


class FakeContext:
    """What the window reads of a run context; its pin's index is pinned once pinned is set."""

    def __init__(self, concurrency):
        self.gateway = SimpleNamespace(concurrency=concurrency)
        self.pinned = threading.Event()
        self.pin = SimpleNamespace(index=lambda: "index" if self.pinned.is_set() else None)


class Boom(Exception):
    pass


def make_window(concurrency, pinned=True):
    """A window over a FakeContext, and the list its records are written to."""
    ctx, written = FakeContext(concurrency), []
    if pinned:
        ctx.pinned.set()
    return pipeline._Window(ctx, SimpleNamespace(append=written.extend)), written


def docs(n, chars=10):
    return [Document(doc_id=str(i), source="s", text=str(i).ljust(chars, "x")) for i in range(n)]


def feed(window, documents, before_add=lambda doc: None):
    """On a thread, add documents as the ingest thread does, then drain the window and shut its
    pool as _drive does: the ids whose add() returned, what was raised, and the thread."""
    added, raised = [], []

    def run():
        try:
            for doc in documents:
                before_add(doc)
                window.add(doc)
                added.append(doc.doc_id)
            window.drain(last=True)
        except BaseException as exc:
            raised.append(exc)
        finally:
            window.pool.shutdown(cancel_futures=True)

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    return added, raised, thread


def wait_for(condition, seconds=10):
    deadline = time.monotonic() + seconds
    while not condition() and time.monotonic() < deadline:
        time.sleep(0.001)
    assert condition(), f"not within {seconds} s"


def joined(thread):
    thread.join(timeout=30)
    assert not thread.is_alive(), "still running after 30 s"


@pytest.mark.parametrize("concurrency", [1, 4, 16])
def test_records_come_out_in_add_order(monkeypatch, concurrency):
    rng = random.Random(2201)
    n = 240
    delays = [rng.uniform(0, 0.002) for _ in range(n)]
    without_records = {i for i in range(n) if rng.random() < 0.3}

    def process(ctx, doc):
        i = int(doc.doc_id)
        time.sleep(delays[i])
        return [] if i in without_records else [f"{i}a", f"{i}b"]

    monkeypatch.setattr(pipeline, "_process_document", process)
    window, written = make_window(concurrency)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # hand the interpreter lock between threads as often as it can
    try:
        _, raised, thread = feed(window, docs(n))
        joined(thread)
    finally:
        sys.setswitchinterval(interval)
    assert not raised
    assert written == [f"{i}{part}" for i in range(n) if i not in without_records
                       for part in "ab"]
    assert window.idle == 0 and not window.pending and not window.parked


@pytest.mark.parametrize("concurrency", [1, 4])
def test_add_blocks_while_more_than_four_windows_of_documents_are_counted(monkeypatch,
                                                                          concurrency):
    size, lead, release = 4 * concurrency, 5, threading.Event()

    def process(ctx, doc):
        i = int(doc.doc_id)
        if i < lead:  # written without records before the head gets stuck
            return []
        if i == lead:  # the head is stuck; the rest hold records behind it
            release.wait(timeout=30)
        return [doc.doc_id]

    monkeypatch.setattr(pipeline, "_process_document", process)
    window, written = make_window(concurrency)
    added, raised, thread = feed(window, docs(lead + size + 3))
    try:
        wait_for(lambda: len(added) == lead + size)
        time.sleep(0.1)
        assert len(added) == lead + size  # the next add() waits for the head
    finally:
        release.set()
    joined(thread)
    assert not raised and written == [str(i) for i in range(lead, lead + size + 3)]


@pytest.mark.parametrize("concurrency", [2, 4])
def test_documents_done_without_records_are_not_counted(monkeypatch, concurrency):
    n, release = 20 * concurrency, threading.Event()

    def process(ctx, doc):
        if doc.doc_id == "0":
            release.wait(timeout=30)
            return ["0"]
        return []

    monkeypatch.setattr(pipeline, "_process_document", process)
    window, written = make_window(concurrency)
    added, raised, thread = feed(window, docs(n))
    try:
        wait_for(lambda: len(added) == n)  # every add() returned while the head was stuck
    finally:
        release.set()
    joined(thread)
    assert not raised and written == ["0"]


def test_add_blocks_at_the_cap_while_every_document_is_parked(monkeypatch):
    cap = 64 * 4  # concurrency 1
    calls, screens, screened = [], {}, []

    def screen(doc_id):
        screened.append(doc_id)
        return [doc_id]

    def process(ctx, doc):
        calls.append(doc.doc_id)
        if ctx.pin.index() is None:
            screens[doc.doc_id] = partial(screen, doc.doc_id)
            raise pipeline.IndexPending(screens[doc.doc_id])
        return [doc.doc_id]

    monkeypatch.setattr(pipeline, "_process_document", process)
    window, written = make_window(1, pinned=False)
    added, raised, thread = feed(window, docs(cap + 10))
    try:
        wait_for(lambda: len(added) == cap and len(calls) == cap + 1)
        time.sleep(0.1)
        assert len(added) == cap  # the next add() waits: every held document is parked
        assert len(window.parked) == cap + 1 and not screened
        # A parked entry holds its screen and nothing of the document.
        assert [entry[0] for entry in window.parked] == list(screens.values())
        assert all(entry[1] is None for entry in window.parked)
    finally:
        window.ctx.pinned.set()
    joined(thread)
    assert not raised and written == [str(i) for i in range(cap + 10)]
    assert sorted(calls, key=int) == [str(i) for i in range(cap + 10)]  # each document runs once
    assert sorted(screened, key=int) == [str(i) for i in range(cap + 1)]  # each parked screen once


@pytest.mark.parametrize("concurrency", [1, 4])
def test_parked_documents_are_submitted_again_once_after_the_index_is_pinned(monkeypatch,
                                                                             concurrency):
    n, pin_at = 60, 30
    lock, calls = threading.Lock(), {}

    def record(doc_id, what, pinned):
        with lock:
            calls.setdefault(doc_id, []).append((what, pinned))

    def screen(ctx, doc_id):
        record(doc_id, "screen", ctx.pin.index() is not None)
        return [doc_id]

    def process(ctx, doc):
        pinned = ctx.pin.index() is not None
        record(doc.doc_id, "document", pinned)
        time.sleep(0.0005)
        if not pinned:
            raise pipeline.IndexPending(partial(screen, ctx, doc.doc_id))
        return [doc.doc_id]

    def pin_at_doc(doc):
        if doc.doc_id == str(pin_at):
            window.ctx.pinned.set()

    monkeypatch.setattr(pipeline, "_process_document", process)
    window, written = make_window(concurrency, pinned=False)
    _, raised, thread = feed(window, docs(n), pin_at_doc)
    joined(thread)
    assert not raised and written == [str(i) for i in range(n)]
    parked = [i for i, seen in calls.items() if not seen[0][1]]
    assert len(parked) >= pin_at - 4 * concurrency  # add() returned with at most 4 x c unparked
    for doc_id, seen in calls.items():
        if doc_id in parked:  # run once, then only its screen, once, after the pin
            assert seen == [("document", False), ("screen", True)]
        else:
            assert seen == [("document", True)]


@pytest.mark.parametrize("concurrency", [1, 4, 16])
def test_an_exception_is_raised_after_every_earlier_document_is_written(monkeypatch,
                                                                        concurrency):
    rng = random.Random(2202)
    n, k = 80, 37
    delays = [rng.uniform(0, 0.002) for _ in range(n)]

    def process(ctx, doc):
        i = int(doc.doc_id)
        time.sleep(delays[i])
        if i == k:
            raise Boom(doc.doc_id)
        return [doc.doc_id]

    monkeypatch.setattr(pipeline, "_process_document", process)
    window, written = make_window(concurrency)
    _, raised, thread = feed(window, docs(n))
    joined(thread)
    assert [type(exc) for exc in raised] == [Boom] and str(raised[0]) == str(k)
    assert written == [str(i) for i in range(k)]


def test_after_an_abort_a_queued_document_never_starts(monkeypatch):
    started, release = [], threading.Event()

    def process(ctx, doc):
        started.append(doc.doc_id)
        release.wait(timeout=30)
        return [doc.doc_id]

    monkeypatch.setattr(pipeline, "_process_document", process)
    window, written = make_window(1)
    futures, submit = [], window.pool.submit

    def recording_submit(fn, *args):
        futures.append(submit(fn, *args))
        return futures[-1]

    def release_once_cancelled():
        try:
            wait_for(lambda: futures[1].cancelled())
        finally:
            release.set()

    releaser = threading.Thread(target=release_once_cancelled, daemon=True)

    def abort_at_third(doc):
        if doc.doc_id == "2":  # "1" is queued behind the busy worker
            wait_for(lambda: started == ["0"])
            releaser.start()
            raise Boom("abort")  # as an ingest hook would

    window.pool.submit = recording_submit
    _, raised, thread = feed(window, docs(3), abort_at_third)
    joined(thread)
    joined(releaser)
    assert [type(exc) for exc in raised] == [Boom]
    assert started == ["0"] and written == []
