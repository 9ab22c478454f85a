"""A run holds its threads to one CPU, and its index build child to the caller's CPUs."""

from __future__ import annotations

import errno
import os
import subprocess
import threading

import pytest

from fixture_builder import build_fixture

from conftest import read_jsonl
from qaforge import pipeline
from qaforge.gateway import Gateway, MockProvider, MockScript
from qaforge.pipeline import resume_run, run_pipeline

TWO_CPUS = hasattr(os, "sched_getaffinity") and len(os.sched_getaffinity(0)) >= 2
needs_two_cpus = pytest.mark.skipif(
    not TWO_CPUS, reason="a run is held to one CPU only when its caller may use two or more")


class Interrupt(BaseException):
    pass


def counted_gateway(bundle, concurrency=4):
    provider = MockProvider(MockScript.load(str(bundle.mock_path)))
    return provider, Gateway(provider, concurrency=concurrency, sleep=lambda _s: None)


def dataset(bundle):
    rows = read_jsonl(bundle.root / "records.jsonl")
    for row in rows:
        row.pop("created_at")
    return rows


@pytest.fixture(scope="module")
def reference(tmp_path_factory):
    bundle = build_fixture(tmp_path_factory.mktemp("reference"))
    run_pipeline(bundle.config(), gateway=counted_gateway(bundle)[1])
    return dataset(bundle)


def mask_hook(seen):
    """A stage hook that records (thread, CPUs) at every ledger append."""

    def hook(stage, item_id, outcome):
        seen.add((threading.get_ident(), frozenset(os.sched_getaffinity(0))))

    return hook


@needs_two_cpus
def test_every_thread_of_a_run_is_on_one_cpu_of_the_callers(tmp_path, reference):
    bundle = build_fixture(tmp_path)
    caller = os.sched_getaffinity(0)
    seen = set()
    gw = counted_gateway(bundle)[1]
    run_pipeline(bundle.config(), gateway=gw, on_stage_logged=mask_hook(seen))

    threads = {thread for thread, _ in seen}
    assert threading.get_ident() in threads and len(threads) > 1  # the ingest thread and workers
    (cpus,) = {cpus for _, cpus in seen}
    assert len(cpus) == 1 and cpus <= caller
    assert dataset(bundle) == reference


@needs_two_cpus
def test_the_callers_cpus_come_back_after_every_run(tmp_path, reference):
    bundle = build_fixture(tmp_path)
    run_dir = str(bundle.root / "run")
    caller = os.sched_getaffinity(0)
    seen = set()
    hook = mask_hook(seen)

    def crash_at_first_verify(stage, item_id, outcome):
        hook(stage, item_id, outcome)
        if stage == "verify":
            raise Interrupt()

    with pytest.raises(Interrupt):
        run_pipeline(bundle.config(), gateway=counted_gateway(bundle)[1],
                     on_stage_logged=crash_at_first_verify)
    assert os.sched_getaffinity(0) == caller
    resume_run(run_dir, gateway=counted_gateway(bundle)[1], on_stage_logged=hook)
    assert os.sched_getaffinity(0) == caller
    provider, gw = counted_gateway(bundle)
    resume_run(run_dir, gateway=gw)  # a finished run: nothing left to do
    assert os.sched_getaffinity(0) == caller

    assert provider.total_calls == 0 and dataset(bundle) == reference
    assert all(len(cpus) == 1 for _, cpus in seen)  # the crashed run and the resume were held


@needs_two_cpus
def test_the_index_child_runs_on_the_callers_cpus(tmp_path, monkeypatch, reference):
    bundle = build_fixture(tmp_path)
    caller = os.sched_getaffinity(0)
    seen, child_cpus = set(), []

    class HeldChild(subprocess.Popen):
        """The build child, seen as running until its CPUs have been read."""

        def poll(self):
            if not child_cpus:
                child_cpus.append(os.sched_getaffinity(self.pid))
                return None
            return super().poll()

    monkeypatch.setattr(subprocess, "Popen", HeldChild)
    gw = counted_gateway(bundle)[1]
    run_pipeline(bundle.config(), gateway=gw, on_stage_logged=mask_hook(seen))

    assert child_cpus == [caller]
    assert all(len(cpus) == 1 for _, cpus in seen)
    assert dataset(bundle) == reference


def raise_oserror(pid, cpus):
    raise OSError(errno.EINVAL, "Invalid argument")


@pytest.mark.parametrize("setaffinity", ["missing", "raises", "raises_for_the_child"])
def test_a_pin_that_cannot_be_set_is_skipped(tmp_path, monkeypatch, reference, setaffinity):
    bundle = build_fixture(tmp_path)
    real, calls = getattr(os, "sched_setaffinity", None), []

    def only_the_run(pid, cpus):
        calls.append(pid)
        if pid:
            raise_oserror(pid, cpus)
        real(pid, cpus)

    if setaffinity == "missing":  # as on macOS
        monkeypatch.delattr(os, "sched_setaffinity", raising=False)
    else:
        monkeypatch.setattr(os, "sched_setaffinity",
                            raise_oserror if setaffinity == "raises" else only_the_run)
    provider, gw = counted_gateway(bundle)
    report = run_pipeline(bundle.config(), gateway=gw)

    assert report.funnel_consistent, report.funnel_problems
    assert provider.total_calls == 560 and dataset(bundle) == reference
    if setaffinity == "raises_for_the_child" and TWO_CPUS:
        # Held, the child's widening failed, and restored.
        assert calls[::2] == [0, 0] and len(calls) == 3


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU affinity on this OS")
def test_a_one_cpu_caller_is_not_pinned(tmp_path, monkeypatch, reference):
    bundle = build_fixture(tmp_path)
    calls = []
    real = os.sched_setaffinity
    monkeypatch.setattr(os, "sched_setaffinity", lambda pid, cpus: calls.append(pid))
    got = {}

    def run_on_one_cpu():
        real(0, {min(os.sched_getaffinity(0))})
        got["report"] = run_pipeline(bundle.config(), gateway=counted_gateway(bundle)[1])

    runner = threading.Thread(target=run_on_one_cpu)
    runner.start()
    runner.join(timeout=60)
    assert not runner.is_alive() and got["report"].funnel_consistent
    assert calls == [] and dataset(bundle) == reference


@pytest.mark.parametrize("stat, held", [
    ("cpu_1", {1}),
    ("cpu_0_outside_the_mask", None),
    ("garbled", None),
    ("unreadable", None),
])
def test_the_cpu_comes_from_field_39_of_the_thread_stat(tmp_path, monkeypatch, stat, held):
    path = tmp_path / "stat"
    if stat != "unreadable":
        fields = {"cpu_1": ["0"] * 35 + ["1", "0", "0"], "cpu_0_outside_the_mask": ["0"] * 38,
                  "garbled": ["0"]}[stat]
        # Fields 1 to 3, then 4 to 41; a ")" in the command name must not shift them.
        path.write_text("1 (a) process) R " + " ".join(fields) + "\n")
    calls = []
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {1, 2}, raising=False)
    monkeypatch.setattr(os, "sched_setaffinity", lambda pid, cpus: calls.append(cpus),
                        raising=False)
    monkeypatch.setattr(pipeline, "THREAD_STAT", str(path))
    assert pipeline._hold_to_one_cpu() == (held and {1, 2})
    assert calls == ([held] if held else [])
