"""Crash anywhere: `qaforge run` killed with SIGKILL at seeded points, then resumed.

Each trial starts `python -m qaforge run` on the fixture, kills it after a
delay drawn from a fixed seed and spread over the run's measured wall time,
and recovers it with `qaforge resume` (or with `qaforge run` again if the kill
came before the config snapshot was written). Trial kinds, in turn:

- "c1" and "c4": a run at concurrency 1 or 4, killed once;
- "resume": a run killed once, then its first resume killed too;
- "index": a run on a slowed eval set, killed while its index child builds.

After the final resume the dataset (created_at aside) and the ledger rows equal
an uninterrupted run's, the run dir holds only the files of a finished run,
no build child of the trial is left, and every ledger holds each id once and
no NUL byte. Each trial has an empty eval-index cache of its own, so every
"index" trial kills a build that is really running. Trial i draws from
Random(f"{SEED}:{i}"), so a longer sweep repeats the first trials exactly; set
CRASH_SWEEP_TRIALS to run more than 10.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import signal
import subprocess
import sys
import time

import pytest

import qaforge
from fixture_builder import build_fixture
from test_pipeline import dataset_body, ledger_rows

SEED = 20261020
TRIALS = int(os.environ.get("CRASH_SWEEP_TRIALS", "10"))
KINDS = ("c1", "c4", "resume", "index")
RUN_DIR_FILES = ["config.json", "eval_index.bin", "ledgers", "report.json", "run.lock"]

SRC = os.path.dirname(os.path.dirname(qaforge.__file__))
PYTHONPATH = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))


def child_env():
    """os.environ as it is now, so each trial's children use that trial's own index cache."""
    return dict(os.environ, PYTHONPATH=PYTHONPATH)


pytestmark = pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="lists processes in /proc")


def qaforge_cli(*args):
    return subprocess.Popen([sys.executable, "-m", "qaforge", *map(str, args)], env=child_env(),
                            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)


def finish(proc):
    _, err = proc.communicate(timeout=120)
    assert proc.returncode == 0, err.decode()


def kill(proc):
    """SIGKILL proc, unless it has already exited; a run that ends on its own must succeed."""
    proc.send_signal(signal.SIGKILL)
    _, err = proc.communicate(timeout=60)
    assert proc.returncode in (0, -signal.SIGKILL), err.decode()


def build_children(root):
    """Pids of live `qaforge.decontam` processes writing under root."""
    pids = []
    for pid in filter(str.isdigit, os.listdir("/proc")):
        try:
            with open(f"/proc/{pid}/cmdline", "rb") as fh:
                args = fh.read().split(b"\0")
        except OSError:  # gone already
            continue
        if b"qaforge.decontam" in args and any(a.startswith(os.fsencode(root)) for a in args):
            pids.append(int(pid))
    return pids


def write_config(bundle, root, concurrency, eval_dir):
    cfg = json.loads(json.dumps(bundle.config_dict))
    cfg["run"].update(out=str(root / "records.jsonl"), run_dir=str(root / "run"))
    cfg["gateway"]["concurrency"] = concurrency
    cfg["decontaminate"]["eval_dir"] = str(eval_dir)
    path = root / "config.json"
    path.write_text(json.dumps(cfg))
    return path


@pytest.fixture(scope="module")
def sweep(tmp_path_factory):
    """The fixture, a slowed copy of its eval set, and an uninterrupted run timed per concurrency."""
    root = tmp_path_factory.mktemp("sweep")
    bundle = build_fixture(root / "fixture")
    # The slowed eval set adds ~350k grams of words that no fixture text holds,
    # so its index takes longer to build and screens exactly as the fixture's.
    slow = root / "slow_evals"
    shutil.copytree(bundle.eval_dir, slow)
    rng = random.Random(SEED)
    words = [f"zq{rng.getrandbits(40):x}" for _ in range(5000)]
    with open(slow / "filler.jsonl", "a", encoding="utf-8") as fh:
        for _ in range(4000):
            fh.write(json.dumps({"text": " ".join(rng.choices(words, k=100))}) + "\n")
    wall = {}
    # As in each trial, every build below starts from an empty index cache of its
    # own, so build_s and the walls time real builds, not cache hits.
    with pytest.MonkeyPatch.context() as env:
        env.setenv("XDG_CACHE_HOME", str(root / "xdg"))
        started = time.perf_counter()
        child = subprocess.run([sys.executable, "-S", "-m", "qaforge.decontam", str(slow), "13",
                                str(root / "slow.bin")], env=child_env())
        build_s = time.perf_counter() - started
        assert child.returncode == 0
        for concurrency in (1, 4):
            ref = root / f"reference{concurrency}"
            ref.mkdir()
            env.setenv("XDG_CACHE_HOME", str(ref / "xdg"))
            started = time.perf_counter()
            finish(qaforge_cli("run", "--config", write_config(bundle, ref, concurrency,
                                                               bundle.eval_dir)))
            wall[concurrency] = time.perf_counter() - started
    ref = root / "reference4"
    assert sorted(os.listdir(ref / "run")) == RUN_DIR_FILES
    return dict(bundle=bundle, slow=slow, build_s=build_s, wall=wall,
                dataset=dataset_body(ref / "records.jsonl"), ledgers=ledger_rows(ref / "run"))


def recover(root, cfg_path):
    """Resume the run dir, or run again when the kill came before its config snapshot."""
    run_dir = root / "run"
    if (run_dir / "config.json").exists():
        return qaforge_cli("resume", "--run-dir", run_dir)
    return qaforge_cli("run", "--config", cfg_path)


@pytest.mark.parametrize("trial", range(TRIALS))
def test_a_run_killed_anywhere_resumes_to_the_reference(sweep, tmp_path, trial):
    kind = KINDS[trial % len(KINDS)]
    concurrency = 1 if kind == "c1" else 4
    rng = random.Random(f"{SEED}:{trial}")
    wall = sweep["wall"][concurrency]
    slow = kind == "index"
    cfg_path = write_config(sweep["bundle"], tmp_path, concurrency,
                            sweep["slow"] if slow else sweep["bundle"].eval_dir)

    proc = qaforge_cli("run", "--config", cfg_path)
    if slow:  # wait for the build child, then kill while it builds
        deadline = time.monotonic() + 60
        while not build_children(tmp_path):
            assert proc.poll() is None and time.monotonic() < deadline, "no build child started"
            time.sleep(0.002)
        time.sleep(rng.uniform(0, sweep["build_s"] / 2))
        assert build_children(tmp_path), "the build ended before the kill"
    else:
        time.sleep(rng.uniform(0, wall))
    kill(proc)
    if kind == "resume":
        proc = recover(tmp_path, cfg_path)
        time.sleep(rng.uniform(0, wall))
        kill(proc)
    finish(recover(tmp_path, cfg_path))

    deadline = time.monotonic() + 60  # an orphaned build child finishes its own write
    while build_children(tmp_path) and time.monotonic() < deadline:
        time.sleep(0.01)
    assert build_children(tmp_path) == []
    run_dir = tmp_path / "run"
    assert sorted(os.listdir(run_dir)) == RUN_DIR_FILES
    assert dataset_body(tmp_path / "records.jsonl") == sweep["dataset"]
    for path in (run_dir / "ledgers").glob("*.jsonl"):
        data = path.read_bytes()
        assert b"\0" not in data, path.name
        ids = [json.loads(line)["item_id"] for line in data.splitlines()]
        assert len(ids) == len(set(ids)), path.name
    assert ledger_rows(run_dir) == sweep["ledgers"]
