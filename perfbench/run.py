#!/usr/bin/env python3
"""qaforge benchmark: three workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload llm_latency|cpu_bulk|reward_stream \
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout; qaforge is imported from ./src.
Inputs are generated from the seed under .perfbench_work/ and removed at the
end. With --trace 0 the last stdout line is a JSON object holding every
end-to-end metric of BENCHMARK.json; with --trace 1 it holds every per-layer
metric. The lines before it print each metric by name and unit, with sample
counts. See perfbench/README.md for the metric glossary.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CHILD = os.path.join(HERE, "child.py")
CHILD_TIMEOUT_S = 90.0  # a child normally takes seconds; keeps a run under 180 s
MIN_ROUNDS = 2
REWARD_SERVERS = 6
STALL_S = 60

if not os.path.isfile(os.path.join(SRC, "qaforge", "__init__.py")):
    sys.exit(f"perfbench: no qaforge sources under {SRC}; run from a source checkout")
sys.path.insert(0, SRC)

import qaforge  # noqa: E402

if not os.path.abspath(qaforge.__file__).startswith(SRC + os.sep):
    sys.exit(f"perfbench: imported qaforge from {qaforge.__file__}, not from {SRC}")

import qaforge.cli  # noqa: E402,F401  (compiles every module before the first timed child)
from qaforge.config import RewardConfig  # noqa: E402
from qaforge.reward import RewardRequest, RewardVerifier  # noqa: E402

from tracing import Tracer, drop_missing, percentile  # noqa: E402
from workloads import WORKLOADS, plan_pipeline, plan_reward, write_pipeline_inputs  # noqa: E402

# Per-layer metric prefixes that only exist on one kind of workload; on the
# other kind the layer does not run, and its counts and times read 0.
REWARD_ONLY = ("reward.", "cli.")
PIPELINE_ONLY = ("ingest.", "filtering.", "classify.", "generate.", "verify.", "gateway.",
                 "decontam.", "ledger.", "pipeline.", "calls_per_record", "tokens_per_record",
                 "llm_efficiency", "resume_s")


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.setdefault("PYTHONHASHSEED", "0")  # same set and dict order in every child
    return env


def reap(proc: subprocess.Popen, timeout: float) -> tuple[int, float]:
    """Wait for proc; return (exit code, peak RSS in MiB) from its own rusage."""
    deadline = time.monotonic() + timeout
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            proc.returncode = os.waitstatus_to_exitcode(status)
            return proc.returncode, usage.ru_maxrss / 1024.0
        if time.monotonic() > deadline:
            proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = -9
            return -9, usage.ru_maxrss / 1024.0
        time.sleep(0.005)


class Stalled(Exception):
    """The reward server did not answer in time."""


def _stalled(signum, frame):
    raise Stalled()


def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


# --- pipeline workloads -------------------------------------------------------

class PipelineBench:
    def __init__(self, workload: str, seed: int, work: str, trace_dir: str):
        self.workload = workload
        self.work = work
        self.trace_dir = trace_dir
        inputs = plan_pipeline(workload, seed)
        self.files = write_pipeline_inputs(inputs, os.path.join(work, "inputs"))
        self.docs = inputs.input_lines
        self.runs: list[dict] = []
        self.resumes: list[dict] = []
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def _child(self, mode: str, run_dir: str, out: str, traced: bool) -> dict:
        result = os.path.join(self.work, f"result-{mode}.json")
        cmd = [sys.executable, CHILD, "--mode", mode, "--plan", self.files["plan"],
               "--config", self.files["config"], "--run-dir", run_dir, "--out", out,
               "--result", result]
        if traced:
            cmd += ["--trace", "1", "--trace-out",
                    os.path.join(self.trace_dir, f"{self.workload}.{mode}.spans.jsonl")]
        with open(os.path.join(self.work, "child.stderr"), "w") as err:
            proc = subprocess.Popen(cmd, env=child_env(), cwd=self.work,
                                    stdout=subprocess.DEVNULL, stderr=err)
            code, rss = reap(proc, CHILD_TIMEOUT_S)
        self.attempted += self.docs
        data: dict = {"problems": []}
        if code == 0 and os.path.exists(result):
            with open(result, "r", encoding="utf-8") as fh:
                data = json.load(fh)
            os.remove(result)
        else:
            with open(os.path.join(self.work, "child.stderr")) as fh:
                tail = fh.read()[-2000:]
            data["problems"] = [f"{mode} child exited {code}: {tail}"]
        data["rss_mib"] = rss
        data["traced"] = traced
        if data["problems"]:
            self.failed += self.docs
            self.problems += data["problems"]
        return data

    def round(self, traced: bool, resume: bool) -> None:
        k = len(self.runs)
        run_dir = os.path.join(self.work, f"run{k}")
        out = os.path.join(self.work, f"records{k}.jsonl")
        self.runs.append(self._child("run", run_dir, out, traced))
        if resume and not self.problems:
            self.resumes.append(self._child("resume", run_dir, out, traced))
        shutil.rmtree(run_dir, ignore_errors=True)
        if os.path.exists(out):
            os.remove(out)
        digests = {r.get("digest") for r in self.runs + self.resumes}
        if len(digests) > 1:
            self.problems.append(f"dataset digests differ across runs: {sorted(map(str, digests))}")
            self.failed += self.docs

    def measure(self, seconds: float, trace: bool) -> None:
        start = time.monotonic()
        last = 0.0
        while not self.problems:
            n = len(self.runs)
            if n >= MIN_ROUNDS and time.monotonic() - start + last > seconds:
                break
            t = time.monotonic()
            # Every traced round and the first untraced ones also resume;
            # later untraced rounds skip it to fit more runs in the window.
            self.round(traced=trace and n % 2 == 1, resume=trace or n < MIN_ROUNDS)
            last = time.monotonic() - t

    def end_to_end(self) -> tuple[dict, dict]:
        runs = [r for r in self.runs if not r["traced"] and "wall_s" in r]
        metrics = {
            "setup_s": median(r["setup_s"] for r in runs),
            "items_per_s": median(self.docs / r["wall_s"] for r in runs),
            "item_p50_ms": median(r["record_p50_s"] * 1e3 for r in runs),
            "item_p99_ms": median(r["record_p99_s"] * 1e3 for r in runs),
            "peak_rss_mib": median(r["rss_mib"] for r in runs),
        }
        return metrics, {"runs": len(runs), "docs per run": self.docs,
                         "run walls": [round(r["wall_s"], 3) for r in runs]}

    def per_layer(self) -> tuple[dict, dict]:
        plain = [r for r in self.runs if not r["traced"] and "wall_s" in r]
        traced = [r for r in self.runs if r["traced"] and "layers" in r]
        plain_resume = [r for r in self.resumes if not r["traced"] and "wall_s" in r]
        traced_resume = [r for r in self.resumes if r["traced"] and "layers" in r]
        layers: dict[str, float] = {}
        for name in sorted({k for r in traced for k in r["layers"]}):
            layers[name] = median(r["layers"][name] for r in traced if name in r["layers"])
        if traced_resume and "ledger.load_s" in traced_resume[0]["layers"]:
            layers["ledger.load_s"] = median(r["layers"]["ledger.load_s"] for r in traced_resume)
        layers["ledger.bytes"] = median(r["ledger_bytes"] for r in plain)
        layers["pipeline.backlog_max"] = median(r["backlog_max"] for r in plain)
        layers["pipeline.doc_latency_p50_s"] = median(r["turnaround_p50_s"] for r in plain)
        layers["pipeline.doc_latency_p99_s"] = median(r["turnaround_p99_s"] for r in plain)
        layers["calls_per_record"] = median(r["calls"] / max(1, r["records"]) for r in plain)
        layers["tokens_per_record"] = median(r["tokens"] / max(1, r["records"]) for r in plain)
        layers["llm_efficiency"] = median(
            r["sleep_s"] / r["concurrency"] / r["wall_s"] if r["concurrency"] else 0.0
            for r in plain)
        layers["resume_s"] = median(r["wall_s"] for r in plain_resume)
        plain_wall = median(r["wall_s"] for r in plain)
        layers["trace.overhead_s"] = median(r["wall_s"] for r in traced) - plain_wall
        layers["trace.overhead_frac"] = layers["trace.overhead_s"] / plain_wall if plain_wall else 0.0
        missing = sorted({m for r in traced for m in r.get("missing", [])})
        return layers, {"untraced runs": len(plain), "traced runs": len(traced),
                        "missing names": missing}


# --- reward stream ------------------------------------------------------------

class RewardBench:
    def __init__(self, seed: int, work: str):
        self.cases = plan_reward(seed)
        self.work = work
        self.next = 0
        self.windows: list[dict] = []
        # Round trips of every timed request, kept per case of the pool.
        self.rtt: list[list[float]] = [[] for _ in self.cases]
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def _case(self) -> int:
        i = self.next % len(self.cases)
        self.next += 1
        return i

    @staticmethod
    def _round_trip(proc, case) -> bytes:
        """Send one request and read its reply line; b"" once the server is gone."""
        try:
            proc.stdin.write(case.line.encode("utf-8"))
            proc.stdin.flush()
        except BrokenPipeError:
            return b""
        return proc.stdout.readline()

    def _check(self, raw: bytes, case) -> bool:
        """Check one reply against its planned reward; False once the server is gone."""
        self.attempted += 1
        try:
            reply = json.loads(raw)
            ok = isinstance(reply, dict) and reply.get("reward") == case.expected
        except ValueError:
            ok = False
        if not ok:
            self.failed += 1
            if len(self.problems) < 5:
                self.problems.append(f"reply {raw[:200]!r} != reward {case.expected}")
        return bool(raw)

    def server_window(self, seconds: float) -> None:
        """One fresh server: set-up to first reply, then a closed loop for seconds."""
        t_spawn = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "qaforge", "reward", "--stdin"],
                                env=child_env(), cwd=self.work, stdin=subprocess.PIPE,
                                stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
        n = 0
        # A server that stops answering must not hang the benchmark.
        signal.signal(signal.SIGALRM, _stalled)
        signal.alarm(int(seconds) + STALL_S)
        # The client's own collector pauses are not the server's latency.
        gc.disable()
        try:
            case = self.cases[self._case()]
            alive = self._check(self._round_trip(proc, case), case)
            setup = time.perf_counter() - t_spawn
            t_first = t = time.perf_counter()
            end = t_first + seconds
            while alive and t < end:
                i = self._case()
                case = self.cases[i]
                t0 = time.perf_counter()
                raw = self._round_trip(proc, case)
                t = time.perf_counter()
                self.rtt[i].append(t - t0)
                n += 1
                alive = self._check(raw, case)
        except Stalled:
            proc.kill()
            alive, setup, t, t_first = False, 0.0, 0.0, 0.0
            self.failed += 1
        finally:
            gc.enable()
            signal.alarm(0)
        try:
            proc.stdin.close()
        except BrokenPipeError:
            pass
        code, rss = reap(proc, CHILD_TIMEOUT_S)
        proc.stdout.close()
        if code != 0 or not alive:
            self.problems.append(f"reward server exited {code}, alive={alive}")
            self.failed += 1
        self.windows.append({"setup_s": setup, "rss_mib": rss, "n": n,
                             "rate": n / (t - t_first) if n else 0.0})

    def measure(self, seconds: float, servers: int = REWARD_SERVERS) -> None:
        for _ in range(servers):
            self.server_window(seconds / servers)
            if self.problems:
                break

    def end_to_end(self) -> tuple[dict, dict]:
        w = self.windows
        # Each case of the pool is sent about a hundred times in a run, spread
        # over the whole run. Its round trip is the fastest of its samples: the
        # server's own cost for that request, with the stalls and slow spells
        # of a shared host left out. The percentiles are then taken over the
        # cases, each weighted once, as the stream sends them. The raw
        # percentiles over every sample, host noise included, are printed too.
        per_case = [min(x) for x in self.rtt if x]
        pooled = [v for x in self.rtt for v in x]
        metrics = {
            "setup_s": median(x["setup_s"] for x in w),
            "items_per_s": median(x["rate"] for x in w),
            "item_p50_ms": percentile(per_case, 0.50) * 1e3,
            "item_p99_ms": percentile(per_case, 0.99) * 1e3,
            "peak_rss_mib": median(x["rss_mib"] for x in w),
        }
        return metrics, {"servers": len(w), "samples per server": [x["n"] for x in w],
                         "cases timed": f"{len(per_case)} of {len(self.cases)}",
                         "samples per case (min, median)":
                             (min(map(len, self.rtt)), median(map(len, self.rtt))),
                         "raw round trip p50/p99 ms over all samples":
                             (round(percentile(pooled, 0.50) * 1e3, 6),
                              round(percentile(pooled, 0.99) * 1e3, 6))}

    def in_process(self, traced: bool) -> tuple[float, dict]:
        """Score one pass over the request pool in this process."""
        requests = []
        for case in self.cases:
            body = json.loads(case.line)
            requests.append((RewardRequest(body["question"], body["gold_answer"], body["rollout"]),
                             case.expected))
        tracer = Tracer() if traced else None
        if tracer is not None:
            tracer.wrap_function("qaforge.reward", "extract_final_answer", "extract_final_answer")
            tracer.wrap_method("qaforge.reward", "RewardVerifier", "score", "RewardVerifier.score")
        verifier = RewardVerifier(cfg=RewardConfig())
        t0 = time.perf_counter()
        hits = 0
        try:
            for req, expected in requests:
                res = verifier.score(req)
                hits += res.reward
                if res.reward != expected:
                    self.failed += 1
        finally:
            wall = time.perf_counter() - t0
            if tracer is not None:
                tracer.restore()
        self.attempted += len(requests)
        if tracer is None:
            return wall, {}
        scores = [s.dur for s in tracer.spans if s.name == "RewardVerifier.score"]
        extracts = [s.dur for s in tracer.spans if s.name == "extract_final_answer"]
        layers = {
            "reward.score_p50_us": percentile(scores, 0.50) * 1e6,
            "reward.score_p99_us": percentile(scores, 0.99) * 1e6,
            "reward.extract_p99_us": percentile(extracts, 0.99) * 1e6,
            "reward.exact_hit_ratio": hits / len(requests),
        }
        return wall, drop_missing(layers, tracer.missing)

    def per_layer(self, seconds: float) -> tuple[dict, dict]:
        start = time.monotonic()
        self.measure(seconds / 3, servers=2)
        plain, traced, layer_runs = [], [], []
        while len(traced) < 1 or time.monotonic() - start < seconds:
            wall, _ = self.in_process(traced=False)
            plain.append(wall)
            wall, layers = self.in_process(traced=True)
            traced.append(wall)
            layer_runs.append(layers)
        out = {name: median(l[name] for l in layer_runs) for name in layer_runs[0]}
        out["cli.startup_s"] = median(x["setup_s"] for x in self.windows)
        out["trace.overhead_s"] = median(traced) - median(plain)
        out["trace.overhead_frac"] = out["trace.overhead_s"] / median(plain)
        return out, {"in-process passes": len(traced), "requests per pass": len(self.cases)}


# --- main -----------------------------------------------------------------------

def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
        return json.load(fh)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="qaforge benchmark")
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    spec = load_spec()

    base = os.path.join(ROOT, ".perfbench_work")
    work = os.path.join(base, f"{args.workload}-{args.seed}-{os.getpid()}")
    trace_dir = os.path.join(base, "traces")
    os.makedirs(work, exist_ok=True)
    os.makedirs(trace_dir, exist_ok=True)
    try:
        if args.workload == "reward_stream":
            bench = RewardBench(args.seed, work)
            if args.trace:
                metrics, notes = bench.per_layer(args.seconds)
            else:
                bench.measure(args.seconds)
                metrics, notes = bench.end_to_end()
        else:
            bench = PipelineBench(args.workload, args.seed, work, trace_dir)
            bench.measure(args.seconds, trace=bool(args.trace))
            metrics, notes = bench.per_layer() if args.trace else bench.end_to_end()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    names = spec["per_layer"] if args.trace else spec["end_to_end"]
    not_here = PIPELINE_ONLY if args.workload == "reward_stream" else REWARD_ONLY
    out: dict[str, dict] = {}
    for m in names:
        if m["name"] in metrics:
            value = float(metrics[m["name"]])
        elif m["name"].startswith(not_here):
            value = 0.0  # the layer does not run on this workload
        else:
            continue     # a wrapped name is gone: the metric is absent
        out[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"{m['name']:<40} {value:>16.6f} {m['unit']}")
    for key, value in notes.items():
        print(f"# {key}: {value}")
    for problem in bench.problems[:5]:
        print(f"# PROBLEM: {problem}")
    correct = not bench.problems and bench.failed == 0
    print(json.dumps({"correct": correct, "attempted": max(1, bench.attempted),
                      "failed": bench.failed, "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
