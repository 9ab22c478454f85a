"""One pipeline run, or one resume of a finished run, in a fresh process.

run.py starts this script once per measured run so that peak RSS and set-up
time belong to that run alone. The run goes through the public entry points
only: load_config, build_gateway (with the synthetic provider swapped in),
run_pipeline with its on_stage_logged hook, and resume_run.

Usage (normally started by run.py):
    python3 perfbench/child.py --mode run|resume --plan P --config C \
        --run-dir D --out O --result R [--trace 1 --trace-out T]
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
import tracemalloc

from qaforge.config import load_config
from qaforge.decontam import build_index_from_dir
from qaforge.pipeline import build_gateway, resume_run, run_pipeline

from provider import SyntheticProvider
from tracing import Tracer, drop_missing, install_pipeline_wrappers, percentile, \
    pipeline_layer_metrics
from workloads import check_dataset, check_report, dataset_digest, load_plan


def _file_sha(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _dir_bytes(path: str) -> int:
    return sum(os.path.getsize(os.path.join(root, n))
               for root, _, names in os.walk(path) for n in names)


def _timeline(events: list[tuple[float, str, str, str]], plan: dict, t0: float) -> dict:
    """Record latency, document turnaround and backlog from the on_stage_logged hook.

    A record's latency runs from invoking the run to its write row. A document
    is in flight from its ingest row to the last ledger row that belongs to it
    (write rows are keyed by record id, mapped to documents through the plan).
    """
    owner = {r["record_id"]: r["doc_id"] for r in plan["expected_records"]}
    start: dict[str, float] = {}
    end: dict[str, float] = {}
    written: list[float] = []
    for t, stage, item, outcome in events:
        if stage == "ingest":
            if outcome == "pass":
                start[item] = t
            continue
        if stage == "write":
            written.append(t - t0)
        doc = owner.get(item, "") if stage == "write" else item.split(":", 1)[0]
        end[doc] = max(end.get(doc, t), t)
    turn = [end.get(d, s) - s for d, s in start.items()]
    marks = sorted([(s, 1) for s in start.values()]
                   + [(end.get(d, s), -1) for d, s in start.items()])
    backlog = peak = 0
    for _, step in marks:
        backlog += step
        peak = max(peak, backlog)
    return {
        "record_p50_s": percentile(written, 0.50),
        "record_p99_s": percentile(written, 0.99),
        "turnaround_p50_s": percentile(turn, 0.50),
        "turnaround_p99_s": percentile(turn, 0.99),
        "backlog_max": peak,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--mode", choices=("run", "resume"), required=True)
    ap.add_argument("--plan", required=True)
    ap.add_argument("--config", required=True)
    ap.add_argument("--run-dir", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--trace-out", default="")
    args = ap.parse_args(argv)

    plan = load_plan(args.plan)
    provider = SyntheticProvider(plan["docs"], plan["latency_s"])
    tracer = None
    if args.trace:
        tracer = Tracer()
        install_pipeline_wrappers(tracer)
        provider.send = tracer.wrapped(provider.send, "provider.send")
    events: list[tuple[float, str, str, str]] = []
    clock = time.perf_counter

    def hook(stage: str, item_id: str, outcome: str) -> None:
        events.append((clock(), stage, item_id, outcome))

    result: dict = {"mode": args.mode, "problems": []}
    if args.mode == "resume":
        before = _file_sha(args.out)
    if tracer is not None:
        tracer.begin_root(f"pipeline.{args.mode}")
    t0 = clock()
    cfg = load_config(args.config)
    gateway = build_gateway(cfg.gateway)
    gateway.provider = provider
    if args.mode == "run":
        cfg.run.run_dir = args.run_dir
        cfg.run.out = args.out
        report = run_pipeline(cfg, gateway=gateway, on_stage_logged=hook)
    else:
        report = resume_run(args.run_dir, gateway=gateway, on_stage_logged=hook)
    wall = clock() - t0
    if tracer is not None:
        tracer.end_root()
        tracer.restore()

    problems = check_report(report, plan["expected"]) + check_dataset(args.out, plan["expected_records"])
    totals = gateway.ledger.snapshot()["totals"]
    result.update(
        wall_s=wall,
        records=report.records_written,
        calls=provider.calls,
        sleep_s=provider.sleep_total,
        tokens=totals.get("input_tokens", 0) + totals.get("output_tokens", 0),
        concurrency=getattr(cfg.gateway, "concurrency", 0),
        digest=dataset_digest(args.out),
        ledger_bytes=_dir_bytes(os.path.join(args.run_dir, "ledgers")),
    )
    if args.mode == "run":
        if provider.first_send_at is None:
            problems.append("no provider call")
        result["setup_s"] = (provider.first_send_at or clock()) - t0
        result.update(_timeline(events, plan, t0))
    else:
        if provider.calls:
            problems.append(f"resume made {provider.calls} provider calls")
        if _file_sha(args.out) != before:
            problems.append("dataset changed on resume")
    result["problems"] = problems

    if tracer is not None:
        if args.mode == "run":
            layers = pipeline_layer_metrics(tracer, gateway)
            eval_dir = cfg.decontaminate.eval_dir
            tracemalloc.start()
            index = build_index_from_dir(eval_dir, cfg.decontaminate.ngram)
            held, _ = tracemalloc.get_traced_memory()
            tracemalloc.stop()
            layers["decontam.index_bytes_per_gram"] = held / max(1, len(index.grams))
        else:
            layers = {"ledger.load_s": sum(s.dur for s in tracer.spans
                                           if s.name == "RunLedger.__init__")}
        result["layers"] = drop_missing(layers, tracer.missing)
        result["missing"] = tracer.missing
        if args.trace_out:
            tracer.write(args.trace_out)

    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
