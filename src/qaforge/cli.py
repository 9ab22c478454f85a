"""Command-line entry points.

Subcommands: run, resume, stats, decontaminate, reward. Exit codes: 0 on
success, 1 on fatal config or IO errors and on a run dir that another process
holds, 2 when resume refuses to continue under a drifted config.

Each subcommand imports only what it runs: `reward` loads config, errors, types
and reward (`--judge` adds gateway and prompts), never the pipeline or yaml;
`stats` adds only report, never the pipeline.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
from typing import Optional

from .config import PipelineConfig, load_config
from .errors import ConfigDriftError, ConfigError, QAForgeError
from .reward import RewardVerifier, score_rollout_files, serve_stdin
from .types import BAD_LINE, line_fields

EXIT_OK = 0
EXIT_FATAL = 1
EXIT_DRIFT = 2


def _cmd_run(args: argparse.Namespace) -> int:
    from .pipeline import run_pipeline
    cfg = load_config(args.config)
    if args.mock:
        cfg.gateway.mock_script = args.mock
    if args.out:
        cfg.run.out = args.out
    if args.run_dir:
        cfg.run.run_dir = args.run_dir
    report = run_pipeline(cfg)
    for line in report.summary_lines():
        print(line)
    return EXIT_OK


def _cmd_resume(args: argparse.Namespace) -> int:
    from .pipeline import resume_run
    report = resume_run(args.run_dir, config_path=args.config)
    for line in report.summary_lines():
        print(line)
    return EXIT_OK


def _cmd_stats(args: argparse.Namespace) -> int:
    from .report import dataset_stats
    stats = dataset_stats(args.dataset)
    if stats["malformed"]:
        print(f"malformed lines skipped: {stats['malformed']}")
    if stats["records"] == 0:
        print("0 records")
        return EXIT_OK
    print(f"records: {stats['records']}")
    print("domains:")
    for domain, count in stats["domains"].items():
        share = stats["domain_proportions"][domain]
        print(f"  {domain:<20} {count:>8}  {share:7.2%}")
    print("sources:")
    for source, count in sorted(stats["sources"].items()):
        print(f"  {source:<20} {count:>8}")
    al = stats["answer_length"]
    print(
        f"answer length: min={al['min']} median={al['median']} "
        f"p95={al['p95']} max={al['max']}"
    )
    return EXIT_OK


def _cmd_decontaminate(args: argparse.Namespace) -> int:
    from . import decontam
    if args.ngram < 1:
        raise ConfigError(f"--ngram must be >= 1, got {args.ngram}")
    index = decontam.build_index_from_dir(args.eval_dir, args.ngram)
    out_path = args.out or (args.dataset + ".clean.jsonl")
    checked = contaminated = written = malformed = 0
    # Moved over out_path only at the end, so --out may name the dataset itself;
    # removed if the screen fails, so a failed run leaves no partial file behind.
    tmp = out_path + ".tmp"
    try:
        with open(args.dataset, "rb") as src, open(tmp, "wb") as dst:
            for raw in src:
                if not raw.strip():
                    continue
                try:
                    rec = line_fields(raw, {"question": "", "answer": ""})
                except BAD_LINE:
                    malformed += 1  # a line that cannot be screened is not copied
                    continue
                checked += 1
                if decontam.is_contaminated(rec["question"], rec["answer"], index).contaminated:
                    contaminated += 1
                    continue
                dst.write(raw if raw.endswith(b"\n") else raw + b"\n")
                written += 1
        os.replace(tmp, out_path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise
    print(json.dumps({
        "checked": checked,
        "contaminated": contaminated,
        "malformed": malformed,
        "written": written,
        "ngram": args.ngram,
        "eval_grams": len(index.grams),
        "out": out_path,
    }))
    return EXIT_OK


def _cmd_reward(args: argparse.Namespace) -> int:
    cfg = load_config(args.config) if args.config else PipelineConfig()
    if args.mock:
        cfg.gateway.mock_script = args.mock
    reward_cfg = cfg.reward
    if args.judge:
        reward_cfg.judge = True
    if args.judge_model:
        reward_cfg.judge_model = args.judge_model
    gateway = None
    if reward_cfg.judge:
        from .gateway import build_gateway
        gateway = build_gateway(cfg.gateway)
    verifier = RewardVerifier(cfg=reward_cfg, gateway=gateway)
    if args.stdin:
        served = serve_stdin(verifier)
        print(f"served {served} reward requests", file=sys.stderr)
        return EXIT_OK
    if not (args.dataset and args.rollouts and args.out):
        print("reward: need --dataset, --rollouts and --out (or --stdin)", file=sys.stderr)
        return EXIT_FATAL
    with open(args.out, "w", encoding="utf-8") as out_fh:
        summary = score_rollout_files(args.dataset, args.rollouts, out_fh, verifier)
    summary["judge_calls"] = verifier.counters.judge_calls
    summary["judge_failures"] = verifier.counters.judge_failures
    print(json.dumps(summary))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qaforge",
        description="Convert raw documents into verified, decontaminated QA records.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a full run from a config file")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--mock", help="mock script path; overrides gateway.mock_script")
    p_run.add_argument("--out", help="dataset output path; overrides run.out")
    p_run.add_argument("--run-dir", help="run directory; overrides run.run_dir")
    p_run.set_defaults(func=_cmd_run)

    p_resume = sub.add_parser("resume", help="continue an interrupted run")
    p_resume.add_argument("--run-dir", required=True)
    p_resume.add_argument("--config", help="optional config to check against the snapshot")
    p_resume.set_defaults(func=_cmd_resume)

    p_stats = sub.add_parser("stats", help="summarize a written dataset")
    p_stats.add_argument("--dataset", required=True)
    p_stats.set_defaults(func=_cmd_stats)

    p_deco = sub.add_parser("decontaminate", help="filter an existing dataset against eval corpora")
    p_deco.add_argument("--dataset", required=True)
    p_deco.add_argument("--eval-dir", required=True)
    p_deco.add_argument("--ngram", type=int, default=13)
    p_deco.add_argument("--out")
    p_deco.set_defaults(func=_cmd_decontaminate)

    p_reward = sub.add_parser("reward", help="score rollouts against gold answers")
    p_reward.add_argument("--dataset")
    p_reward.add_argument("--rollouts")
    p_reward.add_argument("--out")
    p_reward.add_argument("--stdin", action="store_true",
                          help="serve line-delimited requests on stdin instead of batch files")
    p_reward.add_argument("--judge", action="store_true", help="escalate exact misses to an LLM judge")
    p_reward.add_argument("--judge-model")
    p_reward.add_argument("--mock", help="mock script for the judge")
    p_reward.add_argument("--config", help="pipeline config supplying gateway and reward sections")
    p_reward.set_defaults(func=_cmd_reward)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigDriftError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DRIFT
    except (QAForgeError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FATAL


if __name__ == "__main__":
    sys.exit(main())
