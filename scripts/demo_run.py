#!/usr/bin/env python3
"""Run the pipeline end to end against the bundled synthetic corpus.

Builds the demo fixture in a working directory, executes a complete run with
the scripted mock provider, and prints the funnel, gateway totals, and a
verdict comparing the records, funnel, request count and re-ask count
against the fixture's planned expectations.
Doubles as a smoke test and as a worked example of driving the engine from
Python instead of the CLI.
"""

from __future__ import annotations

import argparse
import sys
import tempfile
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "tests"))

from fixture_builder import build_fixture  # noqa: E402

from qaforge.pipeline import run_pipeline  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--dir", default=None,
                        help="working directory (default: a fresh temp dir)")
    args = parser.parse_args(argv)

    work = Path(args.dir) if args.dir else Path(tempfile.mkdtemp(prefix="qaforge-demo-"))
    bundle = build_fixture(work)
    cfg = bundle.config()
    report = run_pipeline(cfg)

    for line in report.summary_lines():
        print(line)
    print()
    # The fixture plans one request per stage call and no corrective re-ask,
    # so a stray request or re-ask fails the run as a wrong record count would.
    requests = sum(bundle.expected["gateway_calls"].values())
    totals = report.gateway["totals"]
    ok = (report.records_written == bundle.expected["records"]
          and report.funnel == bundle.expected["funnel"]
          and totals["requests"] == requests
          and totals["reasks"] == 0)
    verdict = "OK" if ok else "MISMATCH"
    print(f"expected {bundle.expected['records']} records, {requests} requests and 0 re-asks; "
          f"got {report.records_written}, {totals['requests']} and {totals['reasks']}: {verdict}")
    print(f"dataset: {cfg.run.out}")
    print(f"run dir: {cfg.run.run_dir}")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
