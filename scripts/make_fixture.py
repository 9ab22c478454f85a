#!/usr/bin/env python3
"""Build the synthetic demo corpus, mock script, and eval set into a directory.

The layout matches what the acceptance tests run against: three corpus
sources, a fingerprint-keyed mock script covering every LLM call a complete
run makes, and an eval directory with five planted questions. The printed
config path can be fed straight to `qaforge run`.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "tests"))

from fixture_builder import build_fixture  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("dest", help="directory to create the fixture in")
    args = parser.parse_args(argv)

    bundle = build_fixture(Path(args.dest))
    print(f"corpus root:      {bundle.root}")
    print(f"config:           {bundle.config_path}")
    print(f"mock script:      {bundle.mock_path}")
    print(f"eval dir:         {bundle.eval_dir}")
    print(f"documents:        {len(bundle.docs)}")
    print(f"expected records: {bundle.expected['records']}")
    print(f"next: qaforge run --config {bundle.config_path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
