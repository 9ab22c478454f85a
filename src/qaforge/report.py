"""The run report: the per-stage funnel, its drop reasons and checks, and the dataset stats.

The funnel and reasons come from the ledger's outcome counts alone, so a resumed
run reports the whole run. `qaforge stats` loads this module, never the pipeline.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import TYPE_CHECKING, Any

from .types import BAD_LINE, PIPELINE_VERSION, STAGES, line_fields

if TYPE_CHECKING:
    from .ledger import RunLedger


def dataset_stats(path: str) -> dict[str, Any]:
    """Distribution summary of a written dataset file; lines that are not records are counted."""
    domains: dict[str, int] = {}
    sources: dict[str, int] = {}
    answer_lengths: list[int] = []
    total = malformed = 0
    with open(path, "rb") as fh:
        for raw in fh:
            if not raw.strip():
                continue
            try:
                rec = line_fields(raw, {"domain": None, "source": None, "answer": None})
            except BAD_LINE:
                malformed += 1
                continue
            total += 1
            domains[rec["domain"]] = domains.get(rec["domain"], 0) + 1
            sources[rec["source"]] = sources.get(rec["source"], 0) + 1
            answer_lengths.append(len(rec["answer"]))
    out: dict[str, Any] = {"records": total, "malformed": malformed, "domains": {},
                           "domain_proportions": {}, "sources": sources, "answer_length": {}}
    if total:
        out["domains"] = dict(sorted(domains.items()))
        out["domain_proportions"] = {d: c / total for d, c in sorted(domains.items())}
        lengths = sorted(answer_lengths)
        out["answer_length"] = {
            "min": lengths[0],
            "median": (lengths[(total - 1) // 2] + lengths[total // 2]) // 2,
            "p95": lengths[max(0, math.ceil(0.95 * total) - 1)],
            "max": lengths[-1],
        }
    return out


def funnel_and_reasons(ledger: RunLedger) -> tuple[dict[str, dict[str, int]], dict[str, dict[str, int]]]:
    """Per stage, its in/pass/reject/drop counts and, if it has rows, its "outcome:reason" counts."""
    funnel: dict[str, dict[str, int]] = {}
    reasons: dict[str, dict[str, int]] = {}
    for stage in STAGES:
        row = funnel[stage] = {"in": 0, "pass": 0, "reject": 0, "drop": 0}
        for (outcome, reason), count in sorted(ledger.outcome_counts(stage).items()):
            row["in"] += count
            if outcome in ("pass", "reject", "drop"):
                row[outcome] += count
            reasons.setdefault(stage, {})[f"{outcome}:{reason}" if reason else outcome] = count
    return funnel, reasons


def _check_funnel(ledger: RunLedger, funnel: dict[str, dict[str, int]],
                  records_written: int) -> list[str]:
    """The funnel's broken invariants: each stage takes in what the one before passed."""
    expected_candidates = sum(len(e["data"]["personas"]) for e in ledger.entries("classify")
                              if e["outcome"] == "pass")
    checks = [
        ("filter.in == ingest.pass", funnel["filter"]["in"], funnel["ingest"]["pass"]),
        ("classify.in == filter.pass", funnel["classify"]["in"], funnel["filter"]["pass"]),
        ("generate.in == sum(personas)", funnel["generate"]["in"], expected_candidates),
        ("verify.in == generate.pass", funnel["verify"]["in"], funnel["generate"]["pass"]),
        ("decontaminate.in == verify.pass", funnel["decontaminate"]["in"], funnel["verify"]["pass"]),
        ("written == decontaminate.pass", records_written, funnel["decontaminate"]["pass"]),
    ]
    return [f"{label}: {got} != {want}" for label, got, want in checks if got != want]


@dataclass
class RunReport:
    run_dir: str
    out_path: str
    records_written: int
    wall_seconds: float
    funnel: dict[str, dict[str, int]]
    funnel_consistent: bool
    funnel_problems: list[str]
    reasons: dict[str, dict[str, int]]
    ingest: dict[str, dict[str, int]]
    dataset: dict[str, Any]
    gateway: dict[str, Any]
    concurrency: int = 1
    pipeline_version: str = PIPELINE_VERSION

    def to_dict(self) -> dict[str, Any]:
        out = asdict(self)
        out["wall_seconds"] = round(self.wall_seconds, 3)
        return out

    def summary_lines(self) -> list[str]:
        lines = [
            f"run_dir: {self.run_dir}",
            f"records written: {self.records_written} -> {self.out_path}",
            f"wall time: {self.wall_seconds:.2f}s, concurrency: {self.concurrency}",
            "funnel:",
        ]
        for stage, row in self.funnel.items():
            if row["in"] == 0:
                continue
            lines.append(
                f"  {stage:<13} in={row['in']:<6} pass={row['pass']:<6} "
                f"reject={row['reject']:<5} drop={row['drop']}"
            )
        if not self.funnel_consistent:
            lines.append(f"FUNNEL INCONSISTENT: {'; '.join(self.funnel_problems)}")
        totals = self.gateway.get("totals", {})
        lines.append(
            f"gateway: {totals.get('requests', 0)} requests, {totals.get('retries', 0)} retries, "
            f"{totals.get('reasks', 0)} re-asks, {totals.get('failures', 0)} failures"
        )
        return lines


def build_report(ledger: RunLedger, out_path: str, records_written: int, **session: Any) -> RunReport:
    """The report of a session that wrote records_written lines to out_path.

    session holds run_dir, wall_seconds, ingest, gateway and concurrency.
    """
    funnel, reasons = funnel_and_reasons(ledger)
    problems = _check_funnel(ledger, funnel, records_written)
    return RunReport(out_path=out_path, records_written=records_written, funnel=funnel,
                     funnel_consistent=not problems, funnel_problems=problems, reasons=reasons,
                     dataset=dataset_stats(out_path), **session)
