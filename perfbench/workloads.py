"""Deterministic inputs and oracles for the three benchmark workloads.

Everything here is a pure function of (workload, seed): the same seed writes
byte-identical corpus, eval and request files, and plans the same expected
outcome for every document and request. The plan is what the synthetic
provider answers from and what the oracle checks the program's output
against, in the way tests/fixture_builder.py plans its expected funnel.

Heavy-tailed sizes (document line counts, eval text lengths, rollout lengths)
are drawn as the quantiles of a capped Pareto distribution, and the seed
shuffles which item gets which size. Every seed therefore has the same size
profile, tail included, which keeps run-to-run spread down without trimming
the tail away.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from dataclasses import asdict, dataclass, field
from typing import Optional

from qaforge.config import FilterConfig
from qaforge.filtering import truncate_for_llm
from qaforge.types import make_doc_id, make_record_id

WORKLOADS = ("llm_latency", "cpu_bulk", "reward_stream")
ORDER_BLOCKS = 16
LATENCY_ALPHA = 2.5  # Pareto shape of provider latency: finite mean, heavy tail
LATENCY_CAP = 12.0

# Per-workload sizes. The pipeline sizes set one child run to a few seconds
# on a 2-core machine, so a measured window holds several runs.
SIZES = {
    "llm_latency": {
        "docs": 120,            # unique documents before duplicates and bad lines
        "heuristic_share": 0.05,
        "llm_reject_share": 0.08,
        "line_alpha": 1.5, "line_min": 4, "line_cap": 60,
        "eval_texts": 4000,
        "fault_share": 0.03,   # each of: unparseable, over-long, transient
        "latency_s": 0.008,    # base provider latency; generate is 4x
        "dup_share": 0.0, "bad_share": 0.0,
    },
    "cpu_bulk": {
        "docs": 4000,
        "heuristic_share": 0.75,
        "llm_reject_share": 0.02,
        "line_alpha": 1.1, "line_min": 4, "line_cap": 4000,
        "eval_texts": 20000,
        "fault_share": 0.0,
        "latency_s": 0.0,
        "dup_share": 0.03, "bad_share": 0.01,
    },
    "reward_stream": {
        "requests": 4096,
        "hit_share": 0.6,
        "len_min": 100, "len_cap": 32000, "len_alpha": 0.9,
    },
}

SOURCES = ("web", "forum")
DOMAINS = ("science", "commerce", "healthcare", "education", "code", "lifestyle", "math")
# Persona labels use a capitalised syllable set that never occurs in the
# lower-case document text, so a label found in a prompt names the persona.
PERSONAS = ("Varo Analyst", "Quell Planner", "Istra Auditor", "Omni Steward",
            "Zeph Engineer", "Ulma Curator")
TAG_PREFIX = "QF"
TAG_SUFFIX = "Z"
NAV_LINE = "home products support legal contact careers"

FILTER_PASS = "QUALIFIED: yes\nREASON: clear, self-contained source material"
FILTER_REJECTS = {
    "llm_not_self_contained": "QUALIFIED: no\nREASON: needs surrounding context to make sense",
    "llm_non_informative": "QUALIFIED: no\nREASON: no informative value beyond boilerplate",
}
VERIFY_REPLIES = {
    "pass": "CORRECT: yes\nLEAKAGE: no\nRATIONALE: grounded in the document",
    "incorrect": "CORRECT: no\nLEAKAGE: no\nRATIONALE: contradicts the document",
    "leaked": "CORRECT: yes\nLEAKAGE: yes\nRATIONALE: the question restates the answer",
}
GARBAGE_REPLY = "Sure, happy to help with this material. It looks interesting overall."


def _vocabulary() -> list[str]:
    """Fixed lower-case pseudo-word list; identical for every seed."""
    rng = random.Random("perfbench-vocab")
    onsets = "b d f g k l m n p r s t v w z br dr gr kr pl st tr".split()
    vowels = "a e i o u ai ea io".split()
    words: set[str] = set()
    while len(words) < 3000:
        n = rng.choice((2, 2, 3))
        words.add("".join(rng.choice(onsets) + rng.choice(vowels) for _ in range(n)))
    return sorted(words)


VOCAB = _vocabulary()


def quantile_sizes(n: int, lo: int, cap: int, alpha: float) -> list[int]:
    """n sizes at the (i + 0.5) / n quantiles of Pareto(lo, alpha), capped; ascending."""
    return [min(cap, int(lo * (1.0 - (i + 0.5) / n) ** (-1.0 / alpha))) for i in range(n)]


def stratified_order(groups: list[list], blocks: int, rng: random.Random) -> list:
    """Seeded order in which every block of the stream gets an equal share of each group.

    Each group is dealt into the blocks in runs of `blocks` consecutive items
    (so each block receives one item from every size stratum), with a seeded
    choice of block per item; then each block is shuffled.
    """
    out: list[list] = [[] for _ in range(blocks)]
    for group in groups:
        for start in range(0, len(group), blocks):
            chunk = group[start:start + blocks]
            for item, b in zip(chunk, rng.sample(range(blocks), len(chunk))):
                out[b].append(item)
    for block in out:
        rng.shuffle(block)
    return [item for block in out for item in block]


def doc_tag(idx: int) -> str:
    return f"{TAG_PREFIX}{idx}{TAG_SUFFIX}"


def _sentence(rng: random.Random, lo: int = 8, hi: int = 14) -> str:
    return " ".join(rng.choices(VOCAB, k=rng.randint(lo, hi)))


@dataclass
class PlannedCandidate:
    rank: int
    label: str
    question: str
    answer: str
    verify: str = "pass"  # pass | incorrect | leaked
    contaminated: bool = False

    @property
    def survives(self) -> bool:
        return self.verify == "pass" and not self.contaminated


@dataclass
class PlannedDoc:
    idx: int
    source: str
    text: str
    kind: str  # pass | llm_reject | too_short | low_alpha | boilerplate_heavy
    domain: str = ""
    filter_reply: str = ""
    candidates: list[PlannedCandidate] = field(default_factory=list)
    # Keys: "filter" and "classify" for the document-level stages,
    # "generate:<rank>" and "verify:<rank>" for candidate-level ones.
    faults: dict[str, str] = field(default_factory=dict)
    tail: str = ""  # last characters of the LLM-visible text
    latency: dict[str, float] = field(default_factory=dict)  # fault key -> multiplier

    @property
    def doc_id(self) -> str:
        return make_doc_id(self.source, self.text)


@dataclass
class PipelineInputs:
    workload: str
    seed: int
    docs: list[PlannedDoc]          # unique documents, in ingest order
    lines: dict[str, list[str]]     # source -> raw JSONL lines as written
    eval_texts: list[str]
    expected: dict
    expected_records: list[dict]

    @property
    def input_lines(self) -> int:
        return sum(len(v) for v in self.lines.values())


def _passing_text(idx: int, n_lines: int, rng: random.Random) -> str:
    """Distinct lines of words; long enough to clear the minimum-length check."""
    lines = [f"{doc_tag(idx)} {_sentence(rng)}"]
    lines += [_sentence(rng) for _ in range(n_lines - 1)]
    while sum(len(ln) for ln in lines) < 2 * FilterConfig().min_chars:
        lines.append(_sentence(rng))
    return "\n".join(lines)


def _heuristic_text(kind: str, idx: int, n_lines: int, rng: random.Random) -> str:
    if kind == "too_short":
        return f"{doc_tag(idx)} {_sentence(rng, 3, 6)}"
    if kind == "low_alpha":
        return f"{doc_tag(idx)} " + "#$%^&*() {}[]<> =+-/ " * rng.randint(12, 30)
    # boilerplate_heavy: every other line is the same navigation line
    lines = [f"{doc_tag(idx)} {_sentence(rng)}"]
    for i in range(max(5, n_lines) - 1):
        lines.append(NAV_LINE if i % 2 == 0 else _sentence(rng))
    return "\n".join(lines)


def _question(rng: random.Random, idx: int, rank: int) -> str:
    return (f"According to record {doc_tag(idx)}, what figure does the "
            f"{_sentence(rng, 5, 7)} report list for station {rank}?")


def _bad_line(k: int) -> str:
    return ('{"text": "unterminated', "[1, 2, 3]", '"just a string"',
            '{"id": 7, "meta": {}}', '{"text": 42}')[k % 5]


def plan_pipeline(workload: str, seed: int) -> PipelineInputs:
    size = SIZES[workload]
    rng = random.Random(f"{workload}:{seed}")
    n = size["docs"]
    n_heur = round(n * size["heuristic_share"])
    n_llm_rej = round(n * size["llm_reject_share"])
    n_pass = n - n_heur - n_llm_rej
    counts = {"pass": n_pass, "llm_reject": n_llm_rej}
    for i, kind in enumerate(("too_short", "low_alpha", "boilerplate_heavy")):
        counts[kind] = len(range(i, n_heur, 3))
    # Each multi-line kind gets its own full set of quantile line counts, so
    # every seed has the same work of each kind; persona counts cycle 1-3
    # along the size order. The stratified order spreads that work evenly.
    groups = []
    for kind, count in counts.items():
        if kind in ("pass", "llm_reject", "boilerplate_heavy"):
            lines = quantile_sizes(count, size["line_min"], size["line_cap"], size["line_alpha"])
        else:
            lines = [1] * count
        groups.append([(kind, n_lines, 1 + r % 3) for r, n_lines in enumerate(lines)])
    specs = stratified_order(groups, ORDER_BLOCKS, rng)
    filter_cfg = FilterConfig()

    docs: list[PlannedDoc] = []
    for idx, (kind, n_lines, n_personas) in enumerate(specs):
        source = SOURCES[idx % len(SOURCES)]
        if kind in ("pass", "llm_reject"):
            text = _passing_text(idx, n_lines, rng)
        else:
            text = _heuristic_text(kind, idx, n_lines, rng)
        doc = PlannedDoc(idx=idx, source=source, text=text, kind=kind)
        doc.tail = truncate_for_llm(text, filter_cfg)[-40:]
        if kind == "llm_reject":
            doc.filter_reply = FILTER_REJECTS[("llm_not_self_contained", "llm_non_informative")[idx % 2]]
        elif kind == "pass":
            doc.filter_reply = FILTER_PASS
            doc.domain = DOMAINS[rng.randrange(len(DOMAINS))]
            labels = rng.sample(PERSONAS, n_personas)
            doc.candidates = [
                PlannedCandidate(rank=r, label=label, question=_question(rng, idx, r),
                                 answer=str(rng.randrange(100000, 999999)))
                for r, label in enumerate(labels, 1)
            ]
        docs.append(doc)

    # Candidate outcomes: fixed shares, placed by the seed.
    cands = [c for d in docs for c in d.candidates]
    order = list(range(len(cands)))
    rng.shuffle(order)
    n_bad = max(1, round(len(cands) * 0.05))
    for j in order[:n_bad]:
        cands[j].verify = "incorrect"
    for j in order[n_bad:2 * n_bad]:
        cands[j].verify = "leaked"
    for j in order[2 * n_bad:3 * n_bad]:
        cands[j].contaminated = True

    # Injected provider faults on a fixed share of (stage, item) keys.
    keys: list[tuple[PlannedDoc, str]] = []
    for d in docs:
        if d.kind in ("pass", "llm_reject"):
            keys.append((d, "filter"))
        if d.kind == "pass":
            keys.append((d, "classify"))
            for c in d.candidates:
                keys.append((d, f"generate:{c.rank}"))
                keys.append((d, f"verify:{c.rank}"))
    # Provider latency multiplier per key: the quantiles of a capped Pareto,
    # dealt so that every stretch of the stream waits about equally long.
    mults = [min(LATENCY_CAP, (1.0 - (i + 0.5) / len(keys)) ** (-1.0 / LATENCY_ALPHA))
             for i in range(len(keys))]
    for (d, key), mult in zip(keys, stratified_order([mults], ORDER_BLOCKS, rng)):
        d.latency[key] = mult
    rng.shuffle(keys)
    n_fault = round(len(keys) * size["fault_share"])
    for d, key in keys[:n_fault]:
        d.faults[key] = "garbage"
    for d, key in keys[n_fault:2 * n_fault]:
        d.faults[key] = "transient"
    gen_keys = [(d, k) for d, k in keys[2 * n_fault:] if k.startswith("generate:")]
    for d, key in gen_keys[:n_fault]:
        d.faults[key] = "long"

    # Raw source files: documents in order, plus whitespace-variant and exact
    # duplicates of earlier documents and malformed lines at seeded positions.
    # Each entry is (text or None, raw line); None marks a malformed line.
    entries: dict[str, list[tuple[Optional[str], str]]] = {s: [] for s in SOURCES}
    for d in docs:
        entries[d.source].append((d.text, json.dumps({"text": d.text})))
    n_dup = round(n * size["dup_share"])
    for k in range(n_dup):
        src = entries[SOURCES[k % len(SOURCES)]]
        pos = rng.randrange(len(src))
        text = src[pos][0]
        variant = text if k % 2 else f"  {text}\n "
        src.insert(rng.randint(pos + 1, len(src)), (variant, json.dumps({"text": variant})))
    n_bad_lines = round(n * size["bad_share"])
    for k in range(n_bad_lines):
        src = entries[SOURCES[k % len(SOURCES)]]
        src.insert(rng.randint(0, len(src)), (None, _bad_line(k)))
    lines = {s: [raw for _, raw in entries[s]] for s in SOURCES}

    # Ingest order: the sources' valid lines interleaved round-robin, then
    # later copies of an already-seen (outer-whitespace-trimmed) text dropped.
    by_text = {d.text: d for d in docs}
    streams = [[t for t, _ in entries[s] if t is not None] for s in SOURCES]
    ordered: list[PlannedDoc] = []
    seen: set[str] = set()
    for i in range(max(len(v) for v in streams)):
        for stream in streams:
            if i < len(stream) and stream[i].strip() not in seen:
                seen.add(stream[i].strip())
                ordered.append(by_text[stream[i]])

    eval_texts = _eval_texts(rng, size["eval_texts"], [c.question for c in cands if c.contaminated])
    expected, expected_records = expected_outcomes(ordered, n_dup, n_bad_lines)
    return PipelineInputs(workload, seed, ordered, lines, eval_texts, expected, expected_records)


def _eval_texts(rng: random.Random, n: int, planted: list[str]) -> list[str]:
    """Varied-length eval items: mostly short questions, a tail of long passages."""
    lengths = quantile_sizes(n, 6, 400, 1.6)
    rng.shuffle(lengths)
    texts = [" ".join(rng.choices(VOCAB, k=k)) for k in lengths]
    for q in planted:
        j = rng.randrange(n)
        texts[j] = f"{texts[j]} {q} {_sentence(rng, 4, 8)}"
    return texts


def expected_outcomes(docs: list[PlannedDoc], n_dup: int, n_bad: int) -> tuple[dict, list[dict]]:
    n_docs = len(docs)
    passing = [d for d in docs if d.kind == "pass"]
    cands = [c for d in passing for c in d.candidates]
    n_verify_pass = sum(1 for c in cands if c.verify == "pass")
    survivors = [(d, c) for d in passing for c in d.candidates if c.survives]
    funnel = {
        "ingest": {"in": n_docs + n_dup + n_bad, "pass": n_docs, "reject": 0, "drop": n_dup + n_bad},
        "filter": {"in": n_docs, "pass": len(passing), "reject": n_docs - len(passing), "drop": 0},
        "classify": {"in": len(passing), "pass": len(passing), "reject": 0, "drop": 0},
        "generate": {"in": len(cands), "pass": len(cands), "reject": 0, "drop": 0},
        "verify": {"in": len(cands), "pass": n_verify_pass, "reject": len(cands) - n_verify_pass,
                   "drop": 0},
        "decontaminate": {"in": n_verify_pass, "pass": len(survivors),
                          "reject": n_verify_pass - len(survivors), "drop": 0},
        "distill": {"in": 0, "pass": 0, "reject": 0, "drop": 0},
        "write": {"in": len(survivors), "pass": len(survivors), "reject": 0, "drop": 0},
    }
    records = [
        {
            "record_id": make_record_id(d.doc_id, c.rank, c.question),
            "doc_id": d.doc_id,
            "source": d.source,
            "domain": d.domain,
            "persona": {"label": c.label, "rank": c.rank},
            "question": c.question,
            "answer": c.answer,
        }
        for d, c in survivors
    ]
    return {"records": len(survivors), "funnel": funnel}, records


def _write_lines(path: str, lines: list[str]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for line in lines:
            fh.write(line + "\n")


def write_pipeline_inputs(inputs: PipelineInputs, root: str) -> dict:
    """Write corpus, eval dir, config and plan under root; returns the file map."""
    os.makedirs(os.path.join(root, "evals", "suite"), exist_ok=True)
    for source, lines in inputs.lines.items():
        _write_lines(os.path.join(root, f"{source}.jsonl"), lines)
    half = len(inputs.eval_texts) // 2
    for name, chunk in (("evals/a.jsonl", inputs.eval_texts[:half]),
                        ("evals/suite/b.jsonl", inputs.eval_texts[half:])):
        _write_lines(os.path.join(root, name), [json.dumps({"text": t}) for t in chunk])
    config = {
        "sources": [{"source": s, "path": os.path.join(root, f"{s}.jsonl")} for s in SOURCES],
        "run": {"seed": inputs.seed},
        "gateway": {"backoff_base": 0.002, "backoff_cap": 0.05},
        "decontaminate": {"eval_dir": os.path.join(root, "evals")},
    }
    config_path = os.path.join(root, "config.json")
    with open(config_path, "w", encoding="utf-8") as fh:
        json.dump(config, fh, indent=1, sort_keys=True)
    plan = {
        "latency_s": SIZES[inputs.workload]["latency_s"],
        "docs": [asdict(d) for d in inputs.docs],
        "expected": inputs.expected,
        "expected_records": inputs.expected_records,
    }
    plan_path = os.path.join(root, "plan.json")
    with open(plan_path, "w", encoding="utf-8") as fh:
        json.dump(plan, fh, sort_keys=True)
    return {"config": config_path, "plan": plan_path}


def load_plan(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        plan = json.load(fh)
    plan["docs"] = [
        PlannedDoc(**{k: v for k, v in d.items() if k != "candidates"},
                   candidates=[PlannedCandidate(**c) for c in d["candidates"]])
        for d in plan["docs"]
    ]
    return plan


# --- oracle -----------------------------------------------------------------

def strip_created_at(raw_line: str) -> dict:
    rec = json.loads(raw_line)
    rec.pop("created_at", None)
    return rec


def dataset_digest(path: str) -> str:
    """sha256 over the dataset's records with created_at removed."""
    h = hashlib.sha256()
    with open(path, "r", encoding="utf-8") as fh:
        for raw in fh:
            h.update(json.dumps(strip_created_at(raw), sort_keys=True).encode("utf-8"))
            h.update(b"\n")
    return h.hexdigest()


def check_dataset(path: str, expected_records: list[dict]) -> list[str]:
    """Problems found comparing a dataset file with the planned records, in order."""
    problems: list[str] = []
    with open(path, "r", encoding="utf-8") as fh:
        got = [strip_created_at(raw) for raw in fh if raw.strip()]
    if len(got) != len(expected_records):
        problems.append(f"records: {len(got)} != {len(expected_records)}")
    for i, (rec, want) in enumerate(zip(got, expected_records)):
        seen = {k: rec.get(k) for k in want}
        if seen != want:
            problems.append(f"record {i}: {seen} != {want}")
            break
    return problems


def check_report(report, expected: dict) -> list[str]:
    """Problems found comparing a RunReport with the planned funnel."""
    problems: list[str] = []
    if not report.funnel_consistent:
        problems.append(f"funnel inconsistent: {report.funnel_problems}")
    for stage, want in expected["funnel"].items():
        got = report.funnel.get(stage)
        if got != want:
            problems.append(f"funnel[{stage}]: {got} != {want}")
    if report.records_written != expected["records"]:
        problems.append(f"records_written: {report.records_written} != {expected['records']}")
    return problems


# --- reward stream ----------------------------------------------------------

@dataclass
class RewardCase:
    line: str      # the request as sent, newline-terminated
    expected: int  # planned reward


def _number_forms(n: int) -> list[str]:
    return [f"{n:,}", str(n), f"{n}.0", f"{n}."]


def plan_reward(seed: int) -> list[RewardCase]:
    size = SIZES["reward_stream"]
    rng = random.Random(f"reward_stream:{seed}")
    n = size["requests"]
    lengths = quantile_sizes(n, size["len_min"], size["len_cap"], size["len_alpha"])
    rng.shuffle(lengths)
    n_hit = round(n * size["hit_share"])
    hits = [True] * n_hit + [False] * (n - n_hit)
    rng.shuffle(hits)
    cases = []
    for i in range(n):
        if i % 4 == 3:  # word answers: case and terminal punctuation vary
            word = rng.choice(VOCAB)
            gold = word.capitalize()
            said = f"{word}." if hits[i] else f"{rng.choice(VOCAB)}x"
        else:            # numbers: thousands separators and trailing .0 vary
            value = rng.randrange(1000, 10_000_000)
            gold = rng.choice(_number_forms(value))
            said = rng.choice(_number_forms(value if hits[i] else value + rng.randrange(1, 99)))
        form = ("boxed", "prefix", "bare")[i % 3]
        parts: list[str] = []
        while sum(len(p) + 1 for p in parts) < lengths[i]:
            parts.append(_sentence(rng, 6, 16))
        if form != "bare" and rng.random() < 0.2:
            parts.insert(len(parts) // 2, f"Answer: {rng.randrange(10, 99)}")  # superseded later
        if form == "boxed":
            parts.append(f"So the result is \\boxed{{{said}}}")
        elif form == "prefix":
            parts.append(f"Answer: {said}")
        else:
            parts.append(said)
        request = {"question": f"What value does item {i} report?", "gold_answer": gold,
                   "rollout": "\n".join(parts)}
        cases.append(RewardCase(json.dumps(request) + "\n", 1 if hits[i] else 0))
    return cases
