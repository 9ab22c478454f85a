"""Run orchestration: staged processing and resumability.

A run owns a run directory holding the config snapshot, the pinned eval index,
per-stage ledgers, and the final report. Processing is at-least-once with
idempotent ledgers: any (stage, item) already logged is skipped on replay, so
an interrupted run can resume without re-spending tokens, and a completed run
resumes to completion with zero gateway calls.

Only documents that need the model cross to the thread pool: the heuristic
filter runs on the ingest thread, where its rejects are logged and skipped.

A run starts in a fixed order. Every config and path check, including that
each source file opens and that the eval dir exists and each of its files
opens, runs before the run directory is written. Then the run takes an
exclusive flock on <run_dir>/run.lock, so one process at a time drives a run
dir; a second run or resume fails at once. Until it ends, the run holds its
calling thread, and so every thread it starts, to the CPU that thread is on.
A pinned eval index file is read then (decontam.IndexPin). A fresh run then
writes config.json and starts the pool. A document runs its LLM phase (filter,
classify, generate and verify per persona), then its screen (decontaminate,
distill, records). Otherwise the first verified candidate, in a resume as in a
fresh run, reads the cached index, or starts the build child on all of the
caller's CPUs. Until the index is pinned, a document with verified candidates
lets its text go and parks only its screen (the candidates and the max_chars
cut), which is submitted again once it is pinned, with no ledger read and no
provider call.

Output ordering is deterministic by construction. The window writes records
in ingest order, so the dataset file is byte-identical across runs and across
concurrency settings; only created_at timestamps differ between runs.
"""

from __future__ import annotations

import fcntl
import json
import os
import threading
import time
from collections import Counter, deque
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager, suppress
from dataclasses import dataclass
from datetime import datetime, timezone
from functools import partial
from typing import Any, Callable, Iterator, Optional

from .classify import NoPersonasError, classify_and_assign
from .config import (
    PipelineConfig,
    canonical_json,
    config_from_dict,
    config_to_dict,
    load_config,
)
from .decontam import IndexPin, eval_paths, is_contaminated
from .errors import (
    ConfigDriftError,
    ConfigError,
    RequestRejectedError,
    RunDirLockedError,
    StructuredParseError,
)
from .filtering import heuristic_filter, llm_filter, truncate_for_llm
from .gateway import Gateway, build_gateway
from .generate import AnswerTooLongError, DemoLibrary, PreLeakError, distill_cot, generate_qa
from .ingest import _source_files, dedup, ingest_summary, sample_mixture
from .ledger import RunLedger, make_entry
from .report import RunReport, build_report
from .types import (
    BAD_LINE,
    JSON_LINE,
    PIPELINE_VERSION,
    CandidateQA,
    Document,
    Domain,
    Persona,
    json_object,
    line_fields,
    make_record_id,
)
from .verify import verify_qa

# Called after every fresh ledger append: (stage, item_id, outcome). Used for
# progress reporting; tests also use it to inject crashes at stage boundaries.
StageHook = Callable[[str, str, str], None]


class _DatasetWriter:
    """Single-writer JSONL emitter; the file is the only copy of each record.

    Records arrive in drain order, the same on every pass over a run dir, so
    the file is a prefix of that order. On resume the writer cuts a torn tail,
    counts the k complete lines and skips the first k records. The k-th must
    carry the last line's record id and the run must reach k records; else the
    sources changed since the crash, and ConfigDriftError is raised before
    anything is written.
    """

    def __init__(self, path: str, resume: bool):
        self.path = path
        self.count = 0  # complete lines in the file
        end = 0
        self._last = b""  # the last complete line, whose record id a resume checks
        os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
        if resume and os.path.exists(path):
            with open(path, "rb") as fh:
                for raw in fh:
                    if not raw.endswith(b"\n"):
                        break  # torn tail line from a crash mid-append
                    self.count += 1
                    end += len(raw)
                    self._last = raw
        self._skip = self.count
        self._fh = open(path, "ab")
        self._fh.truncate(end)

    def append(self, records: list[dict]) -> None:
        for rec in records:
            if self._skip:
                self._skip -= 1
                if not self._skip and rec["record_id"] != _record_id(self._last):
                    self._drift(f"line {self.count} is not record {rec['record_id']}")
                continue
            line = JSON_LINE.encode(rec) + "\n"
            self._fh.write(line.encode("utf-8"))
            self.count += 1
        self._fh.flush()

    def finish(self) -> None:
        if self._skip:
            self._drift(f"holds {self.count} records, the run only {self.count - self._skip}")

    def _drift(self, what: str) -> None:
        raise ConfigDriftError(f"{self.path} {what}: the sources changed since the run started")

    def close(self) -> None:
        self._fh.close()


def _record_id(line: bytes) -> Optional[str]:
    try:
        return line_fields(line, {"record_id": None})["record_id"]
    except BAD_LINE:
        return None


# The per-item failure policy. Each exception listed here is expected of one
# document or candidate and becomes a ledgered drop with this reason. Anything
# else (config errors, a missing key, 401/403/404, a mock miss, retries run
# out) is run-scoped: it propagates, aborts the run, and resume continues once
# it is fixed. Dropping on those would make the dataset depend on the outage.
DROP_REASONS: dict[type[Exception], str] = {
    StructuredParseError: "parse",
    NoPersonasError: "no_persona",
    AnswerTooLongError: "answer_too_long",
    PreLeakError: "pre_leak",
    RequestRejectedError: "provider",
}

# What a stage computes for one item: (outcome, reason, data, fingerprint).
StageResult = tuple[str, str, dict, str]


@dataclass
class _RunContext:
    cfg: PipelineConfig
    gateway: Gateway
    ledger: RunLedger
    demos: DemoLibrary
    pin: IndexPin
    hook: Optional[StageHook] = None

    def log(self, stage: str, item_id: str, outcome: str, reason: str = "",
            fingerprint: str = "", data: Optional[dict] = None) -> bool:
        """Append one ledger row; False, and no hook call, when the item was already logged."""
        if not self.ledger.log(stage, item_id, outcome, reason, fingerprint, data):
            return False
        if self.hook is not None:
            self.hook(stage, item_id, outcome)
        return True

    def memo(self, stage: str, item_id: str, compute: Callable[[], StageResult],
             drop_data: Optional[dict] = None) -> dict:
        """The ledger entry of (stage, item_id), running compute only when none exists.

        An exception in DROP_REASONS is logged as a drop carrying drop_data;
        any other exception propagates with nothing logged.
        """
        if self.ledger.outcome(stage, item_id) is not None:
            return self.ledger.get(stage, item_id)  # type: ignore[return-value]
        try:
            outcome, reason, data, fingerprint = compute()
        except tuple(DROP_REASONS) as exc:
            outcome, data, fingerprint = "drop", drop_data, ""
            reason = next(r for cls, r in DROP_REASONS.items() if isinstance(exc, cls))
        if self.log(stage, item_id, outcome, reason, fingerprint, data):
            return make_entry(item_id, outcome, reason, fingerprint, data)
        # Another thread logged this item first; its row wins.
        return self.ledger.get(stage, item_id)  # type: ignore[return-value]


def _needs_llm(ctx: _RunContext, doc: Document) -> bool:
    """The heuristic gate, run on the ingest thread: whether doc goes to the pool.

    A heuristic reject is logged here, so it never takes a thread or a window slot.
    """
    outcome = ctx.ledger.outcome("filter", doc.doc_id)
    if outcome is not None:
        return outcome == "pass"
    verdict = heuristic_filter(doc, ctx.cfg.filter)
    if verdict.qualified:
        return True
    truncated = len(doc.text) > ctx.cfg.filter.max_chars
    ctx.log("filter", doc.doc_id, "reject", verdict.reason.value,
            data={"phase": verdict.phase, "truncated": truncated})
    return False


def _filter(ctx: _RunContext, llm_text: str, truncated: bool) -> StageResult:
    verdict = llm_filter(llm_text, ctx.gateway, ctx.cfg.filter)
    outcome = "pass" if verdict.qualified else "reject"
    return outcome, verdict.reason.value, {"phase": verdict.phase, "truncated": truncated}, ""


def _classify(ctx: _RunContext, llm_text: str) -> StageResult:
    domain, personas = classify_and_assign(llm_text, ctx.gateway, ctx.cfg.classify)
    personas_data = [{"label": p.label, "rank": p.rank} for p in personas]
    return "pass", "", {"domain": domain.value, "personas": personas_data}, ""


def _generate(ctx: _RunContext, doc: Document, llm_text: str, domain: Domain,
              persona: Persona) -> StageResult:
    demos = ctx.demos.sample_demos(domain, ctx.cfg.generate.k_shots, ctx.cfg.run.seed)
    qa = generate_qa(llm_text, doc, domain, persona, demos, ctx.gateway, ctx.cfg.generate)
    data = {"question": qa.question, "answer": qa.answer, "few_shot_ids": qa.few_shot_ids}
    return "pass", "", data, qa.gen_fingerprint


def _verify(ctx: _RunContext, llm_text: str, qa: CandidateQA) -> StageResult:
    verdict = verify_qa(llm_text, qa, ctx.gateway, ctx.cfg.verify)
    data = {"correct": verdict.correct, "leaked": verdict.leaked}
    if verdict.passed:
        return "pass", "", data, ""
    return "reject", "incorrect" if not verdict.correct else "leaked", data, ""


class IndexPending(Exception):
    """A document's LLM phase ended before the eval index was pinned; args[0] is its screen."""


def _decontaminate(ctx: _RunContext, qa: CandidateQA) -> StageResult:
    report = is_contaminated(qa.question, qa.answer, ctx.pin.index())
    data = {
        "matched_gram_count": report.matched_gram_count,
        "first_match_offset": report.first_match_offset,
    }
    if report.contaminated:
        return "reject", "contaminated", data, ""
    return "pass", "", data, ""


def _distill(ctx: _RunContext, llm_text: str, qa: CandidateQA) -> StageResult:
    explanation = distill_cot(qa, llm_text, ctx.gateway, ctx.cfg.generate)
    reason = "explained" if explanation is not None else "omitted"
    return "pass", reason, {"explanation": explanation}, ""


def _process_document(ctx: _RunContext, doc: Document) -> list[dict]:
    """filter, classify, generate and verify per persona; then the screen, or IndexPending(screen)."""
    cfg = ctx.cfg
    llm_text = truncate_for_llm(doc.text, cfg.filter)
    truncated = len(doc.text) > cfg.filter.max_chars

    fentry = ctx.memo("filter", doc.doc_id, lambda: _filter(ctx, llm_text, truncated),
                      drop_data={"truncated": truncated})
    if fentry["outcome"] != "pass":
        return []

    centry = ctx.memo("classify", doc.doc_id, lambda: _classify(ctx, llm_text))
    if centry["outcome"] != "pass":
        return []
    domain = Domain(centry["data"]["domain"])
    personas = [Persona(label=p["label"], rank=p["rank"]) for p in centry["data"]["personas"]]

    verified: list[CandidateQA] = []
    for persona in personas:
        item_id = f"{doc.doc_id}:p{persona.rank}"
        gentry = ctx.memo("generate", item_id,
                          lambda: _generate(ctx, doc, llm_text, domain, persona))
        if gentry["outcome"] != "pass":
            continue
        qa = CandidateQA(doc_id=doc.doc_id, domain=domain, persona=persona,
                         gen_fingerprint=gentry["fingerprint"], **gentry["data"])
        ventry = ctx.memo("verify", item_id, lambda: _verify(ctx, llm_text, qa))
        if ventry["outcome"] == "pass":
            verified.append(qa)
    screen = partial(_screen, ctx, doc.source, llm_text, fentry["data"], len(personas), verified)
    if verified and ctx.pin.index() is None:
        raise IndexPending(screen)
    return screen()


def _screen(ctx: _RunContext, source: str, llm_text: str, fdata: dict, personas: int,
            verified: list[CandidateQA]) -> list[dict]:
    """Decontaminate, distill, records: given no Document, and of its text only the cut."""
    records: list[dict] = []
    for qa in verified:
        item_id = f"{qa.doc_id}:p{qa.persona.rank}"
        dentry = ctx.memo("decontaminate", item_id, lambda: _decontaminate(ctx, qa))
        if dentry["outcome"] != "pass":
            continue
        audit = {
            "filter": {"outcome": "pass", "phase": "llm", "truncated": False, **fdata},
            "classify": {"outcome": "pass", "domain": qa.domain.value, "personas": personas},
            "generate": {"outcome": "pass", "fingerprint": qa.gen_fingerprint,
                         "few_shot_ids": qa.few_shot_ids},
            "verify": {"outcome": "pass", "correct": True, "leaked": False},
            "decontaminate": {"outcome": "clean",
                              "matched_grams": dentry["data"]["matched_gram_count"]},
        }
        explanation = None
        if ctx.cfg.generate.sft_distill:
            tentry = ctx.memo("distill", item_id, lambda: _distill(ctx, llm_text, qa))
            explanation = tentry["data"].get("explanation")
            audit["distill"] = {"outcome": "pass", "explained": explanation is not None}
        record_id = make_record_id(qa.doc_id, qa.persona.rank, qa.question)
        records.append({
            "record_id": record_id,
            "doc_id": qa.doc_id,
            "source": source,
            "domain": qa.domain.value,
            "persona": {"label": qa.persona.label, "rank": qa.persona.rank},
            "question": qa.question,
            "answer": qa.answer,
            "explanation": explanation,
            "audit": audit,
            "pipeline_version": PIPELINE_VERSION,
            "created_at": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        })
        # The row holds no payload: the dataset file is the only copy of the record.
        ctx.log("write", record_id, "pass")
    return records


LOCK_FILE = "run.lock"
THREAD_STAT = "/proc/thread-self/stat"  # field 39: the CPU the calling thread last ran on


def _hold_to_one_cpu() -> Optional[set[int]]:
    """Hold the calling thread, and every thread it starts, to the CPU it is on.

    The run's threads take turns at the interpreter lock, so a second CPU only
    adds hand-offs between CPUs. Returns the caller's own CPUs, to restore when
    the run ends, or None when no pin is set: no sched_setaffinity (macOS), a
    one-CPU caller, a CPU that cannot be read, or an OSError.
    """
    if not hasattr(os, "sched_setaffinity"):
        return None
    try:
        cpus = os.sched_getaffinity(0)
        if len(cpus) < 2:
            return None
        with open(THREAD_STAT, "rb") as fh:
            cpu = int(fh.read().rpartition(b")")[2].split()[36])
        if cpu not in cpus:
            return None
        os.sched_setaffinity(0, {cpu})
    except (OSError, ValueError, IndexError):
        return None
    return cpus


def _write_json(path: str, obj: Any) -> None:
    """Write obj as indented JSON via <path>.tmp, atomically; the run-dir lock keeps one writer."""
    text = json.dumps(obj, indent=2, sort_keys=True) + "\n"
    with open(f"{path}.tmp", "w", encoding="utf-8") as fh:
        fh.write(text)
    os.replace(f"{path}.tmp", path)


@contextmanager
def _run_dir_lock(run_dir: str) -> Iterator[None]:
    """Hold an exclusive flock on <run_dir>/run.lock, with this process's pid in it.

    RunDirLockedError, naming the holder's pid, if another process holds it.
    The kernel drops the lock when its holder dies, so a crash never leaves
    a stale lock.
    """
    fd = os.open(os.path.join(run_dir, LOCK_FILE), os.O_RDWR | os.O_CREAT, 0o644)
    try:
        try:
            fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except BlockingIOError:
            pid = os.pread(fd, 32, 0).decode("ascii", "replace").strip()
            holder = f"pid {pid}" if pid else "another process"
            raise RunDirLockedError(f"run dir {run_dir} is in use by {holder}") from None
        os.ftruncate(fd, 0)
        os.pwrite(fd, f"{os.getpid()}\n".encode("ascii"), 0)
        try:
            yield
        finally:
            os.ftruncate(fd, 0)
    finally:
        os.close(fd)


def run_pipeline(
    cfg: PipelineConfig,
    *,
    resume: bool = False,
    gateway: Optional[Gateway] = None,
    on_stage_logged: Optional[StageHook] = None,
) -> RunReport:
    """Execute (or continue) a full run described by cfg, in the start order above.

    resume=True is resume_run's, which has checked the config snapshot. The
    run dir's lock is held until the report is written.
    """
    start = time.monotonic()
    run_dir = cfg.run.run_dir
    snapshot_path = os.path.join(run_dir, "config.json")
    gw = gateway if gateway is not None else build_gateway(cfg.gateway)
    demos = DemoLibrary.load(cfg.generate.demo_path)
    dcfg = cfg.decontaminate
    if not resume:
        # Fail now, as ingest and the index build would later, on a file that will not open.
        paths = [path for spec in cfg.sources for path in _source_files(spec)]
        for path in paths + (eval_paths(dcfg.eval_dir) if dcfg.eval_dir else []):
            open(path, "rb").close()
    os.makedirs(run_dir, exist_ok=True)
    with _run_dir_lock(run_dir):
        if not resume and os.path.exists(snapshot_path):
            raise ConfigError(f"run_dir {run_dir} already holds a run; use resume")
        ledger, cpus = RunLedger(run_dir), _hold_to_one_cpu()
        try:
            pin = IndexPin(run_dir, dcfg.eval_dir, dcfg.ngram, cpus)
            try:
                if not resume:
                    _write_json(snapshot_path, config_to_dict(cfg))
                ctx = _RunContext(cfg=cfg, gateway=gw, ledger=ledger, demos=demos, pin=pin,
                                  hook=on_stage_logged)
                return _drive(ctx, resume, start)
            finally:
                pin.close()
        finally:
            if cpus is not None:
                with suppress(OSError):
                    os.sched_setaffinity(0, cpus)
            ledger.close()


class _Window:
    """Writes records in ingest order. add() waits while over 4 x concurrency
    documents run or hold records (a 2x window lets one slow head stall the
    others), or over 64 windows are held; parked screens, and done documents
    without records, count only toward the 64. A parked screen runs again once
    the index is pinned, polled every 5 ms meanwhile; its document is gone."""

    def __init__(self, ctx: _RunContext, writer: _DatasetWriter):
        self.ctx, self.writer = ctx, writer
        self.pool = ThreadPoolExecutor(max_workers=ctx.gateway.concurrency)
        self.size = 4 * ctx.gateway.concurrency
        self.pending: deque[list] = deque()  # [phase to run, records or exception once done]
        self.parked: deque[list] = deque()  # pending entries whose phase is a parked screen
        self.idle = 0  # done pending documents without records
        self.cond = threading.Condition()

    def add(self, doc: Document) -> None:
        self.pending.append([partial(_process_document, self.ctx, doc), None])
        self.pool.submit(self._process, self.pending[-1])
        self.drain(last=False)

    def _process(self, entry: list) -> None:
        try:
            result = entry[0]()
        except BaseException as exc:  # the document's result, which drain raises in order
            result = exc
        with self.cond:
            if isinstance(result, IndexPending):  # the document goes; its screen phase waits
                entry[0] = result.args[0]
                self.parked.append(entry)
            else:  # keep the result and let the document go
                entry[:] = None, result
                self.idle += not result
            self.cond.notify()

    def drain(self, last: bool) -> None:
        """Write head records and resubmit parked screens until add() may return."""
        pending, parked = self.pending, self.parked
        size, cap = (0, 0) if last else (self.size, 64 * self.size)  # the last drain empties it
        with self.cond:
            while True:
                if pending and pending[0][1] is not None:
                    records = pending.popleft()[1]
                    if isinstance(records, BaseException):
                        raise records  # once every document before it is written
                    self.idle -= not records
                    self.writer.append(records)
                elif parked and self.ctx.pin.index() is not None:
                    while parked:
                        self.pool.submit(self._process, parked.popleft())
                elif len(pending) - len(parked) - self.idle <= size and len(pending) <= cap:
                    return
                else:
                    self.cond.wait(timeout=0.005 if parked else None)


def _drive(ctx: _RunContext, resume: bool, start: float) -> RunReport:
    """Run every document through the stages, then write the report."""
    cfg, gw, ledger = ctx.cfg, ctx.gateway, ctx.ledger
    run_dir = cfg.run.run_dir
    writer = _DatasetWriter(cfg.run.out, resume=resume)
    window = _Window(ctx, writer)
    ingest_counts: Counter = Counter()  # (source, "kept" or drop reason), recounted each session

    def ingest_drop(source: str, key: str, reason: str) -> None:
        ctx.log("ingest", key, "drop", reason=reason)
        ingest_counts[source, reason] += 1

    try:
        # Heuristic rejects yield no records, so skipping them keeps the order.
        for doc in dedup(sample_mixture(cfg.sources, ingest_drop), ingest_drop):
            ctx.log("ingest", doc.doc_id, "pass")
            ingest_counts[doc.source, "kept"] += 1
            if _needs_llm(ctx, doc):
                window.add(doc)
        window.drain(last=True)
        writer.finish()
    finally:
        window.pool.shutdown(cancel_futures=True)  # queued documents must not start after an abort
        writer.close()

    report = build_report(
        ledger, cfg.run.out, writer.count, run_dir=run_dir, wall_seconds=time.monotonic() - start,
        ingest=ingest_summary(ingest_counts, cfg.sources),
        gateway=gw.ledger.snapshot(cfg.gateway.pricing or None), concurrency=gw.concurrency)
    _write_json(os.path.join(run_dir, "report.json"), report.to_dict())
    return report


def resume_run(
    run_dir: str,
    config_path: Optional[str] = None,
    *,
    gateway: Optional[Gateway] = None,
    on_stage_logged: Optional[StageHook] = None,
) -> RunReport:
    """Continue an interrupted run from its own config snapshot.

    When a config file is supplied it must match the snapshot exactly;
    anything else would silently mix two runs' semantics in one run_dir.
    """
    snapshot_path = os.path.join(run_dir, "config.json")
    if not os.path.exists(snapshot_path):
        raise ConfigError(f"cannot resume: no config snapshot in {run_dir}")
    try:
        with open(snapshot_path, "r", encoding="utf-8") as fh:
            snap_cfg = config_from_dict(json_object(fh.read()))
    except BAD_LINE as exc:  # not UTF-8, not a JSON object, or nested too deeply
        raise ConfigError(f"cannot parse config snapshot {snapshot_path}: {exc}") from exc
    if config_path is not None:
        current = load_config(config_path)
        if canonical_json(current) != canonical_json(snap_cfg):
            raise ConfigDriftError(
                f"config drift: {config_path} does not match the snapshot in {run_dir}"
            )
    snap_cfg.run.run_dir = run_dir
    return run_pipeline(snap_cfg, resume=True, gateway=gateway, on_stage_logged=on_stage_logged)
