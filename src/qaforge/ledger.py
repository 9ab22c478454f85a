"""Append-only per-stage run ledgers.

One JSONL file per stage under <run_dir>/ledgers/. Each line records one item
outcome: {item_id, outcome, reason, fingerprint, data}. The data payload
carries whatever the stage produced (domain, personas, the QA text, ...) so a
resumed run can feed later stages without re-spending tokens.

Only each item's outcome and the position of its line stay in memory, plus an
(outcome, reason) counter per stage; get() reads the line back from the file.
So resident memory grows with the item count, not with the payloads.

Idempotence rule: an item_id appears at most once per stage log. log() returns
False instead of appending a second row, which is what makes at-least-once
processing safe. A torn final line from a crash is skipped on load and cut
off before the next append; the item simply gets reprocessed.

Lines are written one at a time under the lock, each with os.pwrite at the
stage's tracked end, so a killed process leaves at most a torn tail. A failed
or short write still advances that end, and ledgers from older versions,
which wrote lines outside the lock, may hold a range of NUL bytes where a
line was never written; JSON lines hold no raw NUL, so on load a line's row
is the bytes after its last NUL.
"""

from __future__ import annotations

import os
import sys
import threading
from collections import Counter
from typing import Any, Iterator, Optional

from .types import BAD_LINE, JSON_LINE, STAGES, json_object


def make_entry(item_id: str, outcome: str, reason: str = "", fingerprint: str = "",
               data: Optional[dict[str, Any]] = None) -> dict[str, Any]:
    """The ledger row that log() writes for these arguments."""
    return {
        "item_id": item_id,
        "outcome": outcome,
        "reason": reason,
        "fingerprint": fingerprint,
        "data": data or {},
    }


def _parse(raw: bytes) -> Optional[dict[str, Any]]:
    """A ledger row from one complete line, or None for a line that is not one."""
    try:
        entry = json_object(raw.decode("utf-8"))
    except BAD_LINE:  # UnicodeDecodeError included
        return None
    if isinstance(entry.get("item_id"), str) and isinstance(entry.get("outcome"), str):
        return entry
    return None


def _scan(path: str) -> Iterator[tuple[int, int, Optional[dict[str, Any]]]]:
    """(offset, size, row or None) of each complete line, past its NULs, up to a torn tail."""
    offset = 0
    with open(path, "rb") as fh:
        for raw in fh:
            if not raw.endswith(b"\n"):
                return  # torn tail line from a crash
            skip = raw.rfind(b"\0") + 1  # past a range that was never written
            yield offset + skip, len(raw) - skip, _parse(raw[skip:])
            offset += len(raw)


class RunLedger:
    def __init__(self, run_dir: str):
        self.run_dir = run_dir
        self.dir = os.path.join(run_dir, "ledgers")
        os.makedirs(self.dir, exist_ok=True)
        self._lock = threading.Lock()
        # Per stage: item_id -> (outcome, offset, size) of the item's line.
        self._rows: dict[str, dict[str, tuple[str, int, int]]] = {s: {} for s in STAGES}
        self._counts: dict[str, Counter] = {s: Counter() for s in STAGES}
        # End of the last complete or attempted line: the next append's offset.
        self._ends: dict[str, int] = {s: 0 for s in STAGES}
        self._files: dict[str, int] = {}  # write descriptors, opened on first log
        self._fds: dict[str, int] = {}  # read descriptors for get(); a new file shares its write one
        for stage in STAGES:
            path = self._path(stage)
            if os.path.exists(path):
                self._load(stage, path)
                self._fds[stage] = os.open(path, os.O_RDONLY)

    def _path(self, stage: str) -> str:
        return os.path.join(self.dir, f"{stage}.jsonl")

    def _load(self, stage: str, path: str) -> None:
        rows, counts = self._rows[stage], self._counts[stage]
        for offset, size, entry in _scan(path):
            self._ends[stage] = offset + size
            if entry is not None and entry["item_id"] not in rows:
                outcome = sys.intern(entry["outcome"])
                rows[entry["item_id"]] = (outcome, offset, size)
                counts[(outcome, entry.get("reason", ""))] += 1

    def _file(self, stage: str) -> int:
        """The stage's write descriptor; the caller holds the lock."""
        fd = self._files.get(stage)
        if fd is None:
            path = self._path(stage)
            # No O_APPEND: Linux ignores pwrite's offset on such a descriptor.
            fd = self._files[stage] = os.open(path, os.O_RDWR | os.O_CREAT, 0o666)
            # Cut a torn tail before the first append: a line glued to it
            # would not parse, and both items would be lost on the next load.
            os.ftruncate(fd, self._ends[stage])
            self._fds.setdefault(stage, fd)
        return fd

    def get(self, stage: str, item_id: str) -> Optional[dict[str, Any]]:
        # No lock: a row is inserted only after its line is written, and a
        # row never changes after it is inserted.
        row = self._rows[stage].get(item_id)
        if row is None:
            return None
        _, offset, size = row
        return json_object(os.pread(self._fds[stage], size, offset).decode("utf-8"))

    def outcome(self, stage: str, item_id: str) -> Optional[str]:
        """The logged outcome of (stage, item_id), without reading its line."""
        row = self._rows[stage].get(item_id)
        return None if row is None else row[0]

    def log(
        self,
        stage: str,
        item_id: str,
        outcome: str,
        reason: str = "",
        fingerprint: str = "",
        data: Optional[dict[str, Any]] = None,
    ) -> bool:
        """Record one outcome; returns False when the item was already logged."""
        if stage not in self._rows:
            raise ValueError(f"unknown stage {stage!r}")
        rows = self._rows[stage]
        if item_id in rows:
            return False  # a resume re-logs every ingested item; checked again under the lock
        entry = make_entry(item_id, outcome, reason, fingerprint, data)
        with self._lock:
            if item_id in rows:
                return False
            # Serialised under the lock on purpose: with the encode outside it,
            # a worker that is about to block on the lock first holds the
            # interpreter lock for the whole dump, and the ingest thread of a
            # CPU-bound run waits on it (measured on the cpu_bulk benchmark).
            line = (JSON_LINE.encode(entry) + "\n").encode("utf-8")
            fd, offset = self._file(stage), self._ends[stage]
            self._ends[stage] = offset + len(line)  # later lines land past a failed write
            if os.pwrite(fd, line, offset) != len(line):
                raise OSError(f"short write to the {stage} ledger")
            self._counts[stage][(outcome, reason)] += 1
            rows[item_id] = (sys.intern(outcome), offset, len(line))  # last: get() takes no lock
        return True

    def entries(self, stage: str) -> Iterator[dict[str, Any]]:
        """Stream the stage's rows in file order, one per item; works after close()."""
        rows = self._rows[stage]
        if not rows:
            return
        for offset, _, entry in _scan(self._path(stage)):
            # Skips a later duplicate or a garbage line, as load did.
            if entry is not None and rows.get(entry["item_id"], (None, -1))[1] == offset:
                yield entry

    def count(self, stage: str) -> int:
        return len(self._rows[stage])

    def outcome_counts(self, stage: str) -> Counter:
        """Counter over (outcome, reason) pairs for one stage."""
        with self._lock:
            return Counter(self._counts[stage])

    def close(self) -> None:
        with self._lock:
            for fd in {*self._files.values(), *self._fds.values()}:
                os.close(fd)
            self._files.clear()
            self._fds.clear()
