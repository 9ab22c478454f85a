"""Append-only per-stage run ledgers.

One JSONL file per stage under <run_dir>/ledgers/. Each line records one item
outcome: {item_id, outcome, reason, fingerprint, data}. The data payload
carries whatever the stage produced (domain, personas, the QA text, ...) so a
resumed run can feed later stages without re-spending tokens.

Idempotence rule: an item_id appears at most once per stage log. log() returns
False instead of appending a second row, which is what makes at-least-once
processing safe. A torn final line from a crash is skipped on load; the item
simply gets reprocessed.
"""

from __future__ import annotations

import json
import os
import threading
from collections import Counter
from typing import Any, Optional

STAGES = ("ingest", "filter", "classify", "generate", "verify", "decontaminate", "distill", "write")


class RunLedger:
    def __init__(self, run_dir: str):
        self.run_dir = run_dir
        self.dir = os.path.join(run_dir, "ledgers")
        os.makedirs(self.dir, exist_ok=True)
        self._lock = threading.Lock()
        self._entries: dict[str, dict[str, dict[str, Any]]] = {s: {} for s in STAGES}
        self._handles: dict[str, Any] = {}
        for stage in STAGES:
            path = self._path(stage)
            if os.path.exists(path):
                with open(path, "r", encoding="utf-8") as fh:
                    for raw in fh:
                        try:
                            entry = json.loads(raw)
                        except json.JSONDecodeError:
                            continue  # torn tail line from a crash
                        if isinstance(entry, dict) and "item_id" in entry:
                            self._entries[stage].setdefault(entry["item_id"], entry)

    def _path(self, stage: str) -> str:
        return os.path.join(self.dir, f"{stage}.jsonl")

    def _handle(self, stage: str):
        if stage not in self._handles:
            self._handles[stage] = open(self._path(stage), "a", encoding="utf-8")
        return self._handles[stage]

    def get(self, stage: str, item_id: str) -> Optional[dict[str, Any]]:
        # No lock: a dict read is atomic, writers check and insert under the
        # lock, and an entry is never mutated after it is inserted.
        return self._entries[stage].get(item_id)

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
        if stage not in self._entries:
            raise ValueError(f"unknown stage {stage!r}")
        entry = {
            "item_id": item_id,
            "outcome": outcome,
            "reason": reason,
            "fingerprint": fingerprint,
            "data": data or {},
        }
        with self._lock:
            if item_id in self._entries[stage]:
                return False
            self._entries[stage][item_id] = entry
            fh = self._handle(stage)
            fh.write(json.dumps(entry, ensure_ascii=False, sort_keys=True) + "\n")
            fh.flush()
        return True

    def entries(self, stage: str) -> list[dict[str, Any]]:
        with self._lock:
            return list(self._entries[stage].values())

    def count(self, stage: str) -> int:
        with self._lock:
            return len(self._entries[stage])

    def outcome_counts(self, stage: str) -> Counter:
        """Counter over (outcome, reason) pairs for one stage."""
        with self._lock:
            return Counter(
                (e["outcome"], e.get("reason", "")) for e in self._entries[stage].values()
            )

    def replay_funnel(self) -> dict[str, dict[str, int]]:
        """Reconstruct per-stage in/pass/reject/drop counts from the logs alone."""
        funnel: dict[str, dict[str, int]] = {}
        for stage in STAGES:
            counts = self.outcome_counts(stage)
            total = sum(counts.values())
            passed = sum(v for (o, _), v in counts.items() if o == "pass")
            rejected = sum(v for (o, _), v in counts.items() if o == "reject")
            dropped = sum(v for (o, _), v in counts.items() if o == "drop")
            funnel[stage] = {
                "in": total,
                "pass": passed,
                "reject": rejected,
                "drop": dropped,
            }
        return funnel

    def close(self) -> None:
        with self._lock:
            for fh in self._handles.values():
                fh.close()
            self._handles.clear()
