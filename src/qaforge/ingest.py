"""Streaming corpus ingestion: JSONL sources, quota sampling, interleave, dedup.

Sources are line-delimited JSON files with a required "text" field and optional
"id" and "meta" fields. Ingestion is fully deterministic: for fixed files,
quotas, and seeds, the output stream is identical across runs and worker
counts, which is what makes resume and byte-stable datasets possible.
"""

from __future__ import annotations

import glob
import json
import random
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Optional

from .errors import ConfigError, IngestError
from .types import Document, SourceSpec, content_hash, make_doc_id

# on_drop(source, item_key, reason) lets the orchestrator ledger every loss.
DropHook = Callable[[str, str, str], None]


@dataclass
class IngestStats:
    lines: int = 0
    kept: int = 0
    dropped_parse: int = 0
    dropped_empty: int = 0
    dropped_dup: int = 0
    dropped_over_quota: int = 0

    def to_dict(self) -> dict[str, int]:
        return {
            "lines": self.lines,
            "kept": self.kept,
            "dropped_parse": self.dropped_parse,
            "dropped_empty": self.dropped_empty,
            "dropped_dup": self.dropped_dup,
            "dropped_over_quota": self.dropped_over_quota,
        }


def _source_files(spec: SourceSpec) -> list[str]:
    paths = sorted(glob.glob(spec.path)) if any(c in spec.path for c in "*?[") else [spec.path]
    if not paths:
        raise IngestError(f"source {spec.source!r}: no files match {spec.path!r}")
    return paths


def read_documents(
    spec: SourceSpec,
    stats: Optional[IngestStats] = None,
    on_drop: Optional[DropHook] = None,
) -> Iterator[Document]:
    """Yield valid documents from one source, counting malformed and empty lines."""
    lineno = 0
    for path in _source_files(spec):
        try:
            # Bytes that are not UTF-8 decode to lone surrogates, so one bad
            # line fails its own parse below instead of the whole file.
            fh = open(path, "r", encoding="utf-8", errors="surrogateescape")
        except OSError as exc:
            raise IngestError(f"source {spec.source!r}: cannot read {path}: {exc}") from exc
        with fh:
            for raw in fh:
                lineno += 1
                if stats is not None:
                    stats.lines += 1
                try:
                    rec = json.loads(raw)
                    if not isinstance(rec, dict):
                        raise ValueError("not an object")
                    text = rec["text"]
                    if not isinstance(text, str):
                        raise ValueError("text is not a string")
                    text.encode("utf-8")  # UnicodeEncodeError on a lone surrogate
                except (KeyError, ValueError):
                    if stats is not None:
                        stats.dropped_parse += 1
                    if on_drop is not None:
                        on_drop(spec.source, f"{spec.source}:L{lineno}", "parse")
                    continue
                if text == "":
                    if stats is not None:
                        stats.dropped_empty += 1
                    if on_drop is not None:
                        on_drop(spec.source, f"{spec.source}:L{lineno}", "empty")
                    continue
                meta = rec.get("meta") if isinstance(rec.get("meta"), dict) else {}
                if "id" in rec:
                    meta = dict(meta)
                    meta["id"] = rec["id"]
                yield Document(
                    doc_id=make_doc_id(spec.source, text),
                    source=spec.source,
                    text=text,
                    meta=meta,
                )


def _sampled_source(
    spec: SourceSpec,
    stats: Optional[IngestStats],
    on_drop: Optional[DropHook],
) -> Iterator[Document]:
    """Stream one source with its quota applied.

    Quota selection is uniform without replacement and a pure function of
    weight_seed: a first pass counts valid documents, a second pass yields the
    selected indices. Stats are only recorded on the yielding pass.
    """
    if spec.quota is None:
        yield from read_documents(spec, stats, on_drop)
        return
    if spec.quota == 0:
        return
    total = sum(1 for _ in read_documents(spec))
    if total <= spec.quota:
        yield from read_documents(spec, stats, on_drop)
        return
    rng = random.Random(f"quota:{spec.weight_seed}:{spec.source}")
    chosen = set(rng.sample(range(total), spec.quota))
    for idx, doc in enumerate(read_documents(spec, stats, on_drop)):
        if idx in chosen:
            yield doc
        else:
            if stats is not None:
                stats.dropped_over_quota += 1
            if on_drop is not None:
                on_drop(spec.source, f"{spec.source}:q{idx}", "over_quota")


def sample_mixture(
    specs: Iterable[SourceSpec],
    stats: Optional[dict[str, IngestStats]] = None,
    on_drop: Optional[DropHook] = None,
) -> Iterator[Document]:
    """Interleave quota-sampled sources round-robin until all are exhausted."""
    specs = list(specs)
    names = [s.source for s in specs]
    if len(set(names)) != len(names):
        dupes = sorted({n for n in names if names.count(n) > 1})
        raise ConfigError(f"duplicate source names in mixture: {dupes}")
    streams = []
    for spec in specs:
        per_source = None
        if stats is not None:
            per_source = stats.setdefault(spec.source, IngestStats())
        streams.append(_sampled_source(spec, per_source, on_drop))
    while streams:
        still_open = []
        for stream in streams:
            try:
                yield next(stream)
            except StopIteration:
                continue
            still_open.append(stream)
        streams = still_open


def dedup(
    docs: Iterable[Document],
    stats: Optional[dict[str, IngestStats]] = None,
    on_drop: Optional[DropHook] = None,
) -> Iterator[Document]:
    """Drop later copies of any already-seen text, compared after trimming outer whitespace."""
    seen: set[int] = set()  # 128-bit digests as ints: 48 B each against 81 B as hex
    dup_counter = 0
    for doc in docs:
        key = int(content_hash(doc.text.strip()), 16)
        if key in seen:
            dup_counter += 1
            if stats is not None:
                stats.setdefault(doc.source, IngestStats()).dropped_dup += 1
            if on_drop is not None:
                on_drop(doc.source, f"{doc.source}:d{dup_counter}", "dup")
            continue
        seen.add(key)
        if stats is not None:
            stats.setdefault(doc.source, IngestStats()).kept += 1
        yield doc
