"""Streaming corpus ingestion: JSONL sources, quota sampling, interleave, dedup.

Sources are line-delimited JSON files with a required "text" field; other
fields are ignored. Ingestion is fully deterministic: for fixed files,
quotas, and seeds, the output stream is identical across runs and worker
counts, which is what makes resume and byte-stable datasets possible.
"""

from __future__ import annotations

import glob
import random
from collections import Counter
from typing import Callable, Iterable, Iterator

from .errors import ConfigError, IngestError
from .types import Document, SourceSpec, content_hash, make_doc_id, text_records

# on_drop(source, item_key, reason) lets the orchestrator ledger and count every loss.
DropHook = Callable[[str, str, str], None]


def _ignore_drop(source: str, key: str, reason: str) -> None:
    pass


def _source_files(spec: SourceSpec) -> list[str]:
    paths = sorted(glob.glob(spec.path)) if any(c in spec.path for c in "*?[") else [spec.path]
    if not paths:
        raise IngestError(f"source {spec.source!r}: no files match {spec.path!r}")
    return paths


def read_documents(spec: SourceSpec, on_drop: DropHook = _ignore_drop) -> Iterator[Document]:
    """Yield valid documents from one source; each other line is a parse or empty drop."""
    lineno = 0
    for path in _source_files(spec):
        try:
            # Bytes that are not UTF-8 decode to lone surrogates, which
            # text_records turns into a parse drop of that one line.
            fh = open(path, "r", encoding="utf-8", errors="surrogateescape")
        except OSError as exc:
            raise IngestError(f"source {spec.source!r}: cannot read {path}: {exc}") from exc
        with fh:
            for rec in text_records(fh):
                lineno += 1
                if rec is None or rec["text"] == "":
                    reason = "parse" if rec is None else "empty"
                    on_drop(spec.source, f"{spec.source}:L{lineno}", reason)
                    continue
                text = rec["text"]
                yield Document(doc_id=make_doc_id(spec.source, text), source=spec.source, text=text)


def _sampled_source(spec: SourceSpec, on_drop: DropHook) -> Iterator[Document]:
    """Stream one source with its quota applied.

    Quota selection is uniform without replacement and a pure function of
    weight_seed: a first pass counts valid documents, a second pass yields the
    selected indices. Drops are reported only on the yielding pass.
    """
    if spec.quota is None:
        yield from read_documents(spec, on_drop)
        return
    if spec.quota == 0:
        return
    total = sum(1 for _ in read_documents(spec))
    if total <= spec.quota:
        yield from read_documents(spec, on_drop)
        return
    rng = random.Random(f"quota:{spec.weight_seed}:{spec.source}")
    chosen = set(rng.sample(range(total), spec.quota))
    for idx, doc in enumerate(read_documents(spec, on_drop)):
        if idx in chosen:
            yield doc
        else:
            on_drop(spec.source, f"{spec.source}:q{idx}", "over_quota")


def sample_mixture(specs: Iterable[SourceSpec],
                   on_drop: DropHook = _ignore_drop) -> Iterator[Document]:
    """Interleave quota-sampled sources round-robin until all are exhausted."""
    specs = list(specs)
    names = [s.source for s in specs]
    if len(set(names)) != len(names):
        dupes = sorted({n for n in names if names.count(n) > 1})
        raise ConfigError(f"duplicate source names in mixture: {dupes}")
    streams = [_sampled_source(spec, on_drop) for spec in specs]
    while streams:
        still_open = []
        for stream in streams:
            try:
                yield next(stream)
            except StopIteration:
                continue
            still_open.append(stream)
        streams = still_open


def dedup(docs: Iterable[Document], on_drop: DropHook = _ignore_drop) -> Iterator[Document]:
    """Drop later copies of any already-seen text, compared after trimming outer whitespace."""
    seen: set[int] = set()  # 128-bit digests as ints: 48 B each against 81 B as hex
    dup_counter = 0
    for doc in docs:
        key = int(content_hash(doc.text.strip()), 16)
        if key in seen:
            dup_counter += 1
            on_drop(doc.source, f"{doc.source}:d{dup_counter}", "dup")
            continue
        seen.add(key)
        yield doc


def ingest_summary(counts: Counter, sources: Iterable[SourceSpec]) -> dict[str, dict[str, int]]:
    """report.json's ingest block from (source, "kept" or drop reason) counts.

    Every line read is kept or dropped once, so a source's lines are the sum.
    Every configured source is listed, a quota-0 one with zeros.
    """
    summary = {}
    for name in sorted(spec.source for spec in sources):
        drops = {f"dropped_{r}": counts[name, r] for r in ("parse", "empty", "dup", "over_quota")}
        kept = counts[name, "kept"]
        summary[name] = {"lines": kept + sum(drops.values()), "kept": kept, **drops}
    return summary
