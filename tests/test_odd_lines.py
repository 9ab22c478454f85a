"""Odd input lines: every JSON-line reader gives its own bad-line outcome, never a crash.

All readers parse through types.json_object, so each odd line below gets the
outcome its reader gives any line it cannot use: a source line becomes an
ingest parse drop, an eval or ledger line is skipped, a mock-script or demo
line fails its loader naming the line, and a dataset tail line fails the
resume drift check.
"""

from __future__ import annotations

import json

import pytest

from conftest import read_jsonl
from fixture_builder import SOURCE_SHAPE, build_fixture

from qaforge.decontam import INDEX_FILE, load_eval_dir
from qaforge.errors import ConfigDriftError, ConfigError, PermanentProviderError
from qaforge.gateway import Gateway, MockProvider, MockScript
from qaforge.generate import DemoLibrary
from qaforge.ingest import read_documents
from qaforge.ledger import RunLedger
from qaforge.pipeline import _DatasetWriter, resume_run, run_pipeline
from qaforge.types import SourceSpec

# Nested far past the interpreter's recursion limit: json.loads raises RecursionError.
DEEP = b"[" * 200_000 + b"]" * 200_000


def read_source(tmp_path, data):
    path = tmp_path / "source.jsonl"
    path.write_bytes(data)
    drops = []
    docs = list(read_documents(SourceSpec("s", str(path)), lambda *drop: drops.append(drop)))
    assert [doc.text for doc in docs] == ["kept"]
    assert drops == [("s", "s:L2", "parse")]


def read_eval(tmp_path, data):
    (tmp_path / "evals").mkdir()
    (tmp_path / "evals" / "bench.jsonl").write_bytes(data)
    assert list(load_eval_dir(str(tmp_path / "evals"))) == ["kept"]


def read_mock_script(tmp_path, data):
    path = tmp_path / "script.jsonl"
    path.write_bytes(data)
    with pytest.raises(PermanentProviderError, match=r"script\.jsonl:2: bad mock script line"):
        MockScript.load(str(path))


def read_demos(tmp_path, data):
    path = tmp_path / "demos.jsonl"
    path.write_bytes(data)
    with pytest.raises(ConfigError, match="demo library line 2"):
        DemoLibrary.load(str(path))


def read_ledger(tmp_path, data):
    (tmp_path / "ledgers").mkdir()
    (tmp_path / "ledgers" / "filter.jsonl").write_bytes(data)
    ledger = RunLedger(str(tmp_path))
    try:
        assert ledger.count("filter") == 1
        assert [row["item_id"] for row in ledger.entries("filter")] == ["kept"]
    finally:
        ledger.close()


def read_dataset_tail(tmp_path, data):
    path = tmp_path / "records.jsonl"
    path.write_bytes(data)
    writer = _DatasetWriter(str(path), resume=True)
    try:
        with pytest.raises(ConfigDriftError, match="line 2 is not record r2"):
            writer.append([{"record_id": "r1"}, {"record_id": "r2"}])
    finally:
        writer.close()
    assert path.read_bytes() == data


# Per reader: how it reads a file, a line it keeps, and the string field to spoil.
READERS = {
    "source": (read_source, {"text": "kept"}, "text"),
    "eval": (read_eval, {"text": "kept"}, "text"),
    "mock_script": (read_mock_script,
                    {"stage_tag": "filter", "fingerprint": "default", "response": "kept"},
                    "response"),
    "demo_library": (read_demos, {"domain": "math", "question": "2+2?", "answer": "4"},
                     "question"),
    "ledger": (read_ledger, {"item_id": "kept", "outcome": "pass", "reason": "", "data": {}},
               "item_id"),
    "dataset_tail": (read_dataset_tail, {"record_id": "r1", "answer": "4"}, "record_id"),
}


def odd_line(kind, good, field):
    if kind == "deep_nesting":
        return DEEP
    if kind == "non_object":
        return b"[1, 2]"
    if kind == "non_string_field":
        return json.dumps({**good, field: 5}).encode("utf-8")
    return json.dumps({**good, field: "odd"}).encode("utf-8").replace(b'"odd"', b'"\xffodd"')


@pytest.mark.parametrize("kind", ["deep_nesting", "non_object", "non_string_field", "not_utf8"])
@pytest.mark.parametrize("reader", sorted(READERS))
def test_each_reader_gives_an_odd_line_its_bad_line_outcome(tmp_path, reader, kind):
    read, good, field = READERS[reader]
    read(tmp_path, json.dumps(good).encode("utf-8") + b"\n" + odd_line(kind, good, field) + b"\n")


def scripted_gateway(bundle):
    provider = MockProvider(MockScript.load(str(bundle.mock_path)))
    return provider, Gateway(provider, concurrency=4, sleep=lambda _s: None)


def sans_created_at(path):
    return [{k: v for k, v in row.items() if k != "created_at"} for row in read_jsonl(path)]


def test_deep_source_and_eval_lines_leave_the_fixture_run_unchanged(tmp_path):
    ref = build_fixture(tmp_path / "ref")
    clean = run_pipeline(ref.config(), gateway=scripted_gateway(ref)[1])
    bundle = build_fixture(tmp_path / "odd")
    first = next(iter(SOURCE_SHAPE))
    for path in (bundle.root / f"{first}.jsonl", bundle.eval_dir / "planted.jsonl"):
        with open(path, "ab") as fh:
            fh.write(DEEP + b"\n")
    report = run_pipeline(bundle.config(), gateway=scripted_gateway(bundle)[1])

    dataset = sans_created_at(bundle.root / "records.jsonl")
    assert dataset == sans_created_at(ref.root / "records.jsonl")
    assert len(dataset) == report.records_written == clean.records_written
    index = bundle.root / "run" / INDEX_FILE
    assert index.read_bytes() == (ref.root / "run" / INDEX_FILE).read_bytes()
    want = {source: dict(counts) for source, counts in clean.ingest.items()}
    want[first]["dropped_parse"] += 1
    want[first]["lines"] += 1
    assert report.ingest == want
    ingest = clean.funnel["ingest"]
    assert report.funnel["ingest"] == {**ingest, "in": ingest["in"] + 1, "drop": ingest["drop"] + 1}
    assert report.funnel_consistent, report.funnel_problems

    # The run dir resumes to the same dataset without a provider call.
    before = (bundle.root / "records.jsonl").read_bytes()
    idle, gateway = scripted_gateway(bundle)
    assert resume_run(str(bundle.root / "run"), gateway=gateway).ingest == want
    assert idle.total_calls == 0
    assert (bundle.root / "records.jsonl").read_bytes() == before
