"""Corpus ingestion: parsing, quotas, interleave, dedup, conservation."""

import json
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qaforge.errors import ConfigError, IngestError
from qaforge.ingest import dedup, ingest_summary, read_documents, sample_mixture
from qaforge.types import SourceSpec, content_hash, make_doc_id

from conftest import write_jsonl


def recorder():
    """A drop hook and the list of (source, key, reason) calls it records."""
    drops = []
    return drops, lambda source, key, reason: drops.append((source, key, reason))


def test_three_valid_lines(tmp_path):
    path = tmp_path / "a.jsonl"
    write_jsonl(path, [{"text": "one"}, {"text": "two"}, {"text": "three"}])
    drops, on_drop = recorder()
    docs = list(read_documents(SourceSpec("a", str(path)), on_drop))
    assert [d.text for d in docs] == ["one", "two", "three"]
    assert all(d.source == "a" and d.doc_id for d in docs)
    assert drops == []


def test_malformed_and_empty_lines_are_counted(tmp_path):
    path = tmp_path / "a.jsonl"
    path.write_text(
        json.dumps({"text": "good one"})
        + "\n{not json}\n"
        + json.dumps({"no_text": 1})
        + "\n"
        + json.dumps({"text": ""})
        + "\n"
        + json.dumps({"text": "good two"})
        + "\n"
    )
    drops, on_drop = recorder()
    docs = list(read_documents(SourceSpec("a", str(path)), on_drop))
    assert [d.text for d in docs] == ["good one", "good two"]
    assert drops == [("a", "a:L2", "parse"), ("a", "a:L3", "parse"), ("a", "a:L4", "empty")]
    assert len(docs) + len(drops) == 5


def test_lines_that_are_not_utf8_are_parse_drops(tmp_path):
    """A bad byte or a lone surrogate costs its own line, not the source."""
    path = tmp_path / "a.jsonl"
    path.write_bytes(
        b'{"text": "good one"}\n'
        b'{"text": "bad \xff byte"}\r\n'
        b'{"text": "lone \\ud800"}\r'
        b'\xfe\xfe\n'
        b'{"text": "good two"}\n'
    )
    drops, on_drop = recorder()
    docs = list(read_documents(SourceSpec("a", str(path)), on_drop))
    assert [d.text for d in docs] == ["good one", "good two"]
    assert drops == [("a", "a:L2", "parse"), ("a", "a:L3", "parse"), ("a", "a:L4", "parse")]
    assert len(docs) + len(drops) == 5


def test_empty_file(tmp_path):
    path = tmp_path / "a.jsonl"
    path.write_text("")
    drops, on_drop = recorder()
    assert list(read_documents(SourceSpec("a", str(path)), on_drop)) == []
    assert drops == []


def test_missing_file_raises(tmp_path):
    with pytest.raises(IngestError):
        list(read_documents(SourceSpec("a", str(tmp_path / "nope.jsonl"))))


def test_doc_id_stability_and_whitespace_insensitivity():
    assert make_doc_id("s", "text body") == make_doc_id("s", "  text body  \n")
    assert make_doc_id("s", "text body") != make_doc_id("other", "text body")


def test_doc_id_collision_free_over_many_texts():
    n = 1_000_000
    ids = {content_hash("src", str(i)) for i in range(n)}
    assert len(ids) == n


def test_quota_selection_is_deterministic(tmp_path):
    path = tmp_path / "a.jsonl"
    write_jsonl(path, [{"text": f"doc {i}"} for i in range(100)])
    spec = SourceSpec("a", str(path), quota=5, weight_seed=42)
    first = [d.doc_id for d in sample_mixture([spec])]
    second = [d.doc_id for d in sample_mixture([spec])]
    assert len(first) == 5 and first == second
    other_seed = [d.doc_id for d in sample_mixture([SourceSpec("a", str(path), quota=5, weight_seed=43)])]
    assert other_seed != first  # 1-in-75M chance of false failure


def test_quota_larger_than_source_keeps_everything(tmp_path):
    path = tmp_path / "a.jsonl"
    write_jsonl(path, [{"text": f"doc {i}"} for i in range(10)])
    docs = list(sample_mixture([SourceSpec("a", str(path), quota=50)]))
    assert len(docs) == 10


def test_quota_zero_takes_none(tmp_path):
    path = tmp_path / "a.jsonl"
    write_jsonl(path, [{"text": "doc"}])
    assert list(sample_mixture([SourceSpec("a", str(path), quota=0)])) == []


def test_over_quota_drops_are_counted(tmp_path):
    path = tmp_path / "a.jsonl"
    write_jsonl(path, [{"text": f"doc {i}"} for i in range(20)])
    drops, on_drop = recorder()
    docs = list(dedup(sample_mixture([SourceSpec("a", str(path), quota=7)], on_drop), on_drop))
    assert len(docs) == 7
    assert [(src, reason) for src, _, reason in drops] == [("a", "over_quota")] * 13
    assert len(docs) + len(drops) == 20


def test_round_robin_interleave(tmp_path):
    pa, pb = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    write_jsonl(pa, [{"text": f"a{i}"} for i in range(4)])
    write_jsonl(pb, [{"text": f"b{i}"} for i in range(2)])
    docs = list(sample_mixture([SourceSpec("a", str(pa)), SourceSpec("b", str(pb))]))
    assert [d.text for d in docs] == ["a0", "b0", "a1", "b1", "a2", "a3"]


def test_duplicate_source_names_rejected(tmp_path):
    path = tmp_path / "a.jsonl"
    write_jsonl(path, [{"text": "x"}])
    with pytest.raises(ConfigError):
        list(sample_mixture([SourceSpec("s", str(path)), SourceSpec("s", str(path))]))


def test_dedup_keeps_first_occurrence(tmp_path):
    path = tmp_path / "a.jsonl"
    write_jsonl(path, [{"text": "same body"}, {"text": "same body"}, {"text": "other"}])
    drops, on_drop = recorder()
    docs = list(dedup(sample_mixture([SourceSpec("a", str(path))], on_drop), on_drop))
    assert [d.text for d in docs] == ["same body", "other"]
    assert drops == [("a", "a:d1", "dup")]


def test_dedup_ignores_outer_whitespace(tmp_path):
    path = tmp_path / "a.jsonl"
    write_jsonl(path, [{"text": "body"}, {"text": "  body  "}])
    drops, on_drop = recorder()
    docs = list(dedup(sample_mixture([SourceSpec("a", str(path))], on_drop), on_drop))
    assert len(docs) == 1 and drops == [("a", "a:d1", "dup")]


def test_dedup_across_sources(tmp_path):
    pa, pb = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    write_jsonl(pa, [{"text": "shared"}])
    write_jsonl(pb, [{"text": "shared"}])
    drops, on_drop = recorder()
    specs = [SourceSpec("a", str(pa)), SourceSpec("b", str(pb))]
    docs = list(dedup(sample_mixture(specs, on_drop), on_drop))
    assert len(docs) == 1 and docs[0].source == "a"
    assert drops == [("b", "b:d1", "dup")]


@settings(max_examples=40, deadline=None)
@given(
    texts=st.lists(st.text(alphabet="abc \n", max_size=8), max_size=30),
    quota=st.one_of(st.none(), st.integers(min_value=0, max_value=40)),
)
def test_conservation_property(tmp_path_factory, texts, quota):
    """Every line read is kept or dropped exactly once."""
    tmp = tmp_path_factory.mktemp("cons")
    path = tmp / "src.jsonl"
    write_jsonl(path, [{"text": t} for t in texts])
    drops, on_drop = recorder()
    spec = SourceSpec("s", str(path), quota=quota, weight_seed=1)
    docs = list(dedup(sample_mixture([spec], on_drop), on_drop))
    if quota == 0:
        assert docs == [] and drops == []
    else:
        assert len(texts) == len(docs) + len(drops)
        assert len({key for _, key, _ in drops}) == len(drops)


def test_ingest_summary_lists_every_configured_source(tmp_path):
    path = tmp_path / "a.jsonl"
    write_jsonl(path, [{"text": "x"}, {"text": ""}, {"text": "x"}])
    specs = [SourceSpec("a", str(path)), SourceSpec("z", str(path), quota=0)]
    counts = Counter()

    def on_drop(source, key, reason):
        counts[source, reason] += 1

    for doc in dedup(sample_mixture(specs, on_drop), on_drop):
        counts[doc.source, "kept"] += 1
    zero = dict.fromkeys(("lines", "kept", "dropped_parse", "dropped_empty", "dropped_dup",
                          "dropped_over_quota"), 0)
    assert ingest_summary(counts, specs) == {
        "a": dict(zero, lines=3, kept=1, dropped_empty=1, dropped_dup=1),
        "z": zero,
    }
