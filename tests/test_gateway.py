"""Gateway behavior: routing, retries, rate limits, parsing, accounting."""

import json
import os
import random
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qaforge.errors import (
    GatewayError,
    PermanentProviderError,
    RequestRejectedError,
    StructuredParseError,
    TransientProviderError,
    TransportError,
)
from qaforge.gateway import (
    ChatRequest,
    ChatResponse,
    Gateway,
    MockProvider,
    MockScript,
    StageTag,
    TokenBucket,
    parse_tagged_block,
    parse_yes_no,
    reask,
    run_fingerprint,
)


def make_req(user="hello", system="sys", model="m1", stage=StageTag.FILTER, temperature=0.0):
    return ChatRequest(model=model, system=system, user=user, stage_tag=stage, temperature=temperature)


from conftest import SequenceProvider, stage_requests


class FlakyProvider:
    """Raises transient errors for the first `failures` calls, then succeeds."""

    def __init__(self, failures):
        self.failures = failures
        self.calls = 0

    def send(self, req):
        self.calls += 1
        if self.calls <= self.failures:
            raise TransientProviderError("temporarily down")
        return ChatResponse(text="recovered", input_tokens=2, output_tokens=1)


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t

    def sleep(self, seconds):
        assert seconds >= 0
        self.t += seconds


# ---------------------------------------------------------------- fingerprints


def test_fingerprint_deterministic():
    assert run_fingerprint(make_req()) == run_fingerprint(make_req())


def test_fingerprint_ignores_temperature():
    assert run_fingerprint(make_req(temperature=0.0)) == run_fingerprint(make_req(temperature=0.9))


@pytest.mark.parametrize(
    "a,b",
    [
        (make_req(user="x"), make_req(user="y")),
        (make_req(system="a"), make_req(system="b")),
        (make_req(model="m1"), make_req(model="m2")),
        (make_req(stage=StageTag.FILTER), make_req(stage=StageTag.VERIFY)),
    ],
)
def test_fingerprint_covers_identity_fields(a, b):
    assert run_fingerprint(a) != run_fingerprint(b)


def test_fingerprint_resists_field_concatenation_swaps():
    assert run_fingerprint(make_req(system="ab", user="c")) != run_fingerprint(
        make_req(system="a", user="bc")
    )


# ---------------------------------------------------------------- mock script


def test_mock_exact_entry_beats_default():
    req = make_req()
    script = MockScript()
    script.add(StageTag.FILTER, run_fingerprint(req), "exact")
    script.set_default(StageTag.FILTER, "fallback")
    provider = MockProvider(script)
    assert provider.send(req).text == "exact"
    assert provider.send(make_req(user="something else")).text == "fallback"


def test_mock_without_entry_or_default_is_permanent():
    with pytest.raises(PermanentProviderError):
        MockProvider(MockScript()).send(make_req())


def test_mock_script_roundtrip(tmp_path):
    script = MockScript()
    script.add(StageTag.GENERATE, "fp1", "QUESTION: q\nANSWER: a")
    script.set_default(StageTag.VERIFY, "CORRECT: yes\nLEAKAGE: no\nRATIONALE: ok")
    path = tmp_path / "script.jsonl"
    script.save(str(path))
    loaded = MockScript.load(str(path))
    assert loaded.responses == script.responses
    assert loaded.defaults == script.defaults


def test_mock_script_rejects_bad_lines(tmp_path):
    path = tmp_path / "script.jsonl"
    path.write_text('{"stage_tag": "nope", "fingerprint": "default", "response": "x"}\n')
    with pytest.raises(PermanentProviderError):
        MockScript.load(str(path))


def test_mock_is_deterministic_under_threads(gw_factory):
    script = MockScript()
    script.set_default(StageTag.CLASSIFY, "DOMAIN: science\nPERSONAS: chemist")
    provider = MockProvider(script)
    gw = gw_factory(provider=provider, concurrency=8)
    req = make_req(stage=StageTag.CLASSIFY)
    with ThreadPoolExecutor(max_workers=12) as pool:
        texts = list(pool.map(lambda _: gw.complete(req).text, range(24)))
    assert set(texts) == {"DOMAIN: science\nPERSONAS: chemist"}
    assert provider.total_calls == 24
    assert stage_requests(gw, StageTag.CLASSIFY) == 24


# ---------------------------------------------------------------- retry logic


def test_success_records_zero_retries(gw_factory):
    provider = SequenceProvider(["fine"])
    gw = gw_factory(provider=provider)
    resp = gw.complete(make_req())
    assert resp.text == "fine"
    snap = gw.ledger.snapshot()
    assert snap["totals"] == {
        "requests": 1,
        "input_tokens": 3,
        "output_tokens": 1,
        "retries": 0,
        "reasks": 0,
        "failures": 0,
    }


def test_transient_failures_then_success(gw_factory):
    provider = FlakyProvider(failures=2)
    delays = []
    gw = gw_factory(provider=provider, sleep=delays.append, max_attempts=5, backoff_base=1.0)
    resp = gw.complete(make_req())
    assert resp.text == "recovered"
    assert provider.calls == 3
    totals = gw.ledger.snapshot()["totals"]
    assert totals["requests"] == 1 and totals["retries"] == 2 and totals["failures"] == 0
    # Jittered exponential: attempt k waits in [0.5, 1.0] * base * 2^(k-1).
    assert len(delays) == 2
    assert 0.5 <= delays[0] <= 1.0
    assert 1.0 <= delays[1] <= 2.0


def test_exhaustion_raises_transport_error(gw_factory):
    provider = FlakyProvider(failures=99)
    gw = gw_factory(provider=provider, max_attempts=3)
    with pytest.raises(TransportError) as exc_info:
        gw.complete(make_req())
    assert exc_info.value.attempts == 3
    assert provider.calls == 3
    totals = gw.ledger.snapshot()["totals"]
    assert totals == {
        "requests": 1,
        "input_tokens": 0,
        "output_tokens": 0,
        "retries": 2,
        "reasks": 0,
        "failures": 1,
    }


def test_backoff_respects_cap(gw_factory):
    delays = []
    gw = gw_factory(
        provider=FlakyProvider(failures=99),
        sleep=delays.append,
        max_attempts=6,
        backoff_base=1.0,
        backoff_cap=2.0,
    )
    with pytest.raises(TransportError):
        gw.complete(make_req())
    assert len(delays) == 5
    assert all(d <= 2.0 for d in delays)
    assert 0.5 <= delays[0] <= 1.0


def test_permanent_error_never_retries(gw_factory):
    class Refuser:
        calls = 0

        def send(self, req):
            Refuser.calls += 1
            raise PermanentProviderError("401 unauthorized")

    gw = gw_factory(provider=Refuser())
    with pytest.raises(PermanentProviderError):
        gw.complete(make_req())
    assert Refuser.calls == 1
    totals = gw.ledger.snapshot()["totals"]
    assert totals["requests"] == 1 and totals["failures"] == 1 and totals["retries"] == 0


def test_ledger_conservation_mixed_outcomes(gw_factory):
    script = MockScript()
    script.set_default(StageTag.FILTER, "ok")
    provider = MockProvider(script)
    gw = gw_factory(provider=provider)
    for i in range(4):
        gw.complete(make_req(user=f"u{i}"))
    with pytest.raises(PermanentProviderError):
        gw.complete(make_req(stage=StageTag.VERIFY))  # no default for verify
    totals = gw.ledger.snapshot()["totals"]
    assert totals["requests"] == 5
    assert totals["failures"] == 1
    assert totals["requests"] == 4 + totals["failures"]


def test_snapshot_pricing_estimate(gw_factory):
    provider = SequenceProvider(["one two three four"])
    gw = gw_factory(provider=provider)
    gw.complete(make_req())
    snap = gw.ledger.snapshot(pricing={"m1": {"input_per_1m": 2.0, "output_per_1m": 8.0}})
    expected = 3 * 2.0 / 1e6 + 4 * 8.0 / 1e6
    assert snap["totals"]["estimated_cost_usd"] == pytest.approx(expected)
    assert snap["models"]["m1"]["filter"]["requests"] == 1


# ---------------------------------------------------------------- concurrency


def test_in_flight_never_exceeds_cap(gw_factory):
    class GaugeProvider:
        def __init__(self):
            self._lock = threading.Lock()
            self.in_flight = 0
            self.peak = 0
            self.entered = threading.Semaphore(0)

        def send(self, req):
            with self._lock:
                self.in_flight += 1
                self.peak = max(self.peak, self.in_flight)
            self.entered.release()
            threading.Event().wait(0.01)
            with self._lock:
                self.in_flight -= 1
            return ChatResponse(text="ok")

    for cap in (1, 4):
        provider = GaugeProvider()
        gw = gw_factory(provider=provider, concurrency=cap)
        with ThreadPoolExecutor(max_workers=16) as pool:
            list(pool.map(lambda i: gw.complete(make_req(user=f"u{i}")), range(32)))
        assert provider.peak <= cap
        assert provider.peak >= 1


def test_token_bucket_burst_then_steady():
    clock = FakeClock()
    bucket = TokenBucket(capacity=3, refill_per_s=2.0, clock=clock, sleep=clock.sleep)
    for _ in range(3):
        bucket.acquire()
    assert clock.t == 0.0  # burst capacity admits instantly
    for _ in range(4):
        bucket.acquire()
    assert clock.t == pytest.approx(4 / 2.0)


def test_token_bucket_rejects_bad_parameters():
    with pytest.raises(ValueError):
        TokenBucket(capacity=0, refill_per_s=1.0)
    with pytest.raises(ValueError):
        TokenBucket(capacity=5, refill_per_s=0.0)


@settings(max_examples=30, deadline=None)
@given(
    capacity=st.integers(min_value=1, max_value=10),
    refill=st.floats(min_value=0.1, max_value=20.0, allow_nan=False),
    n=st.integers(min_value=1, max_value=60),
)
def test_token_bucket_admission_bound(capacity, refill, n):
    """Admissions over any window never exceed capacity + refill * elapsed."""
    clock = FakeClock()
    bucket = TokenBucket(capacity=capacity, refill_per_s=refill, clock=clock, sleep=clock.sleep)
    admitted_at = []
    for _ in range(n):
        bucket.acquire()
        admitted_at.append(clock.t)
    for i, stamp in enumerate(admitted_at):
        count = i + 1
        assert count <= capacity + refill * stamp + 1e-6


# ---------------------------------------------------------------- parsing


def test_parse_tagged_block_basic():
    out = parse_tagged_block("QUESTION: what\nANSWER: that", ["QUESTION", "ANSWER"])
    assert out == {"QUESTION": "what", "ANSWER": "that"}


def test_parse_tagged_block_multiline_value():
    text = "RATIONALE: first line\ncontinues here\nCORRECT: yes"
    out = parse_tagged_block(text, ["RATIONALE", "CORRECT"])
    assert out["RATIONALE"] == "first line\ncontinues here"
    assert out["CORRECT"] == "yes"


def test_parse_tagged_block_bold_wrapped():
    out = parse_tagged_block("**ANSWER**: 42", ["ANSWER"])
    assert out == {"ANSWER": "42"}


def test_parse_tagged_block_ignores_preamble_and_extras():
    text = "Sure, here you go:\nQUESTION: q\nNOTES: ignored\nANSWER: a"
    out = parse_tagged_block(text, ["QUESTION", "ANSWER"])
    assert out == {"QUESTION": "q", "ANSWER": "a"}


@pytest.mark.parametrize("text", ["no tags at all", "ANSWER:", "ANSWER:   \n", "OTHER: x"])
def test_parse_tagged_block_missing_or_empty_raises(text):
    with pytest.raises(StructuredParseError):
        parse_tagged_block(text, ["ANSWER"])


@pytest.mark.parametrize(
    "value,expected",
    [
        ("yes", True),
        ("Yes.", True),
        ("  Y", True),
        ("true", True),
        ("no", False),
        ("No, it is not.", False),
        ("false", False),
        ("maybe", None),
        ("", None),
    ],
)
def test_parse_yes_no(value, expected):
    assert parse_yes_no(value) is expected


# ---------------------------------------------------------------- re-asks


def test_structured_parses_first_try(gw_factory):
    provider = SequenceProvider(["ANSWER: direct"])
    gw = gw_factory(provider=provider)
    out = gw.complete_structured(make_req(), ["ANSWER"])
    assert out == {"ANSWER": "direct"}
    assert len(provider.requests) == 1
    assert gw.reasks == 0


def test_structured_reask_recovers(gw_factory):
    provider = SequenceProvider(["gibberish with no tags", "ANSWER: second time"])
    gw = gw_factory(provider=provider, max_reasks=2)
    out = gw.complete_structured(make_req(), ["ANSWER"])
    assert out == {"ANSWER": "second time"}
    assert gw.reasks == 1
    assert len(provider.requests) == 2
    first, second = provider.requests
    assert run_fingerprint(first) != run_fingerprint(second)
    assert "could not be parsed" in second.user
    assert second.user.startswith(first.user)
    # Each re-ask is its own ledger row.
    assert gw.ledger.snapshot()["totals"]["requests"] == 2


def test_structured_gives_up_after_budget(gw_factory):
    provider = SequenceProvider(["junk"])
    gw = gw_factory(provider=provider, max_reasks=2)
    with pytest.raises(StructuredParseError):
        gw.complete_structured(make_req(), ["ANSWER"])
    assert len(provider.requests) == 3
    assert gw.reasks == 2


@pytest.mark.parametrize("bound", [{"concurrency": 0}, {"max_attempts": 0}, {"max_reasks": -1}])
def test_gateway_rejects_out_of_range_bounds(bound):
    provider = SequenceProvider(["ANSWER: fine"])
    with pytest.raises(ValueError):
        Gateway(provider, **bound)
    assert provider.requests == []


def test_structured_zero_reask_budget(gw_factory):
    provider = SequenceProvider(["junk", "ANSWER: never seen"])
    gw = gw_factory(provider=provider, max_reasks=0)
    with pytest.raises(StructuredParseError):
        gw.complete_structured(make_req(), ["ANSWER"])
    assert len(provider.requests) == 1


def test_reask_changes_only_the_user_text():
    req = make_req(user="hello", temperature=0.7)
    again = reask(req, " -- note")
    assert again.user == "hello -- note"
    assert (again.model, again.system, again.stage_tag, again.max_output_tokens,
            again.temperature) == (req.model, req.system, req.stage_tag,
                                   req.max_output_tokens, req.temperature)
    assert req.user == "hello"


def test_reask_count_is_exact_under_threads(gw_factory):
    class ReaskTwiceProvider:
        """Unparseable, then (after the parse re-ask) too long, then (after the length re-ask) ok."""

        def send(self, req):
            if "too long" in req.user:
                return ChatResponse(text="ANSWER: ok")
            if "could not be parsed" in req.user:
                return ChatResponse(text="ANSWER: far too long")
            return ChatResponse(text="junk")

    def check(fields):
        return " -- too long" if len(fields["ANSWER"]) > 5 else None

    n = 400
    gw = gw_factory(provider=ReaskTwiceProvider(), concurrency=32)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=32) as pool:
            futures = [pool.submit(gw.complete_structured, make_req(user=f"u{i}"), ["ANSWER"],
                                   check) for i in range(n)]
            assert all(f.result(timeout=60) == {"ANSWER": "ok"} for f in futures)
    finally:
        sys.setswitchinterval(interval)
    assert gw.reasks == 2 * n
    assert gw.ledger.snapshot()["totals"]["requests"] == 3 * n


def test_check_reasks_the_original_request_once(gw_factory):
    provider = SequenceProvider(["junk", "ANSWER: too long", "junk", "ANSWER: still too long"])
    gw = gw_factory(provider=provider, max_reasks=1)
    notes = []

    def check(fields):
        notes.append(fields["ANSWER"])
        return " -- shorter"

    assert gw.complete_structured(make_req(), ["ANSWER"], check) == {"ANSWER": "still too long"}
    # The check runs once, on the first parsed reply; the re-ask's reply is the caller's to judge.
    assert notes == ["too long"]
    first, parse_reask, check_reask, nested = provider.requests
    assert check_reask.user == first.user + " -- shorter"
    assert nested.user.startswith(check_reask.user) and "could not be parsed" in nested.user
    assert parse_reask.user.startswith(first.user) and "could not be parsed" in parse_reask.user
    assert gw.reasks == 3


# ---------------------------------------------------------------- http client


class FakeHTTPResponse:
    """A requests.Response stand-in: content holds body as JSON, or text's bytes if body is None."""

    def __init__(self, status_code, body=None, text=""):
        self.status_code = status_code
        self.content = (text if body is None else json.dumps(body)).encode("utf-8")
        self.text = text


def test_http_provider_success(monkeypatch):
    from qaforge.gateway import HTTPProvider

    def fake_post(url, json=None, headers=None, timeout=None):
        assert url.endswith("/chat/completions")
        assert headers["Authorization"] == "Bearer sk-test"
        assert json["messages"][1]["content"] == "hello"
        return FakeHTTPResponse(
            200,
            body={
                "choices": [{"message": {"content": "hi there"}}],
                "usage": {"prompt_tokens": 11, "completion_tokens": 7},
            },
        )

    monkeypatch.setenv("OPENAI_API_KEY", "sk-test")
    monkeypatch.setattr("requests.post", fake_post)
    resp = HTTPProvider("http://llm.internal/v1").send(make_req())
    assert resp.text == "hi there"
    assert (resp.input_tokens, resp.output_tokens) == (11, 7)


@pytest.mark.parametrize("status,exc", [(429, TransientProviderError), (503, TransientProviderError),
                                        (408, TransientProviderError), (400, PermanentProviderError),
                                        (404, PermanentProviderError)])
def test_http_provider_status_classification(monkeypatch, status, exc):
    from qaforge.gateway import HTTPProvider

    monkeypatch.setenv("OPENAI_API_KEY", "sk-test")
    monkeypatch.setattr(
        "requests.post", lambda *a, **k: FakeHTTPResponse(status, text="err")
    )
    with pytest.raises(exc):
        HTTPProvider("http://llm.internal/v1").send(make_req())


@pytest.mark.parametrize("status,item_scoped", [(400, True), (413, True), (422, True),
                                                (401, False), (403, False), (404, False)])
def test_http_provider_rejection_scope(monkeypatch, status, item_scoped):
    from qaforge.gateway import HTTPProvider

    monkeypatch.setenv("OPENAI_API_KEY", "sk-test")
    monkeypatch.setattr(
        "requests.post", lambda *a, **k: FakeHTTPResponse(status, text="err")
    )
    with pytest.raises(PermanentProviderError) as info:
        HTTPProvider("http://llm.internal/v1").send(make_req())
    assert isinstance(info.value, RequestRejectedError) is item_scoped


def test_http_provider_requires_key(monkeypatch):
    from qaforge.gateway import HTTPProvider

    monkeypatch.delenv("OPENAI_API_KEY", raising=False)
    with pytest.raises(PermanentProviderError):
        HTTPProvider("http://llm.internal/v1").send(make_req())


def test_http_provider_connection_error_is_transient(monkeypatch):
    import requests as requests_lib

    from qaforge.gateway import HTTPProvider

    def boom(*a, **k):
        raise requests_lib.ConnectionError("refused")

    monkeypatch.setenv("OPENAI_API_KEY", "sk-test")
    monkeypatch.setattr("requests.post", boom)
    with pytest.raises(TransientProviderError):
        HTTPProvider("http://llm.internal/v1").send(make_req())


def send_body(content):
    """HTTPProvider.send's result for an HTTP 200 reply whose body is content."""
    from qaforge.gateway import HTTPProvider

    reply = FakeHTTPResponse(200)
    reply.content = content
    with mock.patch("requests.post", lambda *a, **k: reply), \
            mock.patch.dict(os.environ, {"OPENAI_API_KEY": "sk-test"}):
        return HTTPProvider("http://llm.internal/v1").send(make_req())


REPLY = {"choices": [{"message": {"content": "ANSWER: 4"}}],
         "usage": {"prompt_tokens": 11, "completion_tokens": 7}}


@pytest.mark.parametrize("body, want", [
    (REPLY, ("ANSWER: 4", 11, 7)),
    ({**REPLY, "choices": [{"message": {"content": None}}]}, ("", 11, 7)),
    ({**REPLY, "choices": [{"message": {"tool_calls": []}}]}, ("", 11, 7)),
    ({**REPLY, "usage": None}, ("ANSWER: 4", 0, 0)),
    ({**REPLY, "usage": {"prompt_tokens": "many", "completion_tokens": 7.0}}, ("ANSWER: 4", 0, 0)),
    ([REPLY], TransientProviderError),
    ({"usage": REPLY["usage"]}, TransientProviderError),
    ({"choices": []}, TransientProviderError),
    ({"choices": ["ANSWER: 4"]}, TransientProviderError),
    ({"choices": [{"message": "ANSWER: 4"}]}, TransientProviderError),
])
def test_http_provider_maps_each_reply_body_to_one_outcome(body, want):
    content = json.dumps(body).encode("utf-8")
    if isinstance(want, tuple):
        resp = send_body(content)
        assert (resp.text, resp.input_tokens, resp.output_tokens) == want
    else:
        with pytest.raises(want):
            send_body(content)


def test_http_provider_reply_without_content_is_a_parse_failure():
    from qaforge.gateway import HTTPProvider

    reply = FakeHTTPResponse(200, body={"choices": [{"message": {"content": None}}]})
    gw = Gateway(HTTPProvider("http://llm.internal/v1"), max_reasks=2, sleep=lambda s: None)
    with mock.patch("requests.post", lambda *a, **k: reply), \
            mock.patch.dict(os.environ, {"OPENAI_API_KEY": "sk-test"}):
        with pytest.raises(StructuredParseError):
            gw.complete_structured(make_req(), ["ANSWER"])
    assert gw.ledger.snapshot()["totals"]["requests"] == 3


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=8), inner,
                                                                max_size=3),
    max_leaves=8,
)


def maybe(shape):
    return shape | json_values


# Bodies shaped like a reply at every level, with arbitrary JSON anywhere in them.
reply_like = st.fixed_dictionaries({}, optional={
    "choices": maybe(st.lists(maybe(st.fixed_dictionaries({}, optional={
        "message": maybe(st.fixed_dictionaries({}, optional={"content": json_values})),
    })), max_size=2)),
    "usage": maybe(st.fixed_dictionaries({}, optional={
        "prompt_tokens": json_values, "completion_tokens": json_values,
    })),
})


@settings(max_examples=300, deadline=None)
@given(st.one_of((json_values | reply_like).map(lambda body: json.dumps(body).encode("utf-8")),
                 st.binary(max_size=32)))
def test_http_provider_send_returns_a_reply_or_raises_a_gateway_error(content):
    try:
        resp = send_body(content)
    except GatewayError:
        return
    assert isinstance(resp.text, str)
    assert type(resp.input_tokens) is int and type(resp.output_tokens) is int
