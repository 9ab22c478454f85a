import json
import threading

import pytest
from hypothesis import strategies as st

from qaforge.gateway import ChatResponse, Gateway, MockProvider, MockScript


class SequenceProvider:
    """Returns canned texts in order, recording every request it sees."""

    def __init__(self, texts):
        self.texts = list(texts)
        self.requests = []
        self._lock = threading.Lock()

    def send(self, req):
        with self._lock:
            self.requests.append(req)
            idx = min(len(self.requests) - 1, len(self.texts) - 1)
        text = self.texts[idx]
        return ChatResponse(text=text, input_tokens=3, output_tokens=len(text.split()))


# Text where the ASCII fast paths and str.isalnum() could disagree: ASCII mixed
# with non-ASCII letters and digits, U+212A KELVIN SIGN (lowers to ASCII "k"),
# U+0130 (lowers to two code points), "_" and lone surrogates.
_TRICKY_CHARS = "_ \t\n\u212a\u0130\u00df\u00e9\u0345\ufb01\u0660\u00b2\u2167\u00a0\ud800\udfff"
tricky_text = st.one_of(
    st.text(st.characters(max_codepoint=127)),
    st.text(st.one_of(st.characters(max_codepoint=127), st.sampled_from(_TRICKY_CHARS),
                      st.characters())),
)


def write_jsonl(path, rows):
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row, ensure_ascii=False) + "\n")


def read_jsonl(path):
    out = []
    with open(path, "r", encoding="utf-8") as fh:
        for raw in fh:
            if raw.strip():
                out.append(json.loads(raw))
    return out


def stage_requests(gateway, stage):
    """Requests the gateway's CostLedger counted for one stage, over every model."""
    models = gateway.ledger.snapshot()["models"]
    return sum(stages.get(stage.value, {}).get("requests", 0) for stages in models.values())


# The build child caches eval indexes under $XDG_CACHE_HOME, so no test reads or
# writes the user's ~/.cache. Module-scoped fixtures are set up before a test's
# own empty cache exists, and share one for the session.
@pytest.fixture(scope="session", autouse=True)
def fixtures_index_cache(tmp_path_factory):
    with pytest.MonkeyPatch.context() as env:
        env.setenv("XDG_CACHE_HOME", str(tmp_path_factory.mktemp("xdg-fixtures")))
        yield


@pytest.fixture(autouse=True)
def own_index_cache(tmp_path_factory, monkeypatch):
    """An empty eval-index cache per test."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path_factory.mktemp("xdg")))


@pytest.fixture
def gw_factory():
    """Build a mock-backed gateway whose backoff sleeps are no-ops."""

    def build(script=None, provider=None, **kwargs):
        kwargs.setdefault("sleep", lambda s: None)
        if provider is None:
            provider = MockProvider(script if script is not None else MockScript())
        return Gateway(provider, **kwargs)

    return build
