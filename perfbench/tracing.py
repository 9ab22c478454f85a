"""Spans around calls into qaforge's public functions, and per-layer metrics.

The tracer replaces a public name with a wrapper that records one span per
call: name, start, end, parent span, the document being processed on that
thread, and a few facts about the call. Spans are kept in memory and written
out at the end. A layer's self time is its span's duration minus the part of
that interval its child spans cover.

Nothing inside qaforge is edited: a function is wrapped in every loaded
qaforge module that holds it, a method on its class. A name that no longer
exists is recorded as missing, and the metrics that need it are left out.
"""

from __future__ import annotations

import itertools
import json
import math
import sys
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Optional

Info = Callable[[tuple, dict, Any], dict]


@dataclass
class Span:
    sid: int
    name: str
    start: float
    end: float
    parent: int
    doc: str
    error: str
    info: Optional[dict]

    @property
    def dur(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.clock = time.perf_counter
        self.spans: list[Span] = []
        self.missing: list[str] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._undo: list[tuple[Any, str, Any]] = []
        self.root = 0

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def set_doc(self, doc_id: str) -> None:
        self._local.doc = doc_id

    def _record(self, sid, name, t0, t1, parent, error, info) -> None:
        # list.append is atomic under the interpreter lock; no lock needed.
        self.spans.append(Span(sid, name, t0, t1, parent,
                               getattr(self._local, "doc", ""), error, info))

    def begin_root(self, name: str) -> None:
        self.root = next(self._ids)
        self._root_name = name
        self._root_t0 = self.clock()

    def end_root(self) -> None:
        self._record(self.root, self._root_name, self._root_t0, self.clock(), 0, "", None)

    def wrapped(self, fn: Callable, name: str, info: Optional[Info] = None,
                before: Optional[Callable[[tuple], None]] = None) -> Callable:
        tracer = self

        def wrapper(*args, **kwargs):
            if before is not None:
                before(args)
            stack = tracer._stack()
            parent = stack[-1] if stack else tracer.root
            sid = next(tracer._ids)
            stack.append(sid)
            error = ""
            result = None
            t0 = tracer.clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                t1 = tracer.clock()
                stack.pop()
                extra = info(args, kwargs, result) if info is not None and not error else None
                tracer._record(sid, name, t0, t1, parent, error, extra)

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def wrapped_iter(self, fn: Callable, name: str) -> Callable:
        """Wrap a generator function: one span per next() on what it returns."""
        tracer = self

        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)

            def gen():
                while True:
                    parent = tracer.root
                    sid = next(tracer._ids)
                    t0 = tracer.clock()
                    try:
                        item = next(it)
                    except StopIteration:
                        tracer._record(sid, name, t0, tracer.clock(), parent, "", {"yielded": 0})
                        return
                    tracer._record(sid, name, t0, tracer.clock(), parent, "", {"yielded": 1})
                    yield item

            return gen()

        wrapper.__wrapped__ = fn
        return wrapper

    def _patch(self, owner: Any, attr: str, new: Any) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def wrap_function(self, module: str, attr: str, name: str, info: Optional[Info] = None,
                      before: Optional[Callable[[tuple], None]] = None,
                      iterator: bool = False) -> None:
        """Wrap module.attr wherever a loaded qaforge module holds that same function."""
        orig = getattr(sys.modules.get(module), attr, None)
        if orig is None:
            self.missing.append(name)
            return
        new = self.wrapped_iter(orig, name) if iterator else self.wrapped(orig, name, info, before)
        for modname, mod in list(sys.modules.items()):
            if (modname == "qaforge" or modname.startswith("qaforge.")) \
                    and getattr(mod, attr, None) is orig:
                self._patch(mod, attr, new)

    def wrap_method(self, module: str, cls: str, attr: str, name: str,
                    info: Optional[Info] = None) -> None:
        klass = getattr(sys.modules.get(module), cls, None)
        if klass is None or attr not in vars(klass):
            self.missing.append(name)
            return
        self._patch(klass, attr, self.wrapped(vars(klass)[attr], name, info))

    def restore(self) -> None:
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in sorted(self.spans, key=lambda s: s.start):
                fh.write(json.dumps({"id": s.sid, "name": s.name, "start": s.start,
                                     "end": s.end, "parent": s.parent, "doc": s.doc,
                                     "error": s.error, "info": s.info}) + "\n")


# --- span arithmetic ----------------------------------------------------------

def percentile(values: Iterable[float], q: float) -> float:
    """Nearest-rank percentile; 0.0 for no values."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of [lo, hi] covered by the union of intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


class SpanIndex:
    def __init__(self, spans: list[Span]):
        self.spans = spans
        self.by_name: dict[str, list[Span]] = {}
        self.children: dict[int, list[Span]] = {}
        for s in spans:
            self.by_name.setdefault(s.name, []).append(s)
            self.children.setdefault(s.parent, []).append(s)

    def named(self, name: str) -> list[Span]:
        return self.by_name.get(name, [])

    def self_time(self, span: Span) -> float:
        kids = self.children.get(span.sid, [])
        return span.dur - covered([(k.start, k.end) for k in kids], span.start, span.end)

    def total_self(self, name: str) -> float:
        return sum(self.self_time(s) for s in self.named(name))

    def child_count(self, name: str, child: str) -> int:
        return sum(1 for s in self.named(name)
                   for k in self.children.get(s.sid, []) if k.name == child)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def install_pipeline_wrappers(tracer: Tracer) -> None:
    """Wrap every public name the pipeline calls."""
    tracer.wrap_function("qaforge.ingest", "dedup", "ingest.next", iterator=True)
    tracer.wrap_function(
        "qaforge.filtering", "heuristic_filter", "heuristic_filter",
        info=lambda a, k, r: {"lines": a[0].text.count("\n") + 1},
        before=lambda a: tracer.set_doc(a[0].doc_id))
    tracer.wrap_function("qaforge.filtering", "llm_filter", "llm_filter")
    tracer.wrap_function("qaforge.classify", "classify_and_assign", "classify_and_assign")
    tracer.wrap_function("qaforge.generate", "generate_qa", "generate_qa")
    tracer.wrap_function("qaforge.verify", "verify_qa", "verify_qa",
                         info=lambda a, k, r: {"passed": bool(r.passed)})
    tracer.wrap_function("qaforge.decontam", "is_contaminated", "is_contaminated")
    tracer.wrap_function("qaforge.decontam", "build_index_from_dir", "build_index_from_dir",
                         info=lambda a, k, r: {"grams": len(r.grams)})
    tracer.wrap_method("qaforge.ledger", "RunLedger", "__init__", "RunLedger.__init__")
    tracer.wrap_method(
        "qaforge.ledger", "RunLedger", "log", "RunLedger.log",
        info=lambda a, k, r: {"stage": a[1], "outcome": a[3] if len(a) > 3 else k.get("outcome"),
                              "appended": bool(r)})
    tracer.wrap_method("qaforge.gateway", "Gateway", "complete", "Gateway.complete")


# Metric-name prefix -> span names it is computed from; the metrics of a
# missing name are left out of the result.
_NEEDS = {
    "ingest.": ("ingest.next", "RunLedger.log"),
    "filtering.heuristic.": ("heuristic_filter",),
    "filtering.llm.": ("llm_filter", "Gateway.complete"),
    "classify.": ("classify_and_assign", "Gateway.complete"),
    "generate.": ("generate_qa", "Gateway.complete"),
    "verify.": ("verify_qa", "Gateway.complete"),
    "gateway.": ("Gateway.complete",),
    "decontam.index": ("build_index_from_dir",),
    "decontam.screen": ("is_contaminated",),
    "ledger.append": ("RunLedger.log",),
    "ledger.load": ("RunLedger.__init__",),
    "reward.score": ("RewardVerifier.score",),
    "reward.extract": ("extract_final_answer",),
}


def drop_missing(metrics: dict[str, float], missing: list[str]) -> dict[str, float]:
    gone = set(missing)
    out = {}
    for name, value in metrics.items():
        needs = next((v for p, v in _NEEDS.items() if name.startswith(p)), ())
        if not gone.intersection(needs):
            out[name] = value
    return out


def pipeline_layer_metrics(tracer: Tracer, gateway: Any) -> dict[str, float]:
    """Per-layer metrics of one traced pipeline run (not resume)."""
    ix = SpanIndex(tracer.spans)
    root = next(s for s in tracer.spans if s.sid == tracer.root)
    m: dict[str, float] = {}

    nexts = ix.named("ingest.next")
    logs = ix.named("RunLedger.log")
    m["ingest.docs"] = sum(s.info["yielded"] for s in nexts)
    m["ingest.drops"] = sum(1 for s in logs if s.info and s.info["stage"] == "ingest"
                            and s.info["outcome"] == "drop" and s.info["appended"])
    m["ingest.busy_s"] = sum(s.dur for s in nexts)
    m["ingest.docs_per_s"] = _ratio(m["ingest.docs"], m["ingest.busy_s"])

    heur = ix.named("heuristic_filter")
    m["filtering.heuristic.calls"] = len(heur)
    m["filtering.heuristic.busy_s"] = sum(s.dur for s in heur)
    m["filtering.heuristic.p99_us"] = percentile((s.dur for s in heur), 0.99) * 1e6
    # Per-line cost on the longest document: where an O(lines^2) check shows.
    longest = max((s for s in heur if s.info), key=lambda s: s.info["lines"], default=None)
    m["filtering.heuristic.worst_us_per_line"] = (
        longest.dur / longest.info["lines"] * 1e6 if longest else 0.0)
    m["filtering.llm.calls"] = len(ix.named("llm_filter"))
    m["filtering.llm.self_s"] = ix.total_self("llm_filter")

    for layer, name in (("classify", "classify_and_assign"), ("generate", "generate_qa"),
                        ("verify", "verify_qa")):
        spans = ix.named(name)
        m[f"{layer}.calls"] = len(spans)
        m[f"{layer}.self_s"] = ix.total_self(name)
        m[f"{layer}.drops"] = sum(1 for s in spans if s.error)
    m["generate.gateway_calls_per_candidate"] = _ratio(
        ix.child_count("generate_qa", "Gateway.complete"), m["generate.calls"])
    m["verify.pass_ratio"] = _ratio(
        sum(1 for s in ix.named("verify_qa") if s.info and s.info["passed"]), m["verify.calls"])

    completes = ix.named("Gateway.complete")
    sends = ix.named("provider.send")
    totals = gateway.ledger.snapshot()["totals"]
    waits = []
    for c in completes:
        first = min((k.start for k in ix.children.get(c.sid, []) if k.name == "provider.send"),
                    default=None)
        if first is not None:
            waits.append(first - c.start)
    m["gateway.requests"] = len(completes)
    m["gateway.retries"] = totals.get("retries", 0)
    m["gateway.reasks"] = getattr(gateway, "reasks", 0)
    m["gateway.failures"] = totals.get("failures", 0)
    m["gateway.self_s"] = ix.total_self("Gateway.complete")
    m["gateway.provider_s"] = sum(s.dur for s in sends)
    m["gateway.admission_wait_p50_ms"] = percentile(waits, 0.50) * 1e3
    m["gateway.admission_wait_p99_ms"] = percentile(waits, 0.99) * 1e3
    m["gateway.inflight_mean"] = _ratio(m["gateway.provider_s"], root.dur)

    builds = ix.named("build_index_from_dir")
    m["decontam.index_build_s"] = sum(s.dur for s in builds)
    m["decontam.index_grams"] = sum(s.info["grams"] for s in builds if s.info)
    m["decontam.index_grams_per_s"] = _ratio(m["decontam.index_grams"], m["decontam.index_build_s"])
    screens = ix.named("is_contaminated")
    m["decontam.screen_calls"] = len(screens)
    m["decontam.screen_p99_us"] = percentile((s.dur for s in screens), 0.99) * 1e6

    appends = [s for s in logs if s.info and s.info["appended"]]
    m["ledger.appends"] = len(appends)
    m["ledger.append_p50_us"] = percentile((s.dur for s in appends), 0.50) * 1e6
    m["ledger.append_p99_us"] = percentile((s.dur for s in appends), 0.99) * 1e6

    m["pipeline.self_s"] = ix.self_time(root)
    return m
