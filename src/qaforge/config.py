"""Declarative run configuration.

A run is described by one YAML (or JSON) document with sections run, sources,
gateway, filter, classify, generate, verify, decontaminate, and reward. Every
field has a default except sources. Unknown keys are fatal: silently ignoring
a typo like "anwser_max_chars" would change run behavior invisibly.

Default model bindings route the judgment-light stages (classify, verify,
judge) to a cheaper model and the judgment-heavy stages (filter, generate,
distill) to a stronger one; all of them are plain config values.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass, field
from typing import Any, Optional

from .errors import ConfigError
from .types import SourceSpec


@dataclass
class RunSettings:
    seed: int = 0
    out: str = "records.jsonl"
    run_dir: str = "run"


@dataclass
class GatewayConfig:
    mock_script: Optional[str] = None  # path; None means live HTTP provider
    base_url: str = "https://api.openai.com/v1"
    api_key_env: str = "OPENAI_API_KEY"
    concurrency: int = 4  # document threads and in-flight requests
    rate_capacity: float = 0.0  # both 0 disables rate limiting
    rate_refill_per_s: float = 0.0
    max_attempts: int = 5
    backoff_base: float = 1.0
    backoff_cap: float = 60.0
    max_reasks: int = 2
    # {model: {"input_per_1m": USD, "output_per_1m": USD}}; a missing price is 0.
    pricing: dict[str, dict[str, float]] = field(default_factory=dict)


@dataclass
class FilterConfig:
    model: str = "gpt-4.1"
    temperature: float = 0.0
    max_output_tokens: int = 256
    min_chars: int = 200
    max_chars: int = 50000
    min_alpha: float = 0.5
    max_boilerplate: float = 0.3


@dataclass
class ClassifyConfig:
    model: str = "gpt-4.1-mini"
    temperature: float = 0.0
    max_output_tokens: int = 256
    max_personas: int = 3


@dataclass
class GenerateConfig:
    model: str = "gpt-4.1"
    temperature: float = 0.7
    max_output_tokens: int = 1024
    k_shots: int = 3
    answer_max_chars: int = 160
    demo_path: Optional[str] = None  # None loads the packaged library
    sft_distill: bool = False
    distill_model: str = "gpt-4.1"
    distill_temperature: float = 0.7
    excerpt_chars: int = 2000


@dataclass
class VerifyConfig:
    model: str = "gpt-4.1-mini"
    temperature: float = 0.0
    max_output_tokens: int = 512


@dataclass
class DecontamConfig:
    eval_dir: Optional[str] = None  # None means nothing to decontaminate against
    ngram: int = 13


@dataclass
class RewardConfig:
    judge: bool = False
    judge_model: str = "gpt-4.1-mini"
    judge_temperature: float = 0.0
    marker_prefixes: list[str] = field(default_factory=lambda: ["final answer:", "answer:"])
    use_boxed: bool = True


@dataclass
class PipelineConfig:
    sources: list[SourceSpec] = field(default_factory=list)
    run: RunSettings = field(default_factory=RunSettings)
    gateway: GatewayConfig = field(default_factory=GatewayConfig)
    filter: FilterConfig = field(default_factory=FilterConfig)
    classify: ClassifyConfig = field(default_factory=ClassifyConfig)
    generate: GenerateConfig = field(default_factory=GenerateConfig)
    verify: VerifyConfig = field(default_factory=VerifyConfig)
    decontaminate: DecontamConfig = field(default_factory=DecontamConfig)
    reward: RewardConfig = field(default_factory=RewardConfig)


def _fits(annotation: str, value: Any) -> bool:
    """Whether value fits a field's annotation; a bool is never a number."""
    if annotation.startswith("Optional["):
        return value is None or _fits(annotation[len("Optional["):-1], value)
    if annotation == "list[str]":
        return isinstance(value, list) and all(isinstance(v, str) for v in value)
    if annotation == "dict[str, dict[str, float]]":  # gateway.pricing
        return isinstance(value, dict) and all(
            isinstance(model, str) and isinstance(price, dict)
            and set(price) <= {"input_per_1m", "output_per_1m"}
            and all(_fits("float", v) for v in price.values())
            for model, price in value.items())
    kinds = {"int": int, "float": (int, float), "bool": bool, "str": str}.get(annotation)
    return kinds is None or (isinstance(value, kinds)
                             and isinstance(value, bool) == (annotation == "bool"))


def _build(cls, data: Any, where: str):
    if data is None:
        data = {}
    if not isinstance(data, dict):
        raise ConfigError(f"{where}: expected a mapping, got {type(data).__name__}")
    names = {f.name for f in dataclasses.fields(cls)}
    unknown = sorted(set(data) - names)
    if unknown:
        raise ConfigError(f"{where}: unknown keys {unknown}")
    missing = [f.name for f in dataclasses.fields(cls) if f.name not in data
               and f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING]
    if missing:
        raise ConfigError(f"{where}: missing required keys {missing}")
    for f in dataclasses.fields(cls):
        if f.name in data and not _fits(f.type, data[f.name]):
            raise ConfigError(f"{where}.{f.name} must be {f.type}, got {data[f.name]!r}")
    return cls(**data)


# Every section but sources, each built from its own mapping.
_SECTIONS = {f.name: f.default_factory for f in dataclasses.fields(PipelineConfig)
             if f.name != "sources"}


def _fields_ending(cfg: PipelineConfig, suffix: str) -> list[tuple[str, Any]]:
    """("<section>.<field>", value) of every section field whose name ends with suffix."""
    return [(f"{name}.{f.name}", getattr(getattr(cfg, name), f.name))
            for name in _SECTIONS for f in dataclasses.fields(_SECTIONS[name])
            if f.name.endswith(suffix)]


def config_from_dict(data: dict[str, Any]) -> PipelineConfig:
    if not isinstance(data, dict):
        raise ConfigError("config root must be a mapping")
    unknown = sorted(set(data) - set(_SECTIONS) - {"sources"})
    if unknown:
        raise ConfigError(f"unknown config sections {unknown}")
    sources = [
        _build(SourceSpec, entry, f"sources[{i}]")
        for i, entry in enumerate(data.get("sources") or [])
    ]
    kwargs = {"sources": sources}
    for name, cls in _SECTIONS.items():
        kwargs[name] = _build(cls, data.get(name), name)
    cfg = PipelineConfig(**kwargs)
    names = [s.source for s in sources]
    dupes = sorted({n for n in names if names.count(n) > 1})
    gw = cfg.gateway
    rate = (gw.rate_capacity, gw.rate_refill_per_s)
    prices = [v for price in gw.pricing.values() for v in price.values()]
    fc, gc = cfg.filter, cfg.generate
    # Written as "ok" conditions, so a NaN fails them.
    checks = [
        (not dupes, f"duplicate source names: {dupes}"),
        (all(s.quota is None or s.quota >= 0 for s in sources), "sources[].quota must be >= 0"),
        (gw.concurrency >= 1, "gateway.concurrency must be >= 1"),
        (gw.max_attempts >= 1, "gateway.max_attempts must be >= 1"),
        (gw.max_reasks >= 0, "gateway.max_reasks must be >= 0"),
        (gw.backoff_base >= 0 and gw.backoff_cap >= 0,
         "gateway.backoff_base and gateway.backoff_cap must be >= 0"),
        (rate == (0, 0) or (rate[0] >= 1 and rate[1] > 0),
         "gateway.rate_capacity must be >= 1 with rate_refill_per_s > 0, or both 0 (off)"),
        (all(0 <= v < math.inf for v in prices), "gateway.pricing prices must be finite and >= 0"),
        (cfg.classify.max_personas >= 1, "classify.max_personas must be >= 1"),
        (cfg.generate.answer_max_chars >= 1, "generate.answer_max_chars must be >= 1"),
        (cfg.decontaminate.ngram >= 1, "decontaminate.ngram must be >= 1"),
        *((0 <= v < math.inf, f"{key} must be finite and >= 0")
          for key, v in _fields_ending(cfg, "temperature")),
        *((v >= 1, f"{key} must be >= 1") for key, v in _fields_ending(cfg, "max_output_tokens")),
        (fc.max_chars >= 1, "filter.max_chars must be >= 1"),
        (fc.min_chars >= 0, "filter.min_chars must be >= 0"),
        (0 <= fc.min_alpha <= 1, "filter.min_alpha must be in [0, 1]"),
        (0 <= fc.max_boilerplate <= 1, "filter.max_boilerplate must be in [0, 1]"),
        (gc.k_shots >= 0, "generate.k_shots must be >= 0"),
        (gc.excerpt_chars >= 1, "generate.excerpt_chars must be >= 1"),
    ]
    for ok, problem in checks:
        if not ok:
            raise ConfigError(problem)
    return cfg


def config_to_dict(cfg: PipelineConfig) -> dict[str, Any]:
    return dataclasses.asdict(cfg)


def canonical_json(cfg: PipelineConfig) -> str:
    """Stable serialization used for drift detection between snapshot and resume."""
    return json.dumps(config_to_dict(cfg), sort_keys=True, separators=(",", ":"))


def load_config(path: str) -> PipelineConfig:
    """Load a JSON or YAML config; yaml is imported only for text that is not JSON."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        data = json.loads(text)
    except RecursionError as exc:  # nested too deeply: not YAML either
        raise ConfigError(f"cannot parse config {path}: {exc}") from exc
    except ValueError:
        import yaml
        try:
            data = yaml.safe_load(text)
        except (yaml.YAMLError, RecursionError) as exc:
            raise ConfigError(f"cannot parse config {path}: {exc}") from exc
    return config_from_dict({} if data is None else data)  # None: an empty YAML document
