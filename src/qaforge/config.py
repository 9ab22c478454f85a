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


def _build(cls, data: Any, where: str):
    if data is None:
        data = {}
    if not isinstance(data, dict):
        raise ConfigError(f"{where}: expected a mapping, got {type(data).__name__}")
    names = {f.name for f in dataclasses.fields(cls)}
    unknown = sorted(set(data) - names)
    if unknown:
        raise ConfigError(f"{where}: unknown keys {unknown}")
    numbers = {"int": int, "float": (int, float), "Optional[int]": (int, type(None))}
    for f in dataclasses.fields(cls):  # by annotation; a bool is never a number
        value, kinds = data.get(f.name, 0), numbers.get(f.type)
        if kinds and (isinstance(value, bool) or not isinstance(value, kinds)):
            raise ConfigError(f"{where}.{f.name} must be {f.type}, got {value!r}")
    return cls(**data)


_SECTIONS = {
    "run": RunSettings,
    "gateway": GatewayConfig,
    "filter": FilterConfig,
    "classify": ClassifyConfig,
    "generate": GenerateConfig,
    "verify": VerifyConfig,
    "decontaminate": DecontamConfig,
    "reward": RewardConfig,
}


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
    # Written as "ok" conditions, so a NaN fails them.
    checks = [
        (not dupes, f"duplicate source names: {dupes}"),
        (gw.concurrency >= 1, "gateway.concurrency must be >= 1"),
        (gw.max_attempts >= 1, "gateway.max_attempts must be >= 1"),
        (gw.max_reasks >= 0, "gateway.max_reasks must be >= 0"),
        (gw.backoff_base >= 0 and gw.backoff_cap >= 0,
         "gateway.backoff_base and gateway.backoff_cap must be >= 0"),
        (rate == (0, 0) or (rate[0] >= 1 and rate[1] > 0),
         "gateway.rate_capacity must be >= 1 with rate_refill_per_s > 0, or both 0 (off)"),
        (cfg.classify.max_personas >= 1, "classify.max_personas must be >= 1"),
        (cfg.generate.answer_max_chars >= 1, "generate.answer_max_chars must be >= 1"),
        (cfg.decontaminate.ngram >= 1, "decontaminate.ngram must be >= 1"),
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
    except ValueError:
        import yaml
        try:
            data = yaml.safe_load(text)
        except yaml.YAMLError as exc:
            raise ConfigError(f"cannot parse config {path}: {exc}") from exc
    return config_from_dict(data or {})
