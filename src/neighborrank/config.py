"""Experiment configuration: strict JSON loading, validation, presets.

Configs are plain JSON with a required "version" field and four sections
(data, model, training, paths). Unknown keys are rejected with their dotted
path so typos fail loudly rather than silently falling back to defaults.
"""
from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

from .datagen import DataConfig

CONFIG_VERSION = 1

ABLATIONS = ("none", "no-relative-reward", "no-l2")


class ConfigError(ValueError):
    pass


@dataclass
class ModelSection:
    embed_dim: int = 8
    num_fields: int = 3
    mlp_hidden: list[int] = field(default_factory=lambda: [64, 32])

    def __post_init__(self):
        if self.num_fields != 3:
            raise ConfigError("model.num_fields: only 3 feature fields are supported")
        if self.embed_dim < 1:
            raise ConfigError("model.embed_dim: must be positive")
        if not self.mlp_hidden or any(w < 1 for w in self.mlp_hidden):
            raise ConfigError("model.mlp_hidden: need at least one positive width")


@dataclass
class TrainingSection:
    lr: float = 1e-3
    batch_size: int = 64
    eval_epochs: int = 6
    gen_epochs: int = 12
    alpha: float = 0.2
    beta: float = 1.0
    tau_start: float = 1.0
    tau_end: float = 0.3
    theta_p: float | None = None
    theta_c: float | None = None
    max_steps: int | None = None
    k1: float = 1.0
    k2: float = 1.0
    cvr_total_mode: str = "sum"
    ablation: str = "none"
    hr_validation_records: int = 1000
    seed: int = 123

    def __post_init__(self):
        if self.lr <= 0:
            raise ConfigError("training.lr: must be positive")
        for name in ("batch_size", "eval_epochs", "gen_epochs", "hr_validation_records"):
            if getattr(self, name) < 1:
                raise ConfigError(f"training.{name}: must be >= 1")
        if self.alpha < 0:
            raise ConfigError("training.alpha: must be nonnegative")
        if not (0 < self.beta < 1 or (self.beta >= 1 and float(self.beta).is_integer())):
            raise ConfigError("training.beta: fraction in (0,1) or integer >= 1")
        if self.tau_start <= 0 or self.tau_end <= 0:
            raise ConfigError("training.tau_start/tau_end: must be positive")
        for name in ("theta_p", "theta_c"):
            v = getattr(self, name)
            if v is not None and not (0 < v <= 1):
                raise ConfigError(f"training.{name}: must lie in (0, 1]")
        if self.max_steps is not None and self.max_steps < 1:
            raise ConfigError("training.max_steps: must be >= 1")
        if self.k1 < 0 or self.k2 < 0 or (self.k1 == 0 and self.k2 == 0):
            raise ConfigError("training.k1/k2: nonnegative and not both zero")
        if self.cvr_total_mode not in ("sum", "expected"):
            raise ConfigError("training.cvr_total_mode: 'sum' or 'expected'")
        if self.ablation not in ABLATIONS:
            raise ConfigError(f"training.ablation: one of {ABLATIONS}")


@dataclass
class PathsSection:
    out_dir: str = "runs/default"


@dataclass
class Config:
    version: int = CONFIG_VERSION
    data: DataConfig = field(default_factory=DataConfig)
    model: ModelSection = field(default_factory=ModelSection)
    training: TrainingSection = field(default_factory=TrainingSection)
    paths: PathsSection = field(default_factory=PathsSection)

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)


_SECTIONS = {"data": DataConfig, "model": ModelSection,
             "training": TrainingSection, "paths": PathsSection}


def _check_ints(cls, payload: dict, prefix: str) -> None:
    """Fields annotated int, int | None or list[int] take integers only: a
    float or a bool (which Python counts as an int) raises ConfigError."""
    for f in dataclasses.fields(cls):
        value = payload.get(f.name)
        ok = {"int": type(value) is int, "int | None": type(value) is int or value is None,
              "list[int]": type(value) in (list, tuple) and all(type(v) is int for v in value)}
        if f.name in payload and not ok.get(f.type, True):
            raise ConfigError(f"{prefix}.{f.name}: expected {f.type}, got {value!r}")


def _build_section(cls, payload: dict, prefix: str):
    if not isinstance(payload, dict):
        raise ConfigError(f"{prefix}: expected an object")
    names = {f.name for f in dataclasses.fields(cls)}
    unknown = sorted(set(payload) - names)
    if unknown:
        raise ConfigError(f"unknown key {prefix}.{unknown[0]}")
    _check_ints(cls, payload, prefix)
    try:
        return cls(**payload)
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{prefix}: {exc}") from exc


def config_from_dict(payload: dict) -> Config:
    if not isinstance(payload, dict):
        raise ConfigError("config root must be an object")
    if "version" not in payload:
        raise ConfigError("missing key version")
    if type(payload["version"]) is not int or payload["version"] != CONFIG_VERSION:
        raise ConfigError(f"version: unsupported config version {payload['version']}")
    unknown = sorted(set(payload) - set(_SECTIONS) - {"version"})
    if unknown:
        raise ConfigError(f"unknown key {unknown[0]}")
    sections = {}
    for name, cls in _SECTIONS.items():
        sections[name] = _build_section(cls, payload.get(name, {}), name)
    return Config(version=CONFIG_VERSION, **sections)


def read_json(path: Path, what) -> object:
    """The JSON file at path, with NaN and Infinity rejected, since they pass
    every range check. Bytes that are not UTF-8 and invalid JSON raise
    ConfigError naming `what`."""
    def reject(name):
        raise ConfigError(f"{what}: non-finite number {name} is not allowed")
    try:
        return json.loads(path.read_text(encoding="utf-8"), parse_constant=reject)
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{what}: not UTF-8 text (byte {exc.object[exc.start]:#04x} "
                          f"at offset {exc.start})") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{what}: invalid JSON ({exc.msg})") from exc


def load_config(path) -> Config:
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"config file not found: {path}")
    return config_from_dict(read_json(path, path))


def config_hash(cfg: Config) -> str:
    """sha256 of every section that shapes results; `paths` is left out, so
    one config run into two directories hashes the same."""
    payload = cfg.to_dict()
    del payload["paths"]
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def default_config() -> Config:
    """Desk-scale preset: 5 candidates, slate of 5, 120 permutations."""
    return Config()


def wide_pool_config() -> Config:
    """Preset with 12 candidates and a slate of 4 (11,880 permutations)."""
    cfg = Config()
    cfg.data = dataclasses.replace(cfg.data, num_candidates=12, list_size=4)
    return cfg


def deep_mlp_config() -> Config:
    """Production-width shared MLP and batch size, desk data sizes."""
    cfg = Config()
    cfg.model = ModelSection(mlp_hidden=[1024, 256, 128])
    cfg.training = dataclasses.replace(cfg.training, batch_size=1024)
    return cfg


def set_by_dotted_key(cfg: Config, dotted: str, value) -> Config:
    """Return a copy of cfg with one dotted parameter replaced."""
    parts = dotted.split(".") if isinstance(dotted, str) else []
    if len(parts) != 2 or parts[0] not in _SECTIONS:
        raise ConfigError(f"sweep parameter {dotted!r} is not a config key")
    section_name, key = parts
    section = getattr(cfg, section_name)
    if key not in {f.name for f in dataclasses.fields(section)}:
        raise ConfigError(f"sweep parameter {dotted!r} is not a config key")
    _check_ints(type(section), {key: value}, section_name)
    try:
        new_section = dataclasses.replace(section, **{key: value})
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"sweep parameter {dotted}={value!r}: {exc}") from exc
    out = dataclasses.replace(cfg)
    setattr(out, section_name, new_section)
    return out
