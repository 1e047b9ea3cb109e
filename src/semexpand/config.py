"""Experiment configuration: a flat key=value file, overridable per key.

Every field of ExperimentConfig is a scalar so the whole config can be read
from and written back to `key = value` lines; the written snapshot reproduces
the run exactly. Blank lines and `#` comments are ignored.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from . import embedding
from .errors import ConfigError

MODEL_KINDS = ("cnn", "lstm")


@dataclass
class ExperimentConfig:
    # input and output paths; empty string means "not provided"
    corpus: str = ""
    dataset: str = ""
    dictionary: str = ""
    synonyms: str = ""
    output_dir: str = "runs/out"
    embeddings: str = ""  # load pre-trained vectors instead of training

    # vocabulary and skip-gram settings
    min_count: int = 1
    window: int = 2
    dim: int = 50
    embed_epochs: int = 15
    embed_learning_rate: float = 0.025
    embed_final_learning_rate: float = 0.0001
    embed_mode: str = embedding.MODE_EXACT
    negative_samples: int = 5

    # cluster count: a single k, or a log-spaced grid of k_steps values
    k: int = 0
    k_min: int = 0
    k_max: int = 0
    k_steps: int = 10

    # classifier architecture
    model: str = "lstm"
    hidden: int = 300
    kernels: int = 64
    kernel_width: int = 5
    pool_width: int = 2
    max_len: int = 20

    # classifier training
    batch_size: int = 128
    train_epochs: int = 10
    learning_rate: float = 0.01

    # split protocol
    train_fraction: float = 0.8
    validation_fraction: float = 0.1
    test_fraction: float = 0.1

    seed: int = 0
    no_expansion: bool = False

    def __post_init__(self):
        fractions = (self.train_fraction, self.validation_fraction, self.test_fraction)
        if any(f <= 0 for f in fractions):
            raise ConfigError(f"split fractions must all be positive, got {fractions}")
        if abs(sum(fractions) - 1.0) > 1e-9:
            raise ConfigError(f"split fractions must sum to 1, got {sum(fractions)!r}")
        if self.model not in MODEL_KINDS:
            raise ConfigError(f"model must be one of {MODEL_KINDS}, got {self.model!r}")
        if self.embed_mode not in (embedding.MODE_EXACT, embedding.MODE_NEGATIVE):
            raise ConfigError(f"unknown embed_mode {self.embed_mode!r}")
        if self.k < 0 or self.k_min < 0 or self.k_max < 0:
            raise ConfigError("cluster counts cannot be negative")
        if self.k == 0:
            if self.k_min == 0 or self.k_max == 0:
                raise ConfigError("set k, or both k_min and k_max for a grid")
            if not 1 <= self.k_min <= self.k_max:
                raise ConfigError(f"need 1 <= k_min <= k_max, got {self.k_min}..{self.k_max}")
            if self.k_steps < 1:
                raise ConfigError("k_steps must be >= 1")
        for name in (
            "min_count", "window", "dim", "embed_epochs", "negative_samples",
            "hidden", "kernels", "kernel_width", "pool_width", "max_len",
            "batch_size", "train_epochs",
        ):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1")
        for name in ("embed_learning_rate", "learning_rate"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive")
        if not 0 <= self.embed_final_learning_rate <= self.embed_learning_rate:
            raise ConfigError(
                "embed_final_learning_rate must lie in [0, embed_learning_rate], "
                f"got {self.embed_final_learning_rate!r}"
            )

    def uses_grid(self) -> bool:
        return self.k == 0

    def grid_values(self, vocab_size: int) -> list:
        """Log-spaced candidate cluster counts, deduplicated and clamped."""
        if not self.uses_grid():
            if self.k > vocab_size:
                raise ConfigError(f"k={self.k} exceeds vocabulary size {vocab_size}")
            return [self.k]
        if self.k_max > vocab_size:
            raise ConfigError(f"k_max={self.k_max} exceeds vocabulary size {vocab_size}")
        values = np.geomspace(self.k_min, self.k_max, self.k_steps)
        grid = sorted({int(round(v)) for v in values})
        return [k for k in grid if self.k_min <= k <= self.k_max]

    def skipgram_config(self) -> embedding.SkipGramConfig:
        return embedding.SkipGramConfig(
            window=self.window,
            dim=self.dim,
            epochs=self.embed_epochs,
            learning_rate=self.embed_learning_rate,
            final_learning_rate=self.embed_final_learning_rate,
            seed=self.seed,
            mode=self.embed_mode,
            negative_samples=self.negative_samples,
        )

    def snapshot_lines(self) -> list:
        return [f"{f.name} = {getattr(self, f.name)}" for f in dataclasses.fields(self)]


def _convert(name: str, kind, raw: str):
    if kind is bool:
        lowered = raw.strip().lower()
        if lowered in ("true", "1", "yes"):
            return True
        if lowered in ("false", "0", "no"):
            return False
        raise ConfigError(f"{name}: expected a boolean, got {raw!r}")
    try:
        return kind(raw.strip())
    except ValueError:
        raise ConfigError(f"{name}: expected {kind.__name__}, got {raw!r}") from None


def _field_types() -> dict:
    return {f.name: f.type for f in dataclasses.fields(ExperimentConfig)}


_PY_TYPES = {"int": int, "float": float, "str": str, "bool": bool}


def coerce_value(key: str, raw: str):
    """Convert one raw override string to the config field's type."""
    types = _field_types()
    if key not in types:
        raise ConfigError(f"unknown config key {key!r}")
    kind = types[key]
    if isinstance(kind, str):
        kind = _PY_TYPES[kind]
    return _convert(key, kind, raw)


def parse_config_lines(lines, source: str = "<config>") -> dict:
    """Parse `key = value` lines into a typed mapping."""
    types = _field_types()
    values: dict = {}
    for lineno, line in enumerate(lines, start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"{source}:{lineno}: expected 'key = value', got {line!r}")
        key, _, raw = stripped.partition("=")
        key = key.strip()
        if key not in types:
            raise ConfigError(f"{source}:{lineno}: unknown config key {key!r}")
        kind = types[key]
        if isinstance(kind, str):
            kind = _PY_TYPES[kind]
        values[key] = _convert(key, kind, raw)
    return values


def load_config(path=None, overrides: dict | None = None) -> ExperimentConfig:
    """Build a config from an optional file plus override values."""
    values: dict = {}
    if path:
        try:
            with open(path, encoding="utf-8") as fh:
                values.update(parse_config_lines(fh, source=str(path)))
        except OSError as exc:
            raise ConfigError(f"cannot read config file {path}: {exc}") from None
    if overrides:
        types = _field_types()
        for key, value in overrides.items():
            if key not in types:
                raise ConfigError(f"unknown config key {key!r}")
            values[key] = value
    return ExperimentConfig(**values)
