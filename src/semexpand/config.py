"""Experiment configuration: a flat key=value file, overridable per key.

Every field of ExperimentConfig is a scalar so the whole config can be read
from and written back to `key = value` lines; the written snapshot reproduces
the run exactly. Blank lines and `#` comments are ignored.

The stage configs (SkipGramConfig, ClassifierConfig, TrainConfig) own each stage
setting's default and range check; ExperimentConfig reuses both.
"""

from __future__ import annotations

import dataclasses
import logging
from dataclasses import dataclass

import numpy as np

from .embedding import SkipGramConfig
from .errors import ConfigError, check_range, open_text
from .nn import ClassifierConfig, TrainConfig

logger = logging.getLogger(__name__)

# Keys that config files and overrides may still name; they are skipped with a
# warning, so snapshots written before their retirement still load.
RETIRED_KEYS = ("synonyms",)

# The ExperimentConfig key of each stage-config field whose name differs; the
# same map builds the stage config and names the key in its errors.
STAGE_KEYS = {
    SkipGramConfig: {
        "epochs": "embed_epochs",
        "learning_rate": "embed_learning_rate",
        "final_learning_rate": "embed_final_learning_rate",
        "mode": "embed_mode",
    },
    ClassifierConfig: {},
    TrainConfig: {"epochs": "train_epochs"},
}


@dataclass
class ExperimentConfig:
    # input and output paths; empty string means "not provided"
    corpus: str = ""
    dataset: str = ""
    dictionary: str = ""
    output_dir: str = "runs/out"
    embeddings: str = ""  # load pre-trained vectors instead of training

    # vocabulary and skip-gram settings
    min_count: int = SkipGramConfig.min_count
    window: int = SkipGramConfig.window
    dim: int = SkipGramConfig.dim
    embed_epochs: int = SkipGramConfig.epochs
    embed_learning_rate: float = SkipGramConfig.learning_rate
    embed_final_learning_rate: float = SkipGramConfig.final_learning_rate
    embed_mode: str = SkipGramConfig.mode
    negative_samples: int = SkipGramConfig.negative_samples

    # cluster count: a single k, or a log-spaced grid of k_steps values
    k: int = 0
    k_min: int = 0
    k_max: int = 0
    k_steps: int = 10

    # classifier architecture
    model: str = ClassifierConfig.model
    hidden: int = ClassifierConfig.hidden
    kernels: int = ClassifierConfig.kernels
    kernel_width: int = ClassifierConfig.kernel_width
    pool_width: int = ClassifierConfig.pool_width
    max_len: int = ClassifierConfig.max_len

    # classifier training
    batch_size: int = TrainConfig.batch_size
    train_epochs: int = TrainConfig.epochs
    learning_rate: float = TrainConfig.learning_rate

    # split protocol
    train_fraction: float = 0.8
    validation_fraction: float = 0.1
    test_fraction: float = 0.1

    seed: int = 0
    no_expansion: bool = False

    def __post_init__(self):
        for name, value in vars(self).items():
            if isinstance(value, str) and (
                "#" in value or value != value.strip() or len(value.splitlines()) > 1
            ):
                reason = "must hold no '#', line break or leading or trailing whitespace"
                raise ConfigError(f"{reason}, got {value!r}", name)
        for name in ("train_fraction", "validation_fraction", "test_fraction"):
            check_range(name, getattr(self, name), 0, 1, low_open=True)
        fractions = (self.train_fraction, self.validation_fraction, self.test_fraction)
        if abs(sum(fractions) - 1.0) > 1e-9:
            raise ConfigError(f"split fractions must sum to 1, got {sum(fractions)!r}")
        for name in ("k", "k_min", "k_max"):
            check_range(name, getattr(self, name), 0)
        if self.k == 0:
            if self.k_min == 0 or self.k_max == 0:
                raise ConfigError("set k, or both k_min and k_max for a grid")
            if self.k_min > self.k_max:
                raise ConfigError(f"need 1 <= k_min <= k_max, got {self.k_min}..{self.k_max}")
        check_range("k_steps", self.k_steps, 1)
        self.skipgram_config()
        self.classifier_config()
        self.train_config(self.seed)

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

    def _stage_config(self, stage, **fixed):
        keys = STAGE_KEYS[stage]
        values = {f.name: getattr(self, keys.get(f.name, f.name)) for f in dataclasses.fields(stage)}
        try:
            return stage(**(values | fixed))
        except ConfigError as exc:
            raise ConfigError(exc.reason, keys.get(exc.key, exc.key)) from None

    def skipgram_config(self) -> SkipGramConfig:
        return self._stage_config(SkipGramConfig)

    def classifier_config(self) -> ClassifierConfig:
        return self._stage_config(ClassifierConfig)

    def train_config(self, seed: int) -> TrainConfig:
        return self._stage_config(TrainConfig, seed=seed)

    def snapshot_lines(self) -> list:
        return [f"{f.name} = {getattr(self, f.name)}" for f in dataclasses.fields(self)]


def coerce_value(key: str, raw, config=ExperimentConfig):
    """Convert a raw value to the type of field ``key`` of dataclass ``config``.

    ``raw`` is a string, or a value whose ``str()`` reads back as one.
    """
    kinds = {f.name: type(f.default) for f in dataclasses.fields(config)}
    if key not in kinds:
        raise ConfigError(f"unknown config key {key!r}")
    kind, text = kinds[key], str(raw).strip()
    if kind is bool:
        if text.lower() in ("true", "1", "yes"):
            return True
        if text.lower() in ("false", "0", "no"):
            return False
        raise ConfigError(f"{key}: expected a boolean, got {raw!r}")
    try:
        return kind(text)
    except ValueError:
        raise ConfigError(f"{key}: expected {kind.__name__}, got {raw!r}") from None


def _coerce_all(items) -> dict:
    """Coerce (key, raw, where) triples; a retired key is skipped with a warning."""
    values: dict = {}
    for key, raw, where in items:
        if key in RETIRED_KEYS:
            logger.warning("%s: ignoring retired config key %r", where, key)
            continue
        try:
            values[key] = coerce_value(key, raw)
        except ConfigError as exc:
            raise ConfigError(f"{where}: {exc}") from None
    return values


def parse_config_lines(lines, source: str = "<config>") -> dict:
    """Parse `key = value` lines into a typed mapping."""
    items = []
    for lineno, line in enumerate(lines, start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"{source}:{lineno}: expected 'key = value', got {line!r}")
        key, _, raw = stripped.partition("=")
        items.append((key.strip(), raw, f"{source}:{lineno}"))
    return _coerce_all(items)


def load_config(path=None, overrides: dict | None = None) -> ExperimentConfig:
    """Build a config from an optional file plus override values."""
    values: dict = {}
    if path:
        with open_text(path) as fh:
            values.update(parse_config_lines(fh, source=str(path)))
    if overrides:
        values.update(_coerce_all((k, v, "override") for k, v in overrides.items()))
    return ExperimentConfig(**values)
