"""Exception hierarchy shared across the package, and the one range check.

The CLI maps these onto exit codes: ConfigError -> 1, DataFormatError -> 2,
NumericError -> 3.
"""

from __future__ import annotations

import math
import numbers


class SemexpandError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(SemexpandError):
    """Invalid configuration or usage (bad flags, inconsistent settings).

    ``key``, when given, names the setting at fault and starts the message.
    """

    def __init__(self, message: str, key: str | None = None):
        super().__init__(f"{key} {message}" if key else message)
        self.key, self.reason = key, message


class DataFormatError(SemexpandError):
    """Malformed input data or artifact file."""


class EmptyVocabularyError(DataFormatError):
    """Vocabulary construction filtered out every token."""


class NumericError(SemexpandError):
    """Numerical failure during training (NaN/Inf parameters or loss)."""


def check_range(key: str, value, low, high=math.inf, low_open: bool = False) -> None:
    """Raise ConfigError unless ``value`` is a finite number in [low, high], or in
    (low, high] with ``low_open``."""
    if not (isinstance(value, numbers.Real) and math.isfinite(value)):
        raise ConfigError(f"must be a finite number, got {value!r}", key)
    if (low < value if low_open else low <= value) and value <= high:
        return
    rule = ("positive" if low == 0 else f"> {low}") if low_open else f">= {low}"
    rule += f" and at most {high}" if high < math.inf else ""
    raise ConfigError(f"must be {rule}, got {value!r}", key)
