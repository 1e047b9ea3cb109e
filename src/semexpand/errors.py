"""Exception hierarchy shared across the package, the one range check, the
one way to open a text input, and the one way to write floats as text.

The CLI maps these onto exit codes: ConfigError -> 1, DataFormatError -> 2,
NumericError -> 3.
"""

from __future__ import annotations

import math
import numbers
from contextlib import contextmanager


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


@contextmanager
def open_text(path):
    """Open a UTF-8 text input for reading; a byte-order mark at its start is dropped.

    A decode error inside the ``with`` block becomes a DataFormatError naming
    the file and the first line that is not valid UTF-8.
    """
    with open(path, encoding="utf-8-sig") as fh:
        try:
            yield fh
        except UnicodeDecodeError as exc:
            raise DataFormatError(_decode_error_message(path, exc)) from None


def format_floats(values) -> str:
    """A 1-D array as space-separated "%.17g" text, which reads back to the same floats.

    One template for the whole row formats it in one call, which is faster
    than formatting each numpy scalar on its own.
    """
    return " ".join(["%.17g"] * len(values)) % tuple(values.tolist())


def _decode_error_message(path, exc: UnicodeDecodeError) -> str:
    # the text reader decodes in chunks, so its error knows no line: find it again
    with open(path, "rb") as fh:
        for lineno, line in enumerate(fh, start=1):
            try:
                line.decode("utf-8")
            except UnicodeDecodeError as line_exc:
                return f"{path}:{lineno}: {line_exc}"
    return f"{path}: {exc}"
