"""Exception types raised across the toolkit, and the boundary rules that
raise them: :func:`_lines` is the one rule for what ends a line of text
input, :func:`_reading` adds every file and line location to the error of
a data file, and :func:`_number` checks a config number.

Every error subclasses :class:`FusebenchError`, which itself subclasses
``ValueError`` so callers that do not care about the fine-grained kind can
catch a single base class.
"""

import csv
import math
import numbers
from contextlib import contextmanager
from pathlib import Path
from typing import Iterable


class FusebenchError(ValueError):
    """Base class for all toolkit errors."""


class NonFiniteError(FusebenchError):
    """A value that must be finite is NaN or infinite."""


class NegativeExtentError(FusebenchError):
    """A rectangle was given a negative width or height."""


class LengthMismatchError(FusebenchError):
    """Two per-frame sequences that must align have different lengths."""


class MissingConfidenceError(FusebenchError):
    """A prediction used for expert selection carries no confidence score."""


class EmptyTraceError(FusebenchError):
    """A selection trace contains no frames."""


class EmptyCurveError(FusebenchError):
    """A threshold curve contains no points."""


class MissingSequenceResultError(FusebenchError):
    """An evaluation was requested for a sequence with no predictions."""


class MalformedLineError(FusebenchError):
    """A text file line does not match the declared grammar."""


class DuplicateSequenceIdError(FusebenchError):
    """A manifest lists the same sequence id twice."""


class ConfigError(FusebenchError):
    """A configuration value violates its declared invariant."""


class UnknownKeyError(ConfigError):
    """A configuration or manifest file contains an undeclared key."""


class EmptySubsetError(FusebenchError):
    """A requested evaluation subset contains no sequences."""

    def __init__(self, tag: str):
        super().__init__(f"subset {tag!r} contains no sequences")


class NonPositiveScoreError(FusebenchError):
    """Balanced-benchmark indicators require strictly positive scores."""


class IntervalOutOfBoundsError(FusebenchError):
    """A degradation interval lies outside the sequence bounds."""


__all__ = [n for n, v in list(globals().items()) if isinstance(v, type) and issubclass(v, FusebenchError)]


def _lines(text: str) -> list[str]:
    r"""The lines of ``text``, the ones ``line N`` locations number: only
    ``\r\n``, ``\r`` and ``\n`` end a line, so ``\f``, U+2028 and the other
    breaks of ``str.splitlines`` are whitespace inside one. As with
    ``splitlines``, no line starts after a final break."""
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return text.removesuffix("\n").split("\n") if text else []


@contextmanager
def _reading(where: Path | str):
    """Name ``where``, a file or a line, in the errors raised while reading
    it: the only code that adds a file or line location to such an error.
    Toolkit errors keep their class and gain a ``<where>: `` prefix; any
    other ``ValueError`` (not UTF-8, not JSON, too long an integer), JSON
    nested too deeply to decode or ``csv.Error`` (too long a field) becomes
    a :class:`FusebenchError`.
    """
    try:
        yield
    except FusebenchError as exc:
        exc.args = (f"{where}: {exc}",)
        raise
    except (ValueError, RecursionError, csv.Error) as exc:
        raise FusebenchError(f"{where}: {exc}") from None


def _number(name: str, v, low: float = -math.inf, high: float = math.inf, integer: bool = False):
    """``v`` as a config number: an int or float (an integer if ``integer``),
    never a bool or a string, finite and in ``[low, high]``. Returns it as
    an ``int`` or a ``float``; raises :class:`ConfigError` naming ``name``."""
    if isinstance(v, bool) or not isinstance(v, numbers.Integral if integer else numbers.Real):
        raise ConfigError(f"{name} must be {'an integer' if integer else 'a number'}, got {v!r}")
    try:
        v = int(v) if integer else float(v)
    except OverflowError:  # an int beyond the float range
        v = math.inf
    if not (integer or math.isfinite(v)):
        raise ConfigError(f"{name} must be finite, got {v!r}")
    if not low <= v <= high:
        bound = f"lie in [{low:g}, {high:g}]" if high < math.inf else (
            "be non-negative" if low == 0 else f"be at least {low:g}")
        raise ConfigError(f"{name} must {bound}, got {v!r}")
    return v


def _numbers(name: str, values, n: int | None = None, **limits) -> tuple:
    """``values`` as a tuple of :func:`_number` checks under ``limits``,
    of exactly ``n`` entries if ``n`` is given."""
    if isinstance(values, str) or not isinstance(values, Iterable):
        raise ConfigError(f"{name} must be a list of numbers, got {values!r}")
    values = tuple(values)
    if n is not None and len(values) != n:
        raise ConfigError(f"{name} must hold exactly {n} numbers, got {list(values)!r}")
    return tuple(_number(f"{name}[{i}]", v, **limits) for i, v in enumerate(values))
