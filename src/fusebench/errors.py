"""Exception types raised across the toolkit, and the boundary rules that
raise them: :func:`_reading` names where a data error happened and
:func:`_number` checks a config number.

Every error subclasses :class:`FusebenchError`, which itself subclasses
``ValueError`` so callers that do not care about the fine-grained kind can
catch a single base class.
"""

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
    """A rectangle was given a negative width or height.

    Carries ``line`` (1-based) when raised by a file parser.
    """

    def __init__(self, message: str, line: int | None = None):
        super().__init__(message)
        self.line = line


class LengthMismatchError(FusebenchError):
    """Two per-frame sequences that must align have different lengths."""


class MissingConfidenceError(FusebenchError):
    """A prediction used for expert selection carries no confidence score."""


class NegativeLossError(FusebenchError):
    """A per-expert loss value is negative."""


class EmptyScoreMapError(FusebenchError):
    """A classification score map contains no values."""


class EmptyTraceError(FusebenchError):
    """A selection trace contains no frames."""


class EmptyCurveError(FusebenchError):
    """A threshold curve contains no points."""


class MissingSequenceResultError(FusebenchError):
    """An evaluation was requested for a sequence with no predictions."""

    def __init__(self, sequence_id: str):
        super().__init__(f"no results for sequence {sequence_id!r}")
        self.sequence_id = sequence_id


class MalformedLineError(FusebenchError):
    """A text file line does not match the declared grammar."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


class DuplicateSequenceIdError(FusebenchError):
    """A manifest lists the same sequence id twice."""


class ConfigError(FusebenchError):
    """A configuration value violates its declared invariant."""


class UnknownKeyError(ConfigError):
    """A configuration or manifest file contains an undeclared key."""

    def __init__(self, key: str, where: str = "config"):
        super().__init__(f"unknown key {key!r} in {where}")
        self.key = key


class EmptySubsetError(FusebenchError):
    """A requested evaluation subset contains no sequences."""

    def __init__(self, tag: str):
        super().__init__(f"subset {tag!r} contains no sequences")
        self.tag = tag


class NonPositiveScoreError(FusebenchError):
    """Balanced-benchmark indicators require strictly positive scores."""


class IntervalOutOfBoundsError(FusebenchError):
    """A degradation interval lies outside the sequence bounds."""


__all__ = [n for n, v in list(globals().items()) if isinstance(v, type) and issubclass(v, FusebenchError)]


@contextmanager
def _reading(where: Path | str):
    """Name ``where``, a file or a line, in the errors raised while reading
    it: the one way a data error gets its location. Toolkit errors keep
    their class and gain a ``<where>: `` prefix; any other ``ValueError``
    (not UTF-8, not JSON, too long an integer) becomes a
    :class:`FusebenchError`.
    """
    try:
        yield
    except FusebenchError as exc:
        exc.args = (f"{where}: {exc}",)
        raise
    except ValueError as exc:
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
