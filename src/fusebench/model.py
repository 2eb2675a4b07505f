"""Core domain types: boxes, presence/absence, sequences, expert streams.

Conventions used throughout the toolkit:

* coordinates are real-valued pixels, ``(x, y)`` is the top-left corner and
  ``y`` grows downward (image convention);
* target absence is a distinct variant (``box is None``), never an all-zero
  sentinel rectangle -- the sentinel exists only in files and is translated
  at the parser boundary (see :mod:`fusebench.io`);
* all types are immutable after construction and safe to share across
  concurrent evaluation workers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import (
    DuplicateSequenceIdError,
    FusebenchError,
    LengthMismatchError,
    MissingConfidenceError,
    NegativeExtentError,
    NonFiniteError,
)

__all__ = [
    "Expert",
    "Subset",
    "Box",
    "FrameTruth",
    "FramePrediction",
    "FrameColumns",
    "TruthColumns",
    "PredictionColumns",
    "SequenceAnnotation",
    "ExpertStream",
    "DatasetManifest",
    "make_box",
    "center",
]


class Expert(str, Enum):
    """One of the three tracking experts emitting per-frame predictions."""

    RGB = "rgb"
    TIR = "tir"
    RGBT = "rgbt"

    def __str__(self) -> str:  # keep file/CLI output free of "Expert."
        return self.value


class Subset(str, Enum):
    """Modality-dominance tag attached to a sequence."""

    RGB_DOMINANT = "rgb"
    TIR_DOMINANT = "tir"
    UNSPECIFIED = "none"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class Box:
    """Axis-aligned rectangle in pixel space.

    Width and height must be non-negative; all fields must be finite.
    A zero-area box is valid (degenerate rectangle).
    """

    x: float
    y: float
    w: float
    h: float

    def __post_init__(self):
        for name in ("x", "y", "w", "h"):
            v = getattr(self, name)
            if not isinstance(v, (int, float)) or isinstance(v, bool):
                raise NonFiniteError(f"box field {name} must be a real number, got {v!r}")
            if not math.isfinite(v):
                raise NonFiniteError(f"box field {name} must be finite, got {v!r}")
            object.__setattr__(self, name, float(v))
        if self.w < 0 or self.h < 0:
            raise NegativeExtentError(f"box extent must be non-negative, got w={self.w}, h={self.h}")

    @property
    def area(self) -> float:
        return self.w * self.h

    def center(self) -> tuple[float, float]:
        """Center point ``(x + w/2, y + h/2)``; total for any valid box."""
        return (self.x + self.w / 2.0, self.y + self.h / 2.0)

    def shifted(self, dx: float, dy: float) -> "Box":
        return Box(self.x + dx, self.y + dy, self.w, self.h)


def make_box(x: float, y: float, w: float, h: float) -> Box:
    """Validating constructor; rejects non-finite values and negative extents."""
    return Box(x, y, w, h)


def center(b: Box) -> tuple[float, float]:
    """Center of a box, as a free function."""
    return b.center()


@dataclass(frozen=True)
class FrameTruth:
    """Ground truth for one frame: either a visible box or target absence."""

    box: Box | None = None

    @classmethod
    def present(cls, box: Box) -> "FrameTruth":
        if box is None:
            raise FusebenchError("present frame requires a box")
        return cls(box)

    @classmethod
    def absent(cls) -> "FrameTruth":
        return cls(None)

    @property
    def is_present(self) -> bool:
        return self.box is not None


@dataclass(frozen=True)
class FramePrediction:
    """One expert's output for one frame.

    ``box is None`` means the expert declared the target absent. The
    confidence score is optional in general but required on every frame of
    an :class:`ExpertStream` (selection needs it).
    """

    box: Box | None = None
    confidence: float | None = None

    def __post_init__(self):
        if self.confidence is not None:
            c = float(self.confidence)
            if not math.isfinite(c):
                raise NonFiniteError(f"prediction confidence must be finite, got {self.confidence!r}")
            object.__setattr__(self, "confidence", c)

    @classmethod
    def absent(cls, confidence: float | None = None) -> "FramePrediction":
        return cls(None, confidence)

    @property
    def is_present(self) -> bool:
        return self.box is not None

    @property
    def declares_absence(self) -> bool:
        return self.box is None


@dataclass(frozen=True, eq=False)
class FrameColumns:
    """The frames of one sequence stored column-wise, validated once.

    ``boxes`` is an ``(n, 4)`` float64 array of ``x, y, w, h`` rows and
    ``present`` an ``(n,)`` bool mask; rows of absent frames are zeroed.
    Every value must be finite and present rows must have non-negative
    extents. Both arrays are read-only copies of the input.

    The columns also behave as a read-only sequence of per-frame objects
    (:class:`TruthColumns` yields :class:`FrameTruth`,
    :class:`PredictionColumns` yields :class:`FramePrediction`). Those are
    built on first access and cached; columns made by ``from_frames`` keep
    the objects they were given. ``len`` never builds them.
    """

    boxes: np.ndarray
    present: np.ndarray
    _frames: tuple | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        boxes = np.array(self.boxes, dtype=np.float64).reshape(-1, 4)
        present = np.array(self.present, dtype=bool).reshape(-1)
        if len(present) != len(boxes):
            raise LengthMismatchError(f"{len(boxes)} box rows but {len(present)} presence flags")
        if not np.isfinite(boxes).all():
            raise NonFiniteError("box fields must be finite")
        boxes[~present] = 0.0
        if (boxes[:, 2:] < 0.0).any():
            raise NegativeExtentError("box extent must be non-negative")
        boxes.flags.writeable = False
        present.flags.writeable = False
        object.__setattr__(self, "boxes", boxes)
        object.__setattr__(self, "present", present)

    @classmethod
    def from_frames(cls, frames):
        """Columns of a sequence of per-frame objects, which are kept as the
        cached objects; columns of this type pass through unchanged."""
        if isinstance(frames, cls):
            return frames
        frames = tuple(frames)
        cols = cls(*cls._columns_of(frames))
        object.__setattr__(cols, "_frames", frames)
        return cols

    @classmethod
    def _columns_of(cls, frames: tuple) -> tuple:
        zero = (0.0, 0.0, 0.0, 0.0)
        rows = [zero if (b := f.box) is None else (b.x, b.y, b.w, b.h) for f in frames]
        return rows, [f.box is not None for f in frames]

    def _box_objects(self) -> list[Box | None]:
        rows, present = self.boxes.tolist(), self.present.tolist()
        return [Box(*row) if p else None for row, p in zip(rows, present)]

    def _make_frames(self) -> tuple:
        raise NotImplementedError

    def _objects(self) -> tuple:
        """The per-frame objects, built on the first call."""
        if self._frames is None:
            object.__setattr__(self, "_frames", self._make_frames())
        return self._frames

    def __len__(self) -> int:
        return len(self.present)

    def __getitem__(self, index):
        return self._objects()[index]

    def __iter__(self):
        return iter(self._objects())

    def __eq__(self, other):
        if isinstance(other, (FrameColumns, tuple, list)):
            return self._objects() == tuple(other)
        return NotImplemented


@dataclass(frozen=True, eq=False)
class TruthColumns(FrameColumns):
    """Ground-truth frames as columns; yields :class:`FrameTruth`."""

    def _make_frames(self) -> tuple:
        return tuple(FrameTruth(b) for b in self._box_objects())


@dataclass(frozen=True, eq=False)
class PredictionColumns(FrameColumns):
    """Predictions as columns, plus an optional ``(n,)`` column of finite
    confidences; yields :class:`FramePrediction`."""

    confidence: np.ndarray | None = None

    def __post_init__(self):
        super().__post_init__()
        if self.confidence is not None:
            conf = np.array(self.confidence, dtype=np.float64).reshape(-1)
            if len(conf) != len(self):
                raise LengthMismatchError(f"{len(self)} predictions but {len(conf)} confidence values")
            if not np.isfinite(conf).all():
                raise NonFiniteError("prediction confidences must be finite")
            conf.flags.writeable = False
            object.__setattr__(self, "confidence", conf)

    @classmethod
    def _columns_of(cls, preds: tuple) -> tuple:
        # the confidence column is kept only when every prediction has one
        conf = [p.confidence for p in preds]
        return (*super()._columns_of(preds), None if None in conf else conf)

    def _make_frames(self) -> tuple:
        boxes = self._box_objects()
        if self.confidence is None:
            return tuple(FramePrediction(b) for b in boxes)
        return tuple(FramePrediction(b, c) for b, c in zip(boxes, self.confidence.tolist()))


@dataclass(frozen=True)
class SequenceAnnotation:
    """Ordered ground-truth frames for one video, plus its subset tag.

    ``frames`` may be given as any sequence of :class:`FrameTruth`; it is
    stored as :class:`TruthColumns`.
    """

    id: str
    frames: TruthColumns
    subset: Subset = Subset.UNSPECIFIED

    def __post_init__(self):
        object.__setattr__(self, "frames", TruthColumns.from_frames(self.frames))
        object.__setattr__(self, "subset", Subset(self.subset))
        if len(self.frames) < 1:
            raise FusebenchError(f"sequence {self.id!r} must contain at least one frame")

    def __len__(self) -> int:
        return len(self.frames)


@dataclass(frozen=True)
class ExpertStream:
    """One expert's per-frame predictions, every frame carrying a confidence.

    ``predictions`` may be given as any sequence of :class:`FramePrediction`;
    it is stored as :class:`PredictionColumns`. Construction fails if any
    frame lacks a confidence; pairing with an annotation of different
    length is rejected by the consumers (evaluation, fusion) rather than
    silently truncated.
    """

    expert: Expert
    predictions: PredictionColumns

    def __post_init__(self):
        object.__setattr__(self, "expert", Expert(self.expert))
        preds = PredictionColumns.from_frames(self.predictions)
        object.__setattr__(self, "predictions", preds)
        if preds.confidence is None:
            first = next((i for i, p in enumerate(preds) if p.confidence is None), 0)
            raise MissingConfidenceError(f"{self.expert} stream: frame {first} has no confidence score")

    def __len__(self) -> int:
        return len(self.predictions)

    @property
    def confidences(self) -> tuple[float, ...]:
        return tuple(self.predictions.confidence.tolist())


@dataclass(frozen=True)
class DatasetManifest:
    """A loaded benchmark: at least one sequence, ids unique.

    ``paths`` optionally records where each sequence's groundtruth file came
    from (filled by :func:`fusebench.io.load_manifest`).
    """

    sequences: tuple[SequenceAnnotation, ...]
    name: str = ""
    paths: dict[str, str] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "sequences", tuple(self.sequences))
        if len(self.sequences) < 1:
            raise FusebenchError("manifest must contain at least one sequence")
        seen: set[str] = set()
        for seq in self.sequences:
            if seq.id in seen:
                raise DuplicateSequenceIdError(f"duplicate sequence id {seq.id!r}")
            seen.add(seq.id)

    @property
    def m(self) -> int:
        """Number of sequences in the benchmark."""
        return len(self.sequences)

    def ids(self) -> tuple[str, ...]:
        return tuple(s.id for s in self.sequences)

    def subset(self, tag: Subset) -> tuple[SequenceAnnotation, ...]:
        return tuple(s for s in self.sequences if s.subset is tag)


