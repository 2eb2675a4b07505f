"""Decision-level fusion: per-frame expert selection by confidence.

Each of the three experts (RGB, TIR, fused RGBT) emits a box prediction and
a confidence score per frame; the expert with the highest confidence wins
the frame. Confidences are compared raw, with no cross-expert
normalization. Ties are broken by a configurable, deterministic preference
order (fused expert first by default).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ConfigError,
    EmptyScoreMapError,
    EmptyTraceError,
    FusebenchError,
    LengthMismatchError,
    NegativeLossError,
    NonFiniteError,
)
from .model import Expert, ExpertStream, PredictionColumns

__all__ = [
    "TiePolicy",
    "DEFAULT_TIE_POLICY",
    "EXPERTS",
    "ScoreMap",
    "SelectionRecord",
    "SelectionTrace",
    "confidence_from_score_map",
    "select_expert",
    "fuse_streams",
    "selection_ratios",
    "aggregate_expert_losses",
]


@dataclass(frozen=True)
class TiePolicy:
    """Total preference order over the three experts, used only on exact ties."""

    order: tuple[Expert, Expert, Expert] = (Expert.RGBT, Expert.TIR, Expert.RGB)

    def __post_init__(self):
        order = tuple(Expert(e) for e in self.order)
        object.__setattr__(self, "order", order)
        if sorted(e.value for e in order) != ["rgb", "rgbt", "tir"]:
            raise ConfigError(f"tie policy must order all three experts, got {order}")

    @classmethod
    def parse(cls, text: str) -> "TiePolicy":
        """Parse either a preset name ("rgbt-first") or an explicit order
        ("rgbt,tir,rgb")."""
        presets = {
            "rgbt-first": (Expert.RGBT, Expert.TIR, Expert.RGB),
            "tir-first": (Expert.TIR, Expert.RGBT, Expert.RGB),
            "rgb-first": (Expert.RGB, Expert.RGBT, Expert.TIR),
        }
        key = text.strip().lower()
        if key in presets:
            return cls(presets[key])
        parts = [p.strip() for p in key.split(",")]
        if len(parts) != 3:
            raise ConfigError(f"cannot parse tie policy {text!r}")
        try:
            return cls(tuple(Expert(p) for p in parts))  # type: ignore[arg-type]
        except ValueError as exc:
            raise ConfigError(f"cannot parse tie policy {text!r}: {exc}") from None


DEFAULT_TIE_POLICY = TiePolicy()

#: Column order of per-frame score matrices and selection traces.
EXPERTS = (Expert.RGB, Expert.TIR, Expert.RGBT)


@dataclass(frozen=True, eq=False)
class ScoreMap:
    """A 2-D classification score grid; non-empty, all values finite."""

    values: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.values, dtype=float)
        if arr.ndim != 2:
            raise FusebenchError(f"score map must be 2-D, got shape {arr.shape}")
        if arr.size == 0:
            raise EmptyScoreMapError("score map has no values")
        if not np.all(np.isfinite(arr)):
            raise NonFiniteError("score map contains non-finite values")
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)

    @property
    def rows(self) -> int:
        return self.values.shape[0]

    @property
    def cols(self) -> int:
        return self.values.shape[1]


def confidence_from_score_map(score_map: ScoreMap | np.ndarray) -> float:
    """Reduce a classification score map to a confidence: its maximum value."""
    if isinstance(score_map, ScoreMap):
        return float(score_map.values.max())
    arr = np.asarray(score_map, dtype=float)
    if arr.size == 0:
        raise EmptyScoreMapError("score map has no values")
    if not np.all(np.isfinite(arr)):
        raise NonFiniteError("score map contains non-finite values")
    return float(arr.max())


@dataclass(frozen=True)
class SelectionRecord:
    """One frame's selection outcome: the winner and all three confidences."""

    frame: int
    chosen: Expert
    confidence: float  # the winning (maximum) confidence
    cs_rgb: float
    cs_tir: float
    cs_rgbt: float

    def __post_init__(self):
        object.__setattr__(self, "chosen", Expert(self.chosen))
        top = max(self.cs_rgb, self.cs_tir, self.cs_rgbt)
        if self.confidence != top:
            raise FusebenchError(
                f"frame {self.frame}: winning confidence {self.confidence} "
                f"is not the maximum {top}"
            )
        if self.score_of(self.chosen) != self.confidence:
            raise FusebenchError(
                f"frame {self.frame}: chosen expert {self.chosen} does not "
                f"attain the winning confidence"
            )

    def score_of(self, expert: Expert) -> float:
        return {Expert.RGB: self.cs_rgb, Expert.TIR: self.cs_tir, Expert.RGBT: self.cs_rgbt}[expert]


@dataclass(frozen=True, eq=False)
class SelectionTrace:
    """Per-frame record of which expert won and with what confidence.

    Stored as columns: ``confidences`` is an ``(n, 3)`` float64 matrix whose
    columns follow :data:`EXPERTS` (rgb, tir, rgbt), and ``chosen`` holds
    each frame's winning column, which must attain the row maximum. Both
    are read-only. Iterating yields one :class:`SelectionRecord` per frame,
    numbered by position; the records are built on first access.
    """

    chosen: np.ndarray
    confidences: np.ndarray
    _records: tuple | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        chosen = np.array(self.chosen, dtype=np.intp).reshape(-1)
        conf = np.array(self.confidences, dtype=np.float64).reshape(-1, len(EXPERTS))
        if len(chosen) != len(conf):
            raise LengthMismatchError(f"{len(chosen)} chosen experts but {len(conf)} confidence rows")
        if ((chosen < 0) | (chosen >= len(EXPERTS))).any():
            raise FusebenchError("chosen experts must be column indices 0, 1 or 2")
        beaten = np.flatnonzero(conf[np.arange(len(conf)), chosen] != conf.max(axis=1))
        if beaten.size:
            i = int(beaten[0])
            raise FusebenchError(
                f"frame {i}: chosen expert {EXPERTS[chosen[i]]} does not attain the winning confidence"
            )
        chosen.flags.writeable = False
        conf.flags.writeable = False
        object.__setattr__(self, "chosen", chosen)
        object.__setattr__(self, "confidences", conf)

    @classmethod
    def from_records(cls, records) -> "SelectionTrace":
        """The trace of per-frame records, taken in order."""
        records = tuple(records)
        return cls(
            [EXPERTS.index(r.chosen) for r in records],
            [(r.cs_rgb, r.cs_tir, r.cs_rgbt) for r in records],
        )

    @property
    def records(self) -> tuple[SelectionRecord, ...]:
        if self._records is None:
            records = tuple(
                SelectionRecord(i, EXPERTS[c], row[c], *row)
                for i, (c, row) in enumerate(zip(self.chosen.tolist(), self.confidences.tolist()))
            )
            object.__setattr__(self, "_records", records)
        return self._records

    def __iter__(self):
        return iter(self.records)

    def __len__(self) -> int:
        return len(self.chosen)

    def count(self, expert: Expert) -> int:
        return int(np.count_nonzero(self.chosen == EXPERTS.index(expert)))


def select_expert(
    cs_rgb: float,
    cs_tir: float,
    cs_rgbt: float,
    tie: TiePolicy = DEFAULT_TIE_POLICY,
) -> Expert:
    """The expert attaining the maximum confidence; exact ties fall back to
    the tie policy's preference order."""
    for e, v in zip(EXPERTS, (cs_rgb, cs_tir, cs_rgbt)):
        if not math.isfinite(v):
            raise NonFiniteError(f"{e} confidence must be finite, got {v!r}")
    return EXPERTS[_tie_argmax(np.array([cs_rgb, cs_tir, cs_rgbt]), tie)]


def _tie_argmax(scores: np.ndarray, tie: TiePolicy) -> np.ndarray:
    """Per row of a ``(..., 3)`` score array whose columns follow
    :data:`EXPERTS`, the column with the highest score.

    The argmax is taken over the columns in tie-policy order, so an exact
    tie goes to the preferred expert. :func:`select_expert` is its call
    on one row.
    """
    order = np.array([EXPERTS.index(e) for e in tie.order])
    return order[np.argmax(scores[..., order], axis=-1)]


def _select_by_score(
    streams: tuple[ExpertStream, ExpertStream, ExpertStream],
    scores: np.ndarray,
    tie: TiePolicy,
) -> tuple[np.ndarray, PredictionColumns]:
    """Per frame, the stream with the highest score (:func:`_tie_argmax`
    of the ``(n, 3)`` ``scores``), and its predictions.

    ``streams`` follow :data:`EXPERTS`. Returns the chosen column per
    frame.
    """
    chosen = _tie_argmax(scores, tie)
    frames = np.arange(len(chosen))
    preds = [s.predictions for s in streams]
    picked = PredictionColumns(
        np.stack([p.boxes for p in preds])[chosen, frames],
        np.stack([p.present for p in preds])[chosen, frames],
        np.stack([p.confidence for p in preds])[chosen, frames],
    )
    return chosen, picked


def fuse_streams(
    rgb: ExpertStream,
    tir: ExpertStream,
    rgbt: ExpertStream,
    tie: TiePolicy = DEFAULT_TIE_POLICY,
) -> tuple[PredictionColumns, SelectionTrace]:
    """Per frame, emit the prediction of the highest-confidence expert.

    Streams must have equal length; every frame of every stream carries a
    confidence (enforced by :class:`ExpertStream`). Declared-absence
    predictions compete like any other: their confidence decides. Ties
    are broken as in :func:`select_expert`.
    """
    n = len(rgb)
    if len(tir) != n or len(rgbt) != n:
        raise LengthMismatchError(
            f"streams disagree in length: rgb={n}, tir={len(tir)}, rgbt={len(rgbt)}"
        )
    streams = (rgb, tir, rgbt)
    confidences = np.column_stack([s.predictions.confidence for s in streams])
    chosen, fused = _select_by_score(streams, confidences, tie)
    return fused, SelectionTrace(chosen, confidences)


def selection_ratios(trace: SelectionTrace) -> tuple[float, float, float]:
    """Fractions of frames won by (RGB, TIR, RGBT); they sum to 1."""
    n = len(trace)
    if n == 0:
        raise EmptyTraceError("selection trace has no frames")
    return (
        trace.count(Expert.RGB) / n,
        trace.count(Expert.TIR) / n,
        trace.count(Expert.RGBT) / n,
    )


def aggregate_expert_losses(l_rgb: float, l_tir: float, l_rgbt: float) -> float:
    """Arithmetic mean of the three per-expert losses."""
    for v in (l_rgb, l_tir, l_rgbt):
        if not math.isfinite(v):
            raise NonFiniteError(f"loss must be finite, got {v!r}")
        if v < 0:
            raise NegativeLossError(f"loss must be non-negative, got {v}")
    return (l_rgb + l_tir + l_rgbt) / 3.0
