"""Decision-level fusion: per-frame expert selection by confidence.

Each of the three experts (RGB, TIR, fused RGBT) emits a box prediction and
a confidence score per frame; the expert with the highest confidence wins
the frame. Confidences are compared raw, with no cross-expert
normalization. Ties are broken by a configurable, deterministic preference
order (fused expert first by default).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConfigError, EmptyTraceError, FusebenchError, NonFiniteError
from .model import Expert, ExpertStream, PredictionColumns, _check_lengths

__all__ = [
    "TiePolicy",
    "DEFAULT_TIE_POLICY",
    "EXPERTS",
    "SelectionRecord",
    "SelectionTrace",
    "select_expert",
    "fuse_streams",
    "selection_ratios",
]


@dataclass(frozen=True)
class TiePolicy:
    """Total preference order over the three experts, used only on exact ties."""

    order: tuple[Expert, Expert, Expert] = (Expert.RGBT, Expert.TIR, Expert.RGB)

    def __post_init__(self):
        order = tuple(Expert(e) for e in self.order)
        object.__setattr__(self, "order", order)
        if sorted(order) != sorted(Expert):
            raise ConfigError(f"tie policy must order all three experts, got {order}")

    @classmethod
    def parse(cls, text: str) -> "TiePolicy":
        """Parse either a preset name ("rgbt-first") or an explicit order
        ("rgbt,tir,rgb")."""
        presets = {
            "rgbt-first": cls.order,  # the default
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
        if getattr(self, f"cs_{self.chosen.value}") != self.confidence:
            raise FusebenchError(
                f"frame {self.frame}: chosen expert {self.chosen} does not "
                f"attain the winning confidence"
            )


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

    def __post_init__(self):
        chosen = np.array(self.chosen, dtype=np.intp).reshape(-1)
        conf = np.array(self.confidences, dtype=np.float64).reshape(-1, len(EXPERTS))
        _check_lengths("selection trace", chosen=len(chosen), confidences=len(conf))
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

    @cached_property
    def records(self) -> tuple[SelectionRecord, ...]:
        return tuple(
            SelectionRecord(i, EXPERTS[c], row[c], *row)
            for i, (c, row) in enumerate(zip(self.chosen.tolist(), self.confidences.tolist()))
        )

    def __iter__(self):
        return iter(self.records)

    def __len__(self) -> int:
        return len(self.chosen)


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
    preds = [s.predictions for s in streams]
    picked = PredictionColumns(
        _pick(chosen, [p.boxes for p in preds]),
        _pick(chosen, [p.present for p in preds]),
        _pick(chosen, [p.confidence for p in preds]),
    )
    return chosen, picked


def _pick(chosen: np.ndarray, arrays) -> np.ndarray:
    """Per frame, the entry of ``arrays[chosen]``; ``arrays`` follow :data:`EXPERTS`."""
    return np.stack(arrays)[(chosen, *np.indices(chosen.shape))]


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
    _check_lengths("expert streams", rgb=len(rgb), tir=len(tir), rgbt=len(rgbt))
    streams = (rgb, tir, rgbt)
    confidences = np.column_stack([s.predictions.confidence for s in streams])
    chosen, fused = _select_by_score(streams, confidences, tie)
    return fused, SelectionTrace(chosen, confidences)


def selection_ratios(trace: SelectionTrace) -> tuple[float, float, float]:
    """Fractions of frames won by (RGB, TIR, RGBT); they sum to 1."""
    n = len(trace)
    if n == 0:
        raise EmptyTraceError("selection trace has no frames")
    return tuple((np.bincount(trace.chosen, minlength=len(EXPERTS)) / n).tolist())

