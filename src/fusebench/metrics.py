"""Success/precision evaluation protocol: per-frame scores, curves, AUC.

Protocol summary
----------------
For each frame, a success value (IoU) and a precision value (center
distance) are computed with explicit absence semantics:

* both ground truth and prediction present: geometric IoU / Euclidean
  center distance;
* ground truth absent but a box predicted: the frame counts as wrong
  (success value 0, precision fails at every threshold);
* ground truth present but absence declared: wrong as well;
* ground truth absent and absence declared: correct at every threshold.

Success uses a strict ``iou > th`` comparison; precision uses
``distance <= th`` (the conventional direction used by public tracking
benchmarks, where the reporting threshold is an upper bound on the center
error, e.g. 5 px or 20 px).

Two pooling modes are provided:

* ``"frame"`` (default): apply the indicator per frame, average indicators
  within each sequence, then average the per-sequence scores across the
  benchmark. This matches the public RGBT-benchmark convention.
* ``"sequence-mean"``: average the raw per-frame metric within each
  sequence first, binarize the sequence mean against the threshold, then
  average the resulting 0/1 sequence scores. In this mode absence frames
  contribute their correctness value (1 correct absence, 0 otherwise) to
  the sequence mean.

Reductions across sequences accumulate left-to-right in manifest order, so
benchmark scores are bit-reproducible and equal a flat per-frame reference
implementation exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from .errors import (
    ConfigError,
    EmptyCurveError,
    MissingSequenceResultError,
    _number,
    _numbers,
)
from .model import (
    DatasetManifest,
    FrameColumns,
    FramePrediction,
    FrameTruth,
    PredictionColumns,
    SequenceAnnotation,
    _check_lengths,
)
from .report import POOLING_MODES

__all__ = [
    "AbsenceOutcome",
    "MetricConfig",
    "Curve",
    "BenchmarkScores",
    "ScenarioReport",
    "iou",
    "center_distance",
    "frame_success_indicator",
    "frame_precision_indicator",
    "sequence_score",
    "benchmark_scores",
    "auc",
]

class AbsenceOutcome(Enum):
    """Marker returned by :func:`center_distance` when a distance is undefined."""

    CORRECT_ABSENCE = "correct-absence"
    WRONG_PREDICTION = "wrong-prediction"


#: Default grids: 21 overlaps from 0 to 1 in steps of 0.05, 51 pixel
#: distances from 0 to 50 in steps of 1.
_SUCCESS_THRESHOLDS = tuple(np.linspace(0.0, 1.0, 21).tolist())
_PRECISION_THRESHOLDS = tuple(np.linspace(0.0, 50.0, 51).tolist())


def _strictly_increasing(values: Sequence[float]) -> bool:
    return all(b > a for a, b in zip(values, values[1:]))


@dataclass(frozen=True)
class MetricConfig:
    """Evaluation settings: threshold grids, pooling mode, reporting point.

    ``pr_report_threshold`` must be an exact grid point of
    ``precision_thresholds``; the default of 20 px follows the large-benchmark
    convention, with 5 px selectable for GTOT-style data.
    """

    success_thresholds: tuple[float, ...] = _SUCCESS_THRESHOLDS
    precision_thresholds: tuple[float, ...] = _PRECISION_THRESHOLDS
    pooling: str = "frame"
    pr_report_threshold: float = 20.0

    def __post_init__(self):
        for name, high in (("success_thresholds", 1.0), ("precision_thresholds", math.inf)):
            grid = _numbers(name, getattr(self, name), low=0.0, high=high)
            if not grid or not _strictly_increasing(grid):
                raise ConfigError(f"{name} must be a non-empty, strictly increasing grid")
            object.__setattr__(self, name, grid)
        object.__setattr__(self, "pr_report_threshold", _number("pr_report_threshold", self.pr_report_threshold))
        if self.pooling not in POOLING_MODES:
            raise ConfigError(f"pooling must be one of {POOLING_MODES}, got {self.pooling!r}")
        if self.pr_report_threshold not in self.precision_thresholds:
            raise ConfigError(
                f"pr_report_threshold {self.pr_report_threshold} is not a precision grid point"
            )


@dataclass(frozen=True)
class Curve:
    """Threshold-swept scores; thresholds strictly increasing, scores in [0, 1]."""

    thresholds: tuple[float, ...]
    scores: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "thresholds", tuple(float(t) for t in self.thresholds))
        object.__setattr__(self, "scores", tuple(float(s) for s in self.scores))
        _check_lengths("curve", thresholds=len(self.thresholds), scores=len(self.scores))
        if not _strictly_increasing(self.thresholds):
            raise ConfigError("curve thresholds must be strictly increasing")
        for s in self.scores:
            if not 0.0 <= s <= 1.0:
                raise ConfigError(f"curve scores must lie in [0, 1], got {s}")

    def __len__(self) -> int:
        return len(self.thresholds)

    def score_at(self, threshold: float) -> float:
        """Score at an exact grid point; no interpolation."""
        try:
            idx = self.thresholds.index(float(threshold))
        except ValueError:
            raise ConfigError(f"{threshold} is not a grid point of this curve") from None
        return self.scores[idx]


@dataclass(frozen=True)
class BenchmarkScores:
    """Full evaluation output for one benchmark run.

    ``sequence_sr`` / ``sequence_pr`` hold each sequence's scores at every
    success / precision threshold, one read-only row per sequence in
    manifest order; they are None for scores read back from a report.
    """

    pr_curve: Curve
    sr_curve: Curve
    pr_at_threshold: float
    sr_auc: float
    sequence_sr: np.ndarray | None = field(default=None, compare=False, repr=False)
    sequence_pr: np.ndarray | None = field(default=None, compare=False, repr=False)

    def of_sequences(self, rows: Sequence[int], cfg: MetricConfig) -> "BenchmarkScores":
        """The scores of the sub-benchmark made of the sequences at ``rows``
        (manifest positions, in order), equal to scoring it anew."""
        return _scores_of_rows(self.sequence_sr[rows], self.sequence_pr[rows], cfg)


@dataclass(frozen=True)
class ScenarioReport:
    """Per-policy evaluation results plus the selection-policy trace ratios."""

    policies: dict[str, BenchmarkScores]
    selection_ratios: tuple[float, float, float]
    n_sequences: int
    n_frames: int
    seed: int


def _one_row(frame: FrameTruth | FramePrediction) -> _Block:
    """One frame as a :class:`_Block` of one row. A frame object is valid
    by construction, so the checks of ``FrameColumns`` are skipped."""
    rows, present = FrameColumns._columns_of((frame,))
    return _Block(np.array(rows, dtype=np.float64), np.array(present))


def iou(g: FrameTruth, p: FramePrediction) -> float:
    """Overlap score totalized over all presence/absence combinations.

    Two present boxes score their intersection over union, clamped to
    [0, 1], or 0 when the union has no area. Correctly declared absence
    scores 1; any presence mismatch scores 0.
    """
    return float(_frame_values(_one_row(g), _one_row(p))[0][0])


def center_distance(g: FrameTruth, p: FramePrediction) -> float | AbsenceOutcome:
    """Euclidean distance between box centers, with absence overrides.

    When either side is absent no distance exists; the function returns
    :class:`AbsenceOutcome` instead (``CORRECT_ABSENCE`` when absence was
    correctly declared, ``WRONG_PREDICTION`` otherwise). The precision
    indicator consumes these markers.
    """
    _, distance, correct = _frame_values(_one_row(g), _one_row(p))
    if g.is_present and p.is_present:
        return float(distance[0])
    return AbsenceOutcome.CORRECT_ABSENCE if correct[0] else AbsenceOutcome.WRONG_PREDICTION


def frame_success_indicator(g: FrameTruth, p: FramePrediction, th_s: float) -> int:
    """1 iff the frame counts as a success at overlap threshold ``th_s``.

    The comparison is strict (``iou > th_s``). A correctly declared absence
    counts as a success at every threshold, including ``th_s = 1``.
    """
    return int(sequence_score((g,), (p,), th_s, "success"))


def frame_precision_indicator(g: FrameTruth, p: FramePrediction, th_p: float) -> int:
    """1 iff the center error passes ``th_p`` (``distance <= th_p``).

    A correctly declared absence passes at every threshold; any presence
    mismatch fails at every threshold.
    """
    return int(sequence_score((g,), (p,), th_p, "precision"))


def _py_max(a: np.ndarray | float, b: np.ndarray | float) -> np.ndarray:
    # Python's max(a, b): b only where b > a, so ties (and signed zeros)
    # resolve the same way
    return np.where(b > a, b, a)


def _py_min(a: np.ndarray | float, b: np.ndarray | float) -> np.ndarray:
    return np.where(b < a, b, a)


class _Block(NamedTuple):
    """Frames laid out as in :class:`FrameColumns`, unchecked: ``(..., 4)``
    boxes and ``(...)`` presence, for one frame, one sequence or a block of
    equal-length sequences with a leading sequence axis; an expert stream's
    frames add ``(...)`` confidences."""

    boxes: np.ndarray
    present: np.ndarray
    confidence: np.ndarray | None = None


@np.errstate(over="ignore", invalid="ignore")
def _frame_values(gt, pred) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-frame overlap, centre distance and correct-absence mask.

    ``gt`` and ``pred`` are each a :class:`FrameColumns` or a
    :class:`_Block`, of equal shape: one frame, one sequence, or a block of
    equal-length sequences. This is the only implementation of the
    per-frame protocol; the scalar functions call it on one frame. Each
    axis overlap is anchored at the right-most low edge, so identical boxes
    overlap by exactly their size. The distance is NaN, which passes no
    threshold, wherever either side is absent. Overflow on huge finite
    boxes gives the IEEE result without a warning.
    """
    g, p = gt.boxes, pred.boxes
    both = gt.present & pred.present
    correct_absence = ~(gt.present | pred.present)

    def overlap(lo_a, len_a, lo_b, len_b):
        o = _py_max(lo_a, lo_b)
        return _py_max(0.0, _py_min((lo_a - o) + len_a, (lo_b - o) + len_b))

    inter = overlap(g[..., 0], g[..., 2], p[..., 0], p[..., 2]) * overlap(
        g[..., 1], g[..., 3], p[..., 1], p[..., 3]
    )
    union = g[..., 2] * g[..., 3] + p[..., 2] * p[..., 3] - inter
    positive = union > 0.0
    ratio = np.divide(inter, union, out=np.zeros_like(inter), where=positive)
    ratio = _py_min(1.0, _py_max(0.0, ratio))
    iou_values = np.where(both & positive, ratio, np.where(correct_absence, 1.0, 0.0))

    dx = (g[..., 0] + g[..., 2] / 2.0) - (p[..., 0] + p[..., 2] / 2.0)
    dy = (g[..., 1] + g[..., 3] / 2.0) - (p[..., 1] + p[..., 3] / 2.0)
    distance = np.where(both, np.sqrt(dx * dx + dy * dy), np.nan)
    return iou_values, distance, correct_absence


def sequence_score(
    gt: SequenceAnnotation | Sequence[FrameTruth],
    pred: Sequence[FramePrediction],
    th: float,
    kind: str = "success",
    pooling: str = "frame",
) -> float:
    """Score one sequence at a single threshold.

    ``kind`` selects the metric ("success" or "precision"); ``pooling``
    selects frame-indicator averaging (default) or the sequence-mean
    variant that binarizes the mean raw metric.
    """
    if not isinstance(gt, SequenceAnnotation):
        gt = SequenceAnnotation("sequence", gt)  # a bare frame list, held to the same rules
    pred = PredictionColumns.from_frames(pred)
    _check_lengths(gt.id, groundtruth=len(gt), predictions=len(pred))
    if kind not in ("success", "precision"):
        raise ConfigError(f"kind must be 'success' or 'precision', got {kind!r}")
    if pooling not in POOLING_MODES:
        raise ConfigError(f"pooling must be one of {POOLING_MODES}, got {pooling!r}")
    th = _number("th_s", th, 0.0, 1.0) if kind == "success" else _number("th_p", th, 0.0)
    sr, pr = _curves(_frame_values(gt.frames, pred), np.array([th]), np.array([th]), pooling)
    return float(sr[0] if kind == "success" else pr[0])


def _curves(
    values: tuple[np.ndarray, np.ndarray, np.ndarray], ths: np.ndarray, thp: np.ndarray, pooling: str
) -> tuple[np.ndarray, np.ndarray]:
    """Success and precision scores at every threshold of each sequence
    whose :func:`_frame_values` lie along the last axis; the thresholds
    become the last axis of the result. Frame pooling sorts each sequence's
    overlaps (correct absences at ``+inf``; never NaN) and distances (at
    ``-inf``; NaN sorts last) and binary-searches each grid: exact counts."""
    overlap, distance, correct = values
    t = overlap.shape[-1]
    if pooling == "frame":
        lead = overlap.shape[:-1]
        over, dist = np.where(correct, np.inf, overlap), np.where(correct, -np.inf, distance)
        over.sort(axis=-1)
        dist.sort(axis=-1)
        sr_count = [t - row.searchsorted(ths, "right") for row in over.reshape(math.prod(lead), t)]
        pr_count = [row.searchsorted(thp, "right") for row in dist.reshape(math.prod(lead), t)]
        return np.reshape(sr_count, lead + ths.shape) / t, np.reshape(pr_count, lead + thp.shape) / t
    # sequence-mean pooling binarizes the mean raw metric; absence frames
    # contribute their correctness value (1 correct absence, 0 otherwise)
    raw_distance = np.where(np.isnan(distance), correct, distance)

    def mean(v: np.ndarray) -> np.ndarray:
        sums = [math.fsum(row) for row in v.reshape(-1, t).tolist()]
        return (np.array(sums) / t).reshape(v.shape[:-1] + (1,))

    return (mean(overlap) > ths).astype(float), (mean(raw_distance) <= thp).astype(float)


def benchmark_scores(
    manifest: DatasetManifest,
    results: Mapping[str, Sequence[FramePrediction]],
    cfg: MetricConfig | None = None,
) -> BenchmarkScores:
    """Evaluate a benchmark: per-threshold curves, AUC and the PR report point.

    For each threshold the benchmark score is the mean over sequences of
    the per-sequence score. Per-sequence scores are accumulated
    left-to-right in manifest order (plain sequential summation), so
    results are bit-reproducible. Prediction lists are converted to
    columns once, here.
    The per-sequence scores are kept in the result, so the scores of any
    subset of sequences follow without scoring again
    (:meth:`BenchmarkScores.of_sequences`).
    """
    cfg = cfg or MetricConfig()
    rows = []
    for seq in manifest.sequences:
        if seq.id not in results:
            raise MissingSequenceResultError(f"no results for sequence {seq.id!r}")
        rows.append(_sequence_rows(seq, results[seq.id], cfg))
    return _scores_of_rows(*zip(*rows), cfg)


def _sequence_rows(seq: SequenceAnnotation, pred, cfg: MetricConfig) -> tuple[np.ndarray, np.ndarray]:
    """One sequence's scores at every threshold of ``cfg``: its rows of
    :attr:`BenchmarkScores.sequence_sr` and ``sequence_pr``."""
    pred = PredictionColumns.from_frames(pred)
    _check_lengths(seq.id, groundtruth=len(seq.frames), predictions=len(pred))
    ths, thp = np.asarray(cfg.success_thresholds), np.asarray(cfg.precision_thresholds)
    return _curves(_frame_values(seq.frames, pred), ths, thp, cfg.pooling)


def _mean_of_rows(rows: np.ndarray) -> np.ndarray:
    """Column means, the rows added strictly left to right."""
    total = np.zeros(rows.shape[1])
    for row in rows:
        total += row
    return total / len(rows)


def _scores_of_rows(sr_rows, pr_rows, cfg: MetricConfig) -> BenchmarkScores:
    """The scores of the sequences whose rows (manifest order) are given."""
    sr_rows, pr_rows = np.asarray(sr_rows), np.asarray(pr_rows)
    sr_curve = Curve(cfg.success_thresholds, tuple(_mean_of_rows(sr_rows)))
    pr_curve = Curve(cfg.precision_thresholds, tuple(_mean_of_rows(pr_rows)))
    sr_rows.flags.writeable = False
    pr_rows.flags.writeable = False
    return BenchmarkScores(
        pr_curve=pr_curve,
        sr_curve=sr_curve,
        pr_at_threshold=pr_curve.score_at(cfg.pr_report_threshold),
        sr_auc=auc(sr_curve),
        sequence_sr=sr_rows,
        sequence_pr=pr_rows,
    )


def auc(c: Curve) -> float:
    """Area under a curve: the arithmetic mean of its grid scores.

    On a uniform grid this equals the normalized trapezoid rule up to
    endpoint treatment; the mean convention is used so reported numbers are
    bit-reproducible.
    """
    if len(c) == 0:
        raise EmptyCurveError("cannot take the AUC of an empty curve")
    return math.fsum(c.scores) / len(c)
