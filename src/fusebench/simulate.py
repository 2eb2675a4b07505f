"""Synthetic expert-stream simulator for fusion-policy experiments.

The simulator generates ground-truth box trajectories and three expert
streams (RGB, TIR, fused) whose quality is controlled by degradation
profiles, then evaluates five policies against each other:

* ``selection``     -- pick the highest-confidence expert per frame;
* ``always-fuse``   -- always use the fused expert;
* ``rgb-only`` / ``tir-only`` -- single-modality baselines;
* ``oracle``        -- per-frame best expert by true overlap (upper bound).

Degradation is modelled at the decision level: a degraded modality emits
predictions uncorrelated with the target (random, frozen or drifting
boxes), while an informative modality emits the true box with small
zero-mean jitter. Expert confidences are the true per-frame overlap plus
bounded uniform noise, so a noise level of zero gives perfectly calibrated
selection.

Everything is deterministic given the scenario seed: per-sequence and
per-stream random generators are derived statelessly from the master seed,
so results do not depend on any execution schedule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .errors import ConfigError, IntervalOutOfBoundsError, _number, _numbers
from .fusion import DEFAULT_TIE_POLICY, EXPERTS, TiePolicy, _select_by_score, _tie_argmax
# unused here; the benchmark's tracer self-test (bench/test_bench.py) checks
# that it finds and wraps a function under a name another module imported
from .fusion import fuse_streams  # noqa: F401
from .metrics import (
    MetricConfig,
    ScenarioReport,
    _curves,
    _frame_values,
    _one_row,
    _py_max,
    _py_min,
    _scores_of_rows,
)
from .model import (
    Expert,
    ExpertStream,
    FrameColumns,
    FramePrediction,
    FrameTruth,
    PredictionColumns,
    SequenceAnnotation,
    TruthColumns,
    _check_lengths,
)

__all__ = [
    "DegradedBehavior",
    "DegradationProfile",
    "FusedQualityModel",
    "ScenarioConfig",
    "ScenarioReport",
    "POLICIES",
    "child_seed",
    "generate_trajectory",
    "degraded_mask",
    "degrade_modality",
    "calibrate_confidence",
    "synthesize_fused_expert",
    "oracle_best_selection",
    "run_scenario",
]

POLICIES = ("selection", "always-fuse", "rgb-only", "tir-only", "oracle")


class DegradedBehavior(str, Enum):
    """What a non-informative modality emits on degraded frames."""

    UNIFORM_RANDOM_BOX = "uniform-random-box"
    FROZEN_BOX = "frozen-box"
    DRIFTING_BOX = "drifting-box"


@dataclass(frozen=True)
class DegradationProfile:
    """Describes when and how one modality stops being informative.

    Degraded frames are given either as explicit ``[start, end)`` intervals
    or as a random fraction of all frames (mutually exclusive). On
    informative frames the prediction is the true box jittered by zero-mean
    Gaussian noise with scale ``sigma_in`` times the box size.
    ``confidence_noise`` is the half-width of the uniform noise added to
    the overlap-based confidence (0 = perfectly calibrated).
    """

    target: Expert = Expert.RGB
    intervals: tuple[tuple[int, int], ...] | None = None
    fraction: float | None = None
    sigma_in: float = 0.05
    behavior: DegradedBehavior = DegradedBehavior.UNIFORM_RANDOM_BOX
    confidence_noise: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "target", Expert(self.target))
        object.__setattr__(self, "behavior", DegradedBehavior(self.behavior))
        if self.target is Expert.RGBT:
            raise ConfigError("degradation targets a single modality (rgb or tir)")
        if self.intervals is not None and self.fraction is not None:
            raise ConfigError("give degraded intervals or a fraction, not both")
        if self.intervals is not None:
            if not isinstance(self.intervals, Iterable):
                raise ConfigError(f"intervals must be a list of [start, end) pairs, got {self.intervals!r}")
            ivs = tuple(_numbers(f"intervals[{i}]", v, 2, integer=True) for i, v in enumerate(self.intervals))
            object.__setattr__(self, "intervals", ivs)
            for s, e in ivs:
                if s < 0 or e < s:
                    raise IntervalOutOfBoundsError(f"bad interval [{s}, {e})")
        if self.fraction is not None:
            object.__setattr__(self, "fraction", _number("fraction", self.fraction, 0.0, 1.0))
        for name in ("sigma_in", "confidence_noise"):
            object.__setattr__(self, name, _number(name, getattr(self, name), 0.0))


@dataclass(frozen=True)
class FusedQualityModel:
    """Quality law of the synthesized fused expert.

    With both inputs informative the fused overlap target is
    ``min(1, best_input + boost)`` (modality synergy). With one input
    degraded it is the mixture
    ``informative_weight * informative + (1 - informative_weight) * degraded``,
    i.e. the degraded side drags fusion down. With both degraded the same
    mixture is applied to (best, worst).
    """

    informative_weight: float = 0.5
    boost: float = 0.05
    confidence_noise: float = 0.0

    def __post_init__(self):
        for name, high in (("informative_weight", 1.0), ("boost", math.inf), ("confidence_noise", math.inf)):
            object.__setattr__(self, name, _number(name, getattr(self, name), 0.0, high))


def _default_rgb_profile() -> DegradationProfile:
    return DegradationProfile(target=Expert.RGB)


def _default_tir_profile() -> DegradationProfile:
    return DegradationProfile(target=Expert.TIR)


@dataclass(frozen=True)
class ScenarioConfig:
    """Full generative description of one simulation experiment."""

    n_sequences: int = 10
    n_frames: int = 100
    extent: tuple[float, float] = (640.0, 480.0)
    size_range: tuple[float, float] = (30.0, 60.0)
    motion_step_std: float = 4.0
    seed: int = 0
    rgb: DegradationProfile = field(default_factory=_default_rgb_profile)
    tir: DegradationProfile = field(default_factory=_default_tir_profile)
    fused: FusedQualityModel = field(default_factory=FusedQualityModel)

    def __post_init__(self):
        for name, low in (("n_sequences", 1), ("n_frames", 1), ("seed", 0)):
            object.__setattr__(self, name, _number(name, getattr(self, name), low, integer=True))
        for name in ("extent", "size_range"):
            object.__setattr__(self, name, _numbers(name, getattr(self, name), 2))
        object.__setattr__(self, "motion_step_std", _number("motion_step_std", self.motion_step_std, 0.0))
        if self.extent[0] <= 0 or self.extent[1] <= 0:
            raise ConfigError(f"image extent must be positive, got {self.extent}")
        lo, hi = self.size_range
        if not 0 < lo <= hi:
            raise ConfigError(f"object size range must satisfy 0 < lo <= hi, got {self.size_range}")
        if hi > min(self.extent):
            raise ConfigError("objects must fit inside the image extent")
        if self.rgb.target is not Expert.RGB:
            raise ConfigError("the rgb profile must target the rgb modality")
        if self.tir.target is not Expert.TIR:
            raise ConfigError("the tir profile must target the tir modality")
        for profile in (self.rgb, self.tir):
            _mask_block(profile, self.n_frames, ())  # the intervals must fit the sequences


def _seed_sequence(seed) -> np.random.SeedSequence:
    if isinstance(seed, np.random.SeedSequence):
        return seed
    return np.random.SeedSequence(seed)


def child_seed(seed, *keys: int) -> np.random.SeedSequence:
    """Stateless child-seed derivation: append ``keys`` to the spawn key.

    Unlike ``SeedSequence.spawn`` this has no internal counter, so the same
    (seed, keys) pair always yields the same child regardless of call order
    -- results stay schedule-independent.
    """
    base = _seed_sequence(seed)
    return np.random.SeedSequence(entropy=base.entropy, spawn_key=tuple(base.spawn_key) + keys)


def generate_trajectory(
    cfg: ScenarioConfig, seed, sequence_id: str | None = None
) -> SequenceAnnotation:
    """Smooth random-walk box trajectory clipped to the image extent.

    The center performs an independent Gaussian random walk per axis with
    reflective boundary handling; the box size is constant per sequence.
    Deterministic for a fixed seed. The frames are built as
    :class:`TruthColumns`.
    """
    block = _trajectory_block(cfg, [seed])
    sid = sequence_id if sequence_id is not None else f"sim-{_seed_sequence(seed).entropy}"
    return SequenceAnnotation(id=sid, frames=TruthColumns(block.boxes[0], block.present[0]))


def degraded_mask(profile: DegradationProfile, n_frames: int, seed) -> np.ndarray:
    """Boolean mask of degraded frames for a sequence of ``n_frames``.

    Interval profiles are deterministic; fraction profiles choose a uniform
    random subset of ``round(fraction * n_frames)`` frames.
    """
    return _mask_block(profile, n_frames, [seed])[0]


def calibrate_confidence(pred: FramePrediction, gt: FrameTruth, noise: float = 0.0, seed=0) -> float:
    """Confidence = true overlap plus bounded uniform noise, clamped to [0, 1].

    ``noise = 0`` gives perfect calibration. ``seed`` may be an int, a
    ``SeedSequence`` or an existing ``Generator``.
    """
    noise = _number("confidence noise", noise, 0.0)
    draw = 0.0
    if noise > 0:
        rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
        draw = rng.uniform(-noise, noise)
    pred = _one_row(pred)
    block, _ = _calibrated(_row(_one_row(gt)), pred.boxes[None], pred.present[None], noise, np.array([[draw]]))
    return float(block.confidence[0, 0])


def _draws(
    rngs: Sequence[np.random.Generator], used: np.ndarray, normal: np.ndarray, a: np.ndarray, b: np.ndarray
) -> np.ndarray:
    """Random draws laid out as one table per sequence, each made by the
    sequence's own generator row by row, left to right.

    ``used`` (S, n, k) marks the draws each frame makes; column ``j`` is a
    ``Normal(a, b)`` draw where ``normal[j]`` and a ``Uniform(a, b)`` draw
    otherwise. Unused entries are 0. Each run of consecutive draws of one
    kind is made in one call, which yields the same numbers as making the
    draws one at a time in that order.
    """
    out = np.zeros(used.shape)
    for rng, used_s, a_s, b_s, out_s in zip(rngs, used, a, b, out):
        if not used_s.any():
            continue
        is_normal = np.broadcast_to(normal, used_s.shape)[used_s]
        lo, hi = a_s[used_s], b_s[used_s]
        values = np.empty(len(is_normal))
        cuts = (np.flatnonzero(is_normal[1:] != is_normal[:-1]) + 1).tolist()
        for i, j in zip([0, *cuts], [*cuts, len(is_normal)]):
            draw = rng.normal if is_normal[i] else rng.uniform
            values[i:j] = draw(lo[i:j], hi[i:j])
        out_s[used_s] = values
    return out


class _Block(NamedTuple):
    """Frames of a block of equal-length sequences, laid out as in
    :class:`FrameColumns` with a leading sequence axis: ``(S, T, 4)`` boxes
    and ``(S, T)`` presence; an expert stream's block adds ``(S, T)``
    confidences."""

    boxes: np.ndarray
    present: np.ndarray
    confidence: np.ndarray | None = None


def _trajectory_block(cfg: ScenarioConfig, seeds: Sequence) -> _Block:
    """:func:`generate_trajectory` of each of ``seeds``, as a block. Each
    sequence draws its size, start and steps from its own generator; then
    all sequences walk together, frame by frame, reflecting off the extent
    (an axis the box fills keeps its centre in the middle)."""
    W, H = cfg.extent
    lo, hi = cfg.size_range
    sizes, starts, steps = [], [], []
    for seed in seeds:
        rng = np.random.default_rng(_seed_sequence(seed))
        w, h = rng.uniform(lo, hi), rng.uniform(lo, hi)
        sizes.append((w, h))
        starts.append((rng.uniform(w / 2.0, W - w / 2.0), rng.uniform(h / 2.0, H - h / 2.0)))
        steps.append(rng.normal(0.0, cfg.motion_step_std, size=(cfg.n_frames - 1, 2)))
    size = np.array(sizes)
    low = size / 2.0
    span = (np.array(cfg.extent) - low) - low
    two = 2.0 * span
    walk = np.empty((cfg.n_frames, len(seeds), 2))
    walk[0] = starts
    with np.errstate(all="ignore"):  # a filled axis folds to NaN; too big a step overflows
        for t, step in enumerate(np.stack(steps, axis=1), 1):
            u = np.fmod(walk[t - 1] + step - low, two)
            u = np.where(u < 0.0, u + two, u)
            walk[t] = low + np.where(u <= span, u, two - u)
    walk = np.where(span > 0.0, walk, low).transpose(1, 0, 2)
    if not np.isfinite(walk).all():
        raise ConfigError(f"motion_step_std {cfg.motion_step_std!r} walks the box to a non-finite position")
    boxes = np.concatenate([walk - low[:, None], np.broadcast_to(size[:, None], walk.shape)], axis=-1)
    return _Block(boxes, np.ones(walk.shape[:2], dtype=bool))


def _mask_block(profile: DegradationProfile, n_frames: int, seeds: Sequence) -> np.ndarray:
    """:func:`degraded_mask` of each of ``seeds``, as an ``(S, T)`` array."""
    mask = np.zeros((len(seeds), n_frames), dtype=bool)
    if profile.intervals is not None:
        for s, e in profile.intervals:
            if e > n_frames:
                raise IntervalOutOfBoundsError(f"interval [{s}, {e}) exceeds sequence length {n_frames}")
            mask[:, s:e] = True
    elif profile.fraction:
        k = int(round(profile.fraction * n_frames))
        for row, seed in zip(mask, seeds):
            row[np.random.default_rng(_seed_sequence(seed)).choice(n_frames, size=k, replace=False)] = True
    return mask


def _row(frames: FrameColumns) -> _Block:
    """One sequence as a block of one."""
    return _Block(frames.boxes[None], frames.present[None])


def _stream(expert: Expert, block: _Block) -> ExpertStream:
    """The expert stream of a block of one."""
    return ExpertStream(expert=expert, predictions=PredictionColumns(*(a[0] for a in block)))


def _calibrated(
    gt: _Block, boxes: np.ndarray, present: np.ndarray, noise: float, noise_draws: np.ndarray
) -> tuple[_Block, tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """A stream whose confidences are each frame's overlap against ``gt``
    plus its ``Uniform(-noise, noise)`` draw, clamped to [0, 1] (the rule
    of :func:`calibrate_confidence`), and the stream's
    :func:`_frame_values` against ``gt``."""
    values = _frame_values(gt, _Block(boxes, present))
    c = values[0] + noise_draws if noise > 0 else values[0]
    return _Block(boxes, present, _py_min(1.0, _py_max(0.0, c))), values


def _degrade_block(
    gt: _Block,
    mask: np.ndarray,
    profile: DegradationProfile,
    extent: tuple[float, float],
    rngs: Sequence[np.random.Generator],
) -> tuple[_Block, tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """:func:`degrade_modality` of each sequence of a block, given its
    ``(S, T)`` degraded masks and one generator per sequence."""
    g, present = gt.boxes, gt.present
    n_seq, n = mask.shape
    W, H = float(extent[0]), float(extent[1])
    informative = present & ~mask
    behavior = profile.behavior
    uniform = mask if behavior is DegradedBehavior.UNIFORM_RANDOM_BOX else np.zeros_like(mask)
    drifting = mask if behavior is DegradedBehavior.DRIFTING_BOX else np.zeros_like(mask)

    # the last informative prediction before each frame: the first present
    # target (or a fallback box) until the first informative frame
    seqs = np.arange(n_seq)[:, None]
    fallback = np.array([W / 2.0 - W / 20.0, H / 2.0 - H / 20.0, W / 10.0, H / 10.0])
    first = g[seqs[:, 0], present.argmax(axis=1)]
    start_box = np.where(present.any(axis=1)[:, None], first, fallback)[:, None]
    last = np.maximum.accumulate(np.where(informative, np.arange(n), -1), axis=1)
    seen = (last >= 0)[..., None]
    last_size = np.where(seen, g[seqs, last, 2:], start_box[..., 2:])
    ref_size = np.where(present[..., None], g[..., 2:], last_size)
    step = 0.15 * (last_size[..., 0] + last_size[..., 1]) / 2.0

    used = np.zeros((n_seq, n, 5), dtype=bool)
    used[..., :2] = ((informative & (profile.sigma_in > 0)) | drifting)[..., None]
    used[..., 2:4] = uniform[..., None]
    used[..., 4] = profile.confidence_noise > 0
    a = np.zeros((n_seq, n, 5))
    b = np.zeros((n_seq, n, 5))
    b[..., :2] = np.where(drifting[..., None], step[..., None], profile.sigma_in * g[..., 2:])
    b[..., 2:4] = _py_max(np.array([W, H]) - ref_size, 0.0)
    a[..., 4], b[..., 4] = -profile.confidence_noise, profile.confidence_noise
    d = _draws(rngs, used, np.array([True, True, False, False, False]), a, b)

    jittered = np.concatenate([g[..., :2] + d[..., :2], g[..., 2:]], axis=-1)
    last_box = np.where(seen, jittered[seqs, last], start_box)
    boxes = np.where(informative[..., None], jittered, 0.0)
    boxes[uniform] = np.concatenate([d[..., 2:4], ref_size], axis=-1)[uniform]
    if behavior is DegradedBehavior.FROZEN_BOX:
        boxes[mask] = last_box[mask]
    # a drift starts from the last informative prediction on the first
    # frame of each degraded run and accumulates its steps left to right
    edges = np.diff(np.pad(drifting.astype(np.int8), ((0, 0), (1, 1))), axis=1)
    run_seq, at = np.nonzero(edges)
    for s, lo, hi in zip(run_seq[::2].tolist(), at[::2].tolist(), at[1::2].tolist()):
        walk = np.concatenate([last_box[s, lo : lo + 1, :2], d[s, lo:hi, :2]])
        boxes[s, lo:hi, :2] = np.cumsum(walk, axis=0)[1:]
        boxes[s, lo:hi, 2:] = last_box[s, lo, 2:]
    return _calibrated(gt, boxes, present | mask, profile.confidence_noise, d[..., 4])


def degrade_modality(
    gt: SequenceAnnotation,
    profile: DegradationProfile,
    seed,
    extent: tuple[float, float] = (640.0, 480.0),
    mask: np.ndarray | None = None,
) -> ExpertStream:
    """Expert stream for one modality under a degradation profile.

    Informative frames emit the true box jittered by
    ``Normal(0, sigma_in * size)`` per axis (declared absence on absent
    ground-truth frames). Degraded frames follow the profile's behavior:

    * uniform-random-box: uniformly placed box of the target's size,
      uncorrelated with the target;
    * frozen-box: the last informative prediction, repeated;
    * drifting-box: a random walk wandering away from the last informative
      prediction (step scale 0.15 of the mean box side).

    Confidences are :func:`calibrate_confidence` of each prediction. Per
    frame, in frame order, the stream draws: the x then y jitter
    (informative frames with a present target, when ``sigma_in > 0``) or
    the x then y drift step (degraded drifting-box frames); the x then y
    position (degraded uniform-random-box frames); then the confidence
    noise (every frame, when ``confidence_noise > 0``).

    ``mask`` may be supplied to reuse a precomputed degraded-frame mask;
    when omitted it is derived from the seed exactly as
    ``degraded_mask(profile, len(gt), child_seed(seed, 0))``.
    """
    n = len(gt)
    if mask is None:
        mask = degraded_mask(profile, n, child_seed(seed, 0))
    else:
        _check_lengths("degraded mask", groundtruth=n, mask=len(mask))
        _mask_block(profile, n, ())  # a given mask still needs intervals that fit the sequence
    rng = np.random.default_rng(child_seed(seed, 1))
    mask = np.asarray(mask, dtype=bool)[None]
    return _stream(profile.target, _degrade_block(_row(gt.frames), mask, profile, extent, [rng])[0])


def _fuse_block(
    gt: _Block,
    q_rgb: np.ndarray,
    q_tir: np.ndarray,
    rgb_deg: np.ndarray,
    tir_deg: np.ndarray,
    model: FusedQualityModel,
    rngs: Sequence[np.random.Generator],
) -> tuple[_Block, tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """:func:`synthesize_fused_expert` of each sequence of a block, given
    the ``(S, T)`` input overlaps and degraded masks and one generator per
    sequence."""
    a = model.informative_weight
    best, worst = _py_max(q_rgb, q_tir), _py_min(q_rgb, q_tir)
    target = np.select(
        [~rgb_deg & ~tir_deg, rgb_deg & ~tir_deg, tir_deg & ~rgb_deg],
        [_py_min(1.0, best + model.boost), a * q_tir + (1.0 - a) * q_rgb, a * q_rgb + (1.0 - a) * q_tir],
        a * best + (1.0 - a) * worst,
    )
    q = _py_min(1.0, _py_max(0.0, target))

    g, present = gt.boxes, gt.present
    noise = model.confidence_noise
    shifted = present & (g[..., 2] > 0.0) & (g[..., 3] > 0.0)
    used = np.stack([shifted, np.full(shifted.shape, noise > 0)], axis=-1)
    lo = np.zeros(used.shape)
    hi = np.ones(used.shape)
    lo[..., 1], hi[..., 1] = -noise, noise
    u = _draws(rngs, used, np.array([False, False]), lo, hi)
    sign = np.where(u[..., 0] < 0.5, 1.0, -1.0)
    shift = g[..., 2] * (1.0 - q) / (1.0 + q)
    boxes = g.copy()
    boxes[shifted, 0] += (sign * shift)[shifted]
    boxes[shifted, 1] += 0.0  # a shifted box has y + 0.0, which maps -0.0 to 0.0
    return _calibrated(gt, boxes, present, noise, u[..., 1])


def synthesize_fused_expert(
    rgb: ExpertStream,
    tir: ExpertStream,
    gt: SequenceAnnotation,
    model: FusedQualityModel | None = None,
    seed=0,
    rgb_degraded: Sequence[bool] | np.ndarray | None = None,
    tir_degraded: Sequence[bool] | np.ndarray | None = None,
) -> ExpertStream:
    """Fused expert whose per-frame overlap follows the quality model.

    Input qualities are the true per-frame overlaps of the two streams.
    The degraded masks say which side is non-informative at each frame
    (default: neither). A box realizing the resulting quality target is
    synthesized by a horizontal shift of the true box: shifting an
    equal-size box by ``d = w (1 - q) / (1 + q)`` yields IoU exactly ``q``
    (up to rounding). Per frame, in frame order, the stream draws: the
    shift direction (frames whose target has positive width and height),
    then the confidence noise (every frame, when ``confidence_noise > 0``).
    """
    model = model or FusedQualityModel()
    n = len(gt)
    rgb_deg = np.zeros(n, dtype=bool) if rgb_degraded is None else np.asarray(rgb_degraded, dtype=bool)
    tir_deg = np.zeros(n, dtype=bool) if tir_degraded is None else np.asarray(tir_degraded, dtype=bool)
    _check_lengths("fused expert", groundtruth=n, rgb=len(rgb), tir=len(tir),
                   rgb_degraded=len(rgb_deg), tir_degraded=len(tir_deg))

    rng = np.random.default_rng(_seed_sequence(seed))
    q_rgb = _frame_values(gt.frames, rgb.predictions)[0]
    q_tir = _frame_values(gt.frames, tir.predictions)[0]
    fused, _ = _fuse_block(
        _row(gt.frames), q_rgb[None], q_tir[None], rgb_deg[None], tir_deg[None], model, [rng]
    )
    return _stream(Expert.RGBT, fused)


def oracle_best_selection(
    rgb: ExpertStream,
    tir: ExpertStream,
    rgbt: ExpertStream,
    gt: SequenceAnnotation,
    tie: TiePolicy = DEFAULT_TIE_POLICY,
) -> PredictionColumns:
    """Per frame, the prediction with maximal true overlap (ties by policy)."""
    _check_lengths("oracle selection", groundtruth=len(gt), rgb=len(rgb), tir=len(tir), rgbt=len(rgbt))
    streams = (rgb, tir, rgbt)
    overlaps = np.column_stack([_frame_values(gt.frames, s.predictions)[0] for s in streams])
    return _select_by_score(streams, overlaps, tie)[1]


#: ``run_scenario`` evaluates blocks of as many whole sequences as fit in
#: this many frames, and at least one. A bigger block saves little time
#: and raises peak memory (one block for a 100 x 200-frame scenario takes
#: about a fifth more than 20-sequence blocks).
_BLOCK_FRAMES = 4096


def _scenario_block(
    cfg: ScenarioConfig, seqs: range, ths: np.ndarray, thp: np.ndarray, pooling: str
) -> tuple[dict[str, tuple[np.ndarray, np.ndarray]], np.ndarray]:
    """The sequences ``seqs`` of a scenario, evaluated as one block.

    Returns each policy's per-sequence success and precision rows and the
    number of frames the selection policy gave each expert. Every stream
    draws from its own per-sequence generator, in the same order as
    :func:`degrade_modality` and :func:`synthesize_fused_expert`.
    """
    gt = _trajectory_block(cfg, [child_seed(cfg.seed, i, 0) for i in seqs])

    def modality(key: int, profile: DegradationProfile):
        seeds = [child_seed(cfg.seed, i, key) for i in seqs]
        mask = _mask_block(profile, cfg.n_frames, [child_seed(s, 0) for s in seeds])
        rngs = [np.random.default_rng(child_seed(s, 1)) for s in seeds]
        return mask, *_degrade_block(gt, mask, profile, cfg.extent, rngs)

    rgb_mask, rgb, rgb_values = modality(1, cfg.rgb)
    tir_mask, tir, tir_values = modality(2, cfg.tir)
    rngs = [np.random.default_rng(child_seed(cfg.seed, i, 3)) for i in seqs]
    fused, fused_values = _fuse_block(gt, rgb_values[0], tir_values[0], rgb_mask, tir_mask, cfg.fused, rngs)

    # (S, T, 3) overlap, distance and correct-absence, columns as EXPERTS
    values = [np.stack(v, axis=-1) for v in zip(rgb_values, tir_values, fused_values)]
    confidences = np.stack([rgb.confidence, tir.confidence, fused.confidence], axis=-1)
    selected = _tie_argmax(confidences, DEFAULT_TIE_POLICY)
    best = _tie_argmax(values[0], DEFAULT_TIE_POLICY)

    def picked(chosen: np.ndarray) -> tuple[np.ndarray, ...]:
        return tuple(np.take_along_axis(v, chosen[..., None], axis=-1)[..., 0] for v in values)

    policy_values = {
        "selection": picked(selected),
        "always-fuse": fused_values,
        "rgb-only": rgb_values,
        "tir-only": tir_values,
        "oracle": picked(best),
    }
    curves = {p: _curves(policy_values[p], ths, thp, pooling) for p in POLICIES}
    return curves, np.bincount(selected.ravel(), minlength=len(EXPERTS))


def run_scenario(cfg: ScenarioConfig, metric_cfg: MetricConfig | None = None) -> ScenarioReport:
    """Generate a scenario and evaluate all five policies on it.

    Per-sequence seeds are derived statelessly from the master seed, so the
    result is byte-reproducible and independent of evaluation order. The
    sequences are evaluated in blocks of whole sequences (see
    :data:`_BLOCK_FRAMES`); the report equals evaluating them one at a time.
    """
    metric_cfg = metric_cfg or MetricConfig()
    ths = np.asarray(metric_cfg.success_thresholds)
    thp = np.asarray(metric_cfg.precision_thresholds)
    per_block = max(1, _BLOCK_FRAMES // cfg.n_frames)
    rows: dict[str, tuple[list, list]] = {p: ([], []) for p in POLICIES}
    chosen_counts = np.zeros(len(EXPERTS), dtype=np.int64)
    for first in range(0, cfg.n_sequences, per_block):
        seqs = range(first, min(first + per_block, cfg.n_sequences))
        curves, counts = _scenario_block(cfg, seqs, ths, thp, metric_cfg.pooling)
        chosen_counts += counts
        for p, (sr, pr) in curves.items():
            rows[p][0].append(sr)
            rows[p][1].append(pr)
    policies = {
        p: _scores_of_rows(np.concatenate(sr), np.concatenate(pr), metric_cfg) for p, (sr, pr) in rows.items()
    }
    total_frames = cfg.n_sequences * cfg.n_frames
    return ScenarioReport(
        policies=policies,
        selection_ratios=tuple(c / total_frames for c in chosen_counts.tolist()),
        n_sequences=cfg.n_sequences,
        n_frames=cfg.n_frames,
        seed=cfg.seed,
    )
