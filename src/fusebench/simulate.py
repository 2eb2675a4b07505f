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

import functools
import math
import sys
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import ConfigError, IntervalOutOfBoundsError, _number, _numbers
from .fusion import DEFAULT_TIE_POLICY, EXPERTS, TiePolicy, _pick, _select_by_score, _tie_argmax
# unused here; the benchmark's tracer self-test (bench/test_bench.py) checks
# that it finds and wraps a function under a name another module imported
from .fusion import fuse_streams  # noqa: F401
from .metrics import (
    MetricConfig,
    ScenarioReport,
    _Block,
    _curves,
    _frame_values,
    _py_max,
    _py_min,
    _scores_of_rows,
)
from .model import (
    Expert,
    ExpertStream,
    FrameColumns,
    PredictionColumns,
    SequenceAnnotation,
    TruthColumns,
    _check_lengths,
    _Choice,
)

__all__ = [
    "DegradedBehavior",
    "DegradationProfile",
    "FusedQualityModel",
    "ScenarioConfig",
    "POLICIES",
    "child_seed",
    "generate_trajectory",
    "degraded_mask",
    "degrade_modality",
    "synthesize_fused_expert",
    "oracle_best_selection",
    "run_scenario",
]

POLICIES = ("selection", "always-fuse", "rgb-only", "tir-only", "oracle")


class DegradedBehavior(_Choice):
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
        for name, high in (("sigma_in", math.inf), ("confidence_noise", sys.float_info.max / 2)):
            object.__setattr__(self, name, _number(name, getattr(self, name), 0.0, high))


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
        limits = (("informative_weight", 1.0), ("boost", math.inf), ("confidence_noise", sys.float_info.max / 2))
        for name, high in limits:
            object.__setattr__(self, name, _number(name, getattr(self, name), 0.0, high))


@dataclass(frozen=True)
class ScenarioConfig:
    """Full generative description of one simulation experiment."""

    n_sequences: int = 10
    n_frames: int = 100
    extent: tuple[float, float] = (640.0, 480.0)
    size_range: tuple[float, float] = (30.0, 60.0)
    motion_step_std: float = 4.0
    seed: int = 0
    rgb: DegradationProfile = DegradationProfile(target=Expert.RGB)
    tir: DegradationProfile = DegradationProfile(target=Expert.TIR)
    fused: FusedQualityModel = FusedQualityModel()

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
            _mask_block(profile, self.n_frames, (), 0)  # the intervals must fit the sequences


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


def _n_words(x) -> int:
    """How many 32-bit words ``SeedSequence`` reads from an int or a nested sequence of ints."""
    return max(1, -(-int(x).bit_length() // 32)) if isinstance(x, (int, np.integer)) else sum(map(_n_words, x))


def _hash_constants(init: int, mult: int, start: int, stop: int) -> np.ndarray:
    """The hash constant of numpy's ``SeedSequence`` after each of ``start`` to ``stop - 1`` steps."""
    return np.array([init * pow(mult, k, 2**32) % 2**32 for k in range(start, stop)], dtype=np.uint32)


def _seed_states(seed, first: Sequence[int], tails: Sequence[tuple[int, ...]]) -> np.ndarray:
    """The PCG64 seed words of ``child_seed(seed, i, *tail)`` for each tail and each ``i`` of ``first``,
    shape ``(len(tails), len(first), 4)``: numpy's ``SeedSequence`` on all keys at once, as uint32 columns.
    The seed's pool holds the words every key shares (the entropy zero-padded to the pool size, and the
    seed's own spawn key); each key word is hashed and mixed into it, then ``generate_state(4, uint64)``."""
    base = _seed_sequence(seed)  # child_seed gives every child the default pool size, 4
    if base.pool_size != 4 or any(not 0 <= k < 2**32 for k in (*first, *(k for tail in tails for k in tail))):
        raise ValueError("bulk derivation takes spawn keys in [0, 2**32) and a seed whose pool size is 4")
    shared, width = max(_n_words(base.entropy), 4) + _n_words(base.spawn_key), max(map(len, tails))
    padded = np.array([(*tail, *[0] * (width - len(tail))) for tail in tails], np.uint32).reshape(len(tails), width)
    lengths = np.array([len(tail) for tail in tails])[:, None, None]
    hashes = _hash_constants(0x43B0D7E5, 0x931E8875, 4 * shared, 4 * (shared + 1 + width) + 1)
    pool = base.pool
    for j, w in enumerate([np.array(first, dtype=np.uint32)[:, None], *padded.T[..., None, None]]):
        h = (w ^ hashes[4 * j : 4 * j + 4]) * hashes[4 * j + 1 : 4 * j + 5]  # 4 hashmix calls, one per pool word
        r = np.uint32(0xCA01F9DD) * pool - np.uint32(0x4973F715) * (h ^ h >> np.uint32(16))
        pool = np.where(j <= lengths, r ^ r >> np.uint32(16), pool)  # a shorter key mixes no more words
    hashes = _hash_constants(0x8B51F9DD, 0x58F38DED, 0, 9)
    state = (np.concatenate([pool, pool], axis=-1) ^ hashes[:8]) * hashes[1:]
    return (state ^ state >> np.uint32(16)).astype("<u4").view("<u8").astype(np.uint64)


@functools.cache
def _given_state() -> type:
    """The seed sequence of a :func:`_seed_states` row, made on first use: import leaves numpy.random out."""

    class GivenState(np.random.bit_generator.ISeedSequence):
        def __init__(self, words: np.ndarray):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            return self.words

    return GivenState


def _generator(state: np.ndarray) -> np.random.Generator:
    """``default_rng`` of the seed sequence whose seed words, a row of :func:`_seed_states`, are ``state``."""
    return np.random.Generator(np.random.PCG64(_given_state()(state)))


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


def _draws(
    rngs: Sequence[np.random.Generator], used: np.ndarray, normal: np.ndarray, a: np.ndarray, b: np.ndarray
) -> np.ndarray:
    """Random draws laid out as one table per sequence, each made by the
    sequence's own generator row by row, left to right.

    ``used`` (S, n, k) marks the draws each frame makes; column ``j`` is a
    ``Normal(a, b)`` draw where ``normal[j]`` and a ``Uniform(a, b)`` draw
    otherwise. Unused entries are 0. Each run of consecutive draws of one
    kind and one sequence is made in one ``standard_normal`` or ``random``
    call, and the table is then scaled once, ``a + b * z`` or
    ``a + (b - a) * u`` as numpy's ``normal`` and ``uniform`` compute each
    draw: the same numbers as making the draws one at a time in that order.
    """
    _, n, k = used.shape
    flat = np.flatnonzero(used)  # the draws in the order they are made
    seq, kind = flat // (n * k), normal[flat % k]
    starts = np.flatnonzero(np.diff(2 * seq + kind, prepend=-1)).tolist()  # a change of sequence or kind
    values = np.empty(len(flat))
    for i, j, s, is_normal in zip(starts, [*starts[1:], len(flat)], seq[starts].tolist(), kind[starts].tolist()):
        values[i:j] = (rngs[s].standard_normal if is_normal else rngs[s].random)(j - i)
    lo, hi = a.take(flat), b.take(flat)
    out = np.zeros(used.shape)
    with np.errstate(all="ignore"):  # numpy's C loop overflows to inf without a warning too
        out.put(flat, lo + np.where(kind, hi, hi - lo) * values)
    return out


def _trajectory_block(cfg: ScenarioConfig, rngs: Sequence) -> _Block:
    """:func:`generate_trajectory` of each of ``rngs`` (generators or seeds),
    as a block. Each sequence draws its size, start and steps from its own
    generator; then all sequences walk together, frame by frame, reflecting
    off the extent (an axis the box fills keeps its centre in the middle)."""
    W, H = cfg.extent
    sizes, starts, steps = [], [], []
    for rng in map(np.random.default_rng, rngs):  # a generator is returned as it is
        w, h = rng.uniform(*cfg.size_range, 2).tolist()
        sizes.append((w, h))
        # two scalar calls: one call on two-element arrays takes about four times as long
        starts.append((rng.uniform(w / 2.0, W - w / 2.0), rng.uniform(h / 2.0, H - h / 2.0)))
        steps.append(rng.normal(0.0, cfg.motion_step_std, size=(cfg.n_frames - 1, 2)))
    size = np.array(sizes)
    low = size / 2.0
    span = (np.array(cfg.extent) - low) - low
    walk = np.empty((cfg.n_frames, len(rngs), 2))
    walk[0] = starts
    with np.errstate(all="ignore"):  # a filled axis folds to NaN; too big a step or extent overflows
        two = 2.0 * span
        for t, step in enumerate(np.stack(steps, axis=1), 1):
            u = np.remainder(walk[t - 1] + step - low, two)  # fold into [0, two], then reflect
            np.add(low, np.where(u <= span, u, two - u), out=walk[t])
    walk = np.where(span > 0.0, walk, low).transpose(1, 0, 2)
    if not np.isfinite(walk).all():
        raise ConfigError(f"motion_step_std {cfg.motion_step_std!r} walks the box to a non-finite position")
    boxes = np.concatenate([walk - low[:, None], np.broadcast_to(size[:, None], walk.shape)], axis=-1)
    return _Block(boxes, np.ones(walk.shape[:2], dtype=bool))


def _mask_block(profile: DegradationProfile, n_frames: int, rngs: Iterable, n_seqs: int = 1) -> np.ndarray:
    """:func:`degraded_mask` of ``n_seqs`` sequences; ``rngs`` (generators or seeds) is read only if drawn."""
    mask = np.zeros((n_seqs, n_frames), dtype=bool)
    if profile.intervals is not None:
        for s, e in profile.intervals:
            if e > n_frames:
                raise IntervalOutOfBoundsError(f"interval [{s}, {e}) exceeds sequence length {n_frames}")
            mask[:, s:e] = True
    elif profile.fraction:
        k = int(round(profile.fraction * n_frames))
        mask[:] = k == n_frames
        for row, rng in zip(mask, rngs if 0 < k < n_frames else ()):
            row[np.random.default_rng(rng).choice(n_frames, size=k, replace=False)] = True
    return mask


def _row(frames: FrameColumns) -> _Block:
    """One sequence as a block of one."""
    return _Block(frames.boxes[None], frames.present[None])


def _stream(expert: Expert, block: _Block) -> ExpertStream:
    """The expert stream of a block of one."""
    return ExpertStream(expert=expert, predictions=PredictionColumns(*(a[0] for a in block)))


def _calibrated(
    gt: _Block, boxes: np.ndarray, present: np.ndarray, noise_draws: np.ndarray
) -> tuple[_Block, tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """A stream whose confidences are each frame's overlap against ``gt``
    plus its ``Uniform(-noise, noise)`` draw, clamped to [0, 1], and the
    stream's :func:`_frame_values` against ``gt``. Without noise the draws
    are +0.0, and an overlap (never -0.0 or NaN) plus +0.0 is itself."""
    values = _frame_values(gt, _Block(boxes, present))
    c = values[0] + noise_draws
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
    with np.errstate(all="ignore"):  # too big a sigma_in overflows; the jittered boxes are checked below
        b[..., :2] = np.where(drifting[..., None], step[..., None], profile.sigma_in * g[..., 2:])
    b[..., 2:4] = _py_max(np.array([W, H]) - ref_size, 0.0)
    a[..., 4], b[..., 4] = -profile.confidence_noise, profile.confidence_noise
    d = _draws(rngs, used, np.array([True, True, False, False, False]), a, b)

    jittered = np.concatenate([g[..., :2] + d[..., :2], g[..., 2:]], axis=-1)
    if not np.isfinite(jittered).all():
        raise ConfigError(f"sigma_in {profile.sigma_in!r} jitters the box to a non-finite position")
    boxes = np.where(informative[..., None], jittered, 0.0)
    if behavior is DegradedBehavior.UNIFORM_RANDOM_BOX:
        boxes[mask] = np.concatenate([d[..., 2:4], ref_size], axis=-1)[mask]
    else:  # frozen; a drift overwrites the positions of each of its runs below
        last_box = np.where(seen, jittered[seqs, last], start_box)
        boxes[mask] = last_box[mask]
    # a drift starts from the last informative prediction on the first
    # frame of each degraded run, keeps its size (constant over the run, as
    # no frame in it is informative) and accumulates its steps left to right
    run_seq, at = np.nonzero(np.diff(drifting, axis=1, prepend=False, append=False))
    for s, lo, hi in zip(run_seq[::2].tolist(), at[::2].tolist(), at[1::2].tolist()):
        walk = np.concatenate([last_box[s, lo : lo + 1, :2], d[s, lo:hi, :2]])
        boxes[s, lo:hi, :2] = np.cumsum(walk, axis=0)[1:]
    return _calibrated(gt, boxes, present | mask, d[..., 4])


def degrade_modality(
    gt: SequenceAnnotation,
    profile: DegradationProfile,
    seed,
    extent: tuple[float, float] = ScenarioConfig.extent,
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

    Each confidence is the prediction's overlap plus
    ``Uniform(-confidence_noise, confidence_noise)``, clamped to [0, 1]. Per
    frame, in frame order, the stream draws: the x then y jitter
    (informative frames with a present target, when ``sigma_in > 0``) or
    the x then y drift step (degraded drifting-box frames); the x then y
    position (degraded uniform-random-box frames); then the confidence
    noise (every frame, when ``confidence_noise > 0``). The degraded frames
    are ``degraded_mask(profile, len(gt), child_seed(seed, 0))``.
    """
    mask = _mask_block(profile, len(gt), [child_seed(seed, 0)])
    rng = np.random.default_rng(child_seed(seed, 1))
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
    return _calibrated(gt, boxes, present, u[..., 1])


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
#: this many frames, and at least one. The bound is on peak memory: one
#: block for a 100 x 200-frame scenario is about a fifth faster, mostly in
#: the trajectory walk, and takes about a fifth more memory (see README).
_BLOCK_FRAMES = 4096

#: the keys of sequence ``i``'s seeds, ``child_seed(root, i, *key)``, in the order ``_scenario_block`` names them
_SEED_KEYS = ((0,), (1, 0), (1, 1), (2, 0), (2, 1), (3,))


def _scenario_block(
    cfg: ScenarioConfig, states: np.ndarray, ths: np.ndarray, thp: np.ndarray, pooling: str
) -> tuple[dict[str, tuple[np.ndarray, np.ndarray]], np.ndarray]:
    """The sequences whose seed words are ``states`` (:func:`_seed_states` of ``_SEED_KEYS``), as one block.

    Returns each policy's per-sequence success and precision rows and the
    number of frames the selection policy gave each expert. Every stream
    draws from its own per-sequence generator, in the same order as
    :func:`degrade_modality` and :func:`synthesize_fused_expert`. A mask's
    generators are built only if it is drawn.
    """
    trajectory, rgb_mask_seeds, rgb_seeds, tir_mask_seeds, tir_seeds, fused_seeds = states
    gt = _trajectory_block(cfg, [_generator(s) for s in trajectory])

    def modality(profile: DegradationProfile, mask_seeds: np.ndarray, stream_seeds: np.ndarray):
        mask = _mask_block(profile, cfg.n_frames, map(_generator, mask_seeds), len(mask_seeds))
        rngs = [_generator(s) for s in stream_seeds]
        return mask, *_degrade_block(gt, mask, profile, cfg.extent, rngs)

    rgb_mask, rgb, rgb_values = modality(cfg.rgb, rgb_mask_seeds, rgb_seeds)
    tir_mask, tir, tir_values = modality(cfg.tir, tir_mask_seeds, tir_seeds)
    rngs = [_generator(s) for s in fused_seeds]
    fused, fused_values = _fuse_block(gt, rgb_values[0], tir_values[0], rgb_mask, tir_mask, cfg.fused, rngs)

    # per value (overlap, distance, correct-absence), one array per expert in EXPERTS order
    values = list(zip(rgb_values, tir_values, fused_values))
    confidences = np.stack([rgb.confidence, tir.confidence, fused.confidence], axis=-1)
    selected = _tie_argmax(confidences, DEFAULT_TIE_POLICY)
    best = _tie_argmax(np.stack(values[0], axis=-1), DEFAULT_TIE_POLICY)

    def picked(chosen: np.ndarray) -> tuple[np.ndarray, ...]:
        return tuple(_pick(chosen, v) for v in values)

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

    Per-sequence seeds are derived statelessly from the master seed, in one
    pass, so the result is byte-reproducible and independent of order. The
    sequences are evaluated in blocks of whole sequences (see
    :data:`_BLOCK_FRAMES`); the report equals evaluating them one at a time.
    """
    metric_cfg = metric_cfg or MetricConfig()
    ths = np.asarray(metric_cfg.success_thresholds)
    thp = np.asarray(metric_cfg.precision_thresholds)
    states = _seed_states(cfg.seed, range(cfg.n_sequences), _SEED_KEYS)
    per_block = max(1, _BLOCK_FRAMES // cfg.n_frames)
    rows: dict[str, tuple[list, list]] = {p: ([], []) for p in POLICIES}
    chosen_counts = np.zeros(len(EXPERTS), dtype=np.int64)
    for first in range(0, cfg.n_sequences, per_block):
        curves, counts = _scenario_block(cfg, states[:, first : first + per_block], ths, thp, metric_cfg.pooling)
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
