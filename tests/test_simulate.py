import math
import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fusebench import (
    Box,
    ConfigError,
    DatasetManifest,
    DegradationProfile,
    DegradedBehavior,
    Expert,
    ExpertStream,
    FramePrediction,
    FrameTruth,
    FusedQualityModel,
    IntervalOutOfBoundsError,
    MetricConfig,
    POLICIES,
    ScenarioConfig,
    SequenceAnnotation,
    benchmark_scores,
    child_seed,
    degrade_modality,
    degraded_mask,
    export_report,
    fuse_streams,
    generate_trajectory,
    iou,
    oracle_best_selection,
    run_scenario,
    synthesize_fused_expert,
)
from fusebench import io as fio
from fusebench import metrics, simulate
from protocol_oracle import ref_overlap_value
from reference_simulate import reference_run_scenario, reference_trajectory
from test_golden_simulate import SCENARIOS as GOLDEN_SCENARIOS


def small_cfg(**kwargs) -> ScenarioConfig:
    base = dict(n_sequences=2, n_frames=30, seed=5)
    base.update(kwargs)
    return ScenarioConfig(**base)


class TestTrajectory:
    def test_single_frame(self):
        traj = generate_trajectory(small_cfg(n_frames=1), seed=1)
        assert len(traj) == 1 and traj.frames[0].is_present

    def test_zero_motion_variance_is_constant(self):
        traj = generate_trajectory(small_cfg(motion_step_std=0.0), seed=2)
        boxes = {f.box for f in traj.frames}
        assert len(boxes) == 1

    def test_deterministic_per_seed(self):
        a = generate_trajectory(small_cfg(), seed=3, sequence_id="s")
        b = generate_trajectory(small_cfg(), seed=3, sequence_id="s")
        assert a == b
        c = generate_trajectory(small_cfg(), seed=4, sequence_id="s")
        assert a != c

    def test_stays_inside_extent(self):
        cfg = small_cfg(n_frames=500, motion_step_std=40.0, extent=(100.0, 80.0), size_range=(10.0, 20.0))
        traj = generate_trajectory(cfg, seed=6)
        for f in traj.frames:
            b = f.box
            assert -1e-9 <= b.x and b.x + b.w <= 100.0 + 1e-9
            assert -1e-9 <= b.y and b.y + b.h <= 80.0 + 1e-9

    def test_invalid_config(self):
        with pytest.raises(ConfigError):
            ScenarioConfig(n_sequences=0)
        with pytest.raises(ConfigError):
            ScenarioConfig(size_range=(50.0, 10.0))

    def test_non_finite_walk_names_the_step_scale(self):
        with pytest.raises(ConfigError, match="motion_step_std"):
            generate_trajectory(small_cfg(motion_step_std=1e308), seed=7)


#: configs whose walk folds at the boundaries often: a box that fills one
#: axis, and steps larger than twice the span
REFERENCE_WALKS = {
    "default": small_cfg(n_frames=200),
    "fills-x": small_cfg(n_frames=200, extent=(40.0, 480.0), size_range=(40.0, 40.0)),
    "fills-y": small_cfg(n_frames=200, extent=(100.0, 40.0), size_range=(40.0, 40.0), motion_step_std=40.0),
    "wide-steps": small_cfg(n_frames=500, motion_step_std=40.0, extent=(100.0, 80.0), size_range=(10.0, 20.0)),
    "huge-steps": small_cfg(n_frames=500, motion_step_std=1e6, extent=(100.0, 80.0), size_range=(10.0, 20.0)),
    "still": small_cfg(n_frames=50, motion_step_std=0.0),
    "one-frame": small_cfg(n_frames=1),
}


class TestTrajectoryReference:
    """``generate_trajectory``, and each row of a block walk, equal the
    scalar per-frame walk bit for bit."""

    @pytest.mark.parametrize("name", sorted(REFERENCE_WALKS))
    def test_bit_identical(self, name):
        cfg = REFERENCE_WALKS[name]
        seeds = [child_seed(s, 0) for s in range(8)]
        block = simulate._trajectory_block(cfg, seeds).boxes
        for row, seed in zip(block, seeds):
            want = reference_trajectory(cfg, seed).tobytes()
            assert generate_trajectory(cfg, seed).frames.boxes.tobytes() == want
            assert row.tobytes() == want


def test_walk_whose_doubled_span_overflows_equals_the_scalar_walk():
    # an extent near the float maximum: 2 * span is inf, and a step past
    # the far edge folds to inf, which is the non-finite ConfigError
    cfg = small_cfg(n_frames=200, extent=(1.7e308, 1.7e308), size_range=(1.0, 1.0), motion_step_std=1e306)
    outcomes = set()
    for seed in range(20):
        try:
            want = reference_trajectory(cfg, seed)
        except ValueError:  # math.fmod of a position that folded to inf
            want = np.array([math.inf])
        outcomes.add(bool(np.isfinite(want).all()))
        if np.isfinite(want).all():
            assert generate_trajectory(cfg, seed).frames.boxes.tobytes() == want.tobytes()
        else:
            with pytest.raises(ConfigError, match="non-finite"):
                generate_trajectory(cfg, seed)
    assert outcomes == {True, False}


class TestDegradedMask:
    def test_intervals(self):
        profile = DegradationProfile(target=Expert.RGB, intervals=((10, 20),))
        mask = degraded_mask(profile, 30, seed=0)
        assert list(np.flatnonzero(mask)) == list(range(10, 20))

    def test_interval_out_of_bounds(self):
        profile = DegradationProfile(target=Expert.RGB, intervals=((10, 40),))
        with pytest.raises(IntervalOutOfBoundsError):
            degraded_mask(profile, 30, seed=0)

    def test_scenario_config_checks_intervals_against_n_frames(self):
        profile = DegradationProfile(target=Expert.RGB, intervals=((10, 40),))
        with pytest.raises(IntervalOutOfBoundsError, match=r"interval \[10, 40\) exceeds sequence length 30"):
            small_cfg(rgb=profile)

    def test_fraction_count_and_determinism(self):
        profile = DegradationProfile(target=Expert.TIR, fraction=0.3)
        a = degraded_mask(profile, 100, seed=9)
        b = degraded_mask(profile, 100, seed=9)
        assert a.sum() == 30
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("fraction,n_frames", [(1.0, 200), (0.9976, 200), (0.6, 1), (1.0, 1)])
    def test_fraction_that_rounds_to_every_frame_degrades_all(self, fraction, n_frames):
        profile = DegradationProfile(target=Expert.RGB, fraction=fraction)
        assert degraded_mask(profile, n_frames, seed=3).all()

    @pytest.mark.parametrize("fraction,n_frames", [(0.002, 200), (0.5, 1)])
    def test_fraction_that_rounds_to_no_frame_degrades_none(self, fraction, n_frames):
        profile = DegradationProfile(target=Expert.RGB, fraction=fraction)
        assert not degraded_mask(profile, n_frames, seed=3).any()

    def test_exclusive_specification(self):
        with pytest.raises(ConfigError):
            DegradationProfile(target=Expert.RGB, intervals=((0, 1),), fraction=0.5)

    def test_intervals_not_a_list(self):
        with pytest.raises(ConfigError, match="intervals must be a list"):
            DegradationProfile(target=Expert.RGB, intervals=5)


class TestDegradeModality:
    def test_noiseless_identity(self):
        traj = generate_trajectory(small_cfg(), seed=11)
        profile = DegradationProfile(target=Expert.RGB, sigma_in=0.0)
        stream = degrade_modality(traj, profile, seed=12)
        for gt, p in zip(traj.frames, stream.predictions):
            assert p.box == gt.box
            assert p.confidence == 1.0

    def test_fully_degraded_uniform_boxes_are_uninformative(self):
        # spot-check of the degradation strength: 1000 frames, 640x480
        # extent, 40x40 targets, uniform random boxes
        cfg = ScenarioConfig(
            n_sequences=1, n_frames=1000, size_range=(40.0, 40.0), motion_step_std=3.0, seed=13
        )
        traj = generate_trajectory(cfg, seed=14)
        profile = DegradationProfile(target=Expert.RGB, fraction=1.0)
        stream = degrade_modality(traj, profile, seed=15, extent=cfg.extent)
        mean_iou = np.mean([iou(g, p) for g, p in zip(traj.frames, stream.predictions)])
        assert mean_iou < 0.2

    def test_intervals_degrade_exactly_those_frames(self):
        traj = generate_trajectory(small_cfg(), seed=16)
        profile = DegradationProfile(target=Expert.TIR, intervals=((10, 20),), sigma_in=0.0)
        stream = degrade_modality(traj, profile, seed=17)
        for i, (g, p) in enumerate(zip(traj.frames, stream.predictions)):
            if 10 <= i < 20:
                assert p.box != g.box  # random box virtually never equals gt
            else:
                assert p.box == g.box

    @pytest.mark.parametrize("behavior", list(DegradedBehavior))
    def test_behaviors_run_and_stay_deterministic(self, behavior):
        traj = generate_trajectory(small_cfg(), seed=18)
        profile = DegradationProfile(
            target=Expert.RGB, intervals=((5, 15), (20, 25)), behavior=behavior
        )
        a = degrade_modality(traj, profile, seed=19)
        b = degrade_modality(traj, profile, seed=19)
        assert a == b

    def test_frozen_box_repeats_last_informative(self):
        traj = generate_trajectory(small_cfg(), seed=20)
        profile = DegradationProfile(
            target=Expert.RGB, intervals=((10, 20),), behavior=DegradedBehavior.FROZEN_BOX, sigma_in=0.0
        )
        stream = degrade_modality(traj, profile, seed=21)
        frozen = stream.predictions[9].box
        for i in range(10, 20):
            assert stream.predictions[i].box == frozen

    def test_interval_past_the_sequence_rejected(self):
        traj = generate_trajectory(small_cfg(), seed=23)
        profile = DegradationProfile(target=Expert.RGB, intervals=((10, 40),))
        with pytest.raises(IntervalOutOfBoundsError, match=r"interval \[10, 40\) exceeds sequence length 30"):
            degrade_modality(traj, profile, seed=24)

    @pytest.mark.parametrize("noise", [0.0, 0.1, 2.0])
    def test_confidence_is_overlap_plus_draw_clamped(self, noise):
        # replays README's draw order with numpy's own uniform draws and
        # checks the rule against the flat protocol oracle
        cfg = small_cfg(n_sequences=1, n_frames=300, extent=(120.0, 100.0), size_range=(30.0, 40.0))
        traj = generate_trajectory(cfg, seed=22)
        profile = DegradationProfile(
            target=Expert.RGB, fraction=1.0, behavior="uniform-random-box", sigma_in=0.0, confidence_noise=noise
        )
        seed = child_seed(77, 3, 1)
        stream = degrade_modality(traj, profile, seed, extent=cfg.extent)
        rng = np.random.default_rng(child_seed(seed, 1))
        overlaps = []
        for g, p in zip(traj.frames, stream.predictions):
            assert g.box is not None
            w, h = g.box.w, g.box.h
            x, y = rng.uniform(0, cfg.extent[0] - w), rng.uniform(0, cfg.extent[1] - h)
            u = rng.uniform(-noise, noise) if noise > 0 else 0.0
            assert p.box == Box(x, y, w, h)
            overlaps.append(ref_overlap_value(g, p))
            assert p.confidence == min(1.0, max(0.0, overlaps[-1] + u))
        assert max(overlaps) > 0.0
        if noise == 2.0:
            assert {0.0, 1.0} <= {p.confidence for p in stream.predictions}


def _varied_truth() -> SequenceAnnotation:
    """A sequence whose target changes size every frame, with absent
    frames, zero-size boxes and a -0.0 coordinate."""
    frames = []
    for i in range(40):
        if i % 7 == 3:
            frames.append(FrameTruth.absent())
        elif i % 11 == 5:
            frames.append(FrameTruth.present(Box(20.0 + i, 30.0, 0.0, 12.0 * (i % 2))))
        else:
            frames.append(FrameTruth.present(Box(20.0 + i, -0.0 if i % 5 == 0 else 30.0, 20.0 + i, 15.0 + i / 2)))
    return SequenceAnnotation(id="varied", frames=tuple(frames))


def _exact_overlaps(gt: SequenceAnnotation, stream: ExpertStream) -> np.ndarray:
    """The stream's overlaps by the kernel, checked against the flat oracle."""
    overlaps = metrics._frame_values(gt.frames, stream.predictions)[0]
    oracle = [ref_overlap_value(g, p) for g, p in zip(gt.frames, stream.predictions)]
    assert overlaps.tobytes() == np.array(oracle).tobytes()
    return overlaps


class TestExactCalibration:
    """Without confidence noise a confidence is its frame's overlap, bit for
    bit; a drift keeps the size of the last informative prediction."""

    @pytest.mark.parametrize("behavior", list(DegradedBehavior))
    def test_noiseless_confidences_equal_the_overlaps(self, behavior):
        gt = _varied_truth()
        profile = DegradationProfile(target=Expert.TIR, fraction=0.5, behavior=behavior, sigma_in=0.05)
        stream = degrade_modality(gt, profile, seed=41, extent=(120.0, 90.0))
        overlaps = _exact_overlaps(gt, stream)
        assert stream.predictions.confidence.tobytes() == overlaps.tobytes()
        assert {0.0, 1.0} <= set(overlaps.tolist())

    def test_noiseless_fused_confidences_equal_the_overlaps(self):
        gt = _varied_truth()
        rgb = degrade_modality(gt, DegradationProfile(target=Expert.RGB, fraction=0.3), seed=42)
        tir = degrade_modality(gt, DegradationProfile(target=Expert.TIR, fraction=0.3), seed=43)
        fused = synthesize_fused_expert(rgb, tir, gt, FusedQualityModel(boost=0.1), seed=44)
        assert fused.predictions.confidence.tobytes() == _exact_overlaps(gt, fused).tobytes()

    def test_drift_keeps_the_last_informative_size(self):
        gt = _varied_truth()
        runs = ((0, 2), (8, 14), (30, 40))  # the first run precedes every informative frame
        profile = DegradationProfile(target=Expert.RGB, intervals=runs, behavior="drifting-box", sigma_in=0.05)
        stream = degrade_modality(gt, profile, seed=45)
        boxes = [p.box for p in stream.predictions]
        degraded = {i for lo, hi in runs for i in range(lo, hi)}
        for lo, hi in runs:
            informative = [i for i in range(lo) if gt.frames[i].is_present and i not in degraded]
            size = gt.frames[informative[-1] if informative else 0].box
            assert [(b.w, b.h) for b in boxes[lo:hi]] == [(size.w, size.h)] * (hi - lo)
            assert len({(b.x, b.y) for b in boxes[lo:hi]}) == hi - lo  # the position drifts

    def test_fused_box_maps_a_negative_zero_y_to_zero(self):
        gt = _varied_truth()
        rgb = degrade_modality(gt, DegradationProfile(target=Expert.RGB), seed=46)
        tir = degrade_modality(gt, DegradationProfile(target=Expert.TIR), seed=47)
        fused = synthesize_fused_expert(rgb, tir, gt, seed=48)
        negative = [i for i, f in enumerate(gt.frames) if f.is_present and math.copysign(1.0, f.box.y) < 0]
        assert negative and all(gt.frames[i].box.w > 0 and gt.frames[i].box.h > 0 for i in negative)
        assert [math.copysign(1.0, fused.predictions[i].box.y) for i in negative] == [1.0] * len(negative)


class TestJitterOverflow:
    """A ``sigma_in`` whose jitter leaves the finite floats is a config error."""

    @pytest.mark.parametrize("target", [Expert.RGB, Expert.TIR], ids=lambda e: e.name)
    def test_overflowing_scale_rejected(self, target):
        traj = generate_trajectory(small_cfg(n_sequences=1), seed=25)
        profile = DegradationProfile(target=target, sigma_in=1e307)  # 1e307 * a 30-60 px size is inf
        with pytest.raises(ConfigError, match="sigma_in"):
            degrade_modality(traj, profile, seed=26)

    def test_overflowing_draws_rejected(self):
        traj = generate_trajectory(small_cfg(n_sequences=1, n_frames=200), seed=27)
        sigma_in = 2.5e306
        assert max(max(f.box.w, f.box.h) for f in traj.frames) * sigma_in < sys.float_info.max
        with pytest.raises(ConfigError, match="sigma_in"):  # each scale is finite; its widest draws are not
            degrade_modality(traj, DegradationProfile(target=Expert.RGB, sigma_in=sigma_in), seed=28)

    def test_wide_finite_jitter_accepted(self):
        traj = generate_trajectory(small_cfg(n_sequences=1), seed=29)
        stream = degrade_modality(traj, DegradationProfile(target=Expert.RGB, sigma_in=1e300), seed=30)
        coords = [v for p in stream.predictions for v in (p.box.x, p.box.y)]
        assert all(math.isfinite(v) for v in coords) and max(map(abs, coords)) > 1e300


def test_scenario_report_resolves_from_every_module():
    import fusebench

    assert fusebench.ScenarioReport is simulate.ScenarioReport is metrics.ScenarioReport


class TestSynthesizeFused:
    def _streams(self, traj, sigma=0.05, seed=30, rgb_frac=None, tir_frac=None):
        rgb_profile = DegradationProfile(target=Expert.RGB, sigma_in=sigma, fraction=rgb_frac)
        tir_profile = DegradationProfile(target=Expert.TIR, sigma_in=sigma, fraction=tir_frac)
        rgb = degrade_modality(traj, rgb_profile, child_seed(seed, 0))
        tir = degrade_modality(traj, tir_profile, child_seed(seed, 1))
        return rgb, tir

    def test_perfect_inputs_zero_boost_stay_perfect(self):
        traj = generate_trajectory(small_cfg(n_sequences=1), seed=31)
        rgb, tir = self._streams(traj, sigma=0.0)
        fused = synthesize_fused_expert(rgb, tir, traj, FusedQualityModel(boost=0.0), seed=32)
        for g, p in zip(traj.frames, fused.predictions):
            assert iou(g, p) == 1.0

    def test_quality_targets_hit_within_tolerance(self):
        traj = generate_trajectory(small_cfg(n_sequences=1, n_frames=200), seed=33)
        rgb, tir = self._streams(traj)
        model = FusedQualityModel(boost=0.07)
        fused = synthesize_fused_expert(rgb, tir, traj, model, seed=34)
        for g, r, t, f in zip(traj.frames, rgb.predictions, tir.predictions, fused.predictions):
            target = min(1.0, max(iou(g, r), iou(g, t)) + 0.07)
            assert abs(iou(g, f) - target) <= 0.05

    def test_alpha_one_tracks_informative_side(self):
        traj = generate_trajectory(small_cfg(n_sequences=1, n_frames=100), seed=35)
        rgb, tir = self._streams(traj, rgb_frac=1.0)
        mask = np.ones(len(traj), dtype=bool)
        model = FusedQualityModel(informative_weight=1.0)
        fused = synthesize_fused_expert(rgb, tir, traj, model, seed=36, rgb_degraded=mask)
        for g, t, f in zip(traj.frames, tir.predictions, fused.predictions):
            assert abs(iou(g, f) - iou(g, t)) <= 0.05

    def test_half_mix_halves_quality_of_dead_side(self):
        traj = generate_trajectory(small_cfg(n_sequences=1, n_frames=300), seed=37)
        rgb, tir = self._streams(traj, sigma=0.0, rgb_frac=1.0)
        mask = np.ones(len(traj), dtype=bool)
        fused = synthesize_fused_expert(
            rgb, tir, traj, FusedQualityModel(informative_weight=0.5), seed=38, rgb_degraded=mask
        )
        targets = [
            0.5 * iou(g, t) + 0.5 * iou(g, r)
            for g, t, r in zip(traj.frames, tir.predictions, rgb.predictions)
        ]
        got = [iou(g, f) for g, f in zip(traj.frames, fused.predictions)]
        np.testing.assert_allclose(got, targets, atol=1e-9)


    def test_zero_height_frame_makes_no_shift_draw(self):
        # only a target of positive width and height is shifted, and only it draws a direction
        box = Box(10.0, 10.0, 8.0, 6.0)
        fused = []
        for middle in (FrameTruth.present(Box(10.0, 10.0, 8.0, 0.0)), FrameTruth.absent()):
            gt = SequenceAnnotation("s", [FrameTruth.present(box), middle, FrameTruth.present(box)])
            preds = [FramePrediction(f.box, 0.5) for f in gt.frames]
            rgb, tir = ExpertStream(Expert.RGB, preds), ExpertStream(Expert.TIR, preds)
            fused.append(synthesize_fused_expert(rgb, tir, gt, FusedQualityModel(boost=0.0), seed=49).predictions)
        flat, absent = fused
        assert flat[1].box == Box(10.0, 10.0, 8.0, 0.0)
        assert [flat[i].box for i in (0, 2)] == [absent[i].box for i in (0, 2)]

    def test_a_draw_of_one_half_shifts_left(self):
        # the box moves right only for a direction draw below 0.5
        class Half:
            def random(self, n):
                return np.full(n, 0.5)

        gt = SequenceAnnotation("s", [FrameTruth.present(Box(10.0, 10.0, 8.0, 6.0))])
        q = np.array([[0.5]])
        no = np.array([[False]])
        fused, _ = simulate._fuse_block(simulate._row(gt.frames), q, q, no, no, FusedQualityModel(boost=0.0), [Half()])
        assert fused.boxes[0, 0, 0] == 10.0 - 8.0 * (1.0 - 0.5) / (1.0 + 0.5)


class TestOracle:
    def test_exact_stream_wins_everywhere(self):
        traj = generate_trajectory(small_cfg(n_sequences=1), seed=40)
        perfect = degrade_modality(traj, DegradationProfile(target=Expert.RGB, sigma_in=0.0), seed=41)
        noisy = degrade_modality(traj, DegradationProfile(target=Expert.TIR, sigma_in=0.3), seed=42)
        dead_profile = DegradationProfile(target=Expert.TIR, fraction=1.0)
        dead = degrade_modality(traj, dead_profile, seed=43)
        dead = ExpertStream(expert=Expert.RGBT, predictions=dead.predictions)
        out = oracle_best_selection(perfect, noisy, dead, traj)
        assert [p.box for p in out] == [p.box for p in perfect.predictions]

    def test_oracle_dominates_each_stream(self):
        traj = generate_trajectory(small_cfg(n_sequences=1, n_frames=120), seed=44)
        rgb = degrade_modality(traj, DegradationProfile(target=Expert.RGB, sigma_in=0.2), seed=45)
        tir = degrade_modality(traj, DegradationProfile(target=Expert.TIR, fraction=0.5), seed=46)
        fused = synthesize_fused_expert(rgb, tir, traj, seed=47)
        oracle = oracle_best_selection(rgb, tir, fused, traj)
        man = DatasetManifest((traj,))
        cfg = MetricConfig()
        oracle_sr = benchmark_scores(man, {traj.id: oracle}, cfg).sr_curve.scores
        for stream in (rgb, tir, fused):
            sr = benchmark_scores(man, {traj.id: list(stream.predictions)}, cfg).sr_curve.scores
            assert all(o >= s for o, s in zip(oracle_sr, sr))

    def test_calibrated_selection_equals_oracle(self):
        traj = generate_trajectory(small_cfg(n_sequences=1, n_frames=150), seed=48)
        rgb = degrade_modality(traj, DegradationProfile(target=Expert.RGB, fraction=0.3), seed=49)
        tir = degrade_modality(traj, DegradationProfile(target=Expert.TIR, sigma_in=0.1), seed=50)
        fused = synthesize_fused_expert(rgb, tir, traj, seed=51)
        selected, _ = fuse_streams(rgb, tir, fused)
        oracle = oracle_best_selection(rgb, tir, fused, traj)
        for g, s, o in zip(traj.frames, selected, oracle):
            assert iou(g, s) == iou(g, o)


class TestRunScenario:
    def test_deterministic_reports(self):
        cfg = small_cfg()
        a = run_scenario(cfg)
        b = run_scenario(cfg)
        assert export_report(a, "json-lines") == export_report(b, "json-lines")

    def test_policy_set_and_dominance(self):
        cfg = small_cfg(
            n_sequences=4,
            n_frames=60,
            rgb=DegradationProfile(target=Expert.RGB, fraction=0.6),
        )
        report = run_scenario(cfg)
        assert tuple(report.policies) == POLICIES
        oracle_sr = report.policies["oracle"].sr_curve.scores
        for name, scores in report.policies.items():
            assert all(o >= s for o, s in zip(oracle_sr, scores.sr_curve.scores)), name
        assert math.isclose(sum(report.selection_ratios), 1.0, abs_tol=1e-12)

    def test_monotone_harm_with_degraded_fraction(self):
        # more degradation must not raise the degraded expert's success AUC
        # (mean over seeds, small noise margin)
        fractions = (0.0, 0.5, 1.0)
        means = []
        for frac in fractions:
            aucs = []
            for seed in range(20):
                cfg = ScenarioConfig(
                    n_sequences=1,
                    n_frames=40,
                    seed=seed,
                    rgb=DegradationProfile(target=Expert.RGB, fraction=frac),
                )
                traj = generate_trajectory(cfg, child_seed(seed, 0))
                stream = degrade_modality(traj, cfg.rgb, child_seed(seed, 1), extent=cfg.extent)
                out = benchmark_scores(
                    DatasetManifest((traj,)), {traj.id: list(stream.predictions)}, MetricConfig()
                )
                aucs.append(out.sr_auc)
            means.append(float(np.mean(aucs)))
        for lo_frac, hi_frac in zip(means, means[1:]):
            assert hi_frac <= lo_frac + 0.02

    def test_builds_no_per_frame_objects(self, monkeypatch):
        built = []
        for cls in (Box, FramePrediction):
            post_init = cls.__post_init__
            monkeypatch.setattr(cls, "__post_init__", lambda self, f=post_init: built.append(1) or f(self))
        cfg = small_cfg(
            rgb=DegradationProfile(target=Expert.RGB, fraction=0.3, behavior="drifting-box", confidence_noise=0.1),
            tir=DegradationProfile(target=Expert.TIR, intervals=((3, 9),), behavior="frozen-box"),
            fused=FusedQualityModel(confidence_noise=0.1),
        )
        run_scenario(cfg)
        assert built == []

    def test_scores_each_stream_once_per_block(self, monkeypatch):
        calls = []
        kernel = metrics._frame_values
        for module in (metrics, simulate):
            monkeypatch.setattr(module, "_frame_values", lambda *args: calls.append(1) or kernel(*args))
        run_scenario(fio.bundled_scenario("common-scenario"))
        # 100 x 200 frames in 20-sequence blocks: rgb, tir and fused once each
        assert len(calls) == 5 * 3

    @pytest.mark.parametrize("name,per_sequence", [
        ("common-scenario", 4),
        ("mmw-one-modality-dead", 4),  # fraction 1.0: every frame is degraded, no mask is drawn
        ("two-drawn-masks", 6),
    ])
    def test_builds_one_seed_sequence_and_a_generator_per_stream_and_drawn_mask(self, monkeypatch, name, per_sequence):
        cfg = small_cfg(
            rgb=DegradationProfile(target=Expert.RGB, fraction=0.3),
            tir=DegradationProfile(target=Expert.TIR, fraction=0.6),
        ) if name == "two-drawn-masks" else fio.bundled_scenario(name)
        built = {"SeedSequence": 0, "PCG64": 0}

        def counting(cls):
            class Counting(cls):
                def __init__(self, *args, **kwargs):
                    built[cls.__name__] += 1
                    super().__init__(*args, **kwargs)
            return Counting

        for cls_name in built:
            monkeypatch.setattr(np.random, cls_name, counting(getattr(np.random, cls_name)))
        run_scenario(cfg)
        # the root's seed words are derived for every sequence at once; then per sequence a
        # generator for the trajectory, rgb stream, tir stream, fused expert and any drawn mask
        assert built == {"SeedSequence": 1, "PCG64": per_sequence * cfg.n_sequences}


def test_child_seed_composes_spawn_keys():
    # run_scenario derives (i, key, j) from one root in one step; it is the
    # same seed as the nested derivation child_seed(child_seed(seed, i, key), j)
    for seed in (0, 11, 2**70):
        for keys, more in (((3,), (1,)), ((4, 2), (0,)), ((5, 1), (1,)), ((7,), (2, 1)), ((), (3,))):
            want = child_seed(child_seed(seed, *keys), *more).generate_state(8)
            assert np.array_equal(child_seed(seed, *keys, *more).generate_state(8), want)
            root = np.random.SeedSequence(seed)
            assert np.array_equal(child_seed(root, *keys, *more).generate_state(8), want)


BULK_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 + 5, 2**200]  # 2**200 has more entropy words than the pool


class TestBulkSeedDerivation:
    """``simulate._seed_states`` is numpy's ``SeedSequence`` run on many keys
    at once: each row seeds the generator ``default_rng(child_seed(...))`` would."""

    KEYS = [(0,), (7,), (2**32 - 1,), (3, 1), (2**32 - 1, 0), (0, 2**32 - 1), (4, 2, 1), (1, 2**32 - 1, 7)]

    @staticmethod
    def assert_same_generator(state, want_seed):
        got, want = simulate._generator(state), np.random.default_rng(want_seed)
        assert got.bit_generator.state == want.bit_generator.state
        assert np.array_equal(got.bit_generator.random_raw(16), want.bit_generator.random_raw(16))

    @pytest.mark.parametrize("root", [
        *BULK_SEEDS,
        pytest.param(np.random.SeedSequence(2**64 + 5, spawn_key=(3, 2**32 - 1)), id="root-with-a-spawn-key"),
        pytest.param(np.random.SeedSequence(9, spawn_key=(2**40,)), id="root-key-of-two-words"),
    ], ids=repr)
    @pytest.mark.parametrize("key", KEYS, ids=repr)
    def test_one_key_equals_child_seed(self, root, key):
        states = simulate._seed_states(root, [key[0]], [key[1:]])
        assert states.shape == (1, 1, 4)
        self.assert_same_generator(states[0, 0], child_seed(root, *key))

    @pytest.mark.parametrize("seed", BULK_SEEDS)
    def test_keys_of_mixed_lengths_in_one_pass(self, seed):
        first = [0, 1, 5, 2**32 - 1]
        tails = [(0,), (1, 0), (), (2, 1, 2**32 - 1), (3,)]
        states = simulate._seed_states(seed, first, tails)
        assert states.shape == (len(tails), len(first), 4)
        for row, tail in zip(states, tails):
            for state, i in zip(row, first):
                self.assert_same_generator(state, child_seed(seed, i, *tail))

    @pytest.mark.parametrize("first,tails", [
        ([2**32], [()]), ([-1], [()]), ([0], [(2**32,)]), ([0], [(1, -1)]), ([0], [(2**64,)]),
    ], ids=repr)
    def test_key_outside_one_word_rejected(self, first, tails):
        with pytest.raises(ValueError, match="2\\*\\*32"):
            simulate._seed_states(0, first, tails)

    def test_seed_of_another_pool_size_rejected(self):
        # child_seed's children have a pool of 4 words, whatever the seed's pool size
        with pytest.raises(ValueError, match="pool size is 4"):
            simulate._seed_states(np.random.SeedSequence(1, pool_size=8), [0], [()])


def reference_draws(rngs, used, normal, a, b) -> np.ndarray:
    """``simulate._draws`` one scalar draw at a time, in frame order."""
    out = np.zeros(used.shape)
    for s, rng in enumerate(rngs):
        for t, j in zip(*np.nonzero(used[s])):
            out[s, t, j] = (rng.normal if normal[j] else rng.uniform)(a[s, t, j], b[s, t, j])
    return out


@st.composite
def draw_tables(draw):
    """Arguments of ``simulate._draws``: each sequence draws none, all or
    some of its table, with kinds mixed over the columns."""
    n_seq, n, k = draw(st.integers(1, 4)), draw(st.integers(0, 12)), draw(st.integers(1, 5))
    data = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    used = data.random((n_seq, n, k)) < draw(st.sampled_from([0.2, 0.5, 0.9]))
    for s, fill in enumerate(draw(st.lists(st.sampled_from(["none", "all", "some"]), min_size=n_seq, max_size=n_seq))):
        if fill != "some":
            used[s] = fill == "all"
    normal = np.array(draw(st.lists(st.booleans(), min_size=k, max_size=k)))
    a = data.uniform(-100.0, 100.0, used.shape)
    spread = data.uniform(0.0, 50.0, used.shape)
    b = np.where(normal, spread, a + spread)  # a scale >= 0, or a high >= low
    return used, normal, a, b, draw(st.integers(0, 2**32 - 1))


class TestDrawsReference:
    @settings(max_examples=200, deadline=None)
    @given(table=draw_tables())
    def test_equals_one_draw_at_a_time(self, table):
        used, normal, a, b, seed = table
        rngs = [np.random.default_rng([seed, s]) for s in range(len(used))]
        ref_rngs = [np.random.default_rng([seed, s]) for s in range(len(used))]
        got = simulate._draws(rngs, used, normal, a, b)
        assert got.tobytes() == reference_draws(ref_rngs, used, normal, a, b).tobytes()
        # and each generator made exactly the reference's draws
        assert [r.bit_generator.state for r in rngs] == [r.bit_generator.state for r in ref_rngs]


class TestWidestNoise:
    """A confidence noise is a number from 0 to half the largest float, so
    that its range, twice the noise, is finite."""

    WIDEST = sys.float_info.max / 2

    @pytest.mark.parametrize("build", [
        lambda noise: DegradationProfile(confidence_noise=noise),
        lambda noise: FusedQualityModel(confidence_noise=noise),
    ], ids=["profile", "fused-model"])
    def test_noise_whose_range_overflows_rejected(self, build):
        build(self.WIDEST)
        with pytest.raises(ConfigError, match="confidence.noise"):
            build(math.nextafter(self.WIDEST, math.inf))

    @pytest.mark.parametrize("build", [DegradationProfile, FusedQualityModel], ids=["profile", "fused-model"])
    @pytest.mark.parametrize("noise", [-0.1, math.inf, math.nan, True])
    def test_bad_noise_rejected(self, build, noise):
        with pytest.raises(ConfigError, match="confidence_noise"):
            build(confidence_noise=noise)

    def test_widest_draws_equal_one_draw_at_a_time(self):
        # uniform draws over the widest noise range, and normal draws
        # scaled past the largest float, which overflow to inf
        used = np.ones((2, 50, 2), dtype=bool)
        normal = np.array([True, False])
        a, b = np.full(used.shape, -self.WIDEST), np.full(used.shape, self.WIDEST)
        a[..., 0], b[..., 0] = 0.0, 1e308
        got = simulate._draws([np.random.default_rng([5, s]) for s in range(2)], used, normal, a, b)
        want = reference_draws([np.random.default_rng([5, s]) for s in range(2)], used, normal, a, b)
        assert np.isinf(got[..., 0]).any() and np.isfinite(got[..., 1]).all()
        assert got.tobytes() == want.tobytes()


CUSTOM_GRID = MetricConfig(
    success_thresholds=(0.0, 0.1, 0.3, 0.55, 0.9, 1.0),
    precision_thresholds=(0.0, 2.5, 5.0, 8.0, 30.0),
    pr_report_threshold=5.0,
)

METRIC_CONFIGS = {
    "sequence-mean": MetricConfig(pooling="sequence-mean"),
    "custom-grid": CUSTOM_GRID,
    "sequence-mean-custom-grid": replace(CUSTOM_GRID, pooling="sequence-mean"),
}

PARITY_SCENARIOS = {
    **GOLDEN_SCENARIOS,
    **{name: fio.bundled_scenario(name) for name in fio.bundled_scenario_names()},
    "one-sequence": small_cfg(
        n_sequences=1, n_frames=60,
        rgb=DegradationProfile(target=Expert.RGB, fraction=0.4, behavior="drifting-box", confidence_noise=0.1),
    ),
    # 20 whole sequences fill a 4,096-frame block; the 21st is alone in the last
    "partial-last-block": ScenarioConfig(
        n_sequences=21, n_frames=200, seed=8,
        rgb=DegradationProfile(target=Expert.RGB, fraction=0.3, behavior="drifting-box", confidence_noise=0.1),
        tir=DegradationProfile(target=Expert.TIR, intervals=((20, 90),), behavior="frozen-box"),
        fused=FusedQualityModel(confidence_noise=0.05),
    ),
    # each sequence is longer than a block
    "sequence-longer-than-block": ScenarioConfig(
        n_sequences=2, n_frames=5000, seed=4,
        rgb=DegradationProfile(target=Expert.RGB, intervals=((100, 900), (3000, 4999)), confidence_noise=0.2),
        tir=DegradationProfile(target=Expert.TIR, fraction=0.2, behavior="drifting-box"),
    ),
}


class TestBlockParity:
    """``run_scenario`` reports equal the per-sequence reference byte for byte."""

    @pytest.mark.parametrize("name", sorted(PARITY_SCENARIOS))
    def test_default_metrics(self, name):
        cfg = PARITY_SCENARIOS[name]
        assert export_report(run_scenario(cfg), "json-lines") == export_report(
            reference_run_scenario(cfg), "json-lines"
        )

    @pytest.mark.parametrize("metric_cfg", METRIC_CONFIGS.values(), ids=METRIC_CONFIGS.keys())
    @pytest.mark.parametrize("name", [*sorted(GOLDEN_SCENARIOS), "partial-last-block", "one-sequence"])
    def test_metric_configs(self, name, metric_cfg):
        cfg = PARITY_SCENARIOS[name]
        assert export_report(run_scenario(cfg, metric_cfg), "json-lines") == export_report(
            reference_run_scenario(cfg, metric_cfg), "json-lines"
        )

    def test_kept_sequence_rows(self):
        cfg = PARITY_SCENARIOS["partial-last-block"]
        got, want = run_scenario(cfg, CUSTOM_GRID), reference_run_scenario(cfg, CUSTOM_GRID)
        shapes = {"sequence_sr": (21, 6), "sequence_pr": (21, 5)}
        for policy in POLICIES:
            for rows, shape in shapes.items():
                a, b = getattr(got.policies[policy], rows), getattr(want.policies[policy], rows)
                assert a.shape == b.shape == shape
                assert a.tobytes() == b.tobytes(), (policy, rows)


class TestScenarioConfigIntegers:
    @pytest.mark.parametrize("kwargs", [
        {"seed": -1}, {"seed": 1.5}, {"seed": True}, {"seed": "3"},
        {"n_sequences": 2.5}, {"n_sequences": True}, {"n_frames": True}, {"n_frames": 10.0},
    ])
    def test_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            ScenarioConfig(**kwargs)

    def test_n_sequences_bounded_by_the_spawn_keys(self):
        # each sequence index is a spawn key below 2**32; built only, never run
        with pytest.raises(ConfigError) as info:
            ScenarioConfig(n_sequences=2**32 + 1)
        assert str(info.value) == "n_sequences must lie in [1, 4294967296], got 4294967297"
        assert ScenarioConfig(n_sequences=2**32).n_sequences == 2**32

    def test_seed_past_the_float_range_runs(self):
        cfg = ScenarioConfig(n_sequences=1, n_frames=5, seed=10**400)
        assert cfg.seed == 10**400
        report = run_scenario(cfg)
        assert (report.seed, report.n_sequences, report.n_frames) == (10**400, 1, 5)

    def test_large_and_numpy_integers_accepted(self):
        assert ScenarioConfig(seed=99999999999999999999999).seed == 99999999999999999999999
        assert ScenarioConfig(n_frames=np.int64(7)).n_frames == 7
