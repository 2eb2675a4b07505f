import math
from dataclasses import replace

import numpy as np
import pytest

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
    benchmark_scores,
    calibrate_confidence,
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
from reference_simulate import reference_run_scenario
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


class TestDegradedMask:
    def test_intervals(self):
        profile = DegradationProfile(target=Expert.RGB, intervals=((10, 20),))
        mask = degraded_mask(profile, 30, seed=0)
        assert list(np.flatnonzero(mask)) == list(range(10, 20))

    def test_interval_out_of_bounds(self):
        profile = DegradationProfile(target=Expert.RGB, intervals=((10, 40),))
        with pytest.raises(IntervalOutOfBoundsError):
            degraded_mask(profile, 30, seed=0)

    def test_fraction_count_and_determinism(self):
        profile = DegradationProfile(target=Expert.TIR, fraction=0.3)
        a = degraded_mask(profile, 100, seed=9)
        b = degraded_mask(profile, 100, seed=9)
        assert a.sum() == 30
        assert np.array_equal(a, b)

    def test_exclusive_specification(self):
        with pytest.raises(ConfigError):
            DegradationProfile(target=Expert.RGB, intervals=((0, 1),), fraction=0.5)


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

    def test_external_mask_matches_internal_derivation(self):
        traj = generate_trajectory(small_cfg(), seed=22)
        profile = DegradationProfile(target=Expert.RGB, fraction=0.4)
        seed = child_seed(77, 3, 1)
        mask = degraded_mask(profile, len(traj), child_seed(seed, 0))
        with_mask = degrade_modality(traj, profile, seed, mask=mask)
        without = degrade_modality(traj, profile, seed)
        assert with_mask == without


class TestCalibrateConfidence:
    def test_perfect_and_disjoint(self):
        g = FrameTruth.present(Box(0, 0, 10, 10))
        assert calibrate_confidence(FramePrediction(Box(0, 0, 10, 10)), g) == 1.0
        assert calibrate_confidence(FramePrediction(Box(50, 50, 10, 10)), g) == 0.0

    def test_noise_bounded_and_clamped(self):
        g = FrameTruth.present(Box(0, 0, 10, 10))
        p = FramePrediction(Box(2, 0, 10, 10))
        base = iou(g, p)
        rng = np.random.default_rng(0)
        for _ in range(200):
            c = calibrate_confidence(p, g, 0.1, rng)
            assert 0.0 <= c <= 1.0
            assert abs(c - base) <= 0.1 + 1e-12

    @pytest.mark.parametrize("noise", [0.0, 0.1, 2.0])
    def test_equals_overlap_plus_draw_clamped(self, noise):
        g = FrameTruth.present(Box(0, 0, 10, 10))
        rng, ref_rng = np.random.default_rng(5), np.random.default_rng(5)
        for dx in range(-12, 13):
            p = FramePrediction(Box(dx / 2, 1, 10, 10))
            want = ref_overlap_value(g, p) + (ref_rng.uniform(-noise, noise) if noise else 0.0)
            assert calibrate_confidence(p, g, noise, rng) == min(1.0, max(0.0, want))


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


CUSTOM_GRID = MetricConfig(
    th_s=0.3,
    th_p=8.0,
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

    def test_large_and_numpy_integers_accepted(self):
        assert ScenarioConfig(seed=99999999999999999999999).seed == 99999999999999999999999
        assert ScenarioConfig(n_frames=np.int64(7)).n_frames == 7
