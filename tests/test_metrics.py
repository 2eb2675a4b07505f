import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fusebench import (
    AbsenceOutcome,
    Box,
    ConfigError,
    Curve,
    DatasetManifest,
    EmptyCurveError,
    FramePrediction,
    FrameTruth,
    FusebenchError,
    LengthMismatchError,
    MetricConfig,
    MissingSequenceResultError,
    PredictionColumns,
    SequenceAnnotation,
    auc,
    benchmark_scores,
    center_distance,
    frame_precision_indicator,
    frame_success_indicator,
    iou,
    sequence_score,
)
from fusebench.metrics import _Block, _frame_values
from conftest import random_benchmark
from protocol_oracle import (
    ref_benchmark_curves,
    ref_box_iou,
    ref_center_distance,
    ref_overlap_value,
)

P = FrameTruth.present


def box_iou(a: Box, b: Box) -> float:
    return iou(P(a), FramePrediction(b))


box = st.builds(
    Box,
    st.floats(-500, 500),
    st.floats(-500, 500),
    st.floats(0, 300),
    st.floats(0, 300),
)


class TestIoU:
    def test_identity(self):
        b = Box(0, 0, 2, 2)
        assert iou(P(b), FramePrediction(b)) == 1.0

    def test_hand_computed_overlap(self):
        # intersection 1, union 4 + 4 - 1 = 7
        v = iou(P(Box(0, 0, 2, 2)), FramePrediction(Box(1, 1, 2, 2)))
        assert math.isclose(v, 1.0 / 7.0, rel_tol=1e-12)

    def test_absence_rules(self):
        assert iou(FrameTruth.absent(), FramePrediction.absent()) == 1.0
        assert iou(FrameTruth.absent(), FramePrediction(Box(5, 5, 2, 2))) == 0.0
        assert iou(P(Box(5, 5, 2, 2)), FramePrediction.absent()) == 0.0

    def test_degenerate_union_is_zero(self):
        assert iou(P(Box(0, 0, 0, 0)), FramePrediction(Box(0, 0, 0, 0))) == 0.0

    @given(a=box, b=box)
    def test_symmetry_and_range(self, a, b):
        assert box_iou(a, b) == box_iou(b, a)
        assert 0.0 <= box_iou(a, b) <= 1.0

    @given(a=box)
    def test_self_overlap_is_exactly_one(self, a):
        if a.w * a.h > 0:
            assert box_iou(a, a) == 1.0

    # sizes bounded away from zero: a box thinner than coordinate rounding
    # cannot be translated without losing its relative offset
    sane_box = st.builds(
        Box,
        st.floats(-500, 500),
        st.floats(-500, 500),
        st.floats(0.01, 300),
        st.floats(0.01, 300),
    )

    @given(a=sane_box, b=sane_box, dx=st.floats(-100, 100), dy=st.floats(-100, 100))
    def test_joint_translation_invariance(self, a, b, dx, dy):
        v = box_iou(a, b)
        w = box_iou(a.shifted(dx, dy), b.shifted(dx, dy))
        assert math.isclose(v, w, rel_tol=0, abs_tol=1e-6)


class TestCenterDistance:
    def test_three_four_five(self):
        d = center_distance(P(Box(0, 0, 2, 2)), FramePrediction(Box(3, 4, 2, 2)))
        assert d == 5.0

    def test_identical_boxes(self):
        b = Box(7.3, 2.1, 4.4, 9.9)
        assert center_distance(P(b), FramePrediction(b)) == 0.0

    def test_absence_markers(self):
        assert center_distance(FrameTruth.absent(), FramePrediction.absent()) is AbsenceOutcome.CORRECT_ABSENCE
        assert center_distance(FrameTruth.absent(), FramePrediction(Box(0, 0, 1, 1))) is AbsenceOutcome.WRONG_PREDICTION
        assert center_distance(P(Box(0, 0, 1, 1)), FramePrediction.absent()) is AbsenceOutcome.WRONG_PREDICTION

    @given(a=box, b=box, s=st.floats(0.1, 10))
    def test_scaling_about_origin(self, a, b, s):
        d = center_distance(P(a), FramePrediction(b))
        scaled = center_distance(
            P(Box(a.x * s, a.y * s, a.w * s, a.h * s)),
            FramePrediction(Box(b.x * s, b.y * s, b.w * s, b.h * s)),
        )
        assert math.isclose(scaled, d * s, rel_tol=1e-6, abs_tol=1e-6)


class TestIndicators:
    def test_success_strict_comparison(self):
        g, p = P(Box(0, 0, 10, 10)), FramePrediction(Box(0, 0, 10, 10))
        assert frame_success_indicator(g, p, 0.5) == 1
        # iou exactly 0.5: two boxes overlapping half... use override-free case
        g2 = P(Box(0, 0, 2, 1))
        p2 = FramePrediction(Box(0, 0, 1, 1))  # inter 1, union 2 -> 0.5
        assert iou(g2, p2) == 0.5
        assert frame_success_indicator(g2, p2, 0.5) == 0

    def test_correct_absence_passes_at_threshold_one(self):
        assert frame_success_indicator(FrameTruth.absent(), FramePrediction.absent(), 1.0) == 1

    def test_perfect_box_fails_at_threshold_one(self):
        b = Box(3, 3, 5, 5)
        assert frame_success_indicator(P(b), FramePrediction(b), 1.0) == 0

    def test_precision_inclusive_comparison(self):
        g, p = P(Box(0, 0, 2, 2)), FramePrediction(Box(3, 4, 2, 2))  # distance 5
        assert frame_precision_indicator(g, p, 5.0) == 1
        g2, p2 = P(Box(0, 0, 2, 2)), FramePrediction(Box(21, 0, 2, 2))  # distance 21
        assert frame_precision_indicator(g2, p2, 20.0) == 0

    def test_precision_absence_rules(self):
        assert frame_precision_indicator(FrameTruth.absent(), FramePrediction.absent(), 0.0) == 1
        assert frame_precision_indicator(FrameTruth.absent(), FramePrediction(Box(0, 0, 1, 1)), 50.0) == 0
        assert frame_precision_indicator(P(Box(0, 0, 1, 1)), FramePrediction.absent(), 50.0) == 0


class TestSequenceScore:
    def test_frame_pooling_mean(self):
        b = Box(0, 0, 4, 4)
        gt = [P(b)] * 4
        # indicators (1, 1, 0, 1): three exact hits, one disjoint box
        preds = [FramePrediction(b), FramePrediction(b), FramePrediction(Box(50, 50, 4, 4)), FramePrediction(b)]
        assert sequence_score(gt, preds, 0.5, "success", "frame") == 0.75

    def _boxes_with_overlap(self, q: float):
        # horizontal shift of an equal-size box: iou = (w - d) / (w + d)
        w = 10.0
        d = w * (1.0 - q) / (1.0 + q)
        return P(Box(0, 0, w, 10.0)), FramePrediction(Box(d, 0, w, 10.0))

    def test_sequence_mean_pooling_binarizes(self):
        gt, preds = [], []
        for q in (0.8, 0.8, 0.8):
            g, p = self._boxes_with_overlap(q)
            gt.append(g)
            preds.append(p)
        assert sequence_score(gt, preds, 0.5, "success", "sequence-mean") == 1.0
        gt, preds = [], []
        for q in (0.2, 0.2, 0.9):
            g, p = self._boxes_with_overlap(q)
            gt.append(g)
            preds.append(p)
        # mean 0.4333 <= 0.5
        assert sequence_score(gt, preds, 0.5, "success", "sequence-mean") == 0.0

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatchError):
            sequence_score([P(Box(0, 0, 1, 1))], [], 0.5)

    def test_empty_sequence_rejected(self):
        # a bare frame list is held to the rule of SequenceAnnotation, not scored as NaN
        with pytest.raises(FusebenchError, match="at least one frame"):
            sequence_score([], [], 0.5)

    @pytest.mark.parametrize("kind", ["success", "precision"])
    def test_bare_list_scores_as_its_annotation(self, kind):
        gt = [P(Box(0, 0, 4, 4)), FrameTruth.absent(), P(Box(10, 10, 6, 6))]
        preds = [FramePrediction(Box(1, 0, 4, 4)), FramePrediction.absent(), FramePrediction(Box(30, 30, 6, 6))]
        th = 0.5 if kind == "success" else 20.0
        assert sequence_score(gt, preds, th, kind) == sequence_score(SequenceAnnotation("s", gt), preds, th, kind)

    def test_length_mismatch_names_the_sequence(self):
        with pytest.raises(LengthMismatchError, match="sequence"):
            sequence_score([P(Box(0, 0, 1, 1))], [], 0.5)
        with pytest.raises(LengthMismatchError, match="seq-7"):
            sequence_score(SequenceAnnotation("seq-7", [P(Box(0, 0, 1, 1))]), [], 0.5)

    @pytest.mark.parametrize("kind, th, pooling", [
        ("success", -0.1, "frame"), ("success", 1.5, "frame"), ("success", math.nan, "frame"),
        ("precision", -1.0, "frame"), ("precision", math.inf, "frame"),
        ("success", 5.0, "sequence-mean"), ("success", -3.0, "sequence-mean"),
        ("success", math.nan, "sequence-mean"),
    ])
    def test_bad_threshold_rejected(self, kind, th, pooling):
        b = Box(0, 0, 4, 4)
        with pytest.raises(ConfigError, match="th_s" if kind == "success" else "th_p"):
            sequence_score([P(b)], [FramePrediction(b)], th, kind, pooling)


class TestAuc:
    def test_constant_curves(self):
        grid = tuple(np.linspace(0, 1, 21))
        assert auc(Curve(grid, (1.0,) * 21)) == 1.0
        assert auc(Curve(grid, (0.0,) * 21)) == 0.0

    def test_step_curve(self):
        grid = tuple(np.linspace(0, 1, 21))
        scores = tuple(1.0 if t <= 0.5 else 0.0 for t in grid)
        assert math.isclose(auc(Curve(grid, scores)), 11.0 / 21.0, rel_tol=1e-12)

    def test_empty_curve(self):
        with pytest.raises(EmptyCurveError):
            auc(Curve((), ()))


class TestConfig:
    def test_defaults(self):
        cfg = MetricConfig()
        assert len(cfg.success_thresholds) == 21
        assert len(cfg.precision_thresholds) == 51
        assert cfg.pr_report_threshold == 20.0
        assert cfg.pooling == "frame"

    def test_gtot_style_report_point(self):
        cfg = MetricConfig(pr_report_threshold=5.0)
        assert cfg.pr_report_threshold == 5.0

    def test_non_increasing_grid_rejected(self):
        with pytest.raises(ConfigError):
            MetricConfig(success_thresholds=(0.5, 0.5, 0.9))

    def test_off_grid_report_point_rejected(self):
        with pytest.raises(ConfigError):
            MetricConfig(pr_report_threshold=20.5)

    def test_integer_report_point_is_stored_as_a_float(self):
        threshold = MetricConfig(pr_report_threshold=20).pr_report_threshold
        assert type(threshold) is float and repr(threshold) == "20.0"


class TestBenchmarkScores:
    def _single(self, frames, preds, **cfg_kwargs):
        man = DatasetManifest((SequenceAnnotation(id="s", frames=tuple(frames)),))
        return benchmark_scores(man, {"s": preds}, MetricConfig(**cfg_kwargs))

    def test_mean_of_sequence_means(self):
        b = Box(0, 0, 10, 10)
        s1 = SequenceAnnotation(id="a", frames=(P(b), P(b)))
        s2 = SequenceAnnotation(id="b", frames=(P(b), P(b)))
        res = {
            "a": [FramePrediction(b), FramePrediction(Box(90, 90, 10, 10))],  # 0.5
            "b": [FramePrediction(b), FramePrediction(b)],  # 1.0
        }
        out = benchmark_scores(DatasetManifest((s1, s2)), res)
        assert out.sr_curve.score_at(0.5) == 0.75

    def test_perfect_sequence(self):
        b = Box(5, 5, 10, 10)
        out = self._single([P(b)] * 4, [FramePrediction(b)] * 4)
        # strict > fails only at threshold 1.0
        assert out.sr_curve.scores[:-1] == (1.0,) * 20
        assert out.sr_curve.scores[-1] == 0.0
        assert math.isclose(out.sr_auc, 20.0 / 21.0, rel_tol=1e-12)
        assert out.pr_at_threshold == 1.0

    def test_missing_sequence_result(self):
        man = DatasetManifest((SequenceAnnotation(id="s", frames=(FrameTruth.absent(),)),))
        with pytest.raises(MissingSequenceResultError):
            benchmark_scores(man, {}, MetricConfig())

    def test_length_mismatch_carries_sequence(self):
        man = DatasetManifest((SequenceAnnotation(id="s", frames=(FrameTruth.absent(),)),))
        with pytest.raises(LengthMismatchError):
            benchmark_scores(man, {"s": []}, MetricConfig())

    def test_matches_flat_reference(self):
        rng = np.random.default_rng(1234)
        manifest, results = random_benchmark(rng, n_sequences=60, max_frames=30)
        cfg = MetricConfig()
        out = benchmark_scores(manifest, results, cfg)
        ref_sr, ref_pr = ref_benchmark_curves(
            manifest.sequences, results, cfg.success_thresholds, cfg.precision_thresholds
        )
        assert list(out.sr_curve.scores) == ref_sr
        assert list(out.pr_curve.scores) == ref_pr

    def test_identical_sequences_score_like_one(self):
        rng = np.random.default_rng(7)
        manifest, results = random_benchmark(rng, n_sequences=1, max_frames=20)
        seq = manifest.sequences[0]
        preds = results[seq.id]
        clones = tuple(
            SequenceAnnotation(id=f"c{i}", frames=seq.frames) for i in range(5)
        )
        multi = benchmark_scores(
            DatasetManifest(clones), {f"c{i}": preds for i in range(5)}, MetricConfig()
        )
        single = benchmark_scores(DatasetManifest((seq,)), {seq.id: preds}, MetricConfig())
        np.testing.assert_allclose(multi.sr_curve.scores, single.sr_curve.scores, atol=1e-12)
        np.testing.assert_allclose(multi.pr_curve.scores, single.pr_curve.scores, atol=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1))
    def test_curves_monotone_and_bounded(self, seed):
        rng = np.random.default_rng(seed)
        manifest, results = random_benchmark(rng, n_sequences=4, max_frames=12)
        for pooling in ("frame", "sequence-mean"):
            out = benchmark_scores(manifest, results, MetricConfig(pooling=pooling))
            sr, pr = out.sr_curve.scores, out.pr_curve.scores
            assert all(0.0 <= s <= 1.0 for s in sr + pr)
            assert all(a >= b for a, b in zip(sr, sr[1:])), "sr must be non-increasing"
            assert all(a <= b for a, b in zip(pr, pr[1:])), "pr must be non-decreasing"


class TestKernelParity:
    def test_per_frame_values_equal_the_oracle_bit_for_bit(self):
        rng = np.random.default_rng(2024)
        manifest, results = random_benchmark(rng, n_sequences=200, max_frames=40)
        checked = {"present": 0, "absent": 0, "degenerate": 0}
        for seq in manifest.sequences:
            preds = results[seq.id]
            overlap, distance, correct = _frame_values(
                seq.frames, PredictionColumns.from_frames(preds)
            )
            for i, (g, p) in enumerate(zip(seq.frames, preds)):
                assert overlap[i].tobytes() == np.float64(ref_overlap_value(g, p)).tobytes()
                d = ref_center_distance(g, p)
                if isinstance(d, str):
                    checked["absent"] += 1
                    assert np.isnan(distance[i])
                    assert correct[i] == (d == "correct")
                else:
                    checked["present"] += 1
                    checked["degenerate"] += g.box.w * g.box.h == 0.0 or p.box.w * p.box.h == 0.0
                    assert distance[i].tobytes() == np.float64(d).tobytes()
                    assert not correct[i]
        assert min(checked.values()) > 0, checked


HUGE = (
    (Box(0, 0, 1e200, 1e200), Box(0, 0, 1e200, 1e200)),
    (Box(0, 0, 1e200, 1e200), Box(5, 5, 1, 1)),
    (Box(1.5e308, 0, 1.5e308, 1), Box(-1.5e308, 0, 1, 1)),
    (Box(1.5e308, 0, 1.5e308, 1), Box(1.5e308, 0, 1.5e308, 1)),
)


class TestHugeBoxes:
    """Finite boxes whose areas or squared distances overflow."""

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("a,b", HUGE)
    def test_scalar_api_equals_the_oracle_without_warnings(self, a, b):
        g, p = P(a), FramePrediction(b)
        assert box_iou(a, b) == ref_box_iou(a, b)
        assert iou(g, p) == ref_overlap_value(g, p)
        want = ref_center_distance(g, p)
        assert np.float64(center_distance(g, p)).tobytes() == np.float64(want).tobytes()


def _truth_at(x: float, y: float, w: float = 0.0, h: float = 0.0) -> FrameTruth:
    return FrameTruth.present(Box(x, y, w, h))


def _pair_with_iou(target: float) -> tuple[FrameTruth, FramePrediction]:
    """Boxes whose overlap is exactly ``target``: a box of height 1 inside
    another, with the width searched ulp by ulp around ``target * width``."""
    for width in (1.0, 3.0, 5.0, 7.0):
        g = _truth_at(0.0, 0.0, width, 1.0)
        lo = hi = target * width
        for _ in range(64):
            for w in (lo, hi):
                p = FramePrediction(Box(0.0, 0.0, w, 1.0))
                if 0.0 <= w <= width and iou(g, p) == target:
                    return g, p
            lo, hi = math.nextafter(lo, -math.inf), math.nextafter(hi, math.inf)
    raise AssertionError(f"no box pair with overlap {target!r}")


def _pair_with_distance(d: float) -> tuple[FrameTruth, FramePrediction]:
    # degenerate boxes: the centres are the corners, so the distance is
    # sqrt(d*d), which equals d unless d*d underflows
    return _truth_at(0.0, 0.0), FramePrediction(Box(d, 0.0, 0.0, 0.0))


def _near(t: float, lo: float, hi: float) -> list[float]:
    """``t`` and its neighbouring floats, kept inside ``[lo, hi]``."""
    return [v for v in (math.nextafter(t, -math.inf), t, math.nextafter(t, math.inf)) if lo <= v <= hi]


_CFG = MetricConfig()
NEAR_THRESHOLD_CASES = (
    [(f"iou {v!r}", *_pair_with_iou(v)) for t in _CFG.success_thresholds for v in _near(t, 0.0, 1.0)]
    + [(f"distance {v!r}", *_pair_with_distance(v))
       for t in _CFG.precision_thresholds for v in _near(t, 0.0, math.inf)]
    # math.hypot rounds this offset's length to exactly 20.0; the correctly
    # rounded sqrt(dx*dx + dy*dy) is 20.000000000000004
    + [("offset (10.21.., 17.19..)",
        _truth_at(10.212789244604622, 17.195898808881385), FramePrediction(Box(0.0, 0.0, 0.0, 0.0)))]
)


class TestNearThreshold:
    @pytest.mark.parametrize("label,g,p", NEAR_THRESHOLD_CASES, ids=[c[0] for c in NEAR_THRESHOLD_CASES])
    def test_scalar_kernel_and_oracle_agree(self, label, g, p):
        if label.startswith("iou"):
            assert iou(g, p) == float(label.split()[1])
        scalar_sr = [float(frame_success_indicator(g, p, t)) for t in _CFG.success_thresholds]
        scalar_pr = [float(frame_precision_indicator(g, p, t)) for t in _CFG.precision_thresholds]
        seq = SequenceAnnotation(id="s", frames=(g,))
        kernel = benchmark_scores(DatasetManifest((seq,)), {"s": [p]}, _CFG)
        oracle_sr, oracle_pr = ref_benchmark_curves(
            [seq], {"s": [p]}, _CFG.success_thresholds, _CFG.precision_thresholds
        )
        assert list(kernel.sr_curve.scores) == scalar_sr == oracle_sr
        assert list(kernel.pr_curve.scores) == scalar_pr == oracle_pr


_MAX = sys.float_info.max
_HALF_MAX_SIDES = (2.0**511, _MAX / 2 / 2.0**511)  # an area of exactly max/2

# name -> two boxes whose overlap sits at an edge of the float arithmetic
OVERLAP_EDGES = {
    "zero-area union": (Box(3, 3, 0, 0), Box(3, 3, 0, 0)),
    "zero-area boxes apart": (Box(0, 0, 0, 5), Box(9, 0, 5, 0)),
    "inf - inf union": (Box(0, 0, 1e200, 1e200), Box(0, 0, 1e200, 1e200)),
    "negative-zero widths": (Box(-0.0, 1, -0.0, 4), Box(0.0, 1, -0.0, 4)),
    "negative-zero width in a box": (Box(0, 0, -0.0, 2), Box(0, 0, 3, 2)),
    "subnormal area": (Box(0, 0, 1e-160, 1e-160), Box(0, 0, 1e-160, 1e-160)),
    "smallest subnormal sides": (Box(0, 0, 5e-324, 5e-324), Box(0, 0, 5e-324, 1)),
    "overlap rounded off the anchor": (Box(0.1, 0, 0.2, 1), Box(0.1, 0, 0.2, 1)),
    "inter at max/2": (Box(0, 0, *_HALF_MAX_SIDES), Box(0, 0, *_HALF_MAX_SIDES)),
    "inter just above max/2": (
        Box(0, 0, _HALF_MAX_SIDES[0], math.nextafter(_HALF_MAX_SIDES[1], math.inf)),
        Box(0, 0, _HALF_MAX_SIDES[0], math.nextafter(_HALF_MAX_SIDES[1], math.inf)),
    ),
    "max/2 inside a larger box": (Box(0, 0, *_HALF_MAX_SIDES), Box(-1, 0, 1e300, _HALF_MAX_SIDES[1])),
    "far apart at the float range": (Box(-1.7e308, 0, 1.7e308, 1), Box(1.7e308, 0, 1e300, 1)),
}

# coordinates and sizes that round, overflow or underflow in the overlap
_EDGE_COORDS = (0.0, -0.0, 5e-324, 1e-300, 0.1, 0.3, 1.0, 3.0, -2.5, 1e16, 1e300, -1e300, 1.7e308, -1.7e308)
_EDGE_SIZES = (0.0, -0.0, 5e-324, 1e-300, 1e-160, 0.2, 1.0, 7.0, 1e16, *_HALF_MAX_SIDES, 1e300, 1.7e308)


def _overlaps_and_oracle(pairs) -> tuple[np.ndarray, list[float]]:
    rows = np.array([[[b.x, b.y, b.w, b.h] for b in pair] for pair in pairs])
    present = np.ones(len(pairs), dtype=bool)
    overlap, _, _ = _frame_values(_Block(rows[:, 0], present), _Block(rows[:, 1], present))
    return overlap, [ref_overlap_value(P(a), FramePrediction(b)) for a, b in pairs]


class TestOverlapRange:
    """The overlap ratio lies in [+0, 1] without a clamp: each axis overlap
    is at most the shorter side, so the union is at least the intersection
    wherever it is positive."""

    @pytest.mark.parametrize("name", sorted(OVERLAP_EDGES))
    def test_edge_equals_the_oracle_bit_for_bit(self, name):
        (got,), (want,) = _overlaps_and_oracle([OVERLAP_EDGES[name]])
        assert 0.0 <= got <= 1.0 and not math.copysign(1.0, got) < 0
        assert got.tobytes() == np.float64(want).tobytes()

    def test_max_half_edges(self):
        pairs = [OVERLAP_EDGES["inter at max/2"], OVERLAP_EDGES["inter just above max/2"]]
        (at, above), _ = _overlaps_and_oracle(pairs)
        assert (at, above) == (1.0, 0.0)  # above max/2 the area sum overflows to an infinite union

    def test_adversarial_blocks_equal_the_oracle_bit_for_bit(self):
        rng = np.random.default_rng(28)
        pairs = [
            tuple(Box(*rng.choice(_EDGE_COORDS, 2).tolist(), *rng.choice(_EDGE_SIZES, 2).tolist()) for _ in range(2))
            for _ in range(2000)
        ]
        got, want = _overlaps_and_oracle(pairs)
        assert ((got >= 0.0) & (got <= 1.0) & ~np.signbit(got)).all()
        assert got.tobytes() == np.array(want).tobytes()
        assert 0.0 < got.mean() < 1.0 and (got == 1.0).any()


class TestSequenceRowsReadOnly:
    def test_rows_reject_writes(self):
        rng = np.random.default_rng(5)
        manifest, results = random_benchmark(rng, n_sequences=3, max_frames=6)
        scores = benchmark_scores(manifest, results, MetricConfig())
        for rows in (scores.sequence_sr, scores.sequence_pr, scores.of_sequences([0, 2], MetricConfig()).sequence_sr):
            with pytest.raises(ValueError, match="read-only"):
                rows[0, 0] = 0.5
