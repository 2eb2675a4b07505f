import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fusebench import (
    Box,
    ConfigError,
    EmptyScoreMapError,
    EmptyTraceError,
    Expert,
    EXPERTS,
    ExpertStream,
    FramePrediction,
    FrameTruth,
    LengthMismatchError,
    NegativeLossError,
    NonFiniteError,
    ScoreMap,
    SequenceAnnotation,
    SelectionRecord,
    SelectionTrace,
    TiePolicy,
    aggregate_expert_losses,
    confidence_from_score_map,
    fuse_streams,
    iou,
    oracle_best_selection,
    select_expert,
    selection_ratios,
)
from protocol_oracle import ref_overlap_value

conf = st.floats(min_value=-100, max_value=100, allow_nan=False, allow_infinity=False)


def stream(expert, boxes_and_confs):
    preds = tuple(FramePrediction(b, c) for b, c in boxes_and_confs)
    return ExpertStream(expert=expert, predictions=preds)


class TestScoreMap:
    def test_single_cell(self):
        assert confidence_from_score_map(ScoreMap(np.array([[0.7]]))) == 0.7

    def test_max_of_grid(self):
        assert confidence_from_score_map([[0.1, 0.9], [0.3, 0.2]]) == 0.9

    def test_constant_grid(self):
        assert confidence_from_score_map(np.full((4, 6), 0.25)) == 0.25

    def test_empty_rejected(self):
        with pytest.raises(EmptyScoreMapError):
            confidence_from_score_map(np.empty((0, 3)))

    def test_non_finite_rejected(self):
        with pytest.raises(NonFiniteError):
            ScoreMap(np.array([[0.1, float("nan")]]))


class TestSelectExpert:
    def test_argmax(self):
        assert select_expert(0.9, 0.3, 0.7) is Expert.RGB

    def test_all_tied_prefers_rgbt(self):
        assert select_expert(0.5, 0.5, 0.5) is Expert.RGBT

    def test_two_way_tie_prefers_rgbt_over_tir(self):
        assert select_expert(0.2, 0.8, 0.8) is Expert.RGBT

    def test_tie_policy_override(self):
        tie = TiePolicy.parse("tir-first")
        assert select_expert(0.8, 0.8, 0.8, tie) is Expert.TIR

    def test_explicit_order(self):
        tie = TiePolicy.parse("rgb,tir,rgbt")
        assert select_expert(0.3, 0.3, 0.3, tie) is Expert.RGB

    def test_bad_policy_rejected(self):
        with pytest.raises(ConfigError):
            TiePolicy.parse("rgb,rgb,tir")

    def test_non_finite_rejected(self):
        with pytest.raises(NonFiniteError):
            select_expert(float("nan"), 0.0, 0.0)

    @given(a=conf, b=conf, c=conf)
    def test_never_returns_dominated_expert(self, a, b, c):
        chosen = select_expert(a, b, c)
        scores = {Expert.RGB: a, Expert.TIR: b, Expert.RGBT: c}
        assert all(scores[chosen] >= v for v in scores.values())

    # power-of-two scaling is exact in floats, so it preserves order and tie
    # structure bit-for-bit; generic affine maps can collapse near-ties by
    # rounding, which would test the arithmetic rather than the selection
    @given(a=conf, b=conf, c=conf, scale=st.sampled_from([0.25, 0.5, 2.0, 8.0]))
    def test_argmax_invariant_under_increasing_maps(self, a, b, c, scale):
        assert select_expert(a, b, c) is select_expert(a * scale, b * scale, c * scale)


class TestFuseStreams:
    def test_single_frame_delegates_to_argmax(self):
        box_a = Box(0, 0, 5, 5)
        rgb = stream(Expert.RGB, [(box_a, 0.9)])
        tir = stream(Expert.TIR, [(Box(1, 1, 5, 5), 0.3)])
        rgbt = stream(Expert.RGBT, [(Box(2, 2, 5, 5), 0.7)])
        fused, trace = fuse_streams(rgb, tir, rgbt)
        assert fused[0].box == box_a
        assert trace.records[0].chosen is Expert.RGB
        assert trace.records[0].confidence == 0.9

    def test_dominant_stream_passes_through(self):
        boxes = [Box(float(i), 0, 4, 4) for i in range(10)]
        rgb = stream(Expert.RGB, [(b, 0.1) for b in boxes])
        tir = stream(Expert.TIR, [(b.shifted(1, 0), 0.2) for b in boxes])
        rgbt = stream(Expert.RGBT, [(b.shifted(2, 0), 0.9) for b in boxes])
        fused, trace = fuse_streams(rgb, tir, rgbt)
        assert [p.box for p in fused] == [p.box for p in rgbt.predictions]
        assert selection_ratios(trace) == (0.0, 0.0, 1.0)

    def test_idempotent_on_identical_streams(self):
        boxes = [(Box(float(i), float(i), 3, 3), 0.5 + i / 100) for i in range(5)]
        s = stream(Expert.RGB, boxes)
        fused, _ = fuse_streams(s, s, s)
        assert [p.box for p in fused] == [p.box for p in s.predictions]

    def test_length_mismatch(self):
        a = stream(Expert.RGB, [(Box(0, 0, 1, 1), 0.5)])
        b = stream(Expert.TIR, [(Box(0, 0, 1, 1), 0.5), (Box(0, 0, 1, 1), 0.5)])
        with pytest.raises(LengthMismatchError):
            fuse_streams(a, b, a)

    def test_calibrated_confidences_select_best_overlap(self):
        # confidences equal per-frame overlap vs truth: the fused stream's
        # overlap equals the per-frame maximum over the three experts
        rng = np.random.default_rng(99)
        gt, streams = [], {e: [] for e in Expert}
        for _ in range(40):
            truth = FrameTruth.present(
                Box(float(rng.uniform(0, 80)), float(rng.uniform(0, 80)), 10, 10)
            )
            gt.append(truth)
            for e in Expert:
                b = truth.box.shifted(float(rng.normal(0, 6)), float(rng.normal(0, 6)))
                q = iou(truth, FramePrediction(b))
                streams[e].append((b, q))
        rgb = stream(Expert.RGB, streams[Expert.RGB])
        tir = stream(Expert.TIR, streams[Expert.TIR])
        rgbt = stream(Expert.RGBT, streams[Expert.RGBT])
        fused, _ = fuse_streams(rgb, tir, rgbt)
        for g, f, r, t, x in zip(gt, fused, rgb.predictions, tir.predictions, rgbt.predictions):
            best = max(iou(g, r), iou(g, t), iou(g, x))
            assert iou(g, f) == best


GRID = st.integers(min_value=0, max_value=1000).map(lambda k: k / 1000)
PRESETS = st.sampled_from(["rgbt-first", "tir-first", "rgb-first"])


def _winner(row, tie: TiePolicy) -> Expert:
    """The expert with the highest score in ``row`` (columns as EXPERTS),
    the tie order deciding between equal scores."""
    top = max(row)
    return next(e for e in tie.order if row[EXPERTS.index(e)] == top)


@st.composite
def tied_rows(draw, values):
    """Per-frame triples drawn from a palette of at most three values, so
    2-way and 3-way exact ties are frequent."""
    palette = st.sampled_from(draw(st.lists(values, min_size=1, max_size=3)))
    return draw(st.lists(st.tuples(palette, palette, palette), min_size=1, max_size=30))


class TestTieBreaking:
    @given(rows=tied_rows(GRID), preset=PRESETS)
    def test_fuse_streams_picks_as_select_expert(self, rows, preset):
        tie = TiePolicy.parse(preset)
        # each expert's boxes differ, so a fused prediction names its expert
        streams = [
            stream(e, [(Box(float(i), float(k), 4, 4), row[k]) for i, row in enumerate(rows)])
            for k, e in enumerate(EXPERTS)
        ]
        fused, trace = fuse_streams(*streams, tie)
        for i, row in enumerate(rows):
            want = _winner(row, tie)
            assert trace.records[i].chosen is want
            assert fused[i] == streams[EXPERTS.index(want)].predictions[i]

    # horizontal shifts of a 10x10 target: equal |shift| gives bit-equal
    # overlaps, shifts of 10 or more and declared absence all overlap 0
    @given(rows=tied_rows(st.one_of(st.none(), st.integers(-12, 12))), preset=PRESETS)
    def test_oracle_picks_as_select_expert(self, rows, preset):
        tie = TiePolicy.parse(preset)
        gt = SequenceAnnotation(id="s", frames=[FrameTruth.present(Box(0, 0, 10, 10))] * len(rows))
        # the confidence names the expert
        streams = [
            stream(e, [(None if row[k] is None else Box(float(row[k]), 0, 10, 10), k / 10) for row in rows])
            for k, e in enumerate(EXPERTS)
        ]
        picked = oracle_best_selection(*streams, gt, tie)
        for i, frame in enumerate(gt.frames):
            overlaps = [ref_overlap_value(frame, s.predictions[i]) for s in streams]
            want = _winner(overlaps, tie)
            assert picked[i] == streams[EXPERTS.index(want)].predictions[i]


class TestTrace:
    def _record(self, i, chosen, cs):
        return SelectionRecord(
            frame=i, chosen=chosen, confidence=max(cs), cs_rgb=cs[0], cs_tir=cs[1], cs_rgbt=cs[2]
        )

    def test_record_invariants_enforced(self):
        with pytest.raises(Exception):
            SelectionRecord(frame=0, chosen=Expert.RGB, confidence=0.5, cs_rgb=0.1, cs_tir=0.5, cs_rgbt=0.2)

    def test_twelve_percent_fixture(self):
        records = []
        for i in range(100):
            if i < 12:
                records.append(self._record(i, Expert.RGBT, (0.1, 0.5, 0.9)))
            else:
                records.append(self._record(i, Expert.TIR, (0.1, 0.9, 0.5)))
        ratios = selection_ratios(SelectionTrace.from_records(records))
        assert ratios == (0.0, 0.88, 0.12)

    def test_all_rgb(self):
        records = [self._record(i, Expert.RGB, (0.9, 0.1, 0.1)) for i in range(7)]
        assert selection_ratios(SelectionTrace.from_records(records)) == (1.0, 0.0, 0.0)

    def test_two_expert_split(self):
        records = []
        for i in range(100):
            if i < 42:
                records.append(self._record(i, Expert.RGB, (0.9, 0.5, 0.1)))
            else:
                records.append(self._record(i, Expert.TIR, (0.5, 0.9, 0.1)))
        assert selection_ratios(SelectionTrace.from_records(records)) == (0.42, 0.58, 0.0)

    def test_empty_trace(self):
        with pytest.raises(EmptyTraceError):
            selection_ratios(SelectionTrace.from_records(()))


class TestLossAggregation:
    def test_examples(self):
        assert aggregate_expert_losses(0.3, 0.6, 0.9) == 0.6
        assert aggregate_expert_losses(0, 0, 0) == 0.0
        assert aggregate_expert_losses(1, 1, 1) == 1.0

    def test_negative_rejected(self):
        with pytest.raises(NegativeLossError):
            aggregate_expert_losses(0.1, -0.2, 0.3)

    def test_non_finite_rejected(self):
        with pytest.raises(NonFiniteError):
            aggregate_expert_losses(0.1, float("inf"), 0.3)

    losses = st.floats(min_value=0, max_value=1e6, allow_nan=False, allow_infinity=False)

    @given(a=losses, b=losses, c=losses)
    def test_symmetric_and_bounded(self, a, b, c):
        v = aggregate_expert_losses(a, b, c)
        assert math.isclose(v, aggregate_expert_losses(c, a, b), rel_tol=1e-12, abs_tol=1e-12)
        bound = 1e-9 * max(1.0, a, b, c)
        assert min(a, b, c) - bound <= v <= max(a, b, c) + bound
