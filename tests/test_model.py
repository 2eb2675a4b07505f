import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fusebench import (
    Box,
    Curve,
    DatasetManifest,
    DegradationProfile,
    DuplicateSequenceIdError,
    Expert,
    ExpertStream,
    FramePrediction,
    FrameTruth,
    FusebenchError,
    LengthMismatchError,
    MissingConfidenceError,
    NegativeExtentError,
    NonFiniteError,
    PredictionColumns,
    SelectionTrace,
    SequenceAnnotation,
    Subset,
    TruthColumns,
    degrade_modality,
    oracle_best_selection,
    synthesize_fused_expert,
)
from fusebench.model import _check_lengths

finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False)
sizes = st.floats(min_value=0.0, max_value=1e6, allow_nan=False, allow_infinity=False)


class TestBox:
    def test_identity_construction(self):
        b = Box(0, 0, 2, 2)
        assert b == Box(0.0, 0.0, 2.0, 2.0)
        assert all(type(v) is float for v in (b.x, b.y, b.w, b.h))

    def test_negative_extent_rejected(self):
        with pytest.raises(NegativeExtentError):
            Box(1, 1, -3, 2)
        with pytest.raises(NegativeExtentError):
            Box(1, 1, 3, -2)

    def test_degenerate_box_is_valid(self):
        b = Box(0, 0, 0, 0)
        assert b.area == 0.0
        assert b.center() == (0.0, 0.0)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(NonFiniteError):
            Box(bad, 0, 1, 1)
        with pytest.raises(NonFiniteError):
            Box(0, 0, bad, 1)

    def test_center_examples(self):
        assert Box(0, 0, 2, 2).center() == (1.0, 1.0)
        assert Box(3, 4, 2, 2).center() == (4.0, 5.0)

    @given(x=finite, y=finite, w=sizes, h=sizes, dx=finite, dy=finite)
    def test_center_translation_equivariance(self, x, y, w, h, dx, dy):
        cx, cy = Box(x, y, w, h).center()
        sx, sy = Box(x + dx, y + dy, w, h).center()
        assert math.isclose(sx, cx + dx, rel_tol=0, abs_tol=1e-6)
        assert math.isclose(sy, cy + dy, rel_tol=0, abs_tol=1e-6)


class TestVariants:
    def test_truth_variants(self):
        t = FrameTruth.present(Box(1, 2, 3, 4))
        assert t.is_present and t.box.w == 3.0
        a = FrameTruth.absent()
        assert not a.is_present and a.box is None

    def test_prediction_confidence_must_be_finite(self):
        with pytest.raises(NonFiniteError):
            FramePrediction(Box(0, 0, 1, 1), float("nan"))

    def test_declared_absence_carries_confidence(self):
        p = FramePrediction.absent(0.9)
        assert p.declares_absence and p.confidence == 0.9


class TestSequences:
    def test_empty_sequence_rejected(self):
        with pytest.raises(FusebenchError):
            SequenceAnnotation(id="x", frames=())

    def test_subset_coercion(self):
        s = SequenceAnnotation(id="x", frames=(FrameTruth.absent(),), subset="tir")
        assert s.subset is Subset.TIR_DOMINANT

    def test_stream_requires_confidences(self):
        preds = (FramePrediction(Box(0, 0, 1, 1), 0.5), FramePrediction(Box(0, 0, 1, 1)))
        with pytest.raises(MissingConfidenceError):
            ExpertStream(expert=Expert.RGB, predictions=preds)

    def test_manifest_needs_unique_ids(self):
        seq = SequenceAnnotation(id="a", frames=(FrameTruth.absent(),))
        with pytest.raises(DuplicateSequenceIdError):
            DatasetManifest((seq, seq))

    def test_manifest_counts(self):
        seqs = tuple(
            SequenceAnnotation(id=f"s{i}", frames=(FrameTruth.absent(),)) for i in range(3)
        )
        m = DatasetManifest(seqs)
        assert m.m == 3
        assert m.ids() == ("s0", "s1", "s2")

    def test_empty_manifest_rejected(self):
        with pytest.raises(FusebenchError):
            DatasetManifest(())


class TestColumns:
    def test_validated_once_at_construction(self):
        with pytest.raises(NonFiniteError):
            TruthColumns([[0, 0, float("nan"), 1]], [True])
        with pytest.raises(NegativeExtentError):
            TruthColumns([[0, 0, -1, 1]], [True])
        with pytest.raises(LengthMismatchError):
            TruthColumns([[0, 0, 1, 1]], [True, False])
        with pytest.raises(LengthMismatchError):
            PredictionColumns([[0, 0, 1, 1]], [True], [0.5, 0.5])
        with pytest.raises(NonFiniteError):
            PredictionColumns([[0, 0, 1, 1]], [True], [float("inf")])

    def test_read_only_and_absent_rows_zeroed(self):
        boxes = np.array([[1.0, 2.0, 3.0, 4.0], [9.0, 9.0, -1.0, 9.0]])
        cols = TruthColumns(boxes, [True, False])
        boxes[0, 0] = 100.0  # the columns hold a copy
        assert cols.boxes.tolist() == [[1.0, 2.0, 3.0, 4.0], [0.0, 0.0, 0.0, 0.0]]
        with pytest.raises(ValueError):
            cols.boxes[0, 0] = 5.0

    def test_sequence_of_frame_objects(self):
        cols = PredictionColumns([[1, 2, 3, 4], [0, 0, 0, 0]], [True, False], [0.25, 0.75])
        assert len(cols) == 2
        assert list(cols) == [FramePrediction(Box(1, 2, 3, 4), 0.25), FramePrediction.absent(0.75)]
        assert cols[1] == FramePrediction.absent(0.75)
        assert cols == PredictionColumns.from_frames(list(cols))

    def test_len_builds_no_objects(self):
        seq = SequenceAnnotation(id="s", frames=TruthColumns(np.zeros((5, 4)), np.zeros(5, dtype=bool)))
        assert len(seq) == len(seq.frames) == 5
        assert seq.frames._frames is None

    def test_given_objects_are_kept(self):
        frames = (FrameTruth.present(Box(1, 2, 3, 4)), FrameTruth.absent())
        seq = SequenceAnnotation(id="s", frames=frames)
        assert isinstance(seq.frames, TruthColumns)
        assert all(a is b for a, b in zip(seq.frames, frames))
        assert seq.frames.present.tolist() == [True, False]
        assert seq == SequenceAnnotation(id="s", frames=list(frames))


def _seq(n: int) -> SequenceAnnotation:
    return SequenceAnnotation(id="s", frames=[FrameTruth.present(Box(i, 0, 4, 4)) for i in range(n)])


def _stream(expert: Expert, n: int) -> ExpertStream:
    return ExpertStream(expert, [FramePrediction(Box(i, 0, 4, 4), 0.5) for i in range(n)])


# name -> a call whose per-frame inputs have 3 and 2 entries
LENGTH_MISMATCHES = {
    "curve": lambda: Curve((0.0, 0.5, 1.0), (1.0, 0.5)),
    "selection trace": lambda: SelectionTrace([0, 1, 2], [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]),
    "fused expert streams": lambda: synthesize_fused_expert(_stream(Expert.RGB, 3), _stream(Expert.TIR, 2), _seq(3)),
    "fused expert degraded mask": lambda: synthesize_fused_expert(
        _stream(Expert.RGB, 3), _stream(Expert.TIR, 3), _seq(3), tir_degraded=[False, True]),
    "oracle selection": lambda: oracle_best_selection(
        _stream(Expert.RGB, 3), _stream(Expert.TIR, 3), _stream(Expert.RGBT, 2), _seq(3)),
    "degraded mask": lambda: degrade_modality(
        _seq(3), DegradationProfile(target=Expert.RGB), seed=0, mask=np.zeros(2, dtype=bool)),
}


class TestLengthRule:
    def test_message_names_every_length(self):
        _check_lengths("x", a=1, b=1)
        with pytest.raises(LengthMismatchError) as err:
            _check_lengths("x", a=1, b=2, c=1)
        assert str(err.value) == "x: lengths differ: a=1, b=2, c=1"

    @pytest.mark.parametrize("case", sorted(LENGTH_MISMATCHES))
    def test_mismatch_rejected(self, case):
        with pytest.raises(LengthMismatchError, match=r"^[\w ]+: lengths differ: .*=3, .*=2"):
            LENGTH_MISMATCHES[case]()
