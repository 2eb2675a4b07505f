import math

import numpy as np
import pytest

from fusebench import (
    BalancedIndicatorTable,
    Box,
    ConfigError,
    Curve,
    DatasetManifest,
    DegradationProfile,
    DuplicateSequenceIdError,
    EmptySubsetError,
    Expert,
    ExpertStream,
    FramePrediction,
    FrameTruth,
    FusebenchError,
    IntervalOutOfBoundsError,
    LengthMismatchError,
    MetricConfig,
    MissingConfidenceError,
    NegativeExtentError,
    NonFiniteError,
    PredictionColumns,
    ScenarioConfig,
    SelectionRecord,
    SelectionTrace,
    SequenceAnnotation,
    Subset,
    TiePolicy,
    TruthColumns,
    balanced_indicators,
    export_report,
    oracle_best_selection,
    sequence_score,
    subset_manifest,
    synthesize_fused_expert,
)
from fusebench import io as fio
from fusebench.errors import _number
from fusebench.model import _check_lengths


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
        assert b.w * b.h == 0.0

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(NonFiniteError):
            Box(bad, 0, 1, 1)
        with pytest.raises(NonFiniteError):
            Box(0, 0, bad, 1)



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
        assert not p.is_present and p.confidence == 0.9


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
        assert len(m.sequences) == 3
        assert tuple(s.id for s in m.sequences) == ("s0", "s1", "s2")

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
        assert "_frames" not in vars(seq.frames)

    def test_given_objects_are_kept(self):
        frames = (FrameTruth.present(Box(1, 2, 3, 4)), FrameTruth.absent())
        seq = SequenceAnnotation(id="s", frames=frames)
        assert isinstance(seq.frames, TruthColumns)
        assert all(a is b for a, b in zip(seq.frames, frames))
        assert seq.frames.present.tolist() == [True, False]
        assert seq == SequenceAnnotation(id="s", frames=list(frames))

    def test_iteration_makes_no_call_per_frame(self, monkeypatch):
        # iterating by index, one __getitem__ call per frame, took 27 times as long on 20,000 frames
        cols = TruthColumns(np.ones((3, 4)), [True, False, True])
        monkeypatch.setattr(TruthColumns, "__getitem__", lambda self, index: pytest.fail("iterated by index"))
        present = FrameTruth.present(Box(1, 1, 1, 1))
        assert list(cols) == [present, FrameTruth.absent(), present]

    def test_compare_unequal_to_other_types(self):
        cols = TruthColumns([[1, 2, 3, 4]], [True])
        assert (cols == 5) is False
        assert (cols == "cols") is False


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


_CURVE = Curve((0.0, 1.0), (1.0, 0.5))
_TRACE = SelectionTrace([1, 0], [[0.1, 0.5, 0.2], [0.9, 0.5, 0.2]])

# name -> (a call that is rejected, the exact error class, a message fragment)
REJECTED_CALLS = {
    "selection record winner": (lambda: SelectionRecord(
        frame=0, chosen="rgb", confidence=0.3, cs_rgb=0.3, cs_tir=0.5, cs_rgbt=0.1),
        FusebenchError, "is not the maximum"),
    "selection trace index": (lambda: SelectionTrace([3], [[0.1, 0.2, 0.3]]), FusebenchError, "column indices"),
    "tie policy": (lambda: TiePolicy.parse("rgb,tir"), ConfigError, "cannot parse tie policy"),
    "sidecar of unscored predictions": (lambda: fio.write_confidences([FramePrediction(Box(0, 0, 1, 1))]),
                                        FusebenchError, "have no confidence"),
    "curve score": (lambda: Curve((0.0, 1.0), (0.5, 1.5)), ConfigError, "must lie in"),
    "curve off-grid threshold": (lambda: _CURVE.score_at(0.5), ConfigError, "not a grid point"),
    "sequence score kind": (lambda: sequence_score(_seq(1), [FramePrediction(Box(0, 0, 4, 4))], 0.5, kind="recall"),
                            ConfigError, "kind must be"),
    "sequence score pooling": (lambda: sequence_score(
        _seq(1), [FramePrediction(Box(0, 0, 4, 4))], 0.5, pooling="mean"), ConfigError, "pooling must be"),
    "metric config pooling": (lambda: MetricConfig(pooling="mean"), ConfigError, "pooling must be"),
    "export format": (lambda: export_report(_CURVE, "xml"), FusebenchError, "unknown format"),
    "export type": (lambda: export_report(42, "csv"), FusebenchError, "cannot export"),
    "balanced indicators of no rows": (lambda: balanced_indicators([]), FusebenchError, "at least one"),
    "box field string": (lambda: Box("1", 0, 1, 1), NonFiniteError, "must be a real number"),
    "box field bool": (lambda: Box(True, 0, 1, 1), NonFiniteError, "must be a real number"),
    "present frame without box": (lambda: FrameTruth.present(None), FusebenchError, "requires a box"),
    "degradation of rgbt": (lambda: DegradationProfile(target="rgbt"), ConfigError, "single modality"),
    "degradation interval": (lambda: DegradationProfile(intervals=[[5, 2]]), IntervalOutOfBoundsError, "bad interval"),
    "degradation interval before the start": (lambda: DegradationProfile(intervals=[[-1, 5]]),
                                              IntervalOutOfBoundsError, r"^bad interval \[-1, 5\)$"),
    "degradation fraction above one": (lambda: DegradationProfile(fraction=math.nextafter(1.0, 2.0)),
                                       ConfigError, "fraction"),
    "degradation fraction negative": (lambda: DegradationProfile(fraction=-0.1), ConfigError, "fraction"),
    "scenario motion step negative": (lambda: ScenarioConfig(motion_step_std=-1), ConfigError, "motion_step_std"),
    "scenario motion step nan": (lambda: ScenarioConfig(motion_step_std=math.nan), ConfigError, "motion_step_std"),
    "scenario motion step bool": (lambda: ScenarioConfig(motion_step_std=True), ConfigError, "motion_step_std"),
    "metric config bool report point": (lambda: MetricConfig(pr_report_threshold=True),
                                        ConfigError, "pr_report_threshold"),
    "scenario extent": (lambda: ScenarioConfig(extent=(0, 480)), ConfigError, "must be positive"),
    "scenario objects too large": (lambda: ScenarioConfig(extent=(40, 40)), ConfigError, "must fit"),
    "scenario rgb profile": (lambda: ScenarioConfig(rgb=DegradationProfile(target="tir")),
                             ConfigError, "rgb profile must target"),
    "scenario tir profile": (lambda: ScenarioConfig(tir=DegradationProfile(target="rgb")),
                             ConfigError, "tir profile must target"),
    "number beyond the float range": (lambda: _number("x", 10**400), ConfigError, "must be finite"),
    # a value outside a choice enum is a toolkit error, named by the enum
    "subset tag": (lambda: SequenceAnnotation("s", _seq(1).frames, subset="bogus"),
                   ConfigError, "^'bogus' is not a valid Subset$"),
    "unhashable subset tag": (lambda: SequenceAnnotation("s", _seq(1).frames, subset=["rgb"]),
                              ConfigError, r"^\['rgb'\] is not a valid Subset$"),
    "stream expert": (lambda: ExpertStream("bogus", _stream(Expert.RGB, 1).predictions),
                      ConfigError, "^'bogus' is not a valid Expert$"),
    "tie policy expert": (lambda: TiePolicy(("rgb", "tir", "bogus")), ConfigError, "^'bogus' is not a valid Expert$"),
    "selection record expert": (lambda: SelectionRecord(0, "bogus", 0.5, 0.5, 0.1, 0.1),
                                ConfigError, "^'bogus' is not a valid Expert$"),
    "degraded behavior": (lambda: DegradationProfile(behavior="bogus"),
                          ConfigError, "^'bogus' is not a valid DegradedBehavior$"),
    "metric config grid that is no list": (lambda: MetricConfig(success_thresholds=5),
                                           ConfigError, "^success_thresholds must be a list of numbers, got 5$"),
    "subset with no sequences": (lambda: subset_manifest(DatasetManifest((_seq(1),)), "rgb"),
                                 EmptySubsetError, "^subset 'rgb' contains no sequences$"),
    # stored arrays are read-only
    "write to a presence mask": (lambda: _seq(1).frames.present.__setitem__(0, False), ValueError, "read-only"),
    "write to a confidence column": (lambda: _stream(Expert.RGB, 1).predictions.confidence.__setitem__(0, 1.0),
                                     ValueError, "read-only"),
    "write to a trace's chosen experts": (lambda: _TRACE.chosen.__setitem__(0, 0), ValueError, "read-only"),
    "write to a trace's confidences": (lambda: _TRACE.confidences.__setitem__(0, 1.0), ValueError, "read-only"),
}


@pytest.mark.parametrize("case", sorted(REJECTED_CALLS))
def test_rejected_call(case):
    call, error, fragment = REJECTED_CALLS[case]
    with pytest.raises(error, match=fragment) as err:
        call()
    assert type(err.value) is error


# name -> (a constructor, items it must read in one pass: it is given them as an iterator)
ONE_PASS_INPUTS = {
    "truth columns": (TruthColumns.from_frames, (FrameTruth.present(Box(1, 2, 3, 4)), FrameTruth.absent())),
    "prediction columns": (PredictionColumns.from_frames, (FramePrediction(Box(1, 2, 3, 4), 0.5),)),
    "selection trace": (SelectionTrace.from_records, tuple(_TRACE)),
    "config number pair": (lambda v: ScenarioConfig(extent=v).extent, (641, 480)),
}


@pytest.mark.parametrize("case", sorted(ONE_PASS_INPUTS))
def test_one_pass_input(case):
    build, items = ONE_PASS_INPUTS[case]
    assert list(build(iter(items))) == list(build(items))


# name -> (a call, what it returns): constructors store the types they declare
STORED_VALUES = {
    "manifest sequences": (lambda: type(DatasetManifest([_seq(1)]).sequences), tuple),
    "balance table rows": (lambda: type(BalancedIndicatorTable(list(balanced_indicators([("a", 3, 2, 1)]).rows)).rows),
                           tuple),
    "integer confidence": (lambda: type(FramePrediction(None, 1).confidence), float),
    "tie order given as names": (lambda: tuple(map(type, TiePolicy(("tir", "rgb", "rgbt")).order)), (Expert,) * 3),
    "degradation intervals given as lists": (lambda: DegradationProfile(intervals=[[1, 3]]).intervals, ((1, 3),)),
}


@pytest.mark.parametrize("case", sorted(STORED_VALUES))
def test_stored_value(case):
    call, expected = STORED_VALUES[case]
    assert call() == expected
