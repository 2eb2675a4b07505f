import csv
import io
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fusebench import (
    BalancedIndicatorTable,
    Box,
    Curve,
    DatasetManifest,
    EmptySubsetError,
    FramePrediction,
    FrameTruth,
    FusebenchError,
    MetricConfig,
    NonPositiveScoreError,
    SequenceAnnotation,
    Subset,
    balanced_indicators,
    benchmark_scores,
    compositional_eval,
    export_report,
    parse_report,
    run_scenario,
    ScenarioConfig,
    SelectionRecord,
    SelectionTrace,
    subset_manifest,
)
from fusebench import analysis
from fusebench import report as report_module
from conftest import random_benchmark

# expert PR/SR scores per benchmark as reported by the reference comparison
# tables used throughout the tests: (name, fused, rgb-only, tir-only)
PR_TABLE = [
    ("GTOT", 92.9, 84.9, 64.3),
    ("RGBT234", 87.5, 81.6, 76.5),
    ("LasHeR", 71.7, 62.4, 59.8),
    ("VTUAV-ST", 82.9, 76.1, 51.7),
    ("MV-RGBT", 65.3, 44.0, 39.7),
]
SR_TABLE = [
    ("GTOT", 77.7, 68.9, 56.3),
    ("RGBT234", 64.8, 60.7, 54.0),
    ("LasHeR", 57.5, 50.2, 47.4),
    ("VTUAV-ST", 69.1, 65.7, 41.2),
    ("MV-RGBT", 49.1, 34.8, 29.5),
]


def perfect_sequence(sid, subset, n=4):
    b = Box(10, 10, 20, 20)
    frames = tuple(FrameTruth.present(b) for _ in range(n))
    preds = [FramePrediction(b) for _ in range(n)]
    return SequenceAnnotation(id=sid, frames=frames, subset=subset), preds


def hopeless_sequence(sid, subset, n=4):
    frames = tuple(FrameTruth.present(Box(10, 10, 20, 20)) for _ in range(n))
    preds = [FramePrediction(Box(500, 500, 5, 5)) for _ in range(n)]
    return SequenceAnnotation(id=sid, frames=frames, subset=subset), preds


class TestCompositionalEval:
    def test_single_subset_equals_overall(self):
        seqs, results = [], {}
        for i in range(3):
            s, p = perfect_sequence(f"s{i}", Subset.RGB_DOMINANT)
            seqs.append(s)
            results[s.id] = p
        report = compositional_eval(DatasetManifest(tuple(seqs)), results)
        assert "rgb" in report.subsets and "tir" not in report.subsets
        assert report.subsets["rgb"].sr_curve == report.overall.sr_curve
        assert report.sequence_counts == {"overall": 3, "rgb": 3, "tir": 0, "untagged": 0}

    def test_two_subsets_average(self):
        seqs, results = [], {}
        for i in range(2):
            s, p = perfect_sequence(f"r{i}", Subset.RGB_DOMINANT)
            seqs.append(s)
            results[s.id] = p
        for i in range(2):
            s, p = hopeless_sequence(f"t{i}", Subset.TIR_DOMINANT)
            seqs.append(s)
            results[s.id] = p
        report = compositional_eval(DatasetManifest(tuple(seqs)), results)
        th = 0.5
        assert report.overall.sr_curve.score_at(th) == 0.5
        assert report.subsets["rgb"].sr_curve.score_at(th) == 1.0
        assert report.subsets["tir"].sr_curve.score_at(th) == 0.0

    def test_untagged_in_overall_only(self):
        s1, p1 = perfect_sequence("a", Subset.RGB_DOMINANT)
        s2, p2 = hopeless_sequence("b", Subset.UNSPECIFIED)
        report = compositional_eval(DatasetManifest((s1, s2)), {"a": p1, "b": p2})
        assert report.sequence_counts["untagged"] == 1
        assert report.overall.sr_curve.score_at(0.5) == 0.5
        assert report.subsets["rgb"].sr_curve.score_at(0.5) == 1.0
        assert "tir" not in report.subsets

    def test_requested_empty_subset_raises(self):
        s1, p1 = perfect_sequence("a", Subset.RGB_DOMINANT)
        man = DatasetManifest((s1,))
        with pytest.raises(EmptySubsetError):
            subset_manifest(man, "tir")

    @pytest.mark.parametrize("tag", ["none", Subset.UNSPECIFIED, "all", "RGB"])
    def test_unknown_subset_tag_rejected(self, tag):
        s1, _ = perfect_sequence("a", Subset.UNSPECIFIED)
        with pytest.raises(FusebenchError, match="unknown subset tag"):
            subset_manifest(DatasetManifest((s1,)), tag)

    def test_decomposition_identity(self):
        rng = np.random.default_rng(2024)
        manifest, results = random_benchmark(rng, n_sequences=12, max_frames=15)
        tagged = tuple(
            SequenceAnnotation(
                id=s.id,
                frames=s.frames,
                subset=[Subset.RGB_DOMINANT, Subset.TIR_DOMINANT, Subset.UNSPECIFIED][i % 3],
            )
            for i, s in enumerate(manifest.sequences)
        )
        manifest = DatasetManifest(tagged)
        cfg = MetricConfig()
        report = compositional_eval(manifest, results, cfg)
        parts = []
        for subset in (Subset.RGB_DOMINANT, Subset.TIR_DOMINANT, Subset.UNSPECIFIED):
            seqs = manifest.subset(subset)
            scores = benchmark_scores(DatasetManifest(seqs), results, cfg)
            parts.append((len(seqs), scores.sr_curve.scores))
        n = manifest.m
        for k in range(len(cfg.success_thresholds)):
            weighted = sum(cnt * scores[k] for cnt, scores in parts) / n
            assert math.isclose(report.overall.sr_curve.scores[k], weighted, abs_tol=1e-12)


    @pytest.mark.parametrize("pooling", ["frame", "sequence-mean"])
    def test_scores_each_sequence_once_and_subsets_equal_rescoring(self, monkeypatch, pooling):
        # subset curves come from the overall per-sequence rows, reduced in
        # manifest order, and equal scoring the subset anew bit for bit
        rng = np.random.default_rng(77)
        manifest, results = random_benchmark(rng, n_sequences=40, max_frames=20)
        tags = [Subset.TIR_DOMINANT, Subset.RGB_DOMINANT, Subset.UNSPECIFIED, Subset.RGB_DOMINANT]
        manifest = DatasetManifest(tuple(
            SequenceAnnotation(id=s.id, frames=s.frames, subset=tags[i % 4])
            for i, s in enumerate(manifest.sequences)
        ))
        cfg = MetricConfig(pooling=pooling)
        calls = []
        monkeypatch.setattr(analysis, "benchmark_scores", lambda *a: calls.append(1) or benchmark_scores(*a))
        report = compositional_eval(manifest, results, cfg)
        assert len(calls) == 1
        assert report.overall.sequence_sr.shape == (40, len(cfg.success_thresholds))
        assert report.overall.sequence_pr.shape == (40, len(cfg.precision_thresholds))
        for tag in ("rgb", "tir"):
            assert report.subsets[tag] == benchmark_scores(subset_manifest(manifest, tag), results, cfg)


class TestBalancedIndicators:
    def test_reference_pr_row(self):
        table = balanced_indicators(PR_TABLE)
        gtot = table.rows[0]
        assert abs(gtot.gap_fusion - 30.8) <= 0.05
        assert abs(gtot.gap_modality - 24.3) <= 0.05
        assert gtot.rank_fusion == 3 and gtot.rank_modality == 4

    def test_reference_pr_mean_ranks(self):
        table = balanced_indicators(PR_TABLE)
        assert [r.mean_rank for r in table.rows] == [3.5, 3.5, 2.5, 3.5, 2.0]

    def test_equal_scores_tie(self):
        table = balanced_indicators([("a", 5.0, 5.0, 5.0), ("b", 7.0, 7.0, 7.0)])
        for row in table.rows:
            assert row.gap_fusion == 0.0 and row.gap_modality == 0.0
            assert row.rank_fusion == 1.5 and row.rank_modality == 1.5
            assert row.mean_rank == 1.5

    def test_three_way_tie_takes_the_mean_position(self):
        # fusion and modality gaps: a 10, b/c/e 20 (tied), d 5
        rows = [("a", 10.0, 10.0, 9.0), ("b", 10.0, 10.0, 8.0), ("c", 10.0, 10.0, 8.0),
                ("d", 10.0, 10.0, 9.5), ("e", 10.0, 10.0, 8.0)]
        table = balanced_indicators(rows)
        assert [r.rank_fusion for r in table.rows] == [4.0, 2.0, 2.0, 5.0, 2.0]
        assert [r.rank_modality for r in table.rows] == [2.0, 4.0, 4.0, 1.0, 4.0]

    def test_single_row(self):
        table = balanced_indicators([("only", 9.0, 8.0, 7.0)])
        row = table.rows[0]
        assert row.rank_fusion == 1 and row.rank_modality == 1 and row.mean_rank == 1.0

    def test_non_positive_rejected(self):
        with pytest.raises(NonPositiveScoreError):
            balanced_indicators([("bad", 5.0, 0.0, 1.0)])

    positive = st.floats(min_value=0.1, max_value=100.0, allow_nan=False)

    @given(
        scores=st.lists(st.tuples(positive, positive, positive), min_size=1, max_size=8),
        factor=st.floats(min_value=0.1, max_value=10.0, allow_nan=False),
    )
    def test_scale_invariance_and_rank_permutation(self, scores, factor):
        rows = [(f"b{i}", *t) for i, t in enumerate(scores)]
        scaled = [(n, r * factor, g * factor, t * factor) for n, r, g, t in rows]
        a = balanced_indicators(rows)
        b = balanced_indicators(scaled)
        n = len(rows)
        for ra, rb in zip(a.rows, b.rows):
            assert math.isclose(ra.gap_fusion, rb.gap_fusion, rel_tol=0, abs_tol=1e-8)
            assert math.isclose(ra.gap_modality, rb.gap_modality, rel_tol=0, abs_tol=1e-8)
            assert ra.rank_fusion == rb.rank_fusion
            assert ra.rank_modality == rb.rank_modality
            assert 1.0 <= ra.mean_rank <= n
        # average-rank columns sum to n(n+1)/2 like a permutation
        assert math.isclose(sum(r.rank_fusion for r in a.rows), n * (n + 1) / 2)
        assert math.isclose(sum(r.rank_modality for r in a.rows), n * (n + 1) / 2)


# exact ties: every winner attains the row maximum, which another expert
# may share; 1/3 prints differently in full precision and at 4 decimals
TIED_TRACE = SelectionTrace(
    [0, 2, 1, 2, 0],
    [(1 / 3, 1 / 3, 1 / 3), (0.1, 0.2, 0.1 + 0.2), (0.25, 0.5, 0.5), (2 / 3, 0.0, 2 / 3), (1.0, 0.5, 1.0)],
)


class TestExport:
    def test_csv_quotes_cells(self):
        table = balanced_indicators([("A,B", 3.0, 2.0, 1.0), ('C "x"', 4.0, 3.5, 1.0)])
        rows = list(csv.reader(export_report(table, "csv").splitlines()))
        assert [len(r) for r in rows] == [9, 9, 9]
        assert [r[0] for r in rows[1:]] == ["A,B", 'C "x"']

    def test_curve_csv_has_one_row_per_point(self):
        grid = tuple(np.linspace(0, 1, 21))
        text = export_report(Curve(grid, (1.0,) * 21), "csv")
        lines = text.strip().splitlines()
        assert lines[0] == "threshold,score"
        assert len(lines) == 22
        assert lines[1] == "0.0000,1.0000"

    def test_balanced_csv_columns(self):
        text = export_report(balanced_indicators(PR_TABLE), "csv")
        header = text.splitlines()[0]
        assert header == (
            "benchmark,rgbt,rgb,tir,gap_fusion,rank_fusion,gap_modality,rank_modality,mean_rank"
        )
        first = text.splitlines()[1]
        assert first == "GTOT,92.9,84.9,64.3,30.8,3,24.3,4,3.5"

    def test_pretty_table_shows_reference_labels(self):
        text = export_report(balanced_indicators(PR_TABLE), "pretty-table")
        assert "(1-TIR/RGBT)/%" in text
        assert "(1-TIR/RGB)/%" in text
        assert "mRank" in text

    def _round_trip(self, report):
        out = export_report(report, "json-lines")
        again = export_report(parse_report(out), "json-lines")
        assert again == out

    def test_json_lines_round_trips(self):
        grid = tuple(np.linspace(0, 1, 21))
        self._round_trip(Curve(grid, tuple(np.linspace(1, 0, 21))))
        self._round_trip(balanced_indicators(PR_TABLE, metric="PR"))
        rng = np.random.default_rng(3)
        manifest, results = random_benchmark(rng, n_sequences=4, max_frames=10)
        self._round_trip(compositional_eval(manifest, results))
        self._round_trip(run_scenario(ScenarioConfig(n_sequences=2, n_frames=10, seed=1)))
        self._round_trip(TIED_TRACE)

    @pytest.mark.parametrize("fmt", ["csv", "json-lines", "pretty-table"])
    def test_trace_export_builds_no_selection_record(self, monkeypatch, fmt):
        built = []
        post_init = SelectionRecord.__post_init__
        monkeypatch.setattr(SelectionRecord, "__post_init__", lambda self: built.append(1) or post_init(self))
        trace = SelectionTrace(TIED_TRACE.chosen, TIED_TRACE.confidences)
        text = export_report(trace, fmt)
        assert built == []
        assert len(text.splitlines()) == len(trace) + (1 if fmt != "pretty-table" else 2)
        list(trace)  # per-frame access builds them
        assert len(built) == len(trace)

    def test_joined_csv_equals_the_csv_module(self):
        # reports whose cells never need quoting are joined with commas;
        # the csv module writes the same bytes
        rng = np.random.default_rng(8)
        conf = rng.choice([0.0, -0.0, 1.0, 5e-324, 1e-300, 1 / 3, 1e22], size=(40, 3))
        manifest, results = random_benchmark(rng, n_sequences=4, max_frames=10)
        reports = [
            SelectionTrace(np.argmax(conf, axis=1), conf),
            compositional_eval(manifest, results),
            run_scenario(ScenarioConfig(n_sequences=2, n_frames=10, seed=1)),
        ]
        for report in reports:
            [schema] = [s for s in report_module._SCHEMAS if s.cls == type(report).__name__]
            assert not schema.quoted
            headers, rows = schema.cells(report, "csv")
            buf = io.StringIO()
            csv.writer(buf, lineterminator="\n").writerows([headers, *rows])
            assert export_report(report, "csv") == buf.getvalue()

    def test_sr_table_round_trip_preserves_values(self):
        table = balanced_indicators(SR_TABLE, metric="SR")
        back = parse_report(export_report(table, "json-lines"))
        assert isinstance(back, BalancedIndicatorTable)
        assert back == table


def _balanced_row_without_rgbt() -> str:
    head, row = export_report(balanced_indicators(PR_TABLE[:1]), "json-lines").splitlines()
    return head + "\n" + row.replace('"rgbt": 92.9, ', "")


class TestParseReportRejectsMalformedInput:
    CASES = {
        "curve-missing-key": ('{"type":"curve"}\n{"x":1}', "line 2: malformed report: missing key 'threshold'"),
        "balanced-missing-rgbt": (_balanced_row_without_rgbt(), "line 2: malformed report: .*'rgbt'"),
        "not-json": ("not json", "line 1: not json"),
        "truncated-line": ('{"type":"curve"}\n\n{"threshold": 0.0, "score": 1.0}\n{"threshold": 1.0',
                           "line 4: not json"),
        "unknown-expert": ('{"type":"selection-trace"}\n{"frame":0,"chosen":"zzz","cs_rgb":1,"cs_tir":0,"cs_rgbt":0}',
                           "line 2: malformed report: 'zzz' is not a valid Expert"),
        "bare-number": ("5", "line 1: malformed report: expected a json object, got int"),
        "bare-string": ('"type"', "line 1: malformed report: expected a json object, got str"),
        "list-record": ('{"type":"curve"}\n[1]', "line 2: malformed report: expected a json object, got list"),
        "header-missing-key": ('{"type":"evaluation-report"}', "line 1: malformed report: missing key 'tracker'"),
        "list-type": ('{"type":["curve"]}', r"not a json-lines report: header type \['curve'\] is unknown"),
        "empty": ("", "not a json-lines report"),
        "no-type": ('{"kind":"curve"}', "not a json-lines report"),
        "unknown-type": ('{"type":"histogram"}', "not a json-lines report: header type 'histogram' is unknown"),
        "bad-value": ('{"type":"curve"}\n{"threshold":"a","score":1}', "report: malformed report"),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_raises_fusebench_error_naming_the_line(self, case):
        text, message = self.CASES[case]
        with pytest.raises(FusebenchError, match=message):
            parse_report(text)
