import csv
import dataclasses
import io
import json
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
from fusebench.errors import ConfigError
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
            seqs = tuple(s for s in manifest.sequences if s.subset is subset)
            scores = benchmark_scores(DatasetManifest(seqs), results, cfg)
            parts.append((len(seqs), scores.sr_curve.scores))
        n = len(manifest.sequences)
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

    @pytest.mark.parametrize("score", ["3", math.inf], ids=["string", "inf"])
    def test_score_that_is_no_finite_number_rejected(self, score):
        with pytest.raises(NonPositiveScoreError) as info:
            balanced_indicators([("bad", score, 2.0, 1.0)])
        assert str(info.value) == f"bad: rgbt score must be positive, got {score!r}"

    positive = st.floats(min_value=0.1, max_value=100.0, allow_nan=False)

    @given(
        scores=st.lists(st.tuples(positive, positive, positive), min_size=1, max_size=8),
        k=st.integers(min_value=-3, max_value=3),
    )
    def test_scale_invariance_and_rank_permutation(self, scores, k):
        # a power of two scales every score exactly, so each gap is
        # bit-identical; another factor can round two gaps into a tie
        factor = 2.0**k
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

    def test_scaling_by_a_tenth_can_round_into_a_tie(self):
        # 99.99999999999999 * 0.1 == 100 * 0.1 in floats: the scaled rows
        # really tie on the fusion gap, so no ranking can keep ranks 2 and 1
        rows = [("b0", 1.0, 1.0, 1.0), ("b1", 100.0, 1.0, 99.99999999999999)]
        assert [r.rank_fusion for r in balanced_indicators(rows).rows] == [2.0, 1.0]
        scaled = [(n, r * 0.1, g * 0.1, t * 0.1) for n, r, g, t in rows]
        assert [r.rank_fusion for r in balanced_indicators(scaled).rows] == [1.5, 1.5]


# exact ties: every winner attains the row maximum, which another expert
# may share; 1/3 prints differently in full precision and at 4 decimals
TIED_TRACE = SelectionTrace(
    [0, 2, 1, 2, 0],
    [(1 / 3, 1 / 3, 1 / 3), (0.1, 0.2, 0.1 + 0.2), (0.25, 0.5, 0.5), (2 / 3, 0.0, 2 / 3), (1.0, 0.5, 1.0)],
)


# free-text labels holding a comma, a quote and each line break
LABELS = ["A,B", 'C "x"', "D\nE", "F\rG", "H\r\nI"]


def _labelled_reports() -> dict:
    """One report per schema, its free-text labels (if any) from :data:`LABELS`."""
    scenario = run_scenario(ScenarioConfig(n_sequences=2, n_frames=10, seed=1))
    s = scenario.policies["selection"]
    return {
        "curve": s.sr_curve,
        "evaluation-report": analysis.EvaluationReport(
            "t", 20.0, s, {n: s for n in LABELS}, {n: 1 for n in LABELS}, {n: 10 for n in LABELS}),
        "balanced-table": balanced_indicators([(n, 3.0 + i, 2.0, 1.0) for i, n in enumerate(LABELS)]),
        "scenario-report": dataclasses.replace(scenario, policies={"selection": s, **{n: s for n in LABELS}}),
        "selection-trace": TIED_TRACE,
    }


class TestExport:
    @pytest.mark.parametrize("kind", [s.type for s in report_module._SCHEMAS])
    def test_csv_quotes_cells(self, kind):
        report = _labelled_reports()[kind]
        rows = list(csv.reader(io.StringIO(export_report(report, "csv"), newline="")))
        assert {len(r) for r in rows} == {len(rows[0])}
        if kind not in ("curve", "selection-trace"):  # the schemas with labels
            assert [r[0] for r in rows[-len(LABELS):]] == LABELS

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

    def test_pretty_table_prints_labels_unquoted(self):
        # only csv quotes a label that holds a comma
        text = export_report(balanced_indicators([("A,B", 3.0, 2.0, 1.0)]), "pretty-table")
        assert text.splitlines()[2].split()[0] == "A,B"

    def test_unrelated_class_of_a_report_name_is_not_exported(self):
        class Curve:  # not fusebench.Curve
            pass

        with pytest.raises(FusebenchError) as info:
            export_report(Curve(), "csv")
        assert str(info.value) == "cannot export object of type Curve"

    def test_pretty_table_shows_reference_labels(self):
        text = export_report(balanced_indicators(PR_TABLE), "pretty-table")
        assert "(1-TIR/RGBT)/%" in text
        assert "(1-TIR/RGB)/%" in text
        assert "mRank" in text

    def _round_trip(self, report):
        out = report if isinstance(report, str) else export_report(report, "json-lines")
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

    @pytest.mark.parametrize("brk", ["\u2028", "\u2029", "\x85"], ids=["U+2028", "U+2029", "U+0085"])
    def test_names_holding_a_unicode_line_break_round_trip(self, brk):
        # written raw, not escaped; only \r\n, \r and \n end a json-lines line
        self._round_trip(balanced_indicators([(f"A{brk}B", 80, 70, 60), ("C", 70, 60, 50)]))
        rng = np.random.default_rng(3)
        manifest, results = random_benchmark(rng, n_sequences=4, max_frames=10)
        self._round_trip(compositional_eval(manifest, results, tracker=f"t{brk}1"))

    def test_crlf_report_parses(self):
        out = export_report(balanced_indicators(PR_TABLE, metric="PR"), "json-lines")
        assert export_report(parse_report(out.replace("\n", "\r\n")), "json-lines") == out

    def test_evaluation_parts_round_trip_in_their_order(self):
        # the parts are written as the report holds them: tir before rgb,
        # or a part of another name, survive a parse
        seqs, results = [], {}
        for i, (make, subset) in enumerate([(perfect_sequence, Subset.RGB_DOMINANT),
                                            (hopeless_sequence, Subset.TIR_DOMINANT)]):
            s, p = make(f"s{i}", subset)
            seqs.append(s)
            results[s.id] = p
        head, *records = export_report(compositional_eval(DatasetManifest(tuple(seqs)), results),
                                       "json-lines").splitlines()
        parts = {}
        for line in records:
            parts.setdefault(json.loads(line)["part"], []).append(line)
        assert list(parts) == ["overall", "rgb", "tir"]
        tir_first = [head, *parts["overall"], *parts["tir"], *parts["rgb"]]
        night = [line.replace('"part": "rgb"', '"part": "night"') for line in parts["rgb"]]
        for lines in (tir_first, [*tir_first, *night]):
            self._round_trip("\n".join(lines) + "\n")

    @pytest.mark.parametrize("ratios", ["null", "[0.1, 0.2, 0.7]"])
    def test_older_evaluation_header_with_selection_ratios_parses(self, ratios):
        # evaluation headers once carried "selection_ratios"; a parse ignores the key
        manifest, results = random_benchmark(np.random.default_rng(3), n_sequences=4, max_frames=10)
        report = compositional_eval(manifest, results)
        out = export_report(report, "json-lines")
        head, records = out.split("\n", 1)
        older = head.removesuffix("}") + f', "selection_ratios": {ratios}}}\n' + records
        assert parse_report(older) == parse_report(out) == report
        assert export_report(parse_report(older), "json-lines") == out

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
        "nested-too-deeply": ('{"type":"curve"}\n' + "[" * 100_000 + "]" * 100_000, "^line 2: not json: "),
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
        "curve-not-increasing": ('{"type":"curve"}\n{"threshold":1.0,"score":1}\n{"threshold":0.5,"score":1}',
                                 "^report: malformed report: curve thresholds must be strictly increasing$"),
        "evaluation-curve-not-increasing": (
            '{"type":"evaluation-report","tracker":"t","pr_report_threshold":20.0,'
            '"sequence_counts":{},"frame_counts":{},"selection_ratios":null}\n'
            '{"part":"overall","curve":"pr","thresholds":[1.0,0.5],"scores":[1,1]}',
            "^line 2: malformed report: curve thresholds must be strictly increasing$"),
        "trace-winner-beaten": ('{"type":"selection-trace"}\n{"frame":0,"chosen":"rgb","cs_rgb":0,"cs_tir":1,"cs_rgbt":0}',
                                "^report: malformed report: frame 0: chosen expert rgb does not attain "
                                "the winning confidence$"),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_raises_fusebench_error_naming_the_line(self, case):
        text, message = self.CASES[case]
        with pytest.raises(FusebenchError, match=message):
            parse_report(text)

    def test_a_report_constructors_error_keeps_its_class(self):
        with pytest.raises(ConfigError, match="^report: malformed report: curve thresholds"):
            parse_report(self.CASES["curve-not-increasing"][0])


class TestLoadScoreTableRejectsMalformedRows:
    """``report.load_score_table`` in process, with the messages that the
    ``analyze`` cases of ``tests/test_cli.py`` pin after ``error: ``."""

    CASES = {
        "nan-score": ("benchmark,rgbt,rgb,tir\nok,3,2,1\nA,nan,1,1\n", "line 3: rgbt score must be positive, got nan"),
        "inf-score": ("benchmark,rgbt,rgb,tir\nok,3,2,1\nA,1,inf,1\n", "line 3: rgb score must be positive, got inf"),
        "zero-score": ("benchmark,rgbt,rgb,tir\nok,3,2,1\nA,1,1,0\n", "line 3: tir score must be positive, got 0.0"),
        "negative-score": ("benchmark,rgbt,rgb,tir\nbad,9,-8,7\n", "line 2: rgb score must be positive, got -8.0"),
        "after-two-line-name": ('benchmark,rgbt,rgb,tir\n"A\nB",1,2,3\nB,1,x,3\n', "line 4: scores must be numbers"),
        "two-line-record": ('benchmark,rgbt,rgb,tir\n"A\nB",1,x,3\n', "line 2: scores must be numbers"),
        "blank-lines": ("\nbenchmark,rgbt,rgb,tir\n\nA,1,2,3\n\nB,1,x,3\n", "line 6: scores must be numbers"),
        # U+2028 ends no line
        "unicode-break-in-name": ('benchmark,rgbt,rgb,tir\n"A\u2028B",1,2,3\nB,1,x,3\n',
                                  "line 3: scores must be numbers"),
        "header-after-a-row": ("\nA,2,1,1\nbenchmark,rgbt,rgb,tir\n", "line 3: scores must be numbers"),
        "cell-past-field-limit": ("benchmark,rgbt,rgb,tir\n" + "A" * 131_073 + ",1,2,3\n",
                                  "line 2: field larger than field limit (131072)"),
        "cell-past-field-limit-later": ("benchmark,rgbt,rgb,tir\nok,3,2,1\n" + "A" * 200_000 + ",1,2,3\n",
                                        "line 3: field larger than field limit (131072)"),
        "unknown-column": ("benchmark,rgbt,rgb,x\nA,1,2,3\n", "line 1: header must be benchmark,rgbt,rgb,tir"),
        "three-columns": ("benchmark,rgbt,rgb,tir\nA,1,2\n", "line 2: expected 4 columns, got 3"),
        "score-not-a-number": ("benchmark,rgbt,rgb,tir\nA,1,x,1\n", "line 2: scores must be numbers"),
        "empty": ("", "no benchmark rows"),
        "header-only": ("benchmark,rgbt,rgb,tir\n", "no benchmark rows"),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_error_names_the_file_and_line(self, tmp_path, case):
        text, message = self.CASES[case]
        path = tmp_path / "t.csv"
        path.write_bytes(text.encode())
        with pytest.raises(FusebenchError) as info:
            report_module.load_score_table(path)
        assert str(info.value) == f"{path}: {message}"
        assert isinstance(info.value, NonPositiveScoreError) == ("must be positive" in message)

    def test_reads_rows_after_an_optional_header_and_blank_rows(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("\n benchmark , RGBT,rgb,tir\nGTOT, 92.9,84.9,64.3\n,,,\nMV-RGBT,65.3,44.0,39.7\n")
        rows = [("GTOT", 92.9, 84.9, 64.3), ("MV-RGBT", 65.3, 44.0, 39.7)]
        assert report_module.load_score_table(str(path)) == rows

    def test_not_utf8_names_the_file(self, tmp_path):
        # the file is decoded whole before any record: the error names no line
        path = tmp_path / "t.csv"
        path.write_bytes(b"benchmark,rgbt,rgb,tir\n\xff,1,2,3\n")
        with pytest.raises(FusebenchError) as info:
            report_module.load_score_table(path)
        assert str(info.value) == f"{path}: 'utf-8' codec can't decode byte 0xff in position 23: invalid start byte"

    def test_not_utf8_past_the_first_chunk_names_the_byte_offset_in_the_file(self, tmp_path):
        # the bad byte is on line 3,002, far past the 8 KB a text stream decodes at a time
        head = "".join(["benchmark,rgbt,rgb,tir\n", *(f"B{i},3,2,1\n" for i in range(3000))]).encode()
        path = tmp_path / "t.csv"
        path.write_bytes(head + b"\xff,1,2,3\n")
        with pytest.raises(FusebenchError) as info:
            report_module.load_score_table(path)
        assert len(head) == 34913
        assert str(info.value) == f"{path}: 'utf-8' codec can't decode byte 0xff in position 34913: invalid start byte"
