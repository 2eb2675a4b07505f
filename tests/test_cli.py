import csv
import json
import math
import subprocess
import sys

import pytest

from fusebench import (
    Box,
    FramePrediction,
    FrameTruth,
    MetricConfig,
    balanced_indicators,
    compositional_eval,
    export_report,
    run_scenario,
)
from fusebench import io as fio
from fusebench.cli import Expectation


def run_cli(*args, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "fusebench", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
    )


class TestEvaluate:
    def test_matches_library_output(self, toy_dataset):
        proc = run_cli(
            "evaluate",
            "--manifest", str(toy_dataset["manifest"]),
            "--results", str(toy_dataset["results"]),
            "--format", "json-lines",
        )
        assert proc.returncode == 0, proc.stderr
        manifest = fio.load_manifest(toy_dataset["manifest"])
        results = fio.load_results(manifest, toy_dataset["results"])
        report = compositional_eval(
            manifest, results, MetricConfig(), tracker=toy_dataset["results"].name
        )
        assert proc.stdout == export_report(report, "json-lines")

    def test_self_prediction_auc(self, tmp_path):
        # all-present perfect self-prediction: strict overlap comparison
        # fails only at threshold 1.0, so the success AUC is 20/21
        gt = tmp_path / "gt"
        res = tmp_path / "res"
        gt.mkdir()
        res.mkdir()
        frames = [FrameTruth.present(Box(5.0 + i, 6.0, 12.0, 8.0)) for i in range(8)]
        (gt / "s.txt").write_text(fio.write_groundtruth(frames))
        (res / "s.txt").write_text(fio.write_groundtruth(frames))
        manifest = tmp_path / "m.json"
        manifest.write_text(json.dumps({"sequences": [{"id": "s", "groundtruth": "gt/s.txt"}]}))
        proc = run_cli(
            "evaluate", "--manifest", str(manifest), "--results", str(res),
            "--expect", f"sr_auc={20/21}±1e-12",
            "--expect", "pr_at_threshold=1.0",
        )
        assert proc.returncode == 0, proc.stderr

    def test_failed_expectation_exits_one(self, toy_dataset):
        proc = run_cli(
            "evaluate", "--manifest", str(toy_dataset["manifest"]),
            "--results", str(toy_dataset["results"]),
            "--expect", "sr_auc=0.5+-0.001",
        )
        assert proc.returncode == 1
        assert "sr_auc" in proc.stderr

    def test_missing_sequence_file_exits_three(self, toy_dataset):
        (toy_dataset["results"] / "seq2.txt").unlink()
        proc = run_cli(
            "evaluate", "--manifest", str(toy_dataset["manifest"]),
            "--results", str(toy_dataset["results"]),
        )
        assert proc.returncode == 3
        assert "seq2" in proc.stderr

    def test_subset_flag(self, toy_dataset):
        proc = run_cli(
            "evaluate", "--manifest", str(toy_dataset["manifest"]),
            "--results", str(toy_dataset["results"]),
            "--subset", "rgb", "--format", "csv",
        )
        assert proc.returncode == 0
        assert "overall" in proc.stdout  # the restricted manifest is its own benchmark

    def test_pooling_flag_switches_mode(self, toy_dataset):
        manifest = fio.load_manifest(toy_dataset["manifest"])
        results = fio.load_results(manifest, toy_dataset["results"])
        report = compositional_eval(manifest, results, MetricConfig(pooling="sequence-mean"))
        proc = run_cli(
            "evaluate", "--manifest", str(toy_dataset["manifest"]),
            "--results", str(toy_dataset["results"]),
            "--pooling", "sequence-mean", "--format", "json-lines",
        )
        assert proc.returncode == 0
        assert f'"sr_auc": {report.overall.sr_auc}' in proc.stdout

    def test_usage_error_exits_two(self):
        proc = run_cli("evaluate", "--nonsense")
        assert proc.returncode == 2

    def test_bad_pooling_exits_two(self, toy_dataset):
        proc = run_cli(
            "evaluate", "--manifest", str(toy_dataset["manifest"]),
            "--results", str(toy_dataset["results"]), "--pooling", "median",
        )
        assert proc.returncode == 2
        assert "invalid choice: 'median'" in proc.stderr

    def test_huge_finite_boxes_print_no_warnings(self, toy_dataset):
        # the areas overflow to inf; the protocol still scores the frame
        _write(toy_dataset["results"] / "seq0.txt", "0,0,1e200,1e200\n" * 10)
        proc = run_cli(
            "evaluate", "--manifest", str(toy_dataset["manifest"]),
            "--results", str(toy_dataset["results"]),
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == ""

    def test_deterministic_stdout(self, toy_dataset):
        args = (
            "evaluate", "--manifest", str(toy_dataset["manifest"]),
            "--results", str(toy_dataset["results"]), "--format", "json-lines",
        )
        assert run_cli(*args).stdout == run_cli(*args).stdout


@pytest.fixture
def stream_files(tmp_path):
    boxes = [Box(float(i), 2.0, 8.0, 8.0) for i in range(20)]
    paths = {}
    for name, conf in (("rgb", 0.2), ("tir", 0.5), ("rgbt", 0.8)):
        preds = [FramePrediction(b, conf) for b in boxes]
        p = tmp_path / f"{name}.txt"
        p.write_text(fio.write_predictions(preds))
        (tmp_path / f"{name}.txt.conf").write_text(fio.write_confidences(preds))
        paths[name] = p
    return tmp_path, paths


class TestFuse:
    def test_dominant_rgbt_passes_through_byte_equal(self, stream_files):
        tmp_path, paths = stream_files
        out = tmp_path / "fused.txt"
        proc = run_cli(
            "fuse", "--rgb", str(paths["rgb"]), "--tir", str(paths["tir"]),
            "--rgbt", str(paths["rgbt"]), "--out", str(out),
            "--expect", "r_rgbt=1.0",
        )
        assert proc.returncode == 0, proc.stderr
        assert out.read_bytes() == paths["rgbt"].read_bytes()
        assert (tmp_path / "fused.txt.conf").read_bytes() == (tmp_path / "rgbt.txt.conf").read_bytes()
        trace = (tmp_path / "fused.txt.trace.csv").read_text().splitlines()
        assert trace[0] == "frame,chosen,cs_rgb,cs_tir,cs_rgbt"
        assert trace[1] == "0,rgbt,0.2,0.5,0.8"

    def test_ratio_output(self, stream_files):
        tmp_path, paths = stream_files
        proc = run_cli(
            "fuse", "--rgb", str(paths["rgb"]), "--tir", str(paths["tir"]),
            "--rgbt", str(paths["rgbt"]), "--out", str(tmp_path / "f.txt"),
        )
        assert "selection ratios (rgb, tir, rgbt): 0.00, 0.00, 1.00" in proc.stdout

    def test_malformed_sidecar_exits_three(self, stream_files):
        tmp_path, paths = stream_files
        (tmp_path / "rgb.txt.conf").write_text("0.5\nhigh\n")
        proc = run_cli(
            "fuse", "--rgb", str(paths["rgb"]), "--tir", str(paths["tir"]),
            "--rgbt", str(paths["rgbt"]), "--out", str(tmp_path / "f.txt"),
        )
        assert proc.returncode == 3
        assert "line 2" in proc.stderr

    def test_length_mismatch_exits_three(self, stream_files):
        tmp_path, paths = stream_files
        short = [FramePrediction(Box(0, 0, 1, 1), 0.4)]
        paths["tir"].write_text(fio.write_predictions(short))
        (tmp_path / "tir.txt.conf").write_text(fio.write_confidences(short))
        proc = run_cli(
            "fuse", "--rgb", str(paths["rgb"]), "--tir", str(paths["tir"]),
            "--rgbt", str(paths["rgbt"]), "--out", str(tmp_path / "f.txt"),
        )
        assert proc.returncode == 3
        assert proc.stderr.splitlines() == [
            f"error: {paths['tir']}: expert streams: lengths differ: rgb=20, tir=1"
        ]

    def test_empty_stream_writes_nothing(self, stream_files):
        tmp_path, paths = stream_files
        paths["tir"].write_text("")
        (tmp_path / "tir.txt.conf").write_text("")
        proc = run_cli(
            "fuse", "--rgb", str(paths["rgb"]), "--tir", str(paths["tir"]),
            "--rgbt", str(paths["rgbt"]), "--out", str(tmp_path / "out" / "f.txt"),
        )
        assert proc.returncode == 3, proc.stderr
        assert proc.stderr.splitlines() == [f"error: {paths['tir']}: no predictions"]
        assert not (tmp_path / "out").exists()

    def test_tie_flag(self, stream_files):
        tmp_path, paths = stream_files
        # equal confidences everywhere: the tie policy decides
        boxes = [Box(float(i), 2.0, 8.0, 8.0) for i in range(20)]
        for name in ("rgb", "tir", "rgbt"):
            preds = [FramePrediction(b, 0.5) for b in boxes]
            paths[name].write_text(fio.write_predictions(preds))
            (tmp_path / f"{name}.txt.conf").write_text(fio.write_confidences(preds))
        proc = run_cli(
            "fuse", "--rgb", str(paths["rgb"]), "--tir", str(paths["tir"]),
            "--rgbt", str(paths["rgbt"]), "--out", str(tmp_path / "f.txt"),
            "--tie", "tir-first", "--expect", "r_tir=1.0",
        )
        assert proc.returncode == 0, proc.stderr


class TestSimulate:
    def test_matches_library_and_is_deterministic(self, tmp_path):
        cfg_path = tmp_path / "scenario.json"
        cfg_path.write_text(json.dumps({
            "kind": "scenario", "n_sequences": 3, "n_frames": 20, "seed": 21,
            "rgb": {"fraction": 1.0},
        }))
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        proc_a = run_cli("simulate", "--config", str(cfg_path), "--out", str(out_a))
        proc_b = run_cli("simulate", "--config", str(cfg_path), "--out", str(out_b))
        assert proc_a.returncode == 0, proc_a.stderr
        assert proc_a.stdout == proc_b.stdout
        assert (out_a / "report.jsonl").read_bytes() == (out_b / "report.jsonl").read_bytes()
        cfg = fio.load_config(cfg_path)
        report = run_scenario(cfg)
        assert (out_a / "report.jsonl").read_text() == export_report(report, "json-lines")
        assert (out_a / "summary.csv").read_text() == export_report(report, "csv")

    def test_seed_override_changes_output(self, tmp_path):
        cfg_path = tmp_path / "scenario.json"
        cfg_path.write_text(json.dumps({"kind": "scenario", "n_sequences": 2, "n_frames": 15}))
        a = run_cli("simulate", "--config", str(cfg_path), "--out", str(tmp_path / "a"), "--seed", "1")
        b = run_cli("simulate", "--config", str(cfg_path), "--out", str(tmp_path / "b"), "--seed", "2")
        assert a.returncode == b.returncode == 0
        assert a.stdout != b.stdout

    def test_unknown_config_exits_three(self, tmp_path):
        proc = run_cli("simulate", "--config", "no-such-scenario", "--out", str(tmp_path / "o"))
        assert proc.returncode == 3


class TestAnalyze:
    TABLE = "benchmark,rgbt,rgb,tir\nGTOT,92.9,84.9,64.3\nMV-RGBT,65.3,44.0,39.7\n"

    def test_matches_library(self, tmp_path):
        path = tmp_path / "scores.csv"
        path.write_text(self.TABLE)
        proc = run_cli("analyze", str(path), "--format", "csv")
        assert proc.returncode == 0, proc.stderr
        table = balanced_indicators([("GTOT", 92.9, 84.9, 64.3), ("MV-RGBT", 65.3, 44.0, 39.7)])
        assert proc.stdout == export_report(table, "csv")

    def test_csv_quotes_names(self, tmp_path):
        path = tmp_path / "scores.csv"
        path.write_text('benchmark,rgbt,rgb,tir\n"A,B",3.0,2.0,1.0\n"C ""x""",4.0,3.5,1.0\n')
        proc = run_cli("analyze", str(path), "--format", "csv")
        assert proc.returncode == 0, proc.stderr
        rows = list(csv.reader(proc.stdout.splitlines()))
        assert [len(r) for r in rows] == [9, 9, 9]
        assert [r[0] for r in rows[1:]] == ["A,B", 'C "x"']

    def test_single_row_ranks(self, tmp_path):
        path = tmp_path / "scores.csv"
        path.write_text("benchmark,rgbt,rgb,tir\nonly,9.0,8.0,7.0\n")
        proc = run_cli(
            "analyze", str(path),
            "--expect", "only.rank_fusion=1", "--expect", "only.rank_modality=1",
            "--expect", "only.mean_rank=1",
        )
        assert proc.returncode == 0, proc.stderr

    def test_non_positive_scores_exit_three(self, tmp_path):
        path = tmp_path / "scores.csv"
        path.write_text("benchmark,rgbt,rgb,tir\nbad,9.0,-8.0,7.0\n")
        proc = run_cli("analyze", str(path))
        assert proc.returncode == 3

    @pytest.mark.parametrize("row,label,value", [
        ("A,nan,1,1", "rgbt", "nan"), ("A,1,inf,1", "rgb", "inf"), ("A,1,1,0", "tir", "0.0"),
    ])
    def test_bad_score_names_file_and_line(self, tmp_path, row, label, value):
        path = tmp_path / "t.csv"
        path.write_text(f"benchmark,rgbt,rgb,tir\nok,3,2,1\n{row}\n")
        proc = run_cli("analyze", str(path))
        assert proc.returncode == 3, proc.stderr
        assert proc.stderr.splitlines() == [
            f"error: {path}: line 3: {label} score must be positive, got {value}"
        ]

    def test_headerless_input(self, tmp_path):
        path = tmp_path / "scores.csv"
        path.write_text("GTOT,92.9,84.9,64.3\n")
        proc = run_cli("analyze", str(path), "--expect", "GTOT.mean_rank=1")
        assert proc.returncode == 0, proc.stderr


class TestUsage:
    def test_no_subcommand_exits_two(self):
        assert run_cli().returncode == 2

    def test_unknown_subcommand_exits_two(self):
        assert run_cli("frobnicate").returncode == 2

    def test_bad_expectation_syntax_exits_two(self, toy_dataset):
        proc = run_cli(
            "evaluate", "--manifest", str(toy_dataset["manifest"]),
            "--results", str(toy_dataset["results"]),
            "--expect", "sr_auc",
        )
        assert proc.returncode == 2

    @pytest.mark.parametrize("expectation", ["A.mean_rank=nan", "A.mean_rank=99±nan", "A.mean_rank=1±-1"])
    def test_expectation_that_cannot_fail_or_pass_exits_two(self, tmp_path, expectation):
        path = tmp_path / "t.csv"
        path.write_text("benchmark,rgbt,rgb,tir\nA,3,2,1\n")
        proc = run_cli("analyze", str(path), "--expect", expectation)
        assert proc.returncode == 2, proc.stderr
        reason = {
            "A.mean_rank=nan": "expected value must be finite, got nan",
            "A.mean_rank=99±nan": "tolerance must be finite, got nan",
            "A.mean_rank=1±-1": "tolerance must be non-negative, got -1.0",
        }[expectation]
        assert f"cannot parse expectation {expectation!r} ({reason})" in proc.stderr

    def test_nan_output_fails_an_expectation(self):
        assert Expectation("k=1±1").check({"k": math.nan}) is not None


def _write(path, data):
    if isinstance(data, bytes):
        path.write_bytes(data)
    else:
        path.write_text(data)
    return path


# name -> (set-up returning (argv, the file the message must name))
MALFORMED_INPUTS = {
    "manifest is a directory": lambda d: (
        ["evaluate", "--manifest", str(d["gt"]), "--results", str(d["results"])], d["gt"]),
    "manifest is not JSON": lambda d: (
        ["evaluate", "--manifest", str(_write(d["manifest"], "{nope")), "--results", str(d["results"])],
        d["manifest"]),
    "manifest subset tag is a list": lambda d: (
        ["evaluate", "--results", str(d["results"]), "--manifest", str(_write(
            d["manifest"], json.dumps({"sequences": [{"id": "seq0", "groundtruth": "gt/seq0.txt", "subset": []}]})))],
        d["manifest"]),
    "manifest sequence id is a number": lambda d: (
        ["evaluate", "--results", str(d["results"]), "--manifest", str(_write(
            d["manifest"], json.dumps({"sequences": [{"id": 5, "groundtruth": "gt/seq0.txt"}]})))],
        d["manifest"]),
    "manifest groundtruth is a number": lambda d: (
        ["evaluate", "--results", str(d["results"]), "--manifest", str(_write(
            d["manifest"], json.dumps({"sequences": [{"id": "seq0", "groundtruth": 0}]})))],
        d["manifest"]),
    "manifest name is a list": lambda d: (
        ["evaluate", "--results", str(d["results"]), "--manifest", str(_write(
            d["manifest"], json.dumps({"name": [1], "sequences": [{"id": "seq0", "groundtruth": "gt/seq0.txt"}]})))],
        d["manifest"]),
    "manifest sequences is an object": lambda d: (
        ["evaluate", "--results", str(d["results"]), "--manifest", str(_write(
            d["manifest"], json.dumps({"sequences": {"id": "seq0", "groundtruth": "gt/seq0.txt"}})))],
        d["manifest"]),
    "groundtruth not UTF-8": lambda d: (
        ["evaluate", "--manifest", str(d["manifest"]), "--results", str(d["results"])],
        _write(d["gt"] / "seq1.txt", b"1,2,3,4\n\xff\xfe\n")),
    "groundtruth bad line": lambda d: (
        ["evaluate", "--manifest", str(d["manifest"]), "--results", str(d["results"])],
        _write(d["gt"] / "seq1.txt", "1,2,3,4\n1,2,x,4\n")),
    "predictions not UTF-8": lambda d: (
        ["evaluate", "--manifest", str(d["manifest"]), "--results", str(d["results"])],
        _write(d["results"] / "seq2.txt", b"\xe9\n")),
    "prediction file shorter than its groundtruth": lambda d: (
        ["evaluate", "--manifest", str(d["manifest"]), "--results", str(d["results"])],
        _write(d["results"] / "seq1.txt", "1,2,3,4\n")),
    "metrics config of the wrong type": lambda d: (
        ["evaluate", "--manifest", str(d["manifest"]), "--results", str(d["results"]),
         "--config", str(_write(d["root"] / "cfg.json", json.dumps({"success_thresholds": 5})))],
        d["root"] / "cfg.json"),
    "scenario config value of the wrong type": lambda d: (
        ["simulate", "--out", str(d["root"] / "out"), "--config", str(_write(
            d["root"] / "cfg.json", json.dumps({"kind": "scenario", "fused": {"boost": "x"}})))],
        d["root"] / "cfg.json"),
    "scenario config section of the wrong type": lambda d: (
        ["simulate", "--out", str(d["root"] / "out"), "--config", str(_write(
            d["root"] / "cfg.json", json.dumps({"kind": "scenario", "extent": 5, "rgb": 3})))],
        d["root"] / "cfg.json"),
    "scenario config with a 5,000-digit seed": lambda d: (
        ["simulate", "--out", str(d["root"] / "out"), "--config", str(_write(
            d["root"] / "cfg.json", '{"kind": "scenario", "seed": ' + "9" * 5000 + "}"))],
        d["root"] / "cfg.json"),
    "manifest holds a 5,000-digit number": lambda d: (
        ["evaluate", "--results", str(d["results"]), "--manifest", str(_write(
            d["manifest"], '{"name": ' + "1" * 5000 + ', "sequences": []}'))],
        d["manifest"]),
    "score table not UTF-8": lambda d: (
        ["analyze", str(_write(d["root"] / "t.csv", b"benchmark,rgbt,rgb,tir\n\xff,1,2,3\n"))],
        d["root"] / "t.csv"),
    "score table is a directory": lambda d: (["analyze", str(d["gt"])], d["gt"]),
    "score table bad line": lambda d: (
        ["analyze", str(_write(d["root"] / "t.csv", "benchmark,rgbt,rgb,tir\nA,1,2\n"))],
        d["root"] / "t.csv"),
    "score table score is not a number": lambda d: (
        ["analyze", str(_write(d["root"] / "t.csv", "benchmark,rgbt,rgb,tir\nA,1,x,1\n"))],
        d["root"] / "t.csv"),
    "score table is empty": lambda d: (["analyze", str(_write(d["root"] / "t.csv", ""))], d["root"] / "t.csv"),
    "score table holds only a header": lambda d: (
        ["analyze", str(_write(d["root"] / "t.csv", "benchmark,rgbt,rgb,tir\n"))], d["root"] / "t.csv"),
    "groundtruth file is empty": lambda d: (
        ["evaluate", "--manifest", str(d["manifest"]), "--results", str(d["results"])],
        _write(d["gt"] / "seq1.txt", "")),
    "manifest lists an id twice": lambda d: (
        ["evaluate", "--results", str(d["results"]), "--manifest", str(_write(
            d["manifest"], json.dumps({"sequences": [{"id": "seq0", "groundtruth": "gt/seq0.txt"}] * 2})))],
        d["manifest"]),
    "scenario interval past n_frames": lambda d: (
        ["simulate", "--out", str(d["root"] / "out"), "--config", str(_write(d["root"] / "cfg.json", json.dumps(
            {"kind": "scenario", "n_frames": 100, "rgb": {"intervals": [[0, 500]]}})))],
        d["root"] / "cfg.json"),
    "fuse stream is empty": lambda d: (
        ["fuse", "--out", str(d["root"] / "fused.txt"), "--rgb", str(_empty_stream(d["root"])),
         "--tir", str(d["root"] / "empty.txt"), "--rgbt", str(d["root"] / "empty.txt")],
        d["root"] / "empty.txt"),
}


def _empty_stream(root):
    _write(root / "empty.txt.conf", "")
    return _write(root / "empty.txt", "")


class TestMalformedInputExitsThree:
    @pytest.mark.parametrize("case", sorted(MALFORMED_INPUTS))
    def test_one_line_error_naming_the_file(self, toy_dataset, case):
        argv, named = MALFORMED_INPUTS[case](toy_dataset)
        proc = run_cli(*argv)
        assert proc.returncode == 3, proc.stderr
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), proc.stderr
        assert named.name in lines[0], proc.stderr

    @pytest.mark.parametrize("config", [
        {"seed": -4}, {"seed": 1.5}, {"n_sequences": 2.5}, {"n_frames": True},
        {"extent": [math.inf, 480]}, {"extent": [math.nan, 480]}, {"size_range": [30, math.inf]},
        {"motion_step_std": math.inf}, {"motion_step_std": math.nan},
        {"size_range": [30]}, {"extent": []}, {"extent": [640, 480, 7]},
        {"rgb": {"intervals": [[1.7, 3]]}}, {"rgb": {"intervals": 5}},
        {"rgb": {"fraction": "0.5"}}, {"rgb": {"sigma_in": True}},
        {"fused": {"informative_weight": True}},
    ], ids=lambda c: json.dumps(c))
    def test_bad_scenario_number_in_config(self, tmp_path, config):
        path = _write(tmp_path / "cfg.json", json.dumps({"kind": "scenario", **config}))
        proc = run_cli("simulate", "--config", str(path), "--out", str(tmp_path / "out"))
        assert proc.returncode == 3, proc.stderr
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), proc.stderr
        assert path.name in lines[0] and next(iter(config)) in lines[0], proc.stderr

    @pytest.mark.parametrize("config", [
        {"th_s": 0.5}, {"success_thresholds": ["0.5"]}, {"success_thresholds": [0, True]},
        {"pr_report_threshold": "20"},
    ], ids=lambda c: json.dumps(c))
    def test_bad_metrics_number_in_config(self, toy_dataset, config):
        path = _write(toy_dataset["root"] / "cfg.json", json.dumps(config))
        proc = run_cli("evaluate", "--manifest", str(toy_dataset["manifest"]),
                       "--results", str(toy_dataset["results"]), "--config", str(path))
        assert proc.returncode == 3, proc.stderr
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), proc.stderr
        assert path.name in lines[0] and next(iter(config)) in lines[0], proc.stderr

    def test_non_finite_walk(self, tmp_path):
        # raised while simulating, after the file was read, so the line
        # names the key but not the file
        path = _write(tmp_path / "cfg.json", json.dumps({"kind": "scenario", "motion_step_std": 1e308}))
        proc = run_cli("simulate", "--config", str(path), "--out", str(tmp_path / "out"))
        assert proc.returncode == 3, proc.stderr
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ") and "motion_step_std" in lines[0], proc.stderr

    def test_negative_seed_option(self, tmp_path):
        proc = run_cli("simulate", "--config", "common-scenario", "--out", str(tmp_path), "--seed", "-1")
        assert proc.returncode == 3, proc.stderr
        assert proc.stderr.splitlines() == ["error: seed must be non-negative, got -1"]

    def test_huge_seed_option_still_works(self, tmp_path):
        path = _write(tmp_path / "cfg.json", json.dumps({"kind": "scenario", "n_sequences": 1, "n_frames": 5}))
        proc = run_cli("simulate", "--config", str(path), "--out", str(tmp_path / "out"),
                       "--seed", "99999999999999999999999")
        assert proc.returncode == 0, proc.stderr


def _imported_modules(importtime_log: str) -> set[str]:
    """The modules named in a ``python -X importtime`` log."""
    return {
        line.rsplit("|", 1)[1].strip()
        for line in importtime_log.splitlines()
        if line.startswith("import time:")
    }


# run in a fresh interpreter: the argv lists of evaluate, fuse and simulate
# follow as JSON; prints the fusebench modules that running them imported
_COMMANDS_AFTER_IMPORT = """
import json, sys
import fusebench.cli as cli
before = set(sys.modules)
for argv in json.loads(sys.argv[1]):
    assert cli.main(argv) == 0, argv
print(json.dumps(sorted(m for m in set(sys.modules) - before if m.split(".")[0] == "fusebench")))
"""


class TestStartup:
    def test_analyze_imports_no_numpy(self, tmp_path):
        path = _write(tmp_path / "scores.csv", TestAnalyze.TABLE)
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-m", "fusebench", "analyze", str(path), "--format", "csv"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        table = balanced_indicators([("GTOT", 92.9, 84.9, 64.3), ("MV-RGBT", 65.3, 44.0, 39.7)])
        assert proc.stdout == export_report(table, "csv")
        modules = _imported_modules(proc.stderr)
        assert "fusebench.report" in modules
        assert [m for m in modules if m.split(".")[0] == "numpy"] == []

    def test_cli_commands_import_no_fusebench_module(self, toy_dataset, stream_files):
        # the benchmark times cli.main after importing fusebench.cli, so
        # every module the commands run is imported with fusebench.cli
        root = toy_dataset["root"]
        _write(root / "scenario.json", json.dumps({"kind": "scenario", "n_sequences": 2, "n_frames": 10}))
        argvs = [
            ["evaluate", "--manifest", str(toy_dataset["manifest"]), "--results", str(toy_dataset["results"]),
             "--out", str(root / "report.txt")],
            ["fuse", "--rgb", str(root / "rgb.txt"), "--tir", str(root / "tir.txt"),
             "--rgbt", str(root / "rgbt.txt"), "--out", str(root / "fused.txt")],
            ["simulate", "--config", str(root / "scenario.json"), "--out", str(root / "sim")],
        ]
        proc = subprocess.run(
            [sys.executable, "-c", _COMMANDS_AFTER_IMPORT, json.dumps(argvs)], capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout.splitlines()[-1]) == []
