import contextlib
import csv
import io
import itertools
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_prediction, random_truth
from fusebench import (
    Box,
    EmptySubsetError,
    FramePrediction,
    FrameTruth,
    MetricConfig,
    balanced_indicators,
    compositional_eval,
    export_report,
    run_scenario,
    subset_manifest,
)
from fusebench import cli
from fusebench import io as fio
from fusebench.__main__ import Expectation


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

    def test_subset_offers_no_subset_keys_to_expect(self, toy_dataset):
        # the restricted manifest is its own benchmark: its scores are the overall ones
        code, _, err = _evaluate_in_process([
            "evaluate", "--manifest", str(toy_dataset["manifest"]), "--results", str(toy_dataset["results"]),
            "--subset", "rgb", "--expect", "rgb.sr_auc=0",
        ])
        assert (code, err) == (1, "expect rgb.sr_auc: no such output (have: pr_at_threshold, sr_auc)\n")

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

    def test_subset_outputs_meet_expectations(self, toy_dataset):
        manifest = fio.load_manifest(toy_dataset["manifest"])
        report = compositional_eval(manifest, fio.load_results(manifest, toy_dataset["results"]))
        argv = ["evaluate", "--manifest", str(toy_dataset["manifest"]), "--results", str(toy_dataset["results"])]
        for tag, scores in report.subsets.items():
            argv += ["--expect", f"{tag}.sr_auc={scores.sr_auc!r}",
                     "--expect", f"{tag}.pr_at_threshold={scores.pr_at_threshold!r}"]
        assert sorted(report.subsets) == ["rgb", "tir"]
        code, _, err = _evaluate_in_process(argv)
        assert (code, err) == (0, "")

    def test_integer_report_threshold_reads_as_a_float(self, toy_dataset):
        config = _write(toy_dataset["root"] / "cfg.json", json.dumps({"pr_report_threshold": 20}))
        code, out, err = _evaluate_in_process([
            "evaluate", "--manifest", str(toy_dataset["manifest"]), "--results", str(toy_dataset["results"]),
            "--config", str(config), "--format", "json-lines",
        ])
        assert (code, err) == (0, "")
        assert json.loads(out.splitlines()[0])["pr_report_threshold"] == 20.0
        assert '"pr_report_threshold": 20.0,' in out.splitlines()[0]

    def test_out_into_a_new_directory(self, toy_dataset):
        argv = ["evaluate", "--manifest", str(toy_dataset["manifest"]), "--results", str(toy_dataset["results"]),
                "--format", "json-lines"]
        out = toy_dataset["root"] / "reports" / "new" / "evaluation.jsonl"
        code, stdout, err = _evaluate_in_process(argv)
        assert (code, err) == (0, "")
        assert _evaluate_in_process([*argv, "--out", str(out)]) == (0, "", "")
        assert out.read_text(encoding="utf-8") == stdout

    def test_deterministic_stdout(self, toy_dataset):
        args = (
            "evaluate", "--manifest", str(toy_dataset["manifest"]),
            "--results", str(toy_dataset["results"]), "--format", "json-lines",
        )
        assert run_cli(*args).stdout == run_cli(*args).stdout


def _evaluate_in_process(argv: list[str]) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of ``cli.main(argv)`` run in this process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _reference_evaluate(manifest_path, results_dir, fmt: str, subset: str, pooling: str) -> str:
    """The report ``evaluate`` writes, composed from the library's public
    loaders and scorers over the whole benchmark held in memory, or the
    error line of an empty ``--subset``."""
    manifest = fio.load_manifest(manifest_path)
    results = fio.load_results(manifest, results_dir)
    if subset != "all":
        try:
            manifest = subset_manifest(manifest, subset)
        except EmptySubsetError as exc:
            return f"error: {exc}\n"
    report = compositional_eval(manifest, results, MetricConfig(pooling=pooling), tracker=results_dir.name)
    return export_report(report, fmt)


def _assert_evaluate_matches_reference(manifest_path, results_dir, out_path) -> None:
    for fmt, subset, pooling in itertools.product(
        ("csv", "json-lines", "table"), ("all", "rgb", "tir"), ("frame", "sequence-mean")
    ):
        want = _reference_evaluate(manifest_path, results_dir, fmt, subset, pooling)
        argv = ["evaluate", "--manifest", str(manifest_path), "--results", str(results_dir),
                "--format", fmt, "--subset", subset, "--pooling", pooling]
        if want.startswith("error: "):
            assert _evaluate_in_process(argv) == (3, "", want)
            continue
        assert _evaluate_in_process(argv) == (0, want, "")
        assert _evaluate_in_process(argv + ["--out", str(out_path)]) == (0, "", "")
        assert out_path.read_bytes() == want.encode()


@st.composite
def on_disk_benchmarks(draw):
    """(seed, subset tags, longest sequence) of a small random benchmark."""
    tags = draw(st.lists(st.sampled_from(["rgb", "tir", "none"]), min_size=1, max_size=5))
    return draw(st.integers(0, 2**32 - 1)), tags, draw(st.integers(1, 12))


class TestStreamingEvaluate:
    """``evaluate`` reads and scores one sequence at a time; its reports
    equal the library composition over the benchmark held in memory."""

    def test_toy_dataset_matches_library_composition(self, toy_dataset):
        _assert_evaluate_matches_reference(
            toy_dataset["manifest"], toy_dataset["results"], toy_dataset["root"] / "report.out")

    @given(on_disk_benchmarks())
    @settings(max_examples=15, deadline=None)
    def test_random_dataset_matches_library_composition(self, benchmark):
        seed, tags, max_frames = benchmark
        rng = np.random.default_rng(seed)
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            (root / "results").mkdir()
            entries = []
            for i, tag in enumerate(tags):
                frames = [random_truth(rng) for _ in range(int(rng.integers(1, max_frames + 1)))]
                preds = [random_prediction(rng, g) for g in frames]
                _write(root / f"s{i}.gt", fio.write_groundtruth(frames))
                _write(root / "results" / f"s{i}.txt", fio.write_predictions(preds))
                if i % 2:  # a sidecar is loaded, and changes no score
                    _write(root / "results" / f"s{i}.txt.conf", "0.5\n" * len(preds))
                entries.append({"id": f"s{i}", "groundtruth": f"s{i}.gt", "subset": tag})
            _write(root / "m.json", json.dumps({"sequences": entries}))
            _assert_evaluate_matches_reference(root / "m.json", root / "results", root / "report.out")

    def test_peak_memory_is_set_by_the_longest_sequence(self, tmp_path):
        # 40 sequences x 2,000 frames of 17-digit boxes: holding every box
        # column of both sides at once takes 40 * 2,000 * 2 * 33 B = 5.3 MB
        rng = np.random.default_rng(5)
        (tmp_path / "results").mkdir()
        entries = []
        for i in range(40):
            rows = rng.uniform(0.0, 100.0, size=(2000, 4)).tolist()
            text = "".join(f"{x!r},{y!r},{w!r},{h!r}\n" for x, y, w, h in rows)
            _write(tmp_path / f"s{i}.gt", text)
            _write(tmp_path / "results" / f"s{i}.txt", text)
            entries.append({"id": f"s{i}", "groundtruth": f"s{i}.gt"})
        manifest = _write(tmp_path / "m.json", json.dumps({"sequences": entries}))
        argv = ["evaluate", "--manifest", str(manifest), "--results", str(tmp_path / "results"),
                "--format", "json-lines", "--out", str(tmp_path / "report.jsonl")]
        tracemalloc.start()
        try:
            assert cli.main(argv) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2_000_000


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

    def test_out_and_trace_into_new_directories(self, stream_files):
        tmp_path, paths = stream_files
        out, trace = tmp_path / "out" / "f.txt", tmp_path / "traces" / "t.csv"
        proc = run_cli(
            "fuse", "--rgb", str(paths["rgb"]), "--tir", str(paths["tir"]),
            "--rgbt", str(paths["rgbt"]), "--out", str(out), "--trace", str(trace),
        )
        assert proc.returncode == 0, proc.stderr
        assert out.read_bytes() == paths["rgbt"].read_bytes()
        assert (tmp_path / "out" / "f.txt.conf").read_bytes() == (tmp_path / "rgbt.txt.conf").read_bytes()
        assert trace.read_text().splitlines()[1] == "0,rgbt,0.2,0.5,0.8"

    def test_trace_whose_directory_cannot_be_made_writes_nothing(self, stream_files):
        # the trace's parent is a file: the error names the trace, and out and its .conf are not written
        tmp_path, paths = stream_files
        out, trace = tmp_path / "out.txt", paths["rgb"] / "t.csv"
        proc = run_cli(
            "fuse", "--rgb", str(paths["rgb"]), "--tir", str(paths["tir"]),
            "--rgbt", str(paths["rgbt"]), "--out", str(out), "--trace", str(trace),
        )
        assert proc.returncode == 3, proc.stderr
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"error: {trace}: "), proc.stderr
        assert not out.exists() and not (tmp_path / "out.txt.conf").exists()

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

    @pytest.mark.parametrize("text", ["", "\n \t\n\n"], ids=["empty", "blank"])
    def test_stream_without_data_warns_nothing(self, stream_files, text):
        tmp_path, paths = stream_files
        paths["tir"].write_text(text)
        (tmp_path / "tir.txt.conf").write_text(text)
        proc = subprocess.run(
            [sys.executable, "-W", "error", "-m", "fusebench", "fuse", "--rgb", str(paths["rgb"]),
             "--tir", str(paths["tir"]), "--rgbt", str(paths["rgbt"]), "--out", str(tmp_path / "f.txt")],
            capture_output=True, text=True,
        )
        assert proc.returncode == 3, proc.stderr
        assert proc.stderr.splitlines() == [f"error: {paths['tir']}: no predictions"]

    @pytest.mark.parametrize("first_bad", [1, 3])
    def test_two_values_on_a_sidecar_line(self, stream_files, first_bad):
        tmp_path, paths = stream_files
        conf = tmp_path / "tir.txt.conf"
        lines = conf.read_text().splitlines()
        conf.write_text("".join(line + "\n" for line in lines[: first_bad - 1]) + "0.5 0.7\n" * 20)
        proc = run_cli(
            "fuse", "--rgb", str(paths["rgb"]), "--tir", str(paths["tir"]),
            "--rgbt", str(paths["rgbt"]), "--out", str(tmp_path / "f.txt"),
        )
        assert proc.returncode == 3
        assert proc.stderr.splitlines() == [f"error: {conf}: line {first_bad}: not a number: '0.5 0.7'"]

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

    @pytest.mark.parametrize("order", ["rgb,rgb,tir", "rgb,tir", "rgb, tir, rgbt, rgb"])
    def test_bad_tie_order_names_the_experts(self, stream_files, order):
        tmp_path, paths = stream_files
        proc = run_cli(
            "fuse", "--rgb", str(paths["rgb"]), "--tir", str(paths["tir"]),
            "--rgbt", str(paths["rgbt"]), "--out", str(tmp_path / "f.txt"), "--tie", order,
        )
        assert proc.returncode == 3
        names = ", ".join(name.strip() for name in order.split(","))
        assert proc.stderr.splitlines() == [
            f"error: cannot parse tie policy {order!r}: tie policy must order all three experts, got {names}"
        ]
        assert not (tmp_path / "f.txt").exists()


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

    def test_outputs_meet_expectations(self, tmp_path):
        cfg = {"kind": "scenario", "n_sequences": 2, "n_frames": 20, "seed": 22, "rgb": {"fraction": 0.5}}
        cfg_path = _write(tmp_path / "scenario.json", json.dumps(cfg))
        report = run_scenario(fio.load_config(cfg_path))
        argv = ["simulate", "--config", str(cfg_path), "--out", str(tmp_path / "out")]
        for policy, s in report.policies.items():
            argv += ["--expect", f"{policy}.sr_auc={s.sr_auc!r}",
                     "--expect", f"{policy}.pr_at_threshold={s.pr_at_threshold!r}"]
        for name, ratio in zip(("r_rgb", "r_tir", "r_rgbt"), report.selection_ratios):
            argv += ["--expect", f"{name}={ratio!r}"]
        proc = run_cli(*argv)
        assert (proc.returncode, proc.stderr) == (0, "")

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

    def test_curves_directory_that_cannot_be_made_writes_nothing(self, tmp_path):
        # a file named curves: the error names a curve, and the summary and report are not written
        cfg = {"kind": "scenario", "n_sequences": 1, "n_frames": 5}
        cfg_path = _write(tmp_path / "scenario.json", json.dumps(cfg))
        out = tmp_path / "out"
        out.mkdir()
        _write(out / "curves", "")
        proc = run_cli("simulate", "--config", str(cfg_path), "--out", str(out))
        assert proc.returncode == 3, proc.stderr
        lines = proc.stderr.splitlines()
        curve = out / "curves" / "selection-sr.csv"
        assert len(lines) == 1 and lines[0].startswith(f"error: {curve}: "), proc.stderr
        assert [p.name for p in out.iterdir()] == ["curves"]

    @pytest.mark.parametrize("text", ["{nope", json.dumps({"kind": "metrics"})], ids=["not-json", "metrics"])
    def test_missing_path_beside_a_json_file_exits_three(self, tmp_path, text):
        # --config is a file or a bundled name; x.json is not read for x
        (tmp_path / "x.json").write_text(text)
        proc = run_cli("simulate", "--config", str(tmp_path / "x"), "--out", str(tmp_path / "o"))
        assert proc.returncode == 3, proc.stderr
        available = ", ".join(fio.bundled_scenario_names())
        assert proc.stderr.splitlines() == [
            f"error: unknown bundled scenario {str(tmp_path / 'x')!r}; available: {available}"
        ]
        assert not (tmp_path / "o").exists()


# a score table whose third line holds a cell past the csv field limit (131072)
_OVERSIZED_CELL_TABLE = "benchmark,rgbt,rgb,tir\nok,3,2,1\n" + "A" * 200_000 + ",1,2,3\n"


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
        path.write_bytes(b'benchmark,rgbt,rgb,tir\n"A,B",3.0,2.0,1.0\n"C ""x""",4.0,3.5,1.0\n"A\rB",5,4,1\n')
        # bytes: text mode would read the \r as a \n
        proc = subprocess.run([sys.executable, "-m", "fusebench", "analyze", str(path), "--format", "csv"],
                              capture_output=True)
        assert proc.returncode == 0, proc.stderr
        rows = list(csv.reader(io.StringIO(proc.stdout.decode(), newline="")))
        assert [len(r) for r in rows] == [9, 9, 9, 9]
        assert [r[0] for r in rows[1:]] == ["A,B", 'C "x"', "A\rB"]

    def test_out_into_a_new_directory(self, tmp_path):
        path = _write(tmp_path / "scores.csv", self.TABLE)
        out = tmp_path / "tables" / "balance.csv"
        proc = run_cli("analyze", str(path), "--format", "csv", "--out", str(out))
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "", "")
        assert out.read_text() == run_cli("analyze", str(path), "--format", "csv").stdout

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

    @pytest.mark.parametrize("text,error", [
        # after a name quoted over two lines
        ('benchmark,rgbt,rgb,tir\n"A\nB",1,2,3\nB,1,x,3\n', "line 4: scores must be numbers"),
        # the line a quoted record starts on
        ('benchmark,rgbt,rgb,tir\n"A\nB",1,x,3\n', "line 2: scores must be numbers"),
        # blank lines count
        ("\nbenchmark,rgbt,rgb,tir\n\nA,1,2,3\n\nB,1,x,3\n", "line 6: scores must be numbers"),
        # a cell the csv reader refuses to read
        (_OVERSIZED_CELL_TABLE, "line 3: field larger than field limit (131072)"),
        # U+2028 ends no line, in a score table as in every text input
        ('benchmark,rgbt,rgb,tir\n"A\u2028B",1,2,3\nB,1,x,3\n', "line 3: scores must be numbers"),
    ], ids=["after-two-line-name", "two-line-record", "blank-lines", "oversized-cell", "unicode-break-in-name"])
    def test_error_names_the_physical_line(self, tmp_path, text, error):
        path = tmp_path / "t.csv"
        path.write_bytes(text.encode())
        proc = run_cli("analyze", str(path))
        assert proc.returncode == 3, proc.stderr
        assert proc.stderr.splitlines() == [f"error: {path}: {error}"]

    def test_expectation_of_no_output_exits_one(self, tmp_path):
        path = tmp_path / "scores.csv"
        path.write_text(self.TABLE)
        proc = run_cli("analyze", str(path), "--expect", "nosuch=1")
        assert proc.returncode == 1, proc.stderr
        assert proc.stderr.splitlines() == [
            "expect nosuch: no such output (have: GTOT.gap_fusion, GTOT.gap_modality, GTOT.mean_rank, "
            "GTOT.rank_fusion, GTOT.rank_modality, MV-RGBT.gap_fusion, MV-RGBT.gap_modality, "
            "MV-RGBT.mean_rank, MV-RGBT.rank_fusion, MV-RGBT.rank_modality)"
        ]

    def test_stdout_report_follows_text_printed_before_it(self, tmp_path):
        # the report goes to stdout's byte buffer, behind the text a caller
        # already printed to a block-buffered stdout
        path = tmp_path / "scores.csv"
        path.write_text(self.TABLE)
        code = ("import sys; from fusebench.__main__ import main; print('before'); "
                "sys.exit(main(['analyze', sys.argv[1], '--format', 'csv']))")
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        proc = subprocess.run([sys.executable, "-c", code, str(path)], capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        table = balanced_indicators([("GTOT", 92.9, 84.9, 64.3), ("MV-RGBT", 65.3, 44.0, 39.7)])
        assert proc.stdout == "before\n" + export_report(table, "csv")

    def test_headerless_input(self, tmp_path):
        path = tmp_path / "scores.csv"
        path.write_text("GTOT,92.9,84.9,64.3\n")
        proc = run_cli("analyze", str(path), "--expect", "GTOT.mean_rank=1")
        assert proc.returncode == 0, proc.stderr

    def test_header_after_blank_rows(self, tmp_path):
        path = tmp_path / "scores.csv"
        path.write_text("\n , ,,\nbenchmark,rgbt,rgb,tir\nA,2,1,1\n")
        proc = run_cli("analyze", str(path), "--format", "csv", "--expect", "A.mean_rank=1")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == export_report(balanced_indicators([("A", 2.0, 1.0, 1.0)]), "csv")

    def test_header_only_as_the_first_non_blank_row(self, tmp_path):
        path = tmp_path / "scores.csv"
        path.write_text("\nA,2,1,1\nbenchmark,rgbt,rgb,tir\n")
        proc = run_cli("analyze", str(path))
        assert proc.returncode == 3, proc.stderr
        assert proc.stderr.splitlines() == [f"error: {path}: line 3: scores must be numbers"]


#: an ASCII locale, with neither C-locale coercion (PEP 538) nor UTF-8 mode (PEP 540)
ASCII_LOCALE = {"PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0", "LC_ALL": "C"}


class TestOutputFilesAreUtf8:
    """Output files and stdout are UTF-8 whatever the locale; a name taken
    from a path keeps its bytes."""

    def _run(self, *args, cwd):
        env = {k: v for k, v in os.environ.items() if k != "PYTHONIOENCODING"}
        src = str(Path(cli.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        return subprocess.run(
            [sys.executable, "-m", "fusebench", *args], capture_output=True, cwd=cwd, env={**env, **ASCII_LOCALE}
        )

    def test_analyze_table_with_a_non_ascii_benchmark(self, tmp_path):
        (tmp_path / "t.csv").write_bytes("benchmark,rgbt,rgb,tir\nGTOT,92.9,84.9,64.3\nLasHeR-Ω,71.7,62.4,59.8\n".encode())
        proc = self._run("analyze", "t.csv", "--format", "csv", "--out", "o.csv", cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr.decode(errors="replace")
        table = balanced_indicators([("GTOT", 92.9, 84.9, 64.3), ("LasHeR-Ω", 71.7, 62.4, 59.8)])
        assert (tmp_path / "o.csv").read_bytes() == export_report(table, "csv").encode("utf-8")

    def test_analyze_table_with_a_non_ascii_benchmark_to_stdout(self, tmp_path):
        (tmp_path / "t.csv").write_bytes("benchmark,rgbt,rgb,tir\nGTOT,92.9,84.9,64.3\nLasHeR-Ω,71.7,62.4,59.8\n".encode())
        proc = self._run("analyze", "t.csv", "--format", "csv", cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr.decode(errors="replace")
        assert self._run("analyze", "t.csv", "--format", "csv", "--out", "o.csv", cwd=tmp_path).returncode == 0
        assert proc.stdout == (tmp_path / "o.csv").read_bytes()

    def test_evaluate_results_directory_with_a_non_ascii_name(self, toy_dataset):
        root = toy_dataset["root"]
        name = os.fsdecode("résultats-Ω".encode())  # the same bytes under any file-system encoding
        shutil.copytree(toy_dataset["results"], root / name)
        proc = self._run("evaluate", "--manifest", "manifest.json", "--results", name,
                         "--format", "json-lines", "--out", "o.jsonl", cwd=root)
        assert proc.returncode == 0, proc.stderr.decode(errors="replace")
        manifest = fio.load_manifest(toy_dataset["manifest"])
        results = fio.load_results(manifest, toy_dataset["results"])
        report = compositional_eval(manifest, results, MetricConfig(), tracker="résultats-Ω")
        assert (root / "o.jsonl").read_bytes() == export_report(report, "json-lines").encode("utf-8")


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


# deeper than the json decoder's recursion limit
_DEEP_JSON = "[" * 100_000 + "]" * 100_000

# name -> (set-up returning (argv, the file the message must name[, the line it must name]))
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
    "manifest has an unknown key": lambda d: (
        ["evaluate", "--results", str(d["results"]), "--manifest", str(_write(
            d["manifest"], json.dumps({"sequences": [{"id": "seq0", "groundtruth": "gt/seq0.txt"}], "tracker": "x"})))],
        d["manifest"]),
    "manifest name is a list": lambda d: (
        ["evaluate", "--results", str(d["results"]), "--manifest", str(_write(
            d["manifest"], json.dumps({"name": [1], "sequences": [{"id": "seq0", "groundtruth": "gt/seq0.txt"}]})))],
        d["manifest"]),
    "manifest sequences is an object": lambda d: (
        ["evaluate", "--results", str(d["results"]), "--manifest", str(_write(
            d["manifest"], json.dumps({"sequences": {"id": "seq0", "groundtruth": "gt/seq0.txt"}})))],
        d["manifest"]),
    "manifest is a list": lambda d: (
        ["evaluate", "--results", str(d["results"]), "--manifest", str(_write(d["manifest"], "[]"))], d["manifest"]),
    "manifest sequence entry is a string": lambda d: (
        ["evaluate", "--results", str(d["results"]), "--manifest", str(_write(
            d["manifest"], json.dumps({"sequences": ["seq0"]})))], d["manifest"]),
    "manifest sequence entry is a number": lambda d: (
        ["evaluate", "--results", str(d["results"]), "--manifest", str(_write(
            d["manifest"], json.dumps({"sequences": [5]})))], d["manifest"]),
    "manifest sequence entry is null": lambda d: (
        ["evaluate", "--results", str(d["results"]), "--manifest", str(_write(
            d["manifest"], json.dumps({"sequences": [None]})))], d["manifest"]),
    "manifest sequence entry without groundtruth": lambda d: (
        ["evaluate", "--results", str(d["results"]), "--manifest", str(_write(
            d["manifest"], json.dumps({"sequences": [{"id": "seq0"}]})))], d["manifest"]),
    "groundtruth not UTF-8": lambda d: (
        ["evaluate", "--manifest", str(d["manifest"]), "--results", str(d["results"])],
        _write(d["gt"] / "seq1.txt", b"1,2,3,4\n\xff\xfe\n")),
    "groundtruth bad line": lambda d: (
        ["evaluate", "--manifest", str(d["manifest"]), "--results", str(d["results"])],
        _write(d["gt"] / "seq1.txt", "1,2,3,4\n1,2,x,4\n")),
    "groundtruth bad line after a line ending in U+2028": lambda d: (
        ["evaluate", "--manifest", str(d["manifest"]), "--results", str(d["results"])],
        _write(d["gt"] / "seq1.txt", "1,2,3,4\u2028\n1,2,x,4\n".encode()), "line 2"),
    "predictions not UTF-8": lambda d: (
        ["evaluate", "--manifest", str(d["manifest"]), "--results", str(d["results"])],
        _write(d["results"] / "seq2.txt", b"\xe9\n")),
    "prediction file shorter than its groundtruth": lambda d: (
        ["evaluate", "--manifest", str(d["manifest"]), "--results", str(d["results"])],
        _write(d["results"] / "seq1.txt", "1,2,3,4\n")),
    "config is a list": lambda d: (
        ["evaluate", "--manifest", str(d["manifest"]), "--results", str(d["results"]),
         "--config", str(_write(d["root"] / "cfg.json", "[1]"))], d["root"] / "cfg.json"),
    "evaluate given a scenario config": lambda d: (
        ["evaluate", "--manifest", str(d["manifest"]), "--results", str(d["results"]),
         "--config", str(_write(d["root"] / "cfg.json", json.dumps({"kind": "scenario"})))], d["root"] / "cfg.json"),
    "simulate given a metrics config": lambda d: (
        ["simulate", "--out", str(d["root"] / "out"), "--config", str(_write(d["root"] / "cfg.json", "{}"))],
        d["root"] / "cfg.json"),
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
    "manifest nested too deeply to decode": lambda d: (
        ["evaluate", "--results", str(d["results"]), "--manifest", str(_write(d["manifest"], _DEEP_JSON))],
        d["manifest"]),
    "metrics config nested too deeply to decode": lambda d: (
        ["evaluate", "--manifest", str(d["manifest"]), "--results", str(d["results"]),
         "--config", str(_write(d["root"] / "cfg.json", _DEEP_JSON))],
        d["root"] / "cfg.json"),
    "scenario config nested too deeply to decode": lambda d: (
        ["simulate", "--out", str(d["root"] / "out"), "--config", str(_write(d["root"] / "cfg.json", _DEEP_JSON))],
        d["root"] / "cfg.json"),
    "manifest holds a 5,000-digit number": lambda d: (
        ["evaluate", "--results", str(d["results"]), "--manifest", str(_write(
            d["manifest"], '{"name": ' + "1" * 5000 + ', "sequences": []}'))],
        d["manifest"]),
    "score table not UTF-8": lambda d: (
        ["analyze", str(_write(d["root"] / "t.csv", b"benchmark,rgbt,rgb,tir\n\xff,1,2,3\n"))],
        d["root"] / "t.csv"),
    "score table is a directory": lambda d: (["analyze", str(d["gt"])], d["gt"]),
    "score table cell past the csv field limit": lambda d: (
        ["analyze", str(_write(d["root"] / "t.csv", "benchmark,rgbt,rgb,tir\n" + "A" * 131_073 + ",1,2,3\n"))],
        d["root"] / "t.csv"),
    "score table cell past the csv field limit on a later line": lambda d: (
        ["analyze", str(_write(d["root"] / "t.csv", _OVERSIZED_CELL_TABLE))], d["root"] / "t.csv", "line 3"),
    "score table header names an unknown column": lambda d: (
        ["analyze", str(_write(d["root"] / "t.csv", "benchmark,rgbt,rgb,x\nA,1,2,3\n"))],
        d["root"] / "t.csv", "line 1"),
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
    "manifest lists an id twice, the second with no groundtruth file": lambda d: (
        ["evaluate", "--results", str(d["results"]), "--manifest", str(_write(d["manifest"], json.dumps(
            {"sequences": [{"id": "seq0", "groundtruth": "gt/seq0.txt"}, {"id": "seq0", "groundtruth": "no.txt"}]})))],
        d["manifest"]),
    "manifest sequence id leaves the results directory": lambda d: (
        ["evaluate", "--results", str(d["results"]), "--manifest", str(_write(
            d["manifest"], json.dumps({"sequences": [{"id": "../gt/seq0", "groundtruth": "gt/seq0.txt"}]})))],
        d["manifest"]),
    "scenario interval past n_frames": lambda d: (
        ["simulate", "--out", str(d["root"] / "out"), "--config", str(_write(d["root"] / "cfg.json", json.dumps(
            {"kind": "scenario", "n_frames": 100, "rgb": {"intervals": [[0, 500]]}})))],
        d["root"] / "cfg.json"),
    "scenario profile confidence noise whose range overflows": lambda d: (
        ["simulate", "--out", str(d["root"] / "out"), "--config", str(_write(d["root"] / "cfg.json", json.dumps(
            {"kind": "scenario", "n_sequences": 2, "n_frames": 10, "rgb": {"confidence_noise": 1e308}})))],
        d["root"] / "cfg.json"),
    "fused-model confidence noise whose range overflows": lambda d: (
        ["simulate", "--out", str(d["root"] / "out"), "--config", str(_write(d["root"] / "cfg.json", json.dumps(
            {"kind": "scenario", "n_sequences": 2, "n_frames": 10, "fused": {"confidence_noise": 1e308}})))],
        d["root"] / "cfg.json"),
    "scenario sigma_in whose jitter scale overflows": lambda d: (
        ["simulate", "--out", str(d["root"] / "out"), "--config", str(_write(d["root"] / "cfg.json", json.dumps(
            {"kind": "scenario", "n_sequences": 2, "n_frames": 10, "rgb": {"sigma_in": 1e307}})))],
        d["root"] / "cfg.json"),
    "scenario tir sigma_in whose jitter scale overflows": lambda d: (
        ["simulate", "--out", str(d["root"] / "out"), "--config", str(_write(d["root"] / "cfg.json", json.dumps(
            {"kind": "scenario", "n_sequences": 2, "n_frames": 10, "tir": {"sigma_in": 1e307}})))],
        d["root"] / "cfg.json"),
    # a finite scale whose draws overflow: 50 frames draw one beyond 3.1 sigma
    "scenario sigma_in whose jitter draws overflow": lambda d: (
        ["simulate", "--out", str(d["root"] / "out"), "--config", str(_write(d["root"] / "cfg.json", json.dumps(
            {"kind": "scenario", "n_sequences": 2, "n_frames": 50, "rgb": {"sigma_in": 1e306}})))],
        d["root"] / "cfg.json"),
    "fuse rgb stream is missing": lambda d: (
        ["fuse", "--out", str(d["root"] / "fused.txt"), "--rgb", str(d["root"] / "none.txt"),
         "--tir", str(_empty_stream(d["root"])), "--rgbt", str(d["root"] / "empty.txt")],
        d["root"] / "none.txt"),
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
        argv, named, *line = MALFORMED_INPUTS[case](toy_dataset)
        proc = run_cli(*argv)
        assert proc.returncode == 3, proc.stderr
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), proc.stderr
        assert named.name in lines[0], proc.stderr
        assert all(f"{named.name}: {at}: " in lines[0] for at in line), proc.stderr

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
        # raised while simulating, after the file was read; the line names
        # the key and the file
        path = _write(tmp_path / "cfg.json", json.dumps({"kind": "scenario", "motion_step_std": 1e308}))
        proc = run_cli("simulate", "--config", str(path), "--out", str(tmp_path / "out"))
        assert proc.returncode == 3, proc.stderr
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ") and "motion_step_std" in lines[0], proc.stderr
        assert path.name in lines[0], proc.stderr

    def test_n_sequences_past_the_spawn_keys(self, tmp_path):
        # rejected at load, naming the exact bound; 400 digits rather than 2**32 + 1, so that a
        # simulator missing the bound fails at once on a C size instead of building 4.3 billion keys
        n = 10**400
        path = _write(tmp_path / "cfg.json", json.dumps({"kind": "scenario", "n_sequences": n, "n_frames": 1}))
        proc = run_cli("simulate", "--config", str(path), "--out", str(tmp_path / "out"))
        assert proc.returncode == 3, proc.stderr
        assert proc.stderr.splitlines() == [
            f"error: {path}: scenario config: n_sequences must lie in [1, 4294967296], got {n}"]
        assert not (tmp_path / "out").exists()

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

    def test_importing_the_commands_imports_no_numpy_random(self):
        # the simulator derives its seeds with numpy.random only when it runs: importing it
        # at import time would move its cost out of the commands and raise evaluate's memory
        code = ("import sys, numpy; before = 'numpy.random' in sys.modules; import fusebench.cli; "
                "print(before, 'numpy.random' in sys.modules)")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        before, after = proc.stdout.split()
        assert after == before  # False, unless this numpy imports numpy.random with itself

    def test_module_run_loads_the_front_door_once(self, stream_files):
        # ``-m fusebench`` runs fusebench/__main__.py as __main__; importing
        # fusebench.cli must find that run instead of running the file again
        tmp_path, paths = stream_files
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-m", "fusebench", "fuse", "--rgb", str(paths["rgb"]),
             "--tir", str(paths["tir"]), "--rgbt", str(paths["rgbt"]), "--out", str(tmp_path / "f.txt")],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        modules = _imported_modules(proc.stderr)
        assert "fusebench.cli" in modules
        assert "fusebench.__main__" not in modules

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
