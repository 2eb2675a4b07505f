"""Self-tests of the benchmark harness.

Run from the repository root with ``python3 -m pytest bench -q``.
"""

from __future__ import annotations

import json
import math
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
for path in (ROOT / "tests", ROOT / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import fusebench.cli  # noqa: E402
import generate  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def tree(path: Path) -> dict[str, bytes]:
    return {str(p.relative_to(path)): p.read_bytes() for p in sorted(path.rglob("*")) if p.is_file()}


def small_evaluate(seed: int, path: Path) -> dict:
    return generate.generate_evaluate(seed, path, n_sequences=12, max_len=60)


def run_cli(argv: list[str], capsys) -> str:
    assert fusebench.cli.main(argv) == 0
    return capsys.readouterr().out


# -- generators ----------------------------------------------------------------


def test_evaluate_generator_is_deterministic(tmp_path):
    a = small_evaluate(5, tmp_path / "a")
    b = small_evaluate(5, tmp_path / "b")
    c = small_evaluate(6, tmp_path / "c")
    assert a == b
    assert tree(tmp_path / "a") == tree(tmp_path / "b")
    assert tree(tmp_path / "c") != tree(tmp_path / "a")
    assert set(a["curves"]) == {"overall", "rgb", "tir"}


def test_fuse_generator_is_deterministic(tmp_path):
    a = generate.generate_fuse(5, tmp_path / "a", n_frames=2000)
    b = generate.generate_fuse(5, tmp_path / "b", n_frames=2000)
    c = generate.generate_fuse(6, tmp_path / "c", n_frames=2000)
    assert a == b
    assert tree(tmp_path / "a") == tree(tmp_path / "b")
    assert tree(tmp_path / "c") != tree(tmp_path / "a")
    assert a["ties"] > 0


def test_oracle_curves_equal_the_flat_oracle_bit_for_bit():
    from protocol_oracle import ref_benchmark_curves

    sequences, results, tags = generate.evaluate_benchmark(8, 40, 300)
    curves = generate.oracle_curves(sequences, results, tags)
    for part in ("overall", "rgb", "tir"):
        seqs = sequences if part == "overall" else [s for s, t in zip(sequences, tags) if t == part]
        sr, pr = ref_benchmark_curves(seqs, results, generate.SUCCESS_THRESHOLDS, generate.PRECISION_THRESHOLDS)
        assert curves[part] == {"sr": sr, "pr": pr}


def test_sequence_lengths_total_is_seed_independent():
    totals = {int(generate.sequence_lengths(generate.np.random.default_rng(s), 500, 10, 3000).sum()) for s in range(4)}
    assert len(totals) == 1


# -- spans -----------------------------------------------------------------------


def test_self_times_on_nested_span_tree():
    tree_spans = [
        ["root", 0.0, 10.0, -1],
        ["a", 1.0, 4.0, 0],
        ["a.x", 1.5, 2.0, 1],
        ["a.y", 2.5, 3.5, 1],
        ["b", 5.0, 9.0, 0],
        ["b.z", 5.0, 9.0, 4],
    ]
    own = spans.self_times(tree_spans)
    assert own == pytest.approx([3.0, 1.5, 0.5, 1.0, 0.0, 4.0])
    assert math.fsum(own) == pytest.approx(10.0)


def test_covered_time_merges_overlaps_and_clips():
    assert spans.covered_time([(1.0, 3.0), (2.0, 5.0), (7.0, 12.0)], 0.0, 10.0) == pytest.approx(7.0)
    assert spans.covered_time([], 0.0, 1.0) == 0.0


def _fusebench_attributes() -> dict[tuple[str, str], object]:
    return {
        (name, attr): value
        for name, mod in list(sys.modules.items())
        if name.split(".")[0] == "fusebench"
        for attr, value in vars(mod).items()
        if callable(value)
    }


def test_tracer_wraps_every_lookup_and_removes_every_wrapper():
    before = _fusebench_attributes()
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert hasattr(fusebench.cli.main, spans.WRAPPED_MARK)
        # the name imported by another module is the same wrapper
        assert fusebench.simulate.fuse_streams is fusebench.fusion.fuse_streams
        assert hasattr(fusebench.simulate.fuse_streams, spans.WRAPPED_MARK)
        assert hasattr(fusebench.analysis.benchmark_scores, spans.WRAPPED_MARK)
        assert not hasattr(fusebench.metrics.iou, spans.WRAPPED_MARK)
        fusebench.io.parse_predictions("1,2,3,4\n0,0,0,0\n", "0.5\n0.25\n")
    finally:
        tracer.uninstall()
    after = _fusebench_attributes()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert not any(hasattr(v, spans.WRAPPED_MARK) for v in after.values())

    summary = tracer.summary()
    assert summary["functions"]["io.parse_predictions"]["calls"] == 1
    assert summary["functions"]["io.parse_confidences"]["calls"] == 1
    assert summary["counts"] == {"io.rows": 4, "io.files_read": 2, "io.bytes_read": 25}


# -- output checks -----------------------------------------------------------------


def test_corrupted_fuse_output_is_a_failure(tmp_path, capsys):
    expected = generate.generate_fuse(3, tmp_path / "in", n_frames=3000)
    w = workloads.Fuse(3, tmp_path / "in", expected)
    [(out, argv)] = w.commands(tmp_path / "round")
    out.mkdir(parents=True)
    stdout = run_cli(argv, capsys)
    assert w.check(0, out, stdout) == []

    fused = out / "fused.txt"
    lines = fused.read_text().splitlines(keepends=True)
    lines[10] = "1.0,2.0,3.0,4.0\n"
    fused.write_text("".join(lines))
    errors = w.check(0, out, stdout)
    assert len(errors) == 1 and "line 11" in errors[0]


def test_corrupted_evaluate_report_is_a_failure(tmp_path, capsys):
    expected = small_evaluate(3, tmp_path / "in")
    w = workloads.Evaluate(3, tmp_path / "in", expected)
    [(out, argv)] = w.commands(tmp_path / "round")
    out.mkdir(parents=True)
    stdout = run_cli(argv, capsys)
    assert w.check(0, out, stdout) == []

    report = out / "report.jsonl"
    objs = workloads.read_json_lines(report)
    for obj in objs:
        if obj.get("part") == "rgb" and obj.get("curve") == "pr":
            obj["scores"][20] = math.nextafter(obj["scores"][20], 2.0)
    report.write_text("".join(json.dumps(o) + "\n" for o in objs))
    errors = w.check(0, out, stdout)
    assert errors == ["evaluate: rgb pr differs from the oracle at thresholds [20.0]"]

    report.write_text(report.read_text()[:-20])
    [error] = run.check_output(w, 0, out, stdout)
    assert "malformed output" in error


def _scenario_report(out: Path, sr_auc: dict[str, float]) -> None:
    (out / "curves").mkdir(parents=True)
    for name in ["summary.csv"] + [f"curves/{p}-{k}.csv" for p in workloads.POLICIES for k in ("sr", "pr")]:
        (out / name).write_text("x\n")
    lines = [{"type": "scenario-report", "n_sequences": 100, "n_frames": 200}]
    lines += [{"policy": p, "pr_at_threshold": 0.5, "sr_auc": v} for p, v in sr_auc.items()]
    (out / "report.jsonl").write_text("".join(json.dumps(o) + "\n" for o in lines))


def test_simulate_ordering_violation_is_a_failure(tmp_path):
    good = {"selection": 0.6, "always-fuse": 0.5, "rgb-only": 0.2, "tir-only": 0.55, "oracle": 0.7}
    _scenario_report(tmp_path / "good", good)
    assert workloads.check_simulate("mmw-one-modality-dead", tmp_path / "good", "") == []
    bad = dict(good, selection=0.4, oracle=0.52)
    _scenario_report(tmp_path / "bad", bad)
    errors = workloads.check_simulate("mmw-one-modality-dead", tmp_path / "bad", "")
    assert len(errors) == 2
    assert "does not beat always-fuse" in errors[0] and "oracle 0.52 below tir-only" in errors[1]


# -- the runner --------------------------------------------------------------------


def test_runner_reports_layers_and_counts_failures(tmp_path):
    expected = generate.generate_fuse(4, tmp_path / "in", n_frames=2000)
    w = workloads.Fuse(4, tmp_path / "in", expected)
    deadline = time.monotonic() + 120
    rounds = run.run_rounds(w, 0, True, tmp_path / "work", deadline)
    assert [r.traced for r in rounds] == [False, True, False]
    assert [c.errors for r in rounds for c in r.commands] == [[], [], []]
    layers = run.per_layer(w, rounds)
    assert set(layers) == set(run.PER_LAYER_UNITS)
    assert layers["fusion.frames"] == 2000 and layers["io.rows"] == 12000
    assert layers["trace.self_sum_s"] == pytest.approx(layers["trace.wall_s"], rel=0.01)

    tampered = dict(expected, fused=expected["fused"] + "0,0,0,0\n")
    rounds = run.run_rounds(workloads.Fuse(4, tmp_path / "in", tampered), 0, False, tmp_path / "work2", deadline)
    assert all(len(c.errors) == 1 for r in rounds for c in r.commands)
