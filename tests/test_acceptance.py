"""Acceptance suite: one test per release criterion, run in order.

Each test prints a single ``ACCEPTANCE n PASS`` line (visible with
``pytest -s``; the test outcome itself carries the same information).
Criteria with stated runtime budgets enforce them with a wall clock.
"""

import json
import subprocess
import sys
import time

import numpy as np
import pytest

from fusebench import (
    Box,
    DatasetManifest,
    DegradationProfile,
    DegradedBehavior,
    Expert,
    FramePrediction,
    FrameTruth,
    MetricConfig,
    SelectionRecord,
    SelectionTrace,
    balanced_indicators,
    benchmark_scores,
    child_seed,
    degrade_modality,
    degraded_mask,
    export_report,
    frame_success_indicator,
    fuse_streams,
    generate_trajectory,
    iou,
    run_scenario,
    selection_ratios,
    synthesize_fused_expert,
    ScenarioConfig,
)
from fusebench import io as fio
from conftest import random_benchmark
from protocol_oracle import ref_benchmark_curves

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

# curves produced by earlier criteria, re-checked for monotonicity in 7
_observed_curves: list = []


def _passed(n: int, message: str) -> None:
    print(f"ACCEPTANCE {n} PASS - {message}")


def test_criterion_01_balanced_indicators_pr():
    t0 = time.perf_counter()
    table = balanced_indicators(PR_TABLE, metric="PR")
    printed_gap_fusion = (30.8, 12.6, 16.6, 37.4, 39.3)
    printed_gap_modality = (24.3, 6.2, 4.2, 32.1, 9.8)
    expected_rank_fusion = (3, 5, 4, 2, 1)
    expected_rank_modality = (4, 2, 1, 5, 3)
    expected_mean_rank = (3.5, 3.5, 2.5, 3.5, 2.0)
    for i, row in enumerate(table.rows):
        assert abs(row.gap_fusion - printed_gap_fusion[i]) <= 0.3, row.benchmark
        assert abs(row.gap_modality - printed_gap_modality[i]) <= 0.1, row.benchmark
        assert row.rank_fusion == expected_rank_fusion[i], row.benchmark
        assert row.rank_modality == expected_rank_modality[i], row.benchmark
        assert row.mean_rank == expected_mean_rank[i], row.benchmark
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0, f"criterion 1 took {elapsed:.3f} s"
    _passed(1, "balanced indicators (PR): gaps, ranks and mean ranks reproduced")


def test_criterion_02_balanced_indicators_sr():
    table = balanced_indicators(SR_TABLE, metric="SR")
    printed_gap_fusion = (27.6, 16.7, 17.6, 40.4, 40.0)
    printed_gap_modality = (18.3, 11.1, 5.6, 37.4, 15.3)
    for i, row in enumerate(table.rows):
        assert abs(row.gap_fusion - printed_gap_fusion[i]) <= 0.3, row.benchmark
        assert abs(row.gap_modality - printed_gap_modality[i]) <= 0.3, row.benchmark
    by_name = {r.benchmark: r for r in table.rows}
    # the reference table prints 3.5 for VTUAV-ST, but its own ranking rule
    # (fusion gap rank 1 of 5, modality gap rank 5 of 5) gives (1 + 5) / 2;
    # we assert our rule's value and document the discrepancy
    assert by_name["VTUAV-ST"].rank_fusion == 1
    assert by_name["VTUAV-ST"].rank_modality == 5
    assert by_name["VTUAV-ST"].mean_rank == 3.0
    assert by_name["MV-RGBT"].mean_rank == 2.5
    assert by_name["LasHeR"].mean_rank == 2.5
    _passed(2, "balanced indicators (SR): gaps reproduced; VTUAV-ST mean rank 3.0 by our rule")


def test_criterion_03_metric_oracle_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20240615)
    manifest, results = random_benchmark(rng, n_sequences=1000, max_frames=50)
    cfg = MetricConfig()
    out = benchmark_scores(manifest, results, cfg)
    ref_sr, ref_pr = ref_benchmark_curves(
        manifest.sequences, results, cfg.success_thresholds, cfg.precision_thresholds
    )
    assert list(out.sr_curve.scores) == ref_sr, "success scores differ from the flat reference"
    assert list(out.pr_curve.scores) == ref_pr, "precision scores differ from the flat reference"
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0, f"criterion 3 took {elapsed:.3f} s"
    _observed_curves.extend([out.sr_curve.scores, out.pr_curve.scores[::-1]])
    _passed(3, f"engine equals flat per-frame reference bit-exactly on 1000 sequences ({elapsed:.2f} s)")


def test_criterion_04_absence_semantics_fixture():
    b = Box(10, 10, 20, 20)
    frames = [
        (FrameTruth.present(b), FramePrediction(b)),            # match
        (FrameTruth.absent(), FramePrediction(Box(0, 0, 5, 5))),  # gt absent, box predicted
        (FrameTruth.present(b), FramePrediction.absent()),      # gt present, absence declared
        (FrameTruth.absent(), FramePrediction.absent()),        # correct absence
    ]
    indicators = tuple(frame_success_indicator(g, p, 0.5) for g, p in frames)
    assert indicators == (1, 0, 0, 1)
    _passed(4, "absence fixture yields success indicators (1, 0, 0, 1) at threshold 0.5")


def test_criterion_05_calibrated_selection_optimality():
    rng = np.random.default_rng(555)
    behaviors = list(DegradedBehavior)
    cfg_metric = MetricConfig()
    for k in range(200):
        n_frames = int(rng.integers(5, 31))
        cfg = ScenarioConfig(
            n_sequences=1,
            n_frames=n_frames,
            seed=k,
            motion_step_std=float(rng.uniform(0, 10)),
            rgb=DegradationProfile(
                target=Expert.RGB,
                fraction=float(rng.choice([0.0, 0.3, 0.7, 1.0])),
                sigma_in=float(rng.uniform(0, 0.3)),
                behavior=behaviors[int(rng.integers(0, 3))],
            ),
            tir=DegradationProfile(
                target=Expert.TIR,
                fraction=float(rng.choice([0.0, 0.5, 1.0])),
                sigma_in=float(rng.uniform(0, 0.3)),
                behavior=behaviors[int(rng.integers(0, 3))],
            ),
        )
        traj = generate_trajectory(cfg, child_seed(k, 0), sequence_id=f"s{k}")
        rgb_mask = degraded_mask(cfg.rgb, n_frames, child_seed(child_seed(k, 1), 0))
        tir_mask = degraded_mask(cfg.tir, n_frames, child_seed(child_seed(k, 2), 0))
        rgb = degrade_modality(traj, cfg.rgb, child_seed(k, 1), extent=cfg.extent)
        tir = degrade_modality(traj, cfg.tir, child_seed(k, 2), extent=cfg.extent)
        fused = synthesize_fused_expert(
            rgb, tir, traj, cfg.fused, child_seed(k, 3), rgb_degraded=rgb_mask, tir_degraded=tir_mask
        )
        selected, _ = fuse_streams(rgb, tir, fused)
        per_expert = [list(rgb.predictions), list(tir.predictions), list(fused.predictions)]
        for i, g in enumerate(traj.frames):
            best = max(iou(g, preds[i]) for preds in per_expert)
            assert iou(g, selected[i]) == best, f"scenario {k}, frame {i}"
        man = DatasetManifest((traj,))
        selected_auc = benchmark_scores(man, {traj.id: selected}, cfg_metric).sr_auc
        for preds in per_expert:
            expert_auc = benchmark_scores(man, {traj.id: preds}, cfg_metric).sr_auc
            assert selected_auc >= expert_auc, f"scenario {k}"
    _passed(5, "perfectly calibrated selection attains the per-frame best expert on 200 scenarios")


def test_criterion_06_when_to_fuse_simulation():
    mmw_cfg = fio.bundled_scenario("mmw-one-modality-dead")
    t0 = time.perf_counter()
    mmw = run_scenario(mmw_cfg)
    mmw_elapsed = time.perf_counter() - t0
    assert mmw_elapsed < 30.0, f"MMW scenario took {mmw_elapsed:.1f} s"
    gap = mmw.policies["selection"].sr_auc - mmw.policies["always-fuse"].sr_auc
    assert gap >= 0.05, f"selection beats always-fuse by only {gap:.4f}"

    common_cfg = fio.bundled_scenario("common-scenario")
    t0 = time.perf_counter()
    common = run_scenario(common_cfg)
    common_elapsed = time.perf_counter() - t0
    assert common_elapsed < 30.0, f"common scenario took {common_elapsed:.1f} s"
    fused_auc = common.policies["always-fuse"].sr_auc
    single_best = max(common.policies["rgb-only"].sr_auc, common.policies["tir-only"].sr_auc)
    assert fused_auc >= single_best

    # deterministic per seed: a second run reproduces both reports exactly
    assert export_report(run_scenario(mmw_cfg), "json-lines") == export_report(mmw, "json-lines")
    assert export_report(run_scenario(common_cfg), "json-lines") == export_report(common, "json-lines")

    for report in (mmw, common):
        for scores in report.policies.values():
            _observed_curves.append(scores.sr_curve.scores)
            _observed_curves.append(scores.pr_curve.scores[::-1])
    _passed(
        6,
        f"selection > always-fuse by {gap:.2f} in the MMW scenario; "
        f"always-fuse >= single modalities in the common scenario",
    )


def test_criterion_07_monotone_curves():
    curves = list(_observed_curves)
    rng = np.random.default_rng(77)
    for _ in range(50):
        manifest, results = random_benchmark(rng, n_sequences=3, max_frames=15)
        for pooling in ("frame", "sequence-mean"):
            out = benchmark_scores(manifest, results, MetricConfig(pooling=pooling))
            curves.append(out.sr_curve.scores)
            curves.append(out.pr_curve.scores[::-1])
    assert len(curves) >= 100
    violations = 0
    for scores in curves:
        # each entry is oriented to be non-increasing
        violations += sum(1 for a, b in zip(scores, scores[1:]) if b > a)
    assert violations == 0
    _passed(7, f"zero monotonicity violations across {len(curves)} evaluated curves")


def test_criterion_08_selection_ratio_fixture():
    records = []
    for i in range(100):
        if i < 12:
            records.append(
                SelectionRecord(frame=i, chosen=Expert.RGBT, confidence=0.9,
                                cs_rgb=0.1, cs_tir=0.6, cs_rgbt=0.9)
            )
        else:
            records.append(
                SelectionRecord(frame=i, chosen=Expert.TIR, confidence=0.8,
                                cs_rgb=0.1, cs_tir=0.8, cs_rgbt=0.4)
            )
    ratios = selection_ratios(SelectionTrace.from_records(records))
    assert ratios == (0.00, 0.88, 0.12)
    _passed(8, "100-frame trace with 12 fused wins reports ratios (0.00, 0.88, 0.12)")


def _run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "fusebench", *args], capture_output=True, text=True
    )


def test_criterion_09_round_trip_and_determinism(tmp_path):
    # parse -> write -> parse identity on fixtures covering every variant
    gt_fixture = "10.5 20 30 40\n0,0,0,0\n1,2,3,4\n"
    frames = fio.parse_groundtruth(gt_fixture)
    assert fio.parse_groundtruth(fio.write_groundtruth(frames)) == frames
    pred_fixture = "0,0,0,0\n5.25,5,10,10\n"
    conf_fixture = "0.9\n0.125\n"
    preds = fio.parse_predictions(pred_fixture, conf_fixture)
    assert fio.parse_predictions(fio.write_predictions(preds), fio.write_confidences(preds)) == preds

    # byte-identical CLI runs for all four subcommands
    gt_dir = tmp_path / "gt"
    res_dir = tmp_path / "results"
    gt_dir.mkdir()
    res_dir.mkdir()
    rng = np.random.default_rng(9)
    entries = []
    for i in range(3):
        sid = f"s{i}"
        rows = []
        for j in range(12):
            if j % 5 == 4:
                rows.append(FrameTruth.absent())
            else:
                x, y = rng.uniform(0, 60, size=2)
                rows.append(FrameTruth.present(Box(float(x), float(y), 16.0, 12.0)))
        (gt_dir / f"{sid}.txt").write_text(fio.write_groundtruth(rows))
        (res_dir / f"{sid}.txt").write_text(fio.write_groundtruth(rows))
        entries.append({"id": sid, "groundtruth": f"gt/{sid}.txt", "subset": ["rgb", "tir", "none"][i]})
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({"name": "fixture", "sequences": entries}))

    streams = {}
    for name, conf in (("rgb", 0.3), ("tir", 0.6), ("rgbt", 0.9)):
        preds = [FramePrediction(Box(float(i), 1.0, 8.0, 8.0), conf) for i in range(10)]
        p = tmp_path / f"{name}.txt"
        p.write_text(fio.write_predictions(preds))
        (tmp_path / f"{name}.txt.conf").write_text(fio.write_confidences(preds))
        streams[name] = p

    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps({
        "kind": "scenario", "n_sequences": 2, "n_frames": 15, "seed": 33,
        "rgb": {"fraction": 0.5},
    }))
    table = tmp_path / "table.csv"
    table.write_text("benchmark,rgbt,rgb,tir\nGTOT,92.9,84.9,64.3\nMV-RGBT,65.3,44.0,39.7\n")

    invocations = {
        "evaluate": (
            "evaluate", "--manifest", str(manifest), "--results", str(res_dir),
            "--format", "json-lines",
        ),
        "fuse": (
            "fuse", "--rgb", str(streams["rgb"]), "--tir", str(streams["tir"]),
            "--rgbt", str(streams["rgbt"]), "--out", str(tmp_path / "fused.txt"),
        ),
        "simulate": ("simulate", "--config", str(scenario), "--out", str(tmp_path / "sim")),
        "analyze": ("analyze", str(table), "--format", "csv"),
    }
    for name, args in invocations.items():
        first = _run_cli(*args)
        assert first.returncode == 0, f"{name}: {first.stderr}"
        outputs_first = _collect_outputs(tmp_path)
        second = _run_cli(*args)
        assert second.returncode == 0, f"{name}: {second.stderr}"
        outputs_second = _collect_outputs(tmp_path)
        assert first.stdout == second.stdout, name
        assert outputs_first == outputs_second, name
    _passed(9, "parse/write round-trips and byte-identical reruns of all four subcommands")


def _collect_outputs(root):
    out = {}
    for path in sorted(root.rglob("*")):
        if path.is_file():
            out[str(path.relative_to(root))] = path.read_bytes()
    return out
