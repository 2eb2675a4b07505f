"""Reference for :func:`fusebench.run_scenario`: one sequence at a time.

This is the simulator's per-sequence loop built only from the public
per-sequence functions: trajectory, degraded masks, the two degraded
modalities, the fused expert, confidence selection and the oracle, then
one :func:`benchmark_scores` call per policy. ``run_scenario`` evaluates
blocks of whole sequences as arrays and must produce the same report,
byte for byte (``tests/test_simulate.py::TestBlockParity``).

Both sides walk the ground truth with the same block code, so the walk
has its own reference, :func:`reference_trajectory`: one sequence, one
scalar reflection per axis and frame
(``tests/test_simulate.py::TestTrajectoryReference``).
"""

from __future__ import annotations

import math

import numpy as np

from fusebench import (
    DatasetManifest,
    MetricConfig,
    POLICIES,
    ScenarioConfig,
    ScenarioReport,
    benchmark_scores,
    child_seed,
    degrade_modality,
    degraded_mask,
    fuse_streams,
    generate_trajectory,
    oracle_best_selection,
    synthesize_fused_expert,
)
from fusebench.fusion import EXPERTS


def _reflect(x: float, lo: float, hi: float) -> float:
    """Fold ``x`` into ``[lo, hi]`` by repeated boundary reflection."""
    if hi <= lo:
        return lo
    span = hi - lo
    t = math.fmod(x - lo, 2.0 * span)
    if t < 0.0:
        t += 2.0 * span
    return lo + (t if t <= span else 2.0 * span - t)


def reference_trajectory(cfg: ScenarioConfig, seed) -> np.ndarray:
    """The ``(T, 4)`` boxes of :func:`fusebench.generate_trajectory`."""
    rng = np.random.default_rng(seed)
    W, H = cfg.extent
    lo, hi = cfg.size_range
    w = float(rng.uniform(lo, hi))
    h = float(rng.uniform(lo, hi))
    cx = float(rng.uniform(w / 2.0, W - w / 2.0))
    cy = float(rng.uniform(h / 2.0, H - h / 2.0))
    steps = rng.normal(0.0, cfg.motion_step_std, size=(cfg.n_frames - 1, 2)).tolist()
    xs, ys = [cx], [cy]
    for dx, dy in steps:
        cx = _reflect(cx + dx, w / 2.0, W - w / 2.0)
        cy = _reflect(cy + dy, h / 2.0, H - h / 2.0)
        xs.append(cx)
        ys.append(cy)
    n = cfg.n_frames
    return np.column_stack([np.array(xs) - w / 2.0, np.array(ys) - h / 2.0, np.full(n, w), np.full(n, h)])


def reference_run_scenario(cfg: ScenarioConfig, metric_cfg: MetricConfig | None = None) -> ScenarioReport:
    metric_cfg = metric_cfg or MetricConfig()
    annotations = []
    results = {p: {} for p in POLICIES}
    chosen_counts = dict.fromkeys(EXPERTS, 0)
    total_frames = 0

    for i in range(cfg.n_sequences):
        sid = f"seq-{i:04d}"
        traj = generate_trajectory(cfg, child_seed(cfg.seed, i, 0), sequence_id=sid)
        rgb_seed = child_seed(cfg.seed, i, 1)
        tir_seed = child_seed(cfg.seed, i, 2)
        rgb_mask = degraded_mask(cfg.rgb, cfg.n_frames, child_seed(rgb_seed, 0))
        tir_mask = degraded_mask(cfg.tir, cfg.n_frames, child_seed(tir_seed, 0))
        rgb = degrade_modality(traj, cfg.rgb, rgb_seed, extent=cfg.extent)
        tir = degrade_modality(traj, cfg.tir, tir_seed, extent=cfg.extent)
        fused = synthesize_fused_expert(
            rgb, tir, traj, cfg.fused, child_seed(cfg.seed, i, 3),
            rgb_degraded=rgb_mask, tir_degraded=tir_mask,
        )

        selected, trace = fuse_streams(rgb, tir, fused)
        for e in EXPERTS:
            chosen_counts[e] += int((trace.chosen == EXPERTS.index(e)).sum())
        total_frames += len(trace)

        annotations.append(traj)
        results["selection"][sid] = selected
        results["always-fuse"][sid] = fused.predictions
        results["rgb-only"][sid] = rgb.predictions
        results["tir-only"][sid] = tir.predictions
        results["oracle"][sid] = oracle_best_selection(rgb, tir, fused, traj)

    manifest = DatasetManifest(tuple(annotations), name="scenario")
    policies = {p: benchmark_scores(manifest, results[p], metric_cfg) for p in POLICIES}
    ratios = tuple(chosen_counts[e] / total_frames for e in EXPERTS)
    return ScenarioReport(
        policies=policies,
        selection_ratios=ratios,
        n_sequences=cfg.n_sequences,
        n_frames=cfg.n_frames,
        seed=cfg.seed,
    )
