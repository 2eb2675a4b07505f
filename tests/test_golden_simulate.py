"""Golden snapshots of the simulator's outputs.

The simulator is deterministic given its seeds, so every output byte is
fixed by the order in which each stream draws from its random generator.
These snapshots pin that order: the files and stdout of ``fusebench
simulate`` on both bundled scenarios, the json-lines report of
``run_scenario`` on small configs that exercise every degradation
behaviour and confidence noise, and the streams of ``degrade_modality`` /
``synthesize_fused_expert`` on a hand-made annotation with absent frames.

A failing snapshot means the draw order (or the arithmetic) changed. That
is a reproducibility break, not a reason to regenerate. To regenerate
deliberately, after saying why in CHANGES.md, run::

    PYTHONPATH=src python tests/test_golden_simulate.py
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path

import pytest

from fusebench import (
    Box,
    DegradationProfile,
    Expert,
    FrameTruth,
    FusedQualityModel,
    ScenarioConfig,
    SequenceAnnotation,
    child_seed,
    degrade_modality,
    degraded_mask,
    export_report,
    run_scenario,
    synthesize_fused_expert,
)
from fusebench import cli
from fusebench import io as fio

GOLDEN = Path(__file__).with_name("golden") / "simulate.json"

CLI_RUNS = {
    "mmw-one-modality-dead": None,
    "mmw-one-modality-dead --seed 1": "1",
    "common-scenario": None,
    "common-scenario --seed 1": "1",
}


def sha256(data: str) -> str:
    return hashlib.sha256(data.encode()).hexdigest()


def cli_outputs(name: str, seed: str | None, out: Path) -> dict[str, str]:
    """sha256 of stdout and of every file ``fusebench simulate`` writes."""
    argv = ["simulate", "--config", name, "--out", str(out)]
    if seed is not None:
        argv += ["--seed", seed]
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        assert cli.main(argv) == 0
    hashes = {"<stdout>": sha256(stdout.getvalue())}
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        hashes[path.relative_to(out).as_posix()] = sha256(path.read_text())
    return hashes


def _profile(target, **kwargs) -> DegradationProfile:
    return DegradationProfile(target=target, **kwargs)


SCENARIOS = {
    "noise-on-all-three": ScenarioConfig(
        n_sequences=3, n_frames=40, seed=5,
        rgb=_profile(Expert.RGB, fraction=0.3, behavior="drifting-box", confidence_noise=0.1),
        tir=_profile(Expert.TIR, intervals=((5, 15), (25, 30)), behavior="frozen-box",
                     sigma_in=0.08, confidence_noise=0.2),
        fused=FusedQualityModel(informative_weight=0.6, boost=0.03, confidence_noise=0.15),
    ),
    "uniform-intervals-and-drift": ScenarioConfig(
        n_sequences=2, n_frames=50, seed=12,
        rgb=_profile(Expert.RGB, intervals=((0, 10), (30, 45)), sigma_in=0.1, confidence_noise=0.05),
        tir=_profile(Expert.TIR, fraction=0.3, behavior="drifting-box"),
    ),
    "frozen-fraction-and-drift-intervals": ScenarioConfig(
        n_sequences=2, n_frames=30, seed=3,
        rgb=_profile(Expert.RGB, fraction=0.3, behavior="frozen-box", sigma_in=0.0, confidence_noise=0.1),
        tir=_profile(Expert.TIR, intervals=((10, 20),), behavior="drifting-box", confidence_noise=0.3),
        fused=FusedQualityModel(informative_weight=0.3, boost=0.1),
    ),
    "both-dead": ScenarioConfig(
        n_sequences=2, n_frames=25, seed=9,
        rgb=_profile(Expert.RGB, fraction=1.0, behavior="drifting-box", confidence_noise=0.2),
        tir=_profile(Expert.TIR, fraction=1.0, confidence_noise=0.2),
        fused=FusedQualityModel(confidence_noise=0.05),
    ),
}


def hand_made_annotation() -> SequenceAnnotation:
    """Absent frames at the start, inside the degraded intervals and at the
    end; box sizes vary, and one box has zero width."""
    absent = {0, 1, 7, 12, 13, 19, 23}
    frames = []
    for i in range(24):
        if i in absent:
            frames.append(FrameTruth.absent())
        else:
            w = 0.0 if i == 16 else 20.0 + (i % 5)
            frames.append(FrameTruth.present(Box(30.0 + 3.5 * i, 40.0 - 1.25 * i, w, 15.0 + (i % 3))))
    return SequenceAnnotation(id="hand", frames=tuple(frames))


STREAM_PROFILES = {
    "uniform-intervals": dict(intervals=((5, 10), (18, 22))),
    "uniform-intervals-noise": dict(intervals=((5, 10), (18, 22)), confidence_noise=0.2),
    "frozen-intervals": dict(intervals=((5, 10), (18, 22)), behavior="frozen-box", sigma_in=0.1),
    "drifting-intervals-noise": dict(intervals=((0, 3), (6, 14)), behavior="drifting-box",
                                     confidence_noise=0.1),
    "drifting-fraction": dict(fraction=0.3, behavior="drifting-box", sigma_in=0.0),
    "frozen-fraction-noise": dict(fraction=0.3, behavior="frozen-box", confidence_noise=0.05),
    "uniform-all": dict(fraction=1.0, confidence_noise=0.1),
    "informative-noise": dict(sigma_in=0.2, confidence_noise=0.3),
}


def stream_text(stream) -> str:
    preds = list(stream.predictions)
    return fio.write_predictions(preds) + "--\n" + fio.write_confidences(preds)


def stream_outputs() -> dict[str, str]:
    gt = hand_made_annotation()
    extent = (160.0, 120.0)
    out = {}
    for k, (name, kwargs) in enumerate(STREAM_PROFILES.items()):
        profile = _profile(Expert.RGB, **kwargs)
        out[f"degrade {name}"] = stream_text(degrade_modality(gt, profile, child_seed(40, k), extent))
    rgb_profile = _profile(Expert.RGB, intervals=((4, 11),), behavior="drifting-box")
    tir_profile = _profile(Expert.TIR, fraction=0.4, sigma_in=0.1, confidence_noise=0.1)
    rgb_seed, tir_seed = child_seed(41, 1), child_seed(41, 2)
    rgb_mask = degraded_mask(rgb_profile, len(gt), child_seed(rgb_seed, 0))
    tir_mask = degraded_mask(tir_profile, len(gt), child_seed(tir_seed, 0))
    rgb = degrade_modality(gt, rgb_profile, rgb_seed, extent, mask=rgb_mask)
    tir = degrade_modality(gt, tir_profile, tir_seed, extent, mask=tir_mask)
    models = {
        "default": FusedQualityModel(),
        "noise": FusedQualityModel(informative_weight=0.7, boost=0.2, confidence_noise=0.25),
    }
    for k, (name, model) in enumerate(models.items()):
        fused = synthesize_fused_expert(
            rgb, tir, gt, model, child_seed(42, k), rgb_degraded=rgb_mask, tir_degraded=tir_mask
        )
        out[f"fused {name}"] = stream_text(fused)
    fused = synthesize_fused_expert(rgb, tir, gt, FusedQualityModel(confidence_noise=0.1), seed=43)
    out["fused no masks"] = stream_text(fused)
    all_absent = SequenceAnnotation(id="gone", frames=(FrameTruth.absent(),) * 6)
    for name in ("uniform-intervals-noise", "drifting-intervals-noise"):
        profile = _profile(Expert.TIR, **{**STREAM_PROFILES[name], "intervals": ((1, 4),)})
        out[f"degrade all-absent {name}"] = stream_text(degrade_modality(all_absent, profile, 44, extent))
    return out


def snapshot(tmp: Path) -> dict:
    return {
        "cli": {run: cli_outputs(run.split()[0], seed, tmp / str(i))
                for i, (run, seed) in enumerate(CLI_RUNS.items())},
        "run_scenario": {name: export_report(run_scenario(cfg), "json-lines")
                         for name, cfg in SCENARIOS.items()},
        "streams": stream_outputs(),
    }


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("run", sorted(CLI_RUNS))
def test_cli_simulate_outputs(golden, tmp_path, run):
    assert cli_outputs(run.split()[0], CLI_RUNS[run], tmp_path) == golden["cli"][run]


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_run_scenario_report(golden, name):
    assert export_report(run_scenario(SCENARIOS[name]), "json-lines") == golden["run_scenario"][name]


def test_stream_outputs(golden):
    got = stream_outputs()
    assert sorted(got) == sorted(golden["streams"])
    for name, text in got.items():
        assert text == golden["streams"][name], name


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        data = snapshot(Path(tmp))
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
