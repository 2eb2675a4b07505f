"""The numpy-backed subcommands evaluate, fuse and simulate, each a thin
delegator over the library. The parser is in :mod:`fusebench.__main__`.
Importing this module imports every module these commands run.
"""

from __future__ import annotations

import sys
from dataclasses import replace
from pathlib import Path

from . import io as fio
from .__main__ import Expectation, _emit
from .__main__ import main as _main
from .analysis import compositional_eval, subset_manifest
from .errors import ConfigError
from .fusion import TiePolicy, fuse_streams, selection_ratios
from .metrics import MetricConfig
from .report import export_report
from .simulate import ScenarioConfig, run_scenario

__all__ = ["main", "Expectation"]


def _metric_config(args) -> MetricConfig:
    if getattr(args, "config", None):
        cfg = fio.load_config(args.config)
        if not isinstance(cfg, MetricConfig):
            raise ConfigError(f"{args.config} is not a metrics config")
    else:
        cfg = MetricConfig()
    if getattr(args, "pooling", None):
        cfg = replace(cfg, pooling=args.pooling)
    return cfg


def _flat_scores(values: dict[str, float], prefix: str, s) -> None:
    values[f"{prefix}pr_at_threshold"] = s.pr_at_threshold
    values[f"{prefix}sr_auc"] = s.sr_auc


def cmd_evaluate(args) -> dict[str, float]:
    manifest = fio.load_manifest(args.manifest)
    cfg = _metric_config(args)
    results = fio.load_results(manifest, args.results)
    if args.subset in ("rgb", "tir"):
        manifest = subset_manifest(manifest, args.subset)
    report = compositional_eval(manifest, results, cfg, tracker=Path(args.results).name)
    values: dict[str, float] = {}
    _flat_scores(values, "", report.overall)
    if args.subset == "all":
        for tag, s in report.subsets.items():
            _flat_scores(values, f"{tag}.", s)
    _emit(export_report(report, args.format), args.out)
    return values


def cmd_fuse(args) -> dict[str, float]:
    rgb, tir, rgbt = fio.load_expert_streams(args.rgb, args.tir, args.rgbt)
    tie = TiePolicy.parse(args.tie)
    fused, trace = fuse_streams(rgb, tir, rgbt, tie)

    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(fio.write_predictions(fused))
    Path(str(out) + ".conf").write_text(fio.write_confidences(fused))

    trace_path = Path(args.trace) if args.trace else Path(str(out) + ".trace.csv")
    trace_path.write_text(export_report(trace, "csv"))

    r_rgb, r_tir, r_rgbt = selection_ratios(trace)
    print(f"selection ratios (rgb, tir, rgbt): {r_rgb:.2f}, {r_tir:.2f}, {r_rgbt:.2f}")
    return {"r_rgb": r_rgb, "r_tir": r_tir, "r_rgbt": r_rgbt}


def _scenario_config(args) -> ScenarioConfig:
    path = Path(args.config)
    if path.is_file():
        cfg = fio.load_config(path)
        if not isinstance(cfg, ScenarioConfig):
            raise ConfigError(f"{args.config} is not a scenario config")
    else:
        cfg = fio.bundled_scenario(args.config)
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    return cfg


def cmd_simulate(args) -> dict[str, float]:
    cfg = _scenario_config(args)
    report = run_scenario(cfg)

    out = Path(args.out)
    (out / "curves").mkdir(parents=True, exist_ok=True)
    (out / "summary.csv").write_text(export_report(report, "csv"))
    (out / "report.jsonl").write_text(export_report(report, "json-lines"))
    for policy, s in report.policies.items():
        (out / "curves" / f"{policy}-sr.csv").write_text(export_report(s.sr_curve, "csv"))
        (out / "curves" / f"{policy}-pr.csv").write_text(export_report(s.pr_curve, "csv"))

    sys.stdout.write(export_report(report, "pretty-table"))
    values: dict[str, float] = {}
    for policy, s in report.policies.items():
        _flat_scores(values, f"{policy}.", s)
    values["r_rgb"], values["r_tir"], values["r_rgbt"] = report.selection_ratios
    return values


def main(argv: list[str] | None = None) -> int:
    """The ``fusebench`` command (:func:`fusebench.__main__.main`), as a
    function of this module so that its callers and tracers find it here."""
    return _main(argv)
