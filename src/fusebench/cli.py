"""The numpy-backed subcommands evaluate, fuse and simulate, each a thin
delegator over the library. The parser is in :mod:`fusebench.__main__`.
Importing this module imports every module these commands run.
"""

from __future__ import annotations

from dataclasses import replace
from pathlib import Path

from . import io as fio
from .__main__ import _emit, _write_text
from .__main__ import main as _main
from .analysis import _report
from .errors import ConfigError, EmptySubsetError, _reading
from .fusion import TiePolicy, fuse_streams, selection_ratios
from .metrics import MetricConfig, _scores_of_rows, _sequence_rows
from .report import export_report
from .simulate import ScenarioConfig, run_scenario

__all__ = ["main"]


def _metric_config(args) -> MetricConfig:
    if args.config:
        cfg = fio.load_config(args.config)
        if not isinstance(cfg, MetricConfig):
            raise ConfigError(f"{args.config} is not a metrics config")
    else:
        cfg = MetricConfig()
    if args.pooling:
        cfg = replace(cfg, pooling=args.pooling)
    return cfg


def _flat_scores(values: dict[str, float], prefix: str, s) -> None:
    values[f"{prefix}pr_at_threshold"] = s.pr_at_threshold
    values[f"{prefix}sr_auc"] = s.sr_auc


def cmd_evaluate(args) -> dict[str, float]:
    # one sequence at a time: only its score rows, tag and length outlive its boxes
    manifest, results = Path(args.manifest), Path(args.results)
    _, entries = fio._manifest_entries(manifest)
    cfg = _metric_config(args)
    rows, tags, lengths = [], [], []
    for entry in entries:
        seq = fio._load_sequence(manifest.parent, entry)
        rows.append(_sequence_rows(seq, fio._load_result(seq, results), cfg))
        tags.append(seq.subset)
        lengths.append(len(seq))
    if args.subset != "all":
        kept = [i for i, tag in enumerate(tags) if tag == args.subset]
        if not kept:
            raise EmptySubsetError(args.subset)
        rows, tags, lengths = ([column[i] for i in kept] for column in (rows, tags, lengths))
    report = _report(_scores_of_rows(*zip(*rows), cfg), tags, lengths, cfg, results.name)
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

    _write_text(
        (args.out, fio.write_predictions(fused)),
        (args.out + ".conf", fio.write_confidences(fused)),
        (args.trace or args.out + ".trace.csv", export_report(trace, "csv")),
    )

    r_rgb, r_tir, r_rgbt = selection_ratios(trace)
    _emit(f"selection ratios (rgb, tir, rgbt): {r_rgb:.2f}, {r_tir:.2f}, {r_rgbt:.2f}\n")
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
    with _reading(args.config):  # a value that only fails while simulating, such as a too big sigma_in
        report = run_scenario(cfg)

    out = Path(args.out)
    files = [(out / "summary.csv", export_report(report, "csv"))]
    files.append((out / "report.jsonl", export_report(report, "json-lines")))
    for policy, s in report.policies.items():
        files.append((out / "curves" / f"{policy}-sr.csv", export_report(s.sr_curve, "csv")))
        files.append((out / "curves" / f"{policy}-pr.csv", export_report(s.pr_curve, "csv")))
    _write_text(*files)

    _emit(export_report(report, "pretty-table"))
    values: dict[str, float] = {}
    for policy, s in report.policies.items():
        _flat_scores(values, f"{policy}.", s)
    values["r_rgb"], values["r_tir"], values["r_rgbt"] = report.selection_ratios
    return values


def main(argv: list[str] | None = None) -> int:
    """The ``fusebench`` command (:func:`fusebench.__main__.main`), as a
    function of this module so that its callers and tracers find it here."""
    return _main(argv)
