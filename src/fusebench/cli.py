"""Command-line front door: evaluate, fuse, simulate, analyze.

Every subcommand is a thin delegator over the library; no metric or fusion
logic lives here. Exit codes: 0 success, 1 an ``--expect`` check failed,
2 bad invocation, 3 data error (parse failures, unreadable or missing
files, length mismatches), reported as one ``error:`` line.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from . import io as fio
from .analysis import (
    balanced_indicators,
    compositional_eval,
    export_report,
    subset_manifest,
)
from .errors import ConfigError, FusebenchError
from .fusion import TiePolicy, fuse_streams, selection_ratios
from .metrics import MetricConfig
from .model import Expert
from .simulate import ScenarioConfig, run_scenario

__all__ = ["main"]


class Expectation:
    """A ``key=value[±tol]`` assertion against a command's scalar outputs."""

    def __init__(self, text: str):
        try:
            key, rhs = text.split("=", 1)
            for sep in ("±", "+-"):
                if sep in rhs:
                    value, tol = rhs.split(sep, 1)
                    break
            else:
                value, tol = rhs, "0"
            self.key = key.strip()
            self.value = float(value)
            self.tol = float(tol)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"cannot parse expectation {text!r}; use key=value or key=value±tol"
            ) from None

    def check(self, values: dict[str, float]) -> str | None:
        if self.key not in values:
            return f"expect {self.key}: no such output (have: {', '.join(sorted(values))})"
        got = values[self.key]
        if abs(got - self.value) > self.tol:
            return f"expect {self.key}: got {got!r}, want {self.value!r} ± {self.tol!r}"
        return None


def _check_expectations(args, values: dict[str, float]) -> int:
    failed = False
    for exp in args.expect or []:
        msg = exp.check(values)
        if msg is not None:
            failed = True
            print(msg, file=sys.stderr)
    return 1 if failed else 0


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


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


def cmd_evaluate(args) -> tuple[dict[str, float], int]:
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
    return values, 0


def cmd_fuse(args) -> tuple[dict[str, float], int]:
    rgb = fio.load_expert_stream(args.rgb, Expert.RGB)
    tir = fio.load_expert_stream(args.tir, Expert.TIR)
    rgbt = fio.load_expert_stream(args.rgbt, Expert.RGBT)
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
    return {"r_rgb": r_rgb, "r_tir": r_tir, "r_rgbt": r_rgbt}, 0


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


def cmd_simulate(args) -> tuple[dict[str, float], int]:
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
        values[f"{policy}.sr_auc"] = s.sr_auc
        values[f"{policy}.pr_at_threshold"] = s.pr_at_threshold
    values["r_rgb"], values["r_tir"], values["r_rgbt"] = report.selection_ratios
    return values, 0


def cmd_analyze(args) -> tuple[dict[str, float], int]:
    rows = fio.load_score_table(args.table)
    table = balanced_indicators(rows, metric=args.metric)
    _emit(export_report(table, args.format), args.out)
    values: dict[str, float] = {}
    for row in table.rows:
        values[f"{row.benchmark}.gap_fusion"] = row.gap_fusion
        values[f"{row.benchmark}.gap_modality"] = row.gap_modality
        values[f"{row.benchmark}.rank_fusion"] = row.rank_fusion
        values[f"{row.benchmark}.rank_modality"] = row.rank_modality
        values[f"{row.benchmark}.mean_rank"] = row.mean_rank
    return values, 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fusebench",
        description="Decision-level fusion and tracking-benchmark evaluation toolkit.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--expect", action="append", type=Expectation, metavar="KEY=VALUE[±TOL]",
                       help="assert a named output value; failing checks exit 1")

    p = sub.add_parser("evaluate", help="score a results directory against a manifest")
    p.add_argument("--manifest", required=True, help="manifest JSON file")
    p.add_argument("--results", required=True, help="directory with <sequence id>.txt files")
    p.add_argument("--config", help="metrics config JSON")
    p.add_argument("--subset", choices=["rgb", "tir", "all"], default="all")
    p.add_argument("--pooling", choices=["frame", "sequence-mean"])
    p.add_argument("--format", choices=["csv", "json-lines", "table"], default="table")
    p.add_argument("--out", help="write the report here instead of stdout")
    add_common(p)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("fuse", help="fuse three expert streams by confidence")
    p.add_argument("--rgb", required=True, help="RGB predictions (expects a .conf sidecar)")
    p.add_argument("--tir", required=True, help="TIR predictions (expects a .conf sidecar)")
    p.add_argument("--rgbt", required=True, help="fused-expert predictions (expects a .conf sidecar)")
    p.add_argument("--tie", default="rgbt-first",
                   help="tie policy: rgbt-first|tir-first|rgb-first or e.g. 'rgbt,tir,rgb'")
    p.add_argument("--out", required=True, help="output path for the fused predictions")
    p.add_argument("--trace", help="trace csv path (default: <out>.trace.csv)")
    add_common(p)
    p.set_defaults(func=cmd_fuse)

    p = sub.add_parser("simulate", help="run a synthetic fusion-policy scenario")
    p.add_argument("--config", required=True,
                   help="scenario config JSON, or a bundled name "
                        "(mmw-one-modality-dead, common-scenario)")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--seed", type=int, help="override the config seed")
    add_common(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("analyze", help="balanced-benchmark indicators from a score table")
    p.add_argument("table", help="csv with benchmark,rgbt,rgb,tir columns")
    p.add_argument("--metric", default="PR", help="metric label for the table (default PR)")
    p.add_argument("--format", choices=["csv", "json-lines", "table"], default="table")
    p.add_argument("--out", help="write the table here instead of stdout")
    add_common(p)
    p.set_defaults(func=cmd_analyze)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        values, status = args.func(args)
    except (FusebenchError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    if status != 0:
        return status
    return _check_expectations(args, values)


if __name__ == "__main__":
    sys.exit(main())
