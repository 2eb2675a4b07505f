"""Higher-order analyses: subset evaluation, balance indicators, report export.

Balanced-benchmark indicators
-----------------------------
For each benchmark the three expert scores (fused, RGB-only, TIR-only, with
TIR the conventionally weaker single modality) are reduced to two gaps:

* fusion gap   ``100 * (1 - tir / rgbt)`` -- how much fusing helps over the
  weaker modality; larger means the benchmark rewards fusion (ranked
  descending, largest gap = rank 1);
* modality gap ``100 * (1 - tir / rgb)`` -- how far apart the two single
  modalities are; smaller means better balance (ranked ascending).

The mean of the two ranks (``mean_rank``, displayed as ``mRank``) is the
combined balance indicator; tied gaps receive the average of their tied
rank positions. Gaps are computed from full-precision inputs and rounded
only for display.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

from .errors import EmptySubsetError, FusebenchError, NonPositiveScoreError
from .fusion import SelectionRecord, SelectionTrace
from .metrics import BenchmarkScores, Curve, MetricConfig, benchmark_scores
from .model import DatasetManifest, Expert, FramePrediction, Subset
from .simulate import ScenarioReport

__all__ = [
    "EvaluationReport",
    "BalancedIndicatorRow",
    "BalancedIndicatorTable",
    "subset_manifest",
    "compositional_eval",
    "balanced_indicators",
    "export_report",
    "parse_report",
]

_SUBSET_BY_TAG = {"rgb": Subset.RGB_DOMINANT, "tir": Subset.TIR_DOMINANT}


@dataclass(frozen=True)
class EvaluationReport:
    """Overall and per-subset evaluation results for one tracker."""

    tracker: str
    pr_report_threshold: float
    overall: BenchmarkScores
    subsets: dict[str, BenchmarkScores] = field(default_factory=dict)
    sequence_counts: dict[str, int] = field(default_factory=dict)
    frame_counts: dict[str, int] = field(default_factory=dict)
    selection_ratios: tuple[float, float, float] | None = None


@dataclass(frozen=True)
class BalancedIndicatorRow:
    """One benchmark's expert scores, gaps, ranks and mean rank."""

    benchmark: str
    rgbt: float
    rgb: float
    tir: float
    gap_fusion: float
    gap_modality: float
    rank_fusion: float
    rank_modality: float
    mean_rank: float


@dataclass(frozen=True)
class BalancedIndicatorTable:
    """Per-benchmark balance indicators; ranks are average-rank on ties."""

    rows: tuple[BalancedIndicatorRow, ...]
    metric: str = "PR"

    def __post_init__(self):
        object.__setattr__(self, "rows", tuple(self.rows))


def subset_manifest(manifest: DatasetManifest, tag: str | Subset) -> DatasetManifest:
    """Restrict a manifest to one modality-dominance subset.

    Raises :class:`EmptySubsetError` when no sequence carries the tag.
    """
    if isinstance(tag, str):
        if tag not in _SUBSET_BY_TAG:
            raise FusebenchError(f"unknown subset tag {tag!r}; use 'rgb' or 'tir'")
        subset = _SUBSET_BY_TAG[tag]
    else:
        subset = tag
    seqs = manifest.subset(subset)
    if not seqs:
        raise EmptySubsetError(subset.value)
    return DatasetManifest(seqs, name=manifest.name)


def compositional_eval(
    manifest: DatasetManifest,
    results: Mapping[str, Sequence[FramePrediction]],
    cfg: MetricConfig | None = None,
    tracker: str = "results",
    selection_ratios: tuple[float, float, float] | None = None,
) -> EvaluationReport:
    """Evaluate overall plus each non-empty modality-dominance subset.

    Untagged sequences contribute to the overall scores and to neither
    subset. A subset with no sequences is simply omitted from the report;
    use :func:`subset_manifest` to make an empty subset an error.
    """
    cfg = cfg or MetricConfig()
    overall = benchmark_scores(manifest, results, cfg)
    subsets: dict[str, BenchmarkScores] = {}
    sequence_counts = {"overall": manifest.m}
    frame_counts = {"overall": sum(len(s) for s in manifest.sequences)}
    for tag, subset in _SUBSET_BY_TAG.items():
        seqs = manifest.subset(subset)
        sequence_counts[tag] = len(seqs)
        frame_counts[tag] = sum(len(s) for s in seqs)
        if seqs:
            sub = DatasetManifest(seqs, name=manifest.name)
            subsets[tag] = benchmark_scores(sub, results, cfg)
    untagged = manifest.subset(Subset.UNSPECIFIED)
    sequence_counts["untagged"] = len(untagged)
    frame_counts["untagged"] = sum(len(s) for s in untagged)
    return EvaluationReport(
        tracker=tracker,
        pr_report_threshold=cfg.pr_report_threshold,
        overall=overall,
        subsets=subsets,
        sequence_counts=sequence_counts,
        frame_counts=frame_counts,
        selection_ratios=selection_ratios,
    )


def _average_ranks(values: Sequence[float]) -> list[float]:
    """1-based ascending ranks; tied values share the mean of their positions."""
    order = sorted(range(len(values)), key=values.__getitem__)
    ranks = [0.0] * len(values)
    start = 0
    while start < len(order):
        end = start
        while end + 1 < len(order) and values[order[end + 1]] == values[order[start]]:
            end += 1
        for i in order[start : end + 1]:
            ranks[i] = (start + end) / 2.0 + 1.0
        start = end + 1
    return ranks


def balanced_indicators(
    rows: Sequence[tuple[str, float, float, float]],
    metric: str = "PR",
) -> BalancedIndicatorTable:
    """Compute fusion/modality gaps, ranks and mean rank per benchmark.

    ``rows`` holds ``(benchmark, rgbt, rgb, tir)`` scores (any common
    scale, e.g. percents); all scores must be strictly positive.
    """
    if not rows:
        raise FusebenchError("balanced indicators need at least one benchmark row")
    for name, rgbt, rgb, tir in rows:
        for label, v in (("rgbt", rgbt), ("rgb", rgb), ("tir", tir)):
            if not (isinstance(v, (int, float)) and math.isfinite(v) and v > 0):
                raise NonPositiveScoreError(f"{name}: {label} score must be positive, got {v!r}")
    gaps_fusion = [100.0 * (1.0 - tir / rgbt) for _, rgbt, _, tir in rows]
    gaps_modality = [100.0 * (1.0 - tir / rgb) for _, _, rgb, tir in rows]
    rank_fusion = _average_ranks([-g for g in gaps_fusion])
    rank_modality = _average_ranks(gaps_modality)
    out = tuple(
        BalancedIndicatorRow(
            benchmark=name,
            rgbt=float(rgbt),
            rgb=float(rgb),
            tir=float(tir),
            gap_fusion=gaps_fusion[i],
            gap_modality=gaps_modality[i],
            rank_fusion=rank_fusion[i],
            rank_modality=rank_modality[i],
            mean_rank=(rank_fusion[i] + rank_modality[i]) / 2.0,
        )
        for i, (name, rgbt, rgb, tir) in enumerate(rows)
    )
    return BalancedIndicatorTable(out, metric=metric)


# -- export ------------------------------------------------------------------

_FORMATS = ("csv", "json-lines", "pretty-table")


def _fmt(v: float) -> str:
    return f"{v:.4f}"


def _fmt_pct(v: float) -> str:
    return f"{v:.1f}"


def _fmt_rank(v: float) -> str:
    return f"{int(v)}" if float(v).is_integer() else f"{v:.1f}"


def _jline(obj: dict) -> str:
    return json.dumps(obj, ensure_ascii=False)


def _curve_dict(c: Curve) -> dict:
    return {"thresholds": list(c.thresholds), "scores": list(c.scores)}


def _scores_lines(label_key: str, label: str, s: BenchmarkScores) -> list[str]:
    return [
        _jline({label_key: label, "pr_at_threshold": s.pr_at_threshold, "sr_auc": s.sr_auc}),
        _jline({label_key: label, "curve": "pr", **_curve_dict(s.pr_curve)}),
        _jline({label_key: label, "curve": "sr", **_curve_dict(s.sr_curve)}),
    ]


def _table(headers: Sequence[str], rows: Sequence[Sequence[str]]) -> str:
    widths = [len(h) for h in headers]
    for row in rows:
        widths = [max(w, len(c)) for w, c in zip(widths, row)]
    def line(cells):
        return "  ".join(c.ljust(w) for c, w in zip(cells, widths)).rstrip()
    out = [line(headers), line(["-" * w for w in widths])]
    out.extend(line(r) for r in rows)
    return "\n".join(out) + "\n"


def _export_curve(c: Curve, fmt: str) -> str:
    if fmt == "csv":
        return "threshold,score\n" + "".join(f"{_fmt(t)},{_fmt(s)}\n" for t, s in zip(c.thresholds, c.scores))
    if fmt == "json-lines":
        lines = [_jline({"type": "curve"})]
        lines += [_jline({"threshold": t, "score": s}) for t, s in zip(c.thresholds, c.scores)]
        return "\n".join(lines) + "\n"
    rows = [[_fmt(t), _fmt(s)] for t, s in zip(c.thresholds, c.scores)]
    return _table(["threshold", "score"], rows)


def _eval_parts(r: EvaluationReport) -> list[tuple[str, BenchmarkScores]]:
    parts = [("overall", r.overall)]
    parts += [(tag, r.subsets[tag]) for tag in ("rgb", "tir") if tag in r.subsets]
    return parts


def _export_evaluation(r: EvaluationReport, fmt: str) -> str:
    if fmt == "json-lines":
        head = {
            "type": "evaluation-report",
            "tracker": r.tracker,
            "pr_report_threshold": r.pr_report_threshold,
            "sequence_counts": dict(r.sequence_counts),
            "frame_counts": dict(r.frame_counts),
            "selection_ratios": list(r.selection_ratios) if r.selection_ratios else None,
        }
        lines = [_jline(head)]
        for part, s in _eval_parts(r):
            lines += _scores_lines("part", part, s)
        return "\n".join(lines) + "\n"
    rows = []
    for part, s in _eval_parts(r):
        rows.append([
            part,
            str(r.sequence_counts.get(part, "")),
            str(r.frame_counts.get(part, "")),
            _fmt(s.pr_at_threshold),
            _fmt(s.sr_auc),
        ])
    headers = ["part", "sequences", "frames", "pr_at_threshold", "sr_auc"]
    if fmt == "csv":
        return ",".join(headers) + "\n" + "".join(",".join(row) + "\n" for row in rows)
    return _table(headers, rows)


def _export_balanced(t: BalancedIndicatorTable, fmt: str) -> str:
    if fmt == "json-lines":
        lines = [_jline({"type": "balanced-table", "metric": t.metric})]
        for row in t.rows:
            lines.append(_jline({
                "benchmark": row.benchmark,
                "rgbt": row.rgbt,
                "rgb": row.rgb,
                "tir": row.tir,
                "gap_fusion": row.gap_fusion,
                "gap_modality": row.gap_modality,
                "rank_fusion": row.rank_fusion,
                "rank_modality": row.rank_modality,
                "mean_rank": row.mean_rank,
            }))
        return "\n".join(lines) + "\n"
    if fmt == "csv":
        headers = "benchmark,rgbt,rgb,tir,gap_fusion,rank_fusion,gap_modality,rank_modality,mean_rank"
        body = "".join(
            f"{r.benchmark},{_fmt_pct(r.rgbt)},{_fmt_pct(r.rgb)},{_fmt_pct(r.tir)},"
            f"{_fmt_pct(r.gap_fusion)},{_fmt_rank(r.rank_fusion)},"
            f"{_fmt_pct(r.gap_modality)},{_fmt_rank(r.rank_modality)},{_fmt_rank(r.mean_rank)}\n"
            for r in t.rows
        )
        return headers + "\n" + body
    headers = ["benchmark", "RGBT", "RGB", "TIR", "(1-TIR/RGBT)/%", "(1-TIR/RGB)/%", "mRank"]
    rows = [
        [
            r.benchmark,
            _fmt_pct(r.rgbt),
            _fmt_pct(r.rgb),
            _fmt_pct(r.tir),
            f"{_fmt_pct(r.gap_fusion)} ({_fmt_rank(r.rank_fusion)})",
            f"{_fmt_pct(r.gap_modality)} ({_fmt_rank(r.rank_modality)})",
            _fmt_rank(r.mean_rank),
        ]
        for r in t.rows
    ]
    return _table(headers, rows)


def _export_trace(t: SelectionTrace, fmt: str) -> str:
    if fmt == "json-lines":
        lines = [_jline({"type": "selection-trace"})]
        for r in t.records:
            lines.append(_jline({
                "frame": r.frame,
                "chosen": r.chosen.value,
                "cs_rgb": r.cs_rgb,
                "cs_tir": r.cs_tir,
                "cs_rgbt": r.cs_rgbt,
            }))
        return "\n".join(lines) + "\n"
    if fmt == "csv":
        # confidences keep full precision so the trace round-trips
        return "frame,chosen,cs_rgb,cs_tir,cs_rgbt\n" + "".join(
            f"{r.frame},{r.chosen.value},{r.cs_rgb!r},{r.cs_tir!r},{r.cs_rgbt!r}\n"
            for r in t.records
        )
    rows = [
        [str(r.frame), r.chosen.value, _fmt(r.cs_rgb), _fmt(r.cs_tir), _fmt(r.cs_rgbt)]
        for r in t.records
    ]
    return _table(["frame", "chosen", "cs_rgb", "cs_tir", "cs_rgbt"], rows)


def _export_scenario(r: ScenarioReport, fmt: str) -> str:
    if fmt == "json-lines":
        head = {
            "type": "scenario-report",
            "n_sequences": r.n_sequences,
            "n_frames": r.n_frames,
            "seed": r.seed,
            "selection_ratios": list(r.selection_ratios),
        }
        lines = [_jline(head)]
        for policy, s in r.policies.items():
            lines += _scores_lines("policy", policy, s)
        return "\n".join(lines) + "\n"
    rr, rt, rf = r.selection_ratios
    rows = []
    for policy, s in r.policies.items():
        ratios = [_fmt(rr), _fmt(rt), _fmt(rf)] if policy == "selection" else ["", "", ""]
        rows.append([policy, _fmt(s.pr_at_threshold), _fmt(s.sr_auc), *ratios])
    headers = ["policy", "pr_at_threshold", "sr_auc", "ratio_rgb", "ratio_tir", "ratio_rgbt"]
    if fmt == "csv":
        return ",".join(headers) + "\n" + "".join(",".join(row) + "\n" for row in rows)
    return _table(headers, rows)


def export_report(
    report: EvaluationReport | BalancedIndicatorTable | ScenarioReport | SelectionTrace | Curve,
    fmt: str = "pretty-table",
) -> str:
    """Serialize a report; formats: csv, json-lines, pretty-table ("table").

    Column orders are stable. csv and pretty-table print reals with fixed
    precision (4 decimals; 1 decimal in percent tables); json-lines keeps
    full precision and round-trips through :func:`parse_report`
    byte-identically. Pretty tables are for terminals and carry no
    stability guarantee.
    """
    if fmt == "table":
        fmt = "pretty-table"
    if fmt not in _FORMATS:
        raise FusebenchError(f"unknown format {fmt!r}; use one of {_FORMATS}")
    if isinstance(report, Curve):
        return _export_curve(report, fmt)
    if isinstance(report, EvaluationReport):
        return _export_evaluation(report, fmt)
    if isinstance(report, BalancedIndicatorTable):
        return _export_balanced(report, fmt)
    if isinstance(report, ScenarioReport):
        return _export_scenario(report, fmt)
    if isinstance(report, SelectionTrace):
        return _export_trace(report, fmt)
    raise FusebenchError(f"cannot export object of type {type(report).__name__}")


# -- json-lines parsing (round-trip support) ----------------------------------


def _collect_scores(
    lines: list[dict], label_key: str
) -> dict[str, BenchmarkScores]:
    summaries: dict[str, dict] = {}
    curves: dict[tuple[str, str], Curve] = {}
    order: list[str] = []
    for obj in lines:
        label = obj[label_key]
        if label not in order:
            order.append(label)
        if "curve" in obj:
            curves[(label, obj["curve"])] = Curve(obj["thresholds"], obj["scores"])
        else:
            summaries[label] = obj
    out: dict[str, BenchmarkScores] = {}
    for label in order:
        out[label] = BenchmarkScores(
            pr_curve=curves[(label, "pr")],
            sr_curve=curves[(label, "sr")],
            pr_at_threshold=summaries[label]["pr_at_threshold"],
            sr_auc=summaries[label]["sr_auc"],
        )
    return out


def parse_report(
    text: str,
) -> EvaluationReport | BalancedIndicatorTable | ScenarioReport | SelectionTrace | Curve:
    """Parse a json-lines export back into its report object."""
    lines = [json.loads(line) for line in text.splitlines() if line.strip()]
    if not lines or "type" not in lines[0]:
        raise FusebenchError("not a json-lines report: missing type header")
    head = lines[0]
    kind = head["type"]
    if kind == "curve":
        return Curve(
            tuple(o["threshold"] for o in lines[1:]),
            tuple(o["score"] for o in lines[1:]),
        )
    if kind == "evaluation-report":
        scores = _collect_scores(lines[1:], "part")
        ratios = head.get("selection_ratios")
        return EvaluationReport(
            tracker=head["tracker"],
            pr_report_threshold=head["pr_report_threshold"],
            overall=scores["overall"],
            subsets={k: v for k, v in scores.items() if k != "overall"},
            sequence_counts=dict(head["sequence_counts"]),
            frame_counts=dict(head["frame_counts"]),
            selection_ratios=tuple(ratios) if ratios else None,
        )
    if kind == "balanced-table":
        rows = tuple(
            BalancedIndicatorRow(
                benchmark=o["benchmark"],
                rgbt=o["rgbt"],
                rgb=o["rgb"],
                tir=o["tir"],
                gap_fusion=o["gap_fusion"],
                gap_modality=o["gap_modality"],
                rank_fusion=o["rank_fusion"],
                rank_modality=o["rank_modality"],
                mean_rank=o["mean_rank"],
            )
            for o in lines[1:]
        )
        return BalancedIndicatorTable(rows, metric=head["metric"])
    if kind == "scenario-report":
        return ScenarioReport(
            policies=_collect_scores(lines[1:], "policy"),
            selection_ratios=tuple(head["selection_ratios"]),
            n_sequences=head["n_sequences"],
            n_frames=head["n_frames"],
            seed=head["seed"],
        )
    if kind == "selection-trace":
        records = tuple(
            SelectionRecord(
                frame=o["frame"],
                chosen=Expert(o["chosen"]),
                confidence=max(o["cs_rgb"], o["cs_tir"], o["cs_rgbt"]),
                cs_rgb=o["cs_rgb"],
                cs_tir=o["cs_tir"],
                cs_rgbt=o["cs_rgbt"],
            )
            for o in lines[1:]
        )
        return SelectionTrace(records)
    raise FusebenchError(f"unknown report type {kind!r}")
