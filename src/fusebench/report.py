"""Numpy-free reporting: score tables, benchmark-balance indicators and the
one report renderer.

Nothing here imports numpy, so ``fusebench analyze`` never loads it. The
schemas of the numpy-backed reports name their classes, which are looked up
on the package when such a report is exported or parsed.

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

import csv
import io
import json
import math
from dataclasses import asdict, dataclass
from itertools import chain
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, NamedTuple, Sequence

import fusebench as fb

from .errors import FusebenchError, NonPositiveScoreError, _reading

if TYPE_CHECKING:
    from .analysis import EvaluationReport
    from .fusion import SelectionTrace
    from .metrics import BenchmarkScores, Curve, ScenarioReport

__all__ = [
    "POOLING_MODES",
    "BalancedIndicatorRow",
    "BalancedIndicatorTable",
    "balanced_indicators",
    "export_report",
    "parse_report",
]

POOLING_MODES = ("frame", "sequence-mean")  # see fusebench.metrics


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


_SCORE_TABLE_HEADER = ["benchmark", "rgbt", "rgb", "tir"]


def _is_number(text: str) -> bool:
    try:
        float(text)
        return True
    except ValueError:
        return False


def load_score_table(path: str | Path) -> list[tuple[str, float, float, float]]:
    """Load a ``benchmark,rgbt,rgb,tir`` CSV table of per-benchmark scores.

    The header row is optional; blank rows are skipped. Scores must be
    finite and positive. Errors name the file and line.
    """
    path = Path(path)
    rows: list[tuple[str, float, float, float]] = []
    with _reading(path), path.open(newline="", encoding="utf-8") as fh:
        for line_no, record in enumerate(csv.reader(fh), start=1):
            if not record or not "".join(record).strip():
                continue
            with _reading(f"line {line_no}"):
                if len(record) != 4:
                    raise FusebenchError(f"expected 4 columns, got {len(record)}")
                name, *scores = [c.strip() for c in record]
                if line_no == 1 and not _is_number(scores[0]):
                    if [name.lower(), *[s.lower() for s in scores]] != _SCORE_TABLE_HEADER:
                        raise FusebenchError(f"header must be {','.join(_SCORE_TABLE_HEADER)}")
                    continue
                try:
                    values = [float(s) for s in scores]
                except ValueError:
                    raise FusebenchError("scores must be numbers") from None
                for label, v in zip(_SCORE_TABLE_HEADER[1:], values):
                    if not (math.isfinite(v) and v > 0):
                        raise NonPositiveScoreError(f"{label} score must be positive, got {v!r}")
                rows.append((name, *values))
        if not rows:
            raise FusebenchError("no benchmark rows")
    return rows


# -- export ------------------------------------------------------------------

_FORMATS = ("csv", "json-lines", "pretty-table")
_jline = json.JSONEncoder(ensure_ascii=False).encode  # json.dumps without an encoder per call


def _fmt(v: float) -> str:
    return f"{v:.4f}"


def _fmt_pct(v: float) -> str:
    return f"{v:.1f}"


def _fmt_rank(v: float) -> str:
    return f"{int(v)}" if float(v).is_integer() else f"{v:.1f}"


def _table(headers: Sequence[str], rows: Iterable[Sequence[str]]) -> str:
    rows = list(rows)
    widths = [len(h) for h in headers]
    for row in rows:
        widths = [max(w, len(c)) for w, c in zip(widths, row)]
    def line(cells):
        return "  ".join(c.ljust(w) for c, w in zip(cells, widths)).rstrip()
    out = [line(headers), line(["-" * w for w in widths])]
    out.extend(line(r) for r in rows)
    return "\n".join(out) + "\n"


def _scores_records(key: str, parts: Iterable[tuple[str, BenchmarkScores]]) -> Iterator[dict]:
    for label, s in parts:
        yield {key: label, "pr_at_threshold": s.pr_at_threshold, "sr_auc": s.sr_auc}
        for curve, c in (("pr", s.pr_curve), ("sr", s.sr_curve)):
            yield {key: label, "curve": curve, "thresholds": c.thresholds, "scores": c.scores}


def _parse_scores(records: Iterable[dict], key: str) -> dict[str, BenchmarkScores]:
    parts: dict[str, dict] = {}
    for o in records:
        part = parts.setdefault(o[key], {})
        if "curve" in o:
            part[o["curve"] + "_curve"] = fb.Curve(o["thresholds"], o["scores"])
        else:
            part.update(pr_at_threshold=o["pr_at_threshold"], sr_auc=o["sr_auc"])
    return {label: fb.BenchmarkScores(**part) for label, part in parts.items()}


def _curve_records(c: Curve):
    return {}, ({"threshold": t, "score": s} for t, s in zip(c.thresholds, c.scores))


def _curve_cells(c: Curve, fmt: str):
    return ["threshold", "score"], [[_fmt(t), _fmt(s)] for t, s in zip(c.thresholds, c.scores)]


def _parse_curve(head: dict, records: Iterable[dict]) -> Curve:
    points = [(o["threshold"], o["score"]) for o in records]
    return fb.Curve(tuple(t for t, _ in points), tuple(s for _, s in points))


def _eval_parts(r: EvaluationReport) -> list[tuple[str, BenchmarkScores]]:
    return [("overall", r.overall), *((tag, r.subsets[tag]) for tag in ("rgb", "tir") if tag in r.subsets)]


def _evaluation_records(r: EvaluationReport):
    head = {"tracker": r.tracker, "pr_report_threshold": r.pr_report_threshold,
            "sequence_counts": dict(r.sequence_counts), "frame_counts": dict(r.frame_counts),
            "selection_ratios": list(r.selection_ratios) if r.selection_ratios else None}
    return head, _scores_records("part", _eval_parts(r))


def _evaluation_cells(r: EvaluationReport, fmt: str):
    headers = ["part", "sequences", "frames", "pr_at_threshold", "sr_auc"]
    return headers, [
        [part, str(r.sequence_counts.get(part, "")), str(r.frame_counts.get(part, "")),
         _fmt(s.pr_at_threshold), _fmt(s.sr_auc)]
        for part, s in _eval_parts(r)
    ]


def _parse_evaluation(head: dict, records: Iterable[dict]) -> EvaluationReport:
    ratios = head.get("selection_ratios")
    fields = dict(
        tracker=head["tracker"],
        pr_report_threshold=head["pr_report_threshold"],
        sequence_counts=dict(head["sequence_counts"]),
        frame_counts=dict(head["frame_counts"]),
        selection_ratios=tuple(ratios) if ratios else None,
    )
    subsets = _parse_scores(records, "part")
    return fb.EvaluationReport(overall=subsets.pop("overall"), subsets=subsets, **fields)


def _balanced_records(t: BalancedIndicatorTable):
    return {"metric": t.metric}, map(asdict, t.rows)


def _balanced_cells(t: BalancedIndicatorTable, fmt: str):
    rows = [
        [r.benchmark, _fmt_pct(r.rgbt), _fmt_pct(r.rgb), _fmt_pct(r.tir),
         _fmt_pct(r.gap_fusion), _fmt_rank(r.rank_fusion),
         _fmt_pct(r.gap_modality), _fmt_rank(r.rank_modality), _fmt_rank(r.mean_rank)]
        for r in t.rows
    ]
    if fmt == "csv":
        return ["benchmark", "rgbt", "rgb", "tir", "gap_fusion", "rank_fusion",
                "gap_modality", "rank_modality", "mean_rank"], rows
    headers = ["benchmark", "RGBT", "RGB", "TIR", "(1-TIR/RGBT)/%", "(1-TIR/RGB)/%", "mRank"]
    return headers, [[*c[:4], f"{c[4]} ({c[5]})", f"{c[6]} ({c[7]})", c[8]] for c in rows]


def _parse_balanced(head: dict, records: Iterable[dict]) -> BalancedIndicatorTable:
    return BalancedIndicatorTable(
        metric=head["metric"], rows=tuple(BalancedIndicatorRow(**o) for o in records)
    )


def _scenario_records(r: ScenarioReport):
    head = {"n_sequences": r.n_sequences, "n_frames": r.n_frames, "seed": r.seed,
            "selection_ratios": list(r.selection_ratios)}
    return head, _scores_records("policy", r.policies.items())


def _scenario_cells(r: ScenarioReport, fmt: str):
    ratios = [_fmt(v) for v in r.selection_ratios]
    headers = ["policy", "pr_at_threshold", "sr_auc", "ratio_rgb", "ratio_tir", "ratio_rgbt"]
    return headers, [
        [policy, _fmt(s.pr_at_threshold), _fmt(s.sr_auc), *(ratios if policy == "selection" else ["", "", ""])]
        for policy, s in r.policies.items()
    ]


def _parse_scenario(head: dict, records: Iterable[dict]) -> ScenarioReport:
    return fb.ScenarioReport(
        selection_ratios=tuple(head["selection_ratios"]), n_sequences=head["n_sequences"],
        n_frames=head["n_frames"], seed=head["seed"], policies=_parse_scores(records, "policy"),
    )


_TRACE_COLUMNS = ("frame", "chosen", "cs_rgb", "cs_tir", "cs_rgbt")


def _trace_rows(t: SelectionTrace) -> Iterator[tuple]:
    """One tuple of :data:`_TRACE_COLUMNS` per frame, read from the columns."""
    names = [e.value for e in fb.EXPERTS]
    return ((i, names[c], *cs) for i, (c, cs) in enumerate(zip(t.chosen.tolist(), t.confidences.tolist())))


def _trace_records(t: SelectionTrace):
    return {}, (dict(zip(_TRACE_COLUMNS, row)) for row in _trace_rows(t))


def _trace_cells(t: SelectionTrace, fmt: str):
    # csv confidences keep full precision so the trace round-trips
    f = repr if fmt == "csv" else _fmt
    return _TRACE_COLUMNS, ((str(i), e, f(a), f(b), f(c)) for i, e, a, b, c in _trace_rows(t))


def _parse_trace(head: dict, records: Iterable[dict]) -> SelectionTrace:
    experts = fb.EXPERTS
    rows = [(experts.index(fb.Expert(o["chosen"])), (o["cs_rgb"], o["cs_tir"], o["cs_rgbt"])) for o in records]
    return fb.SelectionTrace([c for c, _ in rows], [cs for _, cs in rows])


class _Schema(NamedTuple):
    """One report type, rendered to every format from these three functions."""

    cls: str  # the report class, an attribute of the package
    type: str  # the json-lines header's "type"
    records: Callable  # report -> (header fields, json-lines records), full precision
    cells: Callable  # (report, "csv" | "pretty-table") -> (headers, iterable of rows of cells)
    parse: Callable  # (header, iterator over records) -> report; reads header fields first
    quoted: bool = False  # a csv cell may need quoting (free-text names); else rows are joined


_SCHEMAS = (
    _Schema("Curve", "curve", _curve_records, _curve_cells, _parse_curve),
    _Schema("EvaluationReport", "evaluation-report", _evaluation_records, _evaluation_cells, _parse_evaluation),
    _Schema("BalancedIndicatorTable", "balanced-table", _balanced_records, _balanced_cells, _parse_balanced,
            quoted=True),
    _Schema("ScenarioReport", "scenario-report", _scenario_records, _scenario_cells, _parse_scenario),
    _Schema("SelectionTrace", "selection-trace", _trace_records, _trace_cells, _parse_trace),
)


def export_report(
    report: EvaluationReport | BalancedIndicatorTable | ScenarioReport | SelectionTrace | Curve,
    fmt: str = "pretty-table",
) -> str:
    """Serialize a report; formats: csv, json-lines, pretty-table ("table").

    Column orders are stable. csv and pretty-table print reals with fixed
    precision (4 decimals; 1 decimal in percent tables), except that a
    selection trace's csv keeps full precision; json-lines keeps full
    precision and round-trips through :func:`parse_report`
    byte-identically. Pretty tables are for terminals and carry no
    stability guarantee.
    """
    if fmt == "table":
        fmt = "pretty-table"
    if fmt not in _FORMATS:
        raise FusebenchError(f"unknown format {fmt!r}; use one of {_FORMATS}")
    # match by name first: the class of a report not made yet is not imported
    names = {c.__name__ for c in type(report).__mro__}
    schema = next((s for s in _SCHEMAS if s.cls in names and isinstance(report, getattr(fb, s.cls))), None)
    if schema is None:
        raise FusebenchError(f"cannot export object of type {type(report).__name__}")
    if fmt == "json-lines":
        head, records = schema.records(report)
        return "\n".join(map(_jline, chain([{"type": schema.type, **head}], records))) + "\n"
    headers, rows = schema.cells(report, fmt)
    if fmt == "csv" and not schema.quoted:
        return "".join(",".join(row) + "\n" for row in chain([headers], rows))
    if fmt == "csv":
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows(chain([headers], rows))
        return buf.getvalue()
    return _table(headers, rows)


def parse_report(
    text: str,
) -> EvaluationReport | BalancedIndicatorTable | ScenarioReport | SelectionTrace | Curve:
    """Parse a json-lines export back into its report object.

    Malformed input raises :class:`FusebenchError`, naming the line at fault
    when there is one.
    """
    lines = [(n, line) for n, line in enumerate(text.splitlines(), 1) if line.strip()]
    at = None

    def objects():
        # keeps `at` on the line being read; None once every line is read
        nonlocal at
        for at, line in lines:
            obj = json.loads(line)
            if not isinstance(obj, dict):
                raise TypeError(f"expected a json object, got {type(obj).__name__}")
            yield obj
        at = None

    try:
        objs = objects()
        head = next(objs, {})
        schema = next((s for s in _SCHEMAS if s.type == head.get("type")), None)
        if schema is None:
            raise FusebenchError(f"not a json-lines report: header type {head.get('type')!r} is unknown")
        return schema.parse(head, objs)
    except FusebenchError:
        raise
    except json.JSONDecodeError as e:
        raise FusebenchError(f"line {at}: not json: {e.msg}") from e
    except (KeyError, TypeError, ValueError) as e:
        detail = f"missing key {e}" if isinstance(e, KeyError) else e
        raise FusebenchError(f"{f'line {at}' if at else 'report'}: malformed report: {detail}") from e
