"""Subset evaluation: overall and per-modality-subset scores of a tracker."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

from .errors import EmptySubsetError, FusebenchError
from .metrics import BenchmarkScores, MetricConfig, benchmark_scores
from .model import DatasetManifest, FramePrediction, Subset

__all__ = [
    "EvaluationReport",
    "subset_manifest",
    "compositional_eval",
]


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


def subset_manifest(manifest: DatasetManifest, tag: str | Subset) -> DatasetManifest:
    """Restrict a manifest to one modality-dominance subset.

    Raises :class:`EmptySubsetError` when no sequence carries the tag.
    """
    if tag not in ("rgb", "tir"):
        raise FusebenchError(f"unknown subset tag {tag!r}; use 'rgb' or 'tir'")
    subset = Subset(tag)
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
    for tag in ("rgb", "tir"):
        subset = Subset(tag)
        rows = [i for i, s in enumerate(manifest.sequences) if s.subset is subset]
        sequence_counts[tag] = len(rows)
        frame_counts[tag] = sum(len(manifest.sequences[i]) for i in rows)
        if rows:
            subsets[tag] = overall.of_sequences(rows, cfg)
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
