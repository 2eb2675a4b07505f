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


def subset_manifest(manifest: DatasetManifest, tag: str | Subset) -> DatasetManifest:
    """Restrict a manifest to one modality-dominance subset.

    Raises :class:`EmptySubsetError` when no sequence carries the tag.
    """
    if tag not in ("rgb", "tir"):
        raise FusebenchError(f"unknown subset tag {tag!r}; use 'rgb' or 'tir'")
    subset = Subset(tag)
    seqs = tuple(s for s in manifest.sequences if s.subset is subset)
    if not seqs:
        raise EmptySubsetError(subset.value)
    return DatasetManifest(seqs, name=manifest.name)


def compositional_eval(
    manifest: DatasetManifest,
    results: Mapping[str, Sequence[FramePrediction]],
    cfg: MetricConfig | None = None,
    tracker: str = "results",
) -> EvaluationReport:
    """Evaluate overall plus each non-empty modality-dominance subset.

    Untagged sequences contribute to the overall scores and to neither
    subset. A subset with no sequences is simply omitted from the report;
    use :func:`subset_manifest` to make an empty subset an error.
    """
    cfg = cfg or MetricConfig()
    overall = benchmark_scores(manifest, results, cfg)
    tags, lengths = [s.subset for s in manifest.sequences], [len(s) for s in manifest.sequences]
    return _report(overall, tags, lengths, cfg, tracker)


def _report(overall: BenchmarkScores, tags: Sequence[Subset], lengths: Sequence[int], cfg: MetricConfig,
            tracker: str) -> EvaluationReport:
    """The report of :func:`compositional_eval` from the overall scores and
    each sequence's subset tag and frame count, in manifest order."""
    subsets: dict[str, BenchmarkScores] = {}
    sequence_counts = {"overall": len(tags)}
    frame_counts = {"overall": sum(lengths)}
    for tag in Subset:  # rgb, tir, then the untagged
        rows = [i for i, t in enumerate(tags) if t is tag]
        key = "untagged" if tag is Subset.UNSPECIFIED else tag.value
        sequence_counts[key] = len(rows)
        frame_counts[key] = sum(lengths[i] for i in rows)
        if rows and tag is not Subset.UNSPECIFIED:
            subsets[key] = overall.of_sequences(rows, cfg)
    return EvaluationReport(tracker, cfg.pr_report_threshold, overall, subsets, sequence_counts, frame_counts)
