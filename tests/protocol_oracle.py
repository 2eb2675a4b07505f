"""Flat reference implementation of the evaluation protocol.

Written directly from the protocol statement (per-frame overlap/center
distance with absence overrides, strict ``> th`` success, ``<= th``
precision, mean over frames then mean over sequences) using plain Python
loops over frames and thresholds. It shares no code with the library's
vectorized engine; the tests assert bit-exact agreement.

The raw interval-overlap arithmetic follows the library's documented
convention (overlap computed in coordinates anchored at the right-most low
edge, ratio clamped to [0, 1]), and so does the centre distance (the
correctly rounded ``sqrt(dx*dx + dy*dy)``), so exact float equality is
well-defined;
everything above that level -- totalization, indicators, pooling,
reductions -- is re-derived here independently.
"""

from __future__ import annotations

import math

import numpy as np


def ref_box_iou(a, b) -> float:
    ox = max(a.x, b.x)
    ix = max(0.0, min((a.x - ox) + a.w, (b.x - ox) + b.w))
    oy = max(a.y, b.y)
    iy = max(0.0, min((a.y - oy) + a.h, (b.y - oy) + b.h))
    inter = ix * iy
    union = a.w * a.h + b.w * b.h - inter
    if union <= 0.0:
        return 0.0
    return min(1.0, max(0.0, inter / union))


def ref_overlap_value(g, p) -> float:
    """Per-frame overlap value with the absence overrides applied."""
    if g.box is None and p.box is None:
        return 1.0
    if g.box is None or p.box is None:
        return 0.0
    return ref_box_iou(g.box, p.box)


def ref_center_distance(g, p):
    """Distance for present/present frames, else 'correct'/'wrong' strings."""
    if g.box is None and p.box is None:
        return "correct"
    if g.box is None or p.box is None:
        return "wrong"
    gx, gy = g.box.x + g.box.w / 2.0, g.box.y + g.box.h / 2.0
    px, py = p.box.x + p.box.w / 2.0, p.box.y + p.box.h / 2.0
    dx, dy = gx - px, gy - py
    return math.sqrt(dx * dx + dy * dy)


def ref_success_indicator(g, p, th: float) -> int:
    if g.box is None and p.box is None:
        return 1
    return 1 if ref_overlap_value(g, p) > th else 0


def ref_precision_indicator(g, p, th: float) -> int:
    d = ref_center_distance(g, p)
    if d == "correct":
        return 1
    if d == "wrong":
        return 0
    return 1 if d <= th else 0


def ref_benchmark_curves(
    sequences, results, success_thresholds, precision_thresholds
) -> tuple[list[float], list[float]]:
    """Benchmark success/precision scores per threshold, by flat loops.

    ``sequences`` is an iterable of objects with ``id`` and ``frames``;
    ``results`` maps ids to prediction lists. The per-sequence mean is the
    exact integer count divided by the frame count; sequence scores are
    accumulated left-to-right, mirroring the documented summation order.
    """
    sequences = list(sequences)
    m = len(sequences)
    sr_scores: list[float] = []
    pr_scores: list[float] = []
    for th in success_thresholds:
        acc = 0.0
        for seq in sequences:
            preds = results[seq.id]
            count = 0
            for g, p in zip(seq.frames, preds):
                count += ref_success_indicator(g, p, th)
            acc += count / len(seq.frames)
        sr_scores.append(acc / m)
    for th in precision_thresholds:
        acc = 0.0
        for seq in sequences:
            preds = results[seq.id]
            count = 0
            for g, p in zip(seq.frames, preds):
                count += ref_precision_indicator(g, p, th)
            acc += count / len(seq.frames)
        pr_scores.append(acc / m)
    return sr_scores, pr_scores


def ref_curves(values, ths, thp, pooling: str):
    """``fusebench.metrics._curves`` by broadcasting: one ``(..., K, T)``
    indicator array per grid, summed over the frames (frame pooling), or
    each sequence's ``math.fsum`` mean binarized (sequence-mean pooling).
    The library sorts and binary-searches instead; the tests assert the
    two agree bit for bit."""
    overlap, distance, correct = values
    t = overlap.shape[-1]
    if pooling == "frame":
        correct = correct[..., None, :]
        sr_count = ((overlap[..., None, :] > ths[:, None]) | correct).sum(axis=-1)
        pr_count = ((distance[..., None, :] <= thp[:, None]) | correct).sum(axis=-1)
        return sr_count / t, pr_count / t
    raw_distance = np.where(np.isnan(distance), correct, distance)

    def mean(v):
        sums = [math.fsum(row) for row in v.reshape(-1, t).tolist()]
        return (np.array(sums) / t).reshape(v.shape[:-1] + (1,))

    return (mean(overlap) > ths).astype(float), (mean(raw_distance) <= thp).astype(float)
