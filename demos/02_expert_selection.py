"""Confidence-gated expert selection: the decision-level fusion rule.

Run with: python3 demos/02_expert_selection.py
"""

import numpy as np

from fusebench import (
    Box,
    Expert,
    ExpertStream,
    FramePrediction,
    TiePolicy,
    fuse_streams,
    select_expert,
    selection_ratios,
)

# A MoETrack expert's confidence is the maximum of its classification score
# map, computed inside the tracker; fusebench reads it from the `.conf`
# sidecar next to each prediction file.

# The frame's winner is simply the expert with the highest confidence.
print("argmax (0.9, 0.3, 0.7)   ->", select_expert(0.9, 0.3, 0.7))
print("tie (0.5, 0.5, 0.5)      ->", select_expert(0.5, 0.5, 0.5), "(fused preferred)")
print("tie under tir-first      ->", select_expert(0.5, 0.5, 0.5, TiePolicy.parse("tir-first")))

# ---------------------------------------------------------------------------
# Stream-level fusion: an imagined foggy sequence. The RGB expert is lost,
# the TIR expert is steady, and the fused expert occasionally edges ahead.
# ---------------------------------------------------------------------------
rng = np.random.default_rng(1)
n = 100


def stream(expert, quality):
    preds = []
    for i in range(n):
        box = Box(10.0 + i, 40.0, 18.0, 18.0)
        preds.append(FramePrediction(box, float(np.clip(quality(i) + rng.normal(0, 0.02), 0, 1))))
    return ExpertStream(expert=expert, predictions=tuple(preds))


rgb = stream(Expert.RGB, lambda i: 0.15)                       # fog: uninformative
tir = stream(Expert.TIR, lambda i: 0.80)                       # steady
rgbt = stream(Expert.RGBT, lambda i: 0.74 + 0.1 * (i % 9 == 0))  # sporadically ahead

fused, trace = fuse_streams(rgb, tir, rgbt)
r_rgb, r_tir, r_rgbt = selection_ratios(trace)
print(f"\nselected per expert over {n} frames: rgb {r_rgb:.2f}, tir {r_tir:.2f}, rgbt {r_rgbt:.2f}")
print("frames won by the fused expert:",
      [r.frame for r in trace.records if r.chosen is Expert.RGBT])
