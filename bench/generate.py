"""Input generators for the benchmark workloads.

Each generator turns a seed into input files in a directory of their own
and returns what a correct run must produce. The program under test receives
only those files and CLI arguments. ``run.py`` calls this module as a
script, so that generation (and its memory) stays out of both the
benchmark process and the timed command processes::

    PYTHONPATH=src:tests python3 bench/generate.py evaluate 7 in/ expected.json

The same seed always gives byte-identical files.
"""

from __future__ import annotations

import json
import math
import sys
from collections import namedtuple
from pathlib import Path

import numpy as np

# evaluate: the shape of RGBT234 / LasHeR-sized benchmarks
EVAL_SEQUENCES = 500
EVAL_MIN_LEN = 10
EVAL_MAX_LEN = 3000
SUBSET_TAGS = ("rgb", "tir", "none")

# fuse: about 28 minutes of 30 fps video per stream
FUSE_FRAMES = 50_000
FUSE_ABSENT_P = 0.1
# column order of the benchmark's own argmax: first maximum wins, which is
# the tie order rgbt, tir, rgb of the CLI's default tie policy
FUSE_TIE_ORDER = ("rgbt", "tir", "rgb")

# the protocol's default threshold grids (README: 21-point overlap grid,
# 51-point pixel grid)
SUCCESS_THRESHOLDS = [float(t) for t in np.linspace(0.0, 1.0, 21)]
PRECISION_THRESHOLDS = [float(t) for t in np.linspace(0.0, 50.0, 51)]

_Sequence = namedtuple("_Sequence", "id frames")


def _row(box) -> str:
    """A box as one line of a groundtruth/prediction file (absent: all zero)."""
    if box is None:
        return "0,0,0,0"
    return f"{box.x!r},{box.y!r},{box.w!r},{box.h!r}"


def sequence_lengths(rng: np.random.Generator, n: int, lo: int, hi: int) -> np.ndarray:
    """``n`` lengths log-uniform on ``[lo, hi]``, in random order.

    The lengths sit at the midpoints of ``n`` equal-probability strata, so
    the total frame count is the same for every seed and per-run costs
    compare across seeds.
    """
    q = (np.arange(n) + 0.5) / n
    lengths = np.rint(np.exp(math.log(lo) + q * (math.log(hi) - math.log(lo)))).astype(int)
    return rng.permutation(lengths)


def evaluate_benchmark(seed: int, n_sequences: int, max_len: int) -> tuple[list, dict, list[str]]:
    """Sequences, one tracker's predictions and the subset tags of the
    evaluate workload, from the per-frame generators of the test suite."""
    from conftest import random_prediction, random_truth

    rng = np.random.default_rng(seed)
    sequences: list[_Sequence] = []
    results: dict[str, list] = {}
    tags: list[str] = []
    for i, t in enumerate(sequence_lengths(rng, n_sequences, EVAL_MIN_LEN, max_len)):
        sid = f"seq-{i:04d}"
        frames = tuple(random_truth(rng) for _ in range(int(t)))
        results[sid] = [random_prediction(rng, g) for g in frames]
        sequences.append(_Sequence(sid, frames))
        tags.append(SUBSET_TAGS[i % len(SUBSET_TAGS)])
    return sequences, results, tags


def oracle_curves(sequences: list, results: dict, tags: list[str]) -> dict[str, dict[str, list[float]]]:
    """The flat oracle's success ("sr") and precision ("pr") curves for the
    whole benchmark and for each subset.

    Bit-identical to ``protocol_oracle.ref_benchmark_curves``, but each frame
    is scored once instead of once per threshold and part. The per-frame
    overlap and centre distance come from the oracle's own functions. A
    sequence's indicator count per threshold is an exact integer, and the
    sequence scores are summed left to right, as the oracle sums them.
    """
    from protocol_oracle import ref_center_distance, ref_overlap_value

    success, precision = np.array(SUCCESS_THRESHOLDS), np.array(PRECISION_THRESHOLDS)
    # "correct" always counts and "wrong" never does, at every finite threshold
    no_distance = {"correct": -math.inf, "wrong": math.inf}
    counts: dict[str, tuple[list[int], list[int]]] = {}
    for seq in sequences:
        pairs = list(zip(seq.frames, results[seq.id]))
        both_absent = np.array([g.box is None and p.box is None for g, p in pairs])
        overlap = np.array([ref_overlap_value(g, p) for g, p in pairs])
        distance = np.array([no_distance.get(d, d) for d in (ref_center_distance(g, p) for g, p in pairs)])
        sr = ((overlap[:, None] > success) | both_absent[:, None]).sum(axis=0)
        pr = (distance[:, None] <= precision).sum(axis=0)
        counts[seq.id] = (sr.tolist(), pr.tolist())

    curves = {}
    for part in ("overall", "rgb", "tir"):
        seqs = sequences if part == "overall" else [s for s, t in zip(sequences, tags) if t == part]
        curve = {}
        for kind, k in (("sr", 0), ("pr", 1)):
            scores = []
            for j in range(len(SUCCESS_THRESHOLDS if kind == "sr" else PRECISION_THRESHOLDS)):
                acc = 0.0
                for seq in seqs:
                    acc += counts[seq.id][k][j] / len(seq.frames)
                scores.append(acc / len(seqs))
            curve[kind] = scores
        curves[part] = curve
    return curves


def generate_evaluate(
    seed: int,
    out: Path,
    n_sequences: int = EVAL_SEQUENCES,
    max_len: int = EVAL_MAX_LEN,
) -> dict:
    """An on-disk benchmark (manifest, groundtruth, one tracker's results)
    and the flat oracle's curves for the whole benchmark and each subset."""
    sequences, results, tags = evaluate_benchmark(seed, n_sequences, max_len)
    (out / "gt").mkdir(parents=True)
    (out / "results").mkdir()
    for seq, tag in zip(sequences, tags):
        (out / "gt" / f"{seq.id}.txt").write_text("".join(_row(g.box) + "\n" for g in seq.frames))
        (out / "results" / f"{seq.id}.txt").write_text("".join(_row(p.box) + "\n" for p in results[seq.id]))
    entries = [
        {"id": seq.id, "groundtruth": f"gt/{seq.id}.txt", "subset": tag}
        for seq, tag in zip(sequences, tags)
    ]
    (out / "manifest.json").write_text(json.dumps({"name": "bench", "sequences": entries}, indent=1))
    curves = oracle_curves(sequences, results, tags)
    return {"frames": sum(len(s.frames) for s in sequences), "curves": curves}


def generate_fuse(seed: int, out: Path, n_frames: int = FUSE_FRAMES) -> dict:
    """Three expert streams with ``.conf`` sidecars, and the fused output
    that the benchmark's own argmax over the confidences expects."""
    rng = np.random.default_rng(seed)
    out.mkdir(parents=True, exist_ok=True)
    lines: dict[str, list[str]] = {}
    conf: dict[str, np.ndarray] = {}
    for expert in ("rgb", "tir", "rgbt"):
        absent = rng.random(n_frames) < FUSE_ABSENT_P
        xy = np.round(rng.uniform(0.0, 600.0, size=(n_frames, 2)), 2).tolist()
        wh = np.round(rng.uniform(5.0, 120.0, size=(n_frames, 2)), 2).tolist()
        # three decimals make exact ties common enough to exercise the tie policy
        conf[expert] = np.round(rng.random(n_frames), 3)
        lines[expert] = [
            "0,0,0,0" if a else f"{x!r},{y!r},{w!r},{h!r}"
            for a, (x, y), (w, h) in zip(absent.tolist(), xy, wh)
        ]
        conf_lines = [repr(c) for c in conf[expert].tolist()]
        (out / f"{expert}.txt").write_text("".join(s + "\n" for s in lines[expert]))
        (out / f"{expert}.txt.conf").write_text("".join(s + "\n" for s in conf_lines))

    stacked = np.stack([conf[e] for e in FUSE_TIE_ORDER], axis=1)
    chosen = [FUSE_TIE_ORDER[k] for k in np.argmax(stacked, axis=1).tolist()]
    counts = {e: chosen.count(e) for e in ("rgb", "tir", "rgbt")}
    ratios = ", ".join(f"{counts[e] / n_frames:.2f}" for e in ("rgb", "tir", "rgbt"))
    return {
        "frames": n_frames,
        "ties": int(((stacked == stacked.max(axis=1, keepdims=True)).sum(axis=1) > 1).sum()),
        "chosen": chosen,
        "fused": "".join(lines[e][i] + "\n" for i, e in enumerate(chosen)),
        "fused_conf": "".join(repr(float(conf[e][i])) + "\n" for i, e in enumerate(chosen)),
        "ratios_line": f"selection ratios (rgb, tir, rgbt): {ratios}",
    }


GENERATORS = {"evaluate": generate_evaluate, "fuse": generate_fuse}


def main(argv: list[str]) -> int:
    workload, seed, inputs, expected = argv[0], int(argv[1]), Path(argv[2]), Path(argv[3])
    expected.write_text(json.dumps(GENERATORS[workload](seed, inputs)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
