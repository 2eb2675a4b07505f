"""File formats and the command-line interface, end to end.

Builds a tiny benchmark on disk (groundtruth files, manifest, a results
directory, confidence sidecars), then drives the `fusebench` CLI the same
way a shell script would.

Run with: python3 demos/05_files_and_cli.py
"""

import atexit
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

from fusebench import Box, FramePrediction, FrameTruth
from fusebench import io as fio

root = Path(tempfile.mkdtemp(prefix="fusebench-demo-"))
atexit.register(shutil.rmtree, root, ignore_errors=True)
(root / "gt").mkdir()
(root / "results").mkdir()
rng = np.random.default_rng(4)

# ---------------------------------------------------------------------------
# Groundtruth files: one `x,y,w,h` row per frame, all-zero row = absent.
# ---------------------------------------------------------------------------
entries = []
for i, tag in enumerate(["rgb", "tir"]):
    sid = f"seq{i}"
    frames = []
    for j in range(25):
        if j in (10, 11):
            frames.append(FrameTruth.absent())
        else:
            x, y = rng.uniform(10, 200, size=2)
            frames.append(FrameTruth.present(Box(float(x), float(y), 30.0, 24.0)))
    (root / "gt" / f"{sid}.txt").write_text(fio.write_groundtruth(frames))
    # a slightly noisy tracker as "results", declaring absences correctly
    preds = [
        FramePrediction.absent() if not f.is_present
        else FramePrediction(f.box.shifted(float(rng.normal(0, 3)), float(rng.normal(0, 3))))
        for f in frames
    ]
    (root / "results" / f"{sid}.txt").write_text(fio.write_predictions(preds))
    entries.append({"id": sid, "groundtruth": f"gt/{sid}.txt", "subset": tag})

(root / "manifest.json").write_text(json.dumps({"name": "demo", "sequences": entries}, indent=1))
print("wrote", root / "manifest.json")
print((root / "gt" / "seq0.txt").read_text().splitlines()[9:12], "<- absent frames are 0,0,0,0")


def cli(*args):
    print("\n$ fusebench", " ".join(args))
    proc = subprocess.run([sys.executable, "-m", "fusebench", *args], capture_output=True, text=True)
    print(proc.stdout, end="")
    if proc.returncode:
        print(proc.stderr, end="")
    return proc


cli("evaluate", "--manifest", str(root / "manifest.json"), "--results", str(root / "results"))

# Expert streams for fusion carry `.conf` confidence sidecars.
for name, conf in (("rgb", 0.4), ("tir", 0.7), ("rgbt", 0.9)):
    preds = [FramePrediction(Box(float(k), 5.0, 10.0, 10.0), conf) for k in range(25)]
    (root / f"{name}.txt").write_text(fio.write_predictions(preds))
    (root / f"{name}.txt.conf").write_text(fio.write_confidences(preds))

cli("fuse", "--rgb", str(root / "rgb.txt"), "--tir", str(root / "tir.txt"),
    "--rgbt", str(root / "rgbt.txt"), "--out", str(root / "fused.txt"))
print("trace head:", (root / "fused.txt.trace.csv").read_text().splitlines()[:2])

# Scriptable assertions: --expect turns the CLI into a test harness
# (exit code 1 on failure).
cli("evaluate", "--manifest", str(root / "manifest.json"), "--results", str(root / "results"),
    "--expect", "pr_at_threshold=1.0±0.2")

print("\nworkspace kept at", root)
