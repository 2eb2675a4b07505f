"""The three benchmark workloads: their commands and their output checks.

A workload issues one *round* of CLI commands at a time (closed loop, one
client). ``frames`` is the number of input frames one round processes.
Every check returns a list of error messages; an empty list means the
command's output is correct.
"""

from __future__ import annotations

import json
from pathlib import Path

from generate import PRECISION_THRESHOLDS, SUCCESS_THRESHOLDS

SCENARIOS = ("mmw-one-modality-dead", "common-scenario")
SCENARIO_FRAMES = 100 * 200  # n_sequences x n_frames of each bundled scenario
POLICIES = ("selection", "always-fuse", "rgb-only", "tir-only", "oracle")


def read_json_lines(path: Path) -> list[dict]:
    return [json.loads(line) for line in path.read_text().splitlines() if line.strip()]


def check_evaluate(out: Path, stdout: str, expected: dict) -> list[str]:
    """The report's overall and subset curves equal the flat oracle's exactly."""
    report = out / "report.jsonl"
    if not report.is_file():
        return ["evaluate: no report.jsonl"]
    curves: dict[str, dict] = {}
    for obj in read_json_lines(report)[1:]:
        if "curve" in obj:
            curves.setdefault(obj["part"], {})[obj["curve"]] = obj
    errors = []
    for part, want in expected["curves"].items():
        for kind, grid in (("sr", SUCCESS_THRESHOLDS), ("pr", PRECISION_THRESHOLDS)):
            got = curves.get(part, {}).get(kind)
            if got is None:
                errors.append(f"evaluate: {part} {kind} curve missing")
                continue
            if got["thresholds"] != grid:
                errors.append(f"evaluate: {part} {kind} thresholds differ from the default grid")
            if got["scores"] != want[kind]:
                bad = [th for th, g, w in zip(grid, got["scores"], want[kind]) if g != w] or ["length"]
                errors.append(f"evaluate: {part} {kind} differs from the oracle at thresholds {bad[:5]}")
    return errors


def check_simulate(scenario: str, out: Path, stdout: str) -> list[str]:
    """Expected files exist and the paper's headline orderings hold on sr_auc."""
    names = ["summary.csv", "report.jsonl"]
    names += [f"curves/{p}-{k}.csv" for p in POLICIES for k in ("sr", "pr")]
    missing = [n for n in names if not (out / n).is_file()]
    if missing:
        return [f"{scenario}: missing output files {missing}"]
    head, *policies = read_json_lines(out / "report.jsonl")
    sr = {o["policy"]: o["sr_auc"] for o in policies if "sr_auc" in o}
    errors = []
    if head.get("n_sequences", 0) * head.get("n_frames", 0) != SCENARIO_FRAMES:
        errors.append(f"{scenario}: report covers {head.get('n_sequences')} x {head.get('n_frames')} frames")
    if sorted(sr) != sorted(POLICIES):
        return errors + [f"{scenario}: policies {sorted(sr)}"]
    if scenario == "mmw-one-modality-dead" and not sr["selection"] > sr["always-fuse"]:
        errors.append(f"{scenario}: selection {sr['selection']} does not beat always-fuse {sr['always-fuse']}")
    if scenario == "common-scenario":
        for single in ("rgb-only", "tir-only"):
            if not sr["always-fuse"] > sr[single]:
                errors.append(f"{scenario}: always-fuse {sr['always-fuse']} does not beat {single} {sr[single]}")
    for policy, v in sr.items():
        if sr["oracle"] < v:
            errors.append(f"{scenario}: oracle {sr['oracle']} below {policy} {v}")
    return errors


def check_fuse(out: Path, stdout: str, expected: dict) -> list[str]:
    """Fused file, its sidecar and the trace follow the benchmark's argmax;
    the printed selection ratios match it."""
    errors = []
    for name, key in (("fused.txt", "fused"), ("fused.txt.conf", "fused_conf")):
        path = out / name
        got = path.read_text() if path.is_file() else ""
        if got != expected[key]:
            got_lines, want_lines = got.splitlines(), expected[key].splitlines()
            first = next(
                (i for i, (g, w) in enumerate(zip(got_lines, want_lines)) if g != w),
                min(len(got_lines), len(want_lines)),
            )
            errors.append(f"fuse: {name} differs from the expected argmax at line {first + 1}")
    trace = out / "fused.txt.trace.csv"
    chosen = [row.split(",")[1] for row in trace.read_text().splitlines()[1:]] if trace.is_file() else []
    if chosen != expected["chosen"]:
        errors.append("fuse: trace csv chosen column differs from the expected argmax")
    if stdout.strip() != expected["ratios_line"]:
        errors.append(f"fuse: printed {stdout.strip()!r}, expected {expected['ratios_line']!r}")
    return errors


class Workload:
    """One round = ``commands(round_dir)``; each command writes into its own
    directory and is checked by ``check(index, out_dir, stdout)``."""

    name: str
    generated = False  # inputs come from generate.py

    def __init__(self, seed: int, inputs: Path, expected: dict | None):
        self.seed = seed
        self.inputs = inputs
        self.expected = expected

    @property
    def frames(self) -> int:
        return self.expected["frames"]

    def commands(self, round_dir: Path) -> list[tuple[Path, list[str]]]:
        raise NotImplementedError

    def check(self, index: int, out: Path, stdout: str) -> list[str]:
        raise NotImplementedError


class Evaluate(Workload):
    name = "evaluate"
    generated = True

    def commands(self, round_dir):
        out = round_dir / "evaluate"
        return [(out, [
            "evaluate", "--manifest", str(self.inputs / "manifest.json"),
            "--results", str(self.inputs / "results"),
            "--format", "json-lines", "--out", str(out / "report.jsonl"),
        ])]

    def check(self, index, out, stdout):
        return check_evaluate(out, stdout, self.expected)


class Simulate(Workload):
    name = "simulate"
    frames = SCENARIO_FRAMES * len(SCENARIOS)

    def commands(self, round_dir):
        return [
            (round_dir / s, ["simulate", "--config", s, "--out", str(round_dir / s), "--seed", str(self.seed)])
            for s in SCENARIOS
        ]

    def check(self, index, out, stdout):
        return check_simulate(SCENARIOS[index], out, stdout)


class Fuse(Workload):
    name = "fuse"
    generated = True

    def commands(self, round_dir):
        out = round_dir / "fuse"
        return [(out, [
            "fuse",
            "--rgb", str(self.inputs / "rgb.txt"),
            "--tir", str(self.inputs / "tir.txt"),
            "--rgbt", str(self.inputs / "rgbt.txt"),
            "--out", str(out / "fused.txt"),
        ])]

    def check(self, index, out, stdout):
        return check_fuse(out, stdout, self.expected)


WORKLOADS = {w.name: w for w in (Evaluate, Simulate, Fuse)}
