"""fusebench benchmark: the evaluate, simulate and fuse CLI paths, end to end
and per layer.

Usage, from the root of a checkout::

    python3 bench/run.py --workload evaluate --seed 1 --seconds 10 --trace 0

One client issues one round of CLI commands at a time (closed loop) until
``--seconds`` have passed, and at least three rounds. Each command runs in a
fresh single-threaded Python process (``child.py``); the benchmark process
only waits meanwhile. Inputs are generated from ``--seed`` in another
process (``generate.py``) before timing starts, and every command's output
is checked. With ``--trace 0`` the end-to-end metrics are printed; with
``--trace 1`` rounds alternate untraced and traced, and the per-layer
metrics from ``spans.py`` are printed instead.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. The line before it is the run's record:
commit, versions, CPU count, seed, input sizes and the sha256 of every
output file. Exit status 0 means a result was printed; the benchmark exits
2 without a result when the program's source is not beside it.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from child import pin_to_one_cpu, steal_seconds
from workloads import WORKLOADS, Workload

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
REQUIRED = ("src/fusebench/cli.py", "tests/conftest.py", "tests/protocol_oracle.py")
RUN_DEADLINE_S = 170.0
SETUP_REPEATS = 5
MIN_ROUNDS = 3

# acceptance criterion 1's PR table and the mean ranks it must give
PR_TABLE = (
    "benchmark,rgbt,rgb,tir\n"
    "GTOT,92.9,84.9,64.3\n"
    "RGBT234,87.5,81.6,76.5\n"
    "LasHeR,71.7,62.4,59.8\n"
    "VTUAV-ST,82.9,76.1,51.7\n"
    "MV-RGBT,65.3,44.0,39.7\n"
)
PR_MEAN_RANKS = ["3.5", "3.5", "2.5", "3.5", "2"]

TRACED_FUNCTIONS = (
    "io.parse_groundtruth",
    "io.parse_predictions",
    "io.parse_confidences",
    "io.load_manifest",
    "io.load_results",
    "io.load_expert_stream",
    "io.write_predictions",
    "io.write_confidences",
    "metrics.benchmark_scores",
    "fusion.fuse_streams",
    "fusion.selection_ratios",
    "simulate.run_scenario",
    "simulate.generate_trajectory",
    "simulate.degraded_mask",
    "simulate.degrade_modality",
    "simulate.synthesize_fused_expert",
    "simulate.oracle_best_selection",
    "analysis.compositional_eval",
    "analysis.export_report",
    "cli.main",
)
COUNTS = (
    "io.rows",
    "io.files_read",
    "io.bytes_read",
    "io.bytes_written",
    "metrics.frames_scored",
    "fusion.frames",
    "analysis.bytes_out",
)
E2E_UNITS = {"frames_per_s": "frames/s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}
PER_LAYER_UNITS = {
    **{f"{f}.{k}": unit for f in TRACED_FUNCTIONS for k, unit in (("self_s", "s"), ("calls", "count"))},
    **{c: "bytes" if "bytes" in c else "count" for c in COUNTS},
    "io.rows_per_s": "1/s",
    "metrics.scores_per_frame": "ratio",
    "trace.wall_s": "s",
    "trace.self_sum_s": "s",
    "trace.other_self_s": "s",
    "trace_overhead_s": "s",
}


def child_env(*pythonpath: str) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(str(ROOT / p) for p in pythonpath)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def spawn(argv: list[str], env: dict, stdout: Path, stderr: Path, timeout: float) -> tuple[int, float, float]:
    """Run ``argv`` to completion; return (exit status, peak RSS in MB, wall s
    net of steal).

    The child is reaped with ``wait4`` so its own peak RSS is known. It is
    killed once ``timeout`` seconds have passed.
    """
    with open(stdout, "wb") as out, open(stderr, "wb") as err:
        s0, t0 = steal_seconds(), time.perf_counter()
        proc = subprocess.Popen(argv, env=env, cwd=ROOT, stdout=out, stderr=err)
    timer = threading.Timer(max(timeout, 0.0), proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        timer.cancel()
    wall = time.perf_counter() - t0 - (steal_seconds() - s0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss / 1024.0, wall


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def tail(path: Path, n: int = 300) -> str:
    text = path.read_text(errors="replace").strip() if path.is_file() else ""
    return text[-n:]


@dataclass
class Command:
    """One finished CLI command: its cost, its output hashes and its errors."""

    rss_mb: float
    timing: dict | None
    hashes: dict[str, str]
    errors: list[str] = field(default_factory=list)


@dataclass
class Round:
    traced: bool
    commands: list[Command]

    @property
    def timed(self) -> bool:
        return all(c.timing is not None for c in self.commands)

    @property
    def wall_s(self) -> float:
        return sum(c.timing["wall_s"] for c in self.commands)

    @property
    def steal_s(self) -> float:
        return sum(c.timing["steal_s"] for c in self.commands)


def check_output(workload: Workload, index: int, out: Path, stdout: str) -> list[str]:
    """The workload's checks; output too malformed to check is a failure too."""
    try:
        return workload.check(index, out, stdout)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return [f"{workload.name} command {index}: malformed output: {exc!r}"]


def run_command(workload: Workload, index: int, out: Path, argv: list[str], traced: bool, deadline: float) -> Command:
    out.mkdir(parents=True)
    result, stdout, stderr = (out.with_name(f"{out.name}.{s}") for s in ("result.json", "stdout", "stderr"))
    status, rss_mb, _ = spawn(
        [sys.executable, str(BENCH / "child.py"), str(result), "1" if traced else "0", "--", *argv],
        child_env("src"), stdout, stderr, deadline - time.monotonic(),
    )
    timing = json.loads(result.read_text()) if status == 0 and result.is_file() else None
    if timing is None:
        errors = [f"{workload.name} command {index} exited {status}: {tail(stderr)}"]
    else:
        errors = check_output(workload, index, out, stdout.read_text(errors="replace"))
    hashes = {str(p.relative_to(out)): sha256(p) for p in sorted(out.rglob("*")) if p.is_file()}
    hashes["stdout"] = sha256(stdout)
    return Command(rss_mb, timing, hashes, errors)


def run_rounds(workload: Workload, seconds: float, trace: bool, work: Path, deadline: float) -> list[Round]:
    """Closed loop: rounds until ``seconds`` have passed, and at least
    ``MIN_ROUNDS``, so that the median over rounds drops an outlier.

    With ``trace`` the rounds alternate untraced and traced. Outputs must be
    byte-identical across all rounds, traced or not.
    """
    rounds: list[Round] = []
    t_end = time.monotonic() + seconds
    while (len(rounds) < MIN_ROUNDS or time.monotonic() < t_end) and time.monotonic() < deadline:
        traced = trace and len(rounds) % 2 == 1
        round_dir = work / f"round-{len(rounds)}"
        commands = [
            run_command(workload, k, out, argv, traced, deadline)
            for k, (out, argv) in enumerate(workload.commands(round_dir))
        ]
        shutil.rmtree(round_dir)
        rounds.append(Round(traced, commands))
    for r in rounds[1:]:
        for k, (first, cmd) in enumerate(zip(rounds[0].commands, r.commands)):
            if cmd.hashes != first.hashes:
                changed = sorted(n for n in set(cmd.hashes) | set(first.hashes) if cmd.hashes.get(n) != first.hashes.get(n))
                cmd.errors.append(f"{workload.name} command {k}: outputs differ from the first round: {changed}")
    return rounds


def measure_setup(work: Path, deadline: float) -> tuple[list[float], list[Command]]:
    """Wall seconds of fresh ``python -m fusebench analyze`` runs.

    A first, untimed run fills the bytecode and file caches, which users
    do not pay on every invocation.
    """
    table = work / "pr_table.csv"
    table.write_text(PR_TABLE)
    walls, commands = [], []
    for k in range(SETUP_REPEATS + 1):
        stdout, stderr = work / "setup.stdout", work / "setup.stderr"
        status, rss_mb, wall = spawn(
            [sys.executable, "-m", "fusebench", "analyze", str(table), "--format", "csv"],
            child_env("src"), stdout, stderr, deadline - time.monotonic(),
        )
        rows = [line.split(",") for line in stdout.read_text(errors="replace").splitlines()[1:]]
        errors = []
        if status != 0:
            errors.append(f"analyze exited {status}: {tail(stderr)}")
        elif [r[-1] for r in rows] != PR_MEAN_RANKS:
            errors.append(f"analyze: mean ranks {[r[-1] for r in rows]}, expected {PR_MEAN_RANKS}")
        commands.append(Command(rss_mb, None, {"stdout": sha256(stdout)}, errors))
        if k:
            walls.append(wall)
    return walls, commands


def end_to_end(workload: Workload, rounds: list[Round], setup_walls: list[float]) -> dict[str, float]:
    timed = [r for r in rounds if r.timed and not r.traced]
    return {
        "frames_per_s": statistics.median(workload.frames / (r.wall_s - r.steal_s) for r in timed),
        "cpu_s": statistics.median(sum(c.timing["cpu_s"] for c in r.commands) for r in timed),
        "peak_rss_mb": statistics.median(max(c.rss_mb for c in r.commands) for r in timed),
        "setup_s": statistics.median(setup_walls),
    }


def layer_metrics(workload: Workload, r: Round) -> dict[str, float]:
    """Per-layer metrics of one traced round, summed over its commands."""
    functions: dict[str, dict] = {}
    counts = dict.fromkeys(COUNTS, 0)
    for c in r.commands:
        trace = c.timing["trace"]
        for name, f in trace["functions"].items():
            acc = functions.setdefault(name, {"self_s": 0.0, "calls": 0})
            acc["self_s"] += f["self_s"]
            acc["calls"] += f["calls"]
        for name, v in trace["counts"].items():
            counts[name] = counts.get(name, 0) + v
    m: dict[str, float] = {}
    for name in TRACED_FUNCTIONS:
        f = functions.get(name, {"self_s": 0.0, "calls": 0})
        m[f"{name}.self_s"] = f["self_s"]
        m[f"{name}.calls"] = f["calls"]
    m.update(counts)
    io_s = sum(f["self_s"] for name, f in functions.items() if name.startswith("io."))
    m["io.rows_per_s"] = counts["io.rows"] / io_s if io_s else 0.0
    m["metrics.scores_per_frame"] = counts["metrics.frames_scored"] / workload.frames
    m["trace.wall_s"] = r.wall_s
    m["trace.self_sum_s"] = sum(f["self_s"] for f in functions.values())
    m["trace.other_self_s"] = m["trace.self_sum_s"] - sum(m[f"{n}.self_s"] for n in TRACED_FUNCTIONS)
    return m


def per_layer(workload: Workload, rounds: list[Round]) -> dict[str, float]:
    traced = [layer_metrics(workload, r) for r in rounds if r.traced and r.timed]
    plain = [r.wall_s for r in rounds if not r.traced and r.timed]
    m = {name: statistics.median(t[name] for t in traced) for name in traced[0]}
    m["trace_overhead_s"] = m["trace.wall_s"] - statistics.median(plain)
    return m


def commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True)
    return proc.stdout.strip() or None


def source_digest() -> str:
    """sha256 over the package source, for checkouts that are not git repos."""
    h = hashlib.sha256()
    for p in sorted((ROOT / "src" / "fusebench").rglob("*")):
        if p.is_file() and "__pycache__" not in p.parts:
            h.update(str(p.relative_to(ROOT)).encode() + b"\0" + p.read_bytes())
    return h.hexdigest()


def input_sizes(inputs: Path, frames: int) -> dict:
    files = [p for p in inputs.rglob("*") if p.is_file()] if inputs.is_dir() else []
    return {"frames": frames, "files": len(files), "bytes": sum(p.stat().st_size for p in files)}


def run(args: argparse.Namespace, work: Path) -> tuple[dict, dict]:
    deadline = time.monotonic() + RUN_DEADLINE_S
    cls = WORKLOADS[args.workload]
    inputs, expected = work / "input", None
    if cls.generated:
        expected_path = work / "expected.json"
        status, _, _ = spawn(
            [sys.executable, str(BENCH / "generate.py"), cls.name, str(args.seed), str(inputs), str(expected_path)],
            child_env("src", "tests"), work / "generate.stdout", work / "generate.stderr", deadline - time.monotonic(),
        )
        if status != 0:
            raise RuntimeError(f"input generation failed ({status}): {tail(work / 'generate.stderr', 2000)}")
        expected = json.loads(expected_path.read_text())
    workload = cls(args.seed, inputs, expected)

    setup_walls, setup_cmds = ([], []) if args.trace else measure_setup(work, deadline)
    rounds = run_rounds(workload, args.seconds, bool(args.trace), work, deadline)

    commands = setup_cmds + [c for r in rounds for c in r.commands]
    failed = sum(1 for c in commands if c.errors)
    if args.trace:
        if not any(r.traced and r.timed for r in rounds) or not any(not r.traced and r.timed for r in rounds):
            raise RuntimeError("no traced and untraced round pair completed")
        values, units = per_layer(workload, rounds), PER_LAYER_UNITS
    else:
        if not any(r.timed for r in rounds) or not setup_walls:
            raise RuntimeError("no round completed")
        values, units = end_to_end(workload, rounds, setup_walls), E2E_UNITS
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "commit": commit(),
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "nproc": os.cpu_count(),
        "inputs": input_sizes(inputs, workload.frames),
        "rounds": len(rounds),
        "round_wall_s": [r.wall_s for r in rounds if r.timed],
        "round_steal_s": [r.steal_s for r in rounds if r.timed],
        "error_rate": failed / len(commands),
        "errors": [e for c in commands for e in c.errors][:20],
        "outputs_sha256": [c.hashes for c in rounds[0].commands],
    }
    result = {
        "correct": failed == 0,
        "attempted": len(commands),
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }
    return record, result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [p for p in REQUIRED if not (ROOT / p).is_file()]
    if missing:
        print(f"error: program source not found beside the benchmark: {missing}", file=sys.stderr)
        return 2
    pin_to_one_cpu()
    work = BENCH / "_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        record, result = run(args, work)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for e in record["errors"]:
        print(f"check failed: {e}", file=sys.stderr)
    for name, m in result["metrics"].items():
        print(f"{name:42s} {m['value']:.6g} {m['unit']}", file=sys.stderr)
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
