"""Run one fusebench CLI command in this fresh process and record its cost.

Usage::

    PYTHONPATH=src python3 bench/child.py RESULT_JSON TRACE -- ARGV...

``TRACE`` is ``1`` to record spans (see ``spans.py``), else ``0``. The wall,
steal and CPU seconds cover ``fusebench.cli.main(ARGV)`` only, after the
import. The process is pinned to one CPU, so that the steal time of that
CPU is the time the hypervisor kept this process from running.
The result file is written only if ``main`` returns; a traceback leaves
none, which the benchmark counts as a failed command.
"""

from __future__ import annotations

import json
import os
import sys
import time
from pathlib import Path


def pin_to_one_cpu() -> None:
    """Pin this process, and the processes it starts, to one of its CPUs."""
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def steal_seconds() -> float:
    """Steal time of the CPUs this process may run on, in seconds: the time
    the hypervisor had them runnable but not running. It is 0.0 where
    ``/proc/stat`` does not report it."""
    names = {f"cpu{c}" for c in os.sched_getaffinity(0)}
    try:
        with open("/proc/stat") as f:
            rows = [line.split() for line in f if line.split(" ", 1)[0] in names]
    except OSError:
        return 0.0
    return sum(int(r[8]) for r in rows if len(r) > 8) / os.sysconf("SC_CLK_TCK")


def main(argv: list[str]) -> int:
    result_path, traced, sep, *cli_argv = argv
    if sep != "--":
        raise SystemExit("usage: child.py RESULT_JSON TRACE -- ARGV...")
    pin_to_one_cpu()
    import fusebench.cli as cli

    tracer = None
    if traced == "1":
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    try:
        s0, t0, c0 = steal_seconds(), time.perf_counter(), time.process_time()
        status = cli.main(cli_argv)
        wall, cpu = time.perf_counter() - t0, time.process_time() - c0
        steal = steal_seconds() - s0
    finally:
        if tracer is not None:
            tracer.uninstall()
    sys.stdout.flush()
    record = {"status": status, "wall_s": wall, "steal_s": steal, "cpu_s": cpu}
    if tracer is not None:
        record["trace"] = tracer.summary()
    Path(result_path).write_text(json.dumps(record))
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
