"""Span and count recording for the traced benchmark run.

:class:`Tracer` wraps the public functions of fusebench's layer modules
from the outside; the package source is not edited. A function is
replaced wherever a caller looks it up: in its defining module and in
every fusebench module that imported the name. Each call records a span
``[name, start, end, parent index]``; a few boundaries also add counts.
Spans stay in memory until :meth:`Tracer.summary` reduces them.

Per-frame functions get no spans: at one call per frame the wrapper would
cost more than the work it measures. Their time lands in the caller's
self time, as does the cost of the ``model`` constructors.
"""

from __future__ import annotations

import inspect
import os
import sys
import time
from collections import Counter, defaultdict

LAYERS = ("io", "metrics", "fusion", "simulate", "analysis", "cli")
PER_FRAME = frozenset({
    "iou",
    "box_iou",
    "center_distance",
    "frame_success_indicator",
    "frame_precision_indicator",
    "select_expert",
    "calibrate_confidence",
})
WRAPPED_MARK = "__bench_wrapped__"


def covered_time(children: list[tuple[float, float]], start: float, end: float) -> float:
    """Length of the union of ``children`` intervals clipped to ``[start, end]``."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(children):
        lo, hi = max(lo, start), min(hi, end)
        if hi <= lo:
            continue
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[list]) -> list[float]:
    """Per span: its duration minus the time its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for _, start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    return [
        (end - start) - covered_time(children[i], start, end)
        for i, (_, start, end, _) in enumerate(spans)
    ]


def _parse_count(tracer: "Tracer", parent: str, args, kwargs, result) -> None:
    tracer.counts["io.rows"] += len(result)
    if parent.startswith("io.parse_"):
        return  # the outer parse call already counted its files
    for text in (*args, *kwargs.values()):
        if isinstance(text, str):
            tracer.counts["io.files_read"] += 1
            tracer.counts["io.bytes_read"] += len(text.encode())


def _manifest_count(tracer: "Tracer", parent: str, args, kwargs, result) -> None:
    path = args[0] if args else kwargs["path"]
    tracer.counts["io.files_read"] += 1
    tracer.counts["io.bytes_read"] += os.path.getsize(path)


def _write_count(tracer: "Tracer", parent: str, args, kwargs, result) -> None:
    tracer.counts["io.bytes_written"] += len(result.encode())


def _scored_count(tracer: "Tracer", parent: str, args, kwargs, result) -> None:
    manifest = args[0] if args else kwargs["manifest"]
    tracer.counts["metrics.frames_scored"] += sum(len(s.frames) for s in manifest.sequences)


def _fused_count(tracer: "Tracer", parent: str, args, kwargs, result) -> None:
    tracer.counts["fusion.frames"] += len(result[0])


def _export_count(tracer: "Tracer", parent: str, args, kwargs, result) -> None:
    tracer.counts["analysis.bytes_out"] += len(result.encode())


COUNTERS = {
    "io.parse_groundtruth": _parse_count,
    "io.parse_predictions": _parse_count,
    "io.parse_confidences": _parse_count,
    "io.load_manifest": _manifest_count,
    "io.write_groundtruth": _write_count,
    "io.write_predictions": _write_count,
    "io.write_confidences": _write_count,
    "metrics.benchmark_scores": _scored_count,
    "fusion.fuse_streams": _fused_count,
    "analysis.export_report": _export_count,
}


class Tracer:
    """Records spans and counts while installed; see the module docstring."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def install(self) -> None:
        """Wrap every public layer function; fusebench.cli must be imported."""
        modules = [m for n, m in sorted(sys.modules.items()) if n.split(".")[0] == "fusebench"]
        for layer in LAYERS:
            mod = sys.modules[f"fusebench.{layer}"]
            for name in mod.__all__:
                fn = getattr(mod, name)
                if name in PER_FRAME or not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                wrapper = self._wrap(f"{layer}.{name}", fn)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is fn:
                            self._patched.append((m, attr, fn))
                            setattr(m, attr, wrapper)

    def uninstall(self) -> None:
        """Put every original function back where it was found."""
        for m, attr, fn in reversed(self._patched):
            setattr(m, attr, fn)
        self._patched.clear()

    def _wrap(self, name: str, fn):
        tracer = self
        counter = COUNTERS.get(name)

        def wrapper(*args, **kwargs):
            stack = tracer._stack
            parent = stack[-1] if stack else -1
            index = len(tracer.spans)
            span = [name, time.perf_counter(), 0.0, parent]
            tracer.spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if counter is not None:
                counter(tracer, tracer.spans[parent][0] if parent >= 0 else "", args, kwargs, result)
            return result

        wrapper.__name__ = fn.__name__
        wrapper.__qualname__ = fn.__qualname__
        wrapper.__doc__ = fn.__doc__
        setattr(wrapper, WRAPPED_MARK, fn)
        return wrapper

    def summary(self) -> dict:
        """Self seconds and call counts per function, plus the counts."""
        functions: dict[str, dict] = {}
        for (name, *_), own in zip(self.spans, self_times(self.spans)):
            f = functions.setdefault(name, {"self_s": 0.0, "calls": 0})
            f["self_s"] += own
            f["calls"] += 1
        return {"functions": functions, "counts": dict(self.counts)}
