"""Command-line front door (``fusebench``, ``python -m fusebench``): the
parser, ``analyze`` and the dispatch to :mod:`fusebench.cli`, which is
imported only by the commands it runs. Nothing here loads numpy.

Exit codes: 0 success, 1 an ``--expect`` check failed, 2 bad invocation,
3 data error (parse failures, unreadable or missing files, length
mismatches), reported as one ``error:`` line.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .errors import ConfigError, FusebenchError, _number
from .report import POOLING_MODES, balanced_indicators, export_report, load_score_table


class Expectation:
    """A ``key=value[±tol]`` assertion against a command's scalar outputs."""

    def __init__(self, text: str):
        try:
            key, rhs = text.split("=", 1)
            for sep in ("±", "+-"):
                if sep in rhs:
                    value, tol = rhs.split(sep, 1)
                    break
            else:
                value, tol = rhs, "0"
            self.key = key.strip()
            value, tol = float(value), float(tol)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"cannot parse expectation {text!r}; use key=value or key=value±tol"
            ) from None
        try:
            self.value = _number("expected value", value)
            self.tol = _number("tolerance", tol, 0.0)
        except ConfigError as exc:
            raise argparse.ArgumentTypeError(f"cannot parse expectation {text!r} ({exc})") from None

    def check(self, values: dict[str, float]) -> str | None:
        if self.key not in values:
            return f"expect {self.key}: no such output (have: {', '.join(sorted(values))})"
        got = values[self.key]
        if not abs(got - self.value) <= self.tol:  # a NaN output fails
            return f"expect {self.key}: got {got!r}, want {self.value!r} ± {self.tol!r}"
        return None


def _check_expectations(args, values: dict[str, float]) -> int:
    failed = False
    for exp in args.expect or []:
        msg = exp.check(values)
        if msg is not None:
            failed = True
            print(msg, file=sys.stderr)
    return 1 if failed else 0


def _write_text(*files: tuple[str | Path, str]) -> None:
    """Write each ``(path, text)`` as UTF-8 whatever the locale, after making every parent
    directory: one that cannot be made is named, and no file is written. A name taken from
    a path that the locale could not decode is written back as its own bytes."""
    for path, _ in files:
        try:
            Path(path).parent.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise FusebenchError(f"{path}: cannot make its directory: {exc}") from None
    for path, text in files:
        Path(path).write_text(text, encoding="utf-8", errors="surrogateescape")


def _emit(text: str, out: str | None = None) -> None:
    """Write ``text`` to the file ``out`` or else to stdout, as UTF-8 either
    way (see :func:`_write_text`); a stdout with no byte buffer takes text."""
    if out:
        _write_text((out, text))
    elif hasattr(sys.stdout, "buffer"):
        sys.stdout.flush()
        sys.stdout.buffer.write(text.encode("utf-8", "surrogateescape"))
    else:
        sys.stdout.write(text)


def cmd_analyze(args) -> dict[str, float]:
    rows = load_score_table(args.table)
    table = balanced_indicators(rows, metric=args.metric)
    _emit(export_report(table, args.format), args.out)
    keys = ("gap_fusion", "gap_modality", "rank_fusion", "rank_modality", "mean_rank")
    return {f"{row.benchmark}.{k}": getattr(row, k) for row in table.rows for k in keys}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fusebench",
        description="Decision-level fusion and tracking-benchmark evaluation toolkit.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--expect", action="append", type=Expectation, metavar="KEY=VALUE[±TOL]",
                       help="assert a named output value; failing checks exit 1")

    p = sub.add_parser("evaluate", help="score a results directory against a manifest")
    p.add_argument("--manifest", required=True, help="manifest JSON file")
    p.add_argument("--results", required=True, help="directory with <sequence id>.txt files")
    p.add_argument("--config", help="metrics config JSON")
    p.add_argument("--subset", choices=["rgb", "tir", "all"], default="all")
    p.add_argument("--pooling", choices=POOLING_MODES)
    p.add_argument("--format", choices=["csv", "json-lines", "table"], default="table")
    p.add_argument("--out", help="write the report here instead of stdout")
    add_common(p)

    p = sub.add_parser("fuse", help="fuse three expert streams by confidence")
    p.add_argument("--rgb", required=True, help="RGB predictions (expects a .conf sidecar)")
    p.add_argument("--tir", required=True, help="TIR predictions (expects a .conf sidecar)")
    p.add_argument("--rgbt", required=True, help="fused-expert predictions (expects a .conf sidecar)")
    p.add_argument("--tie", default="rgbt-first",
                   help="tie policy: rgbt-first|tir-first|rgb-first or e.g. 'rgbt,tir,rgb'")
    p.add_argument("--out", required=True, help="output path for the fused predictions")
    p.add_argument("--trace", help="trace csv path (default: <out>.trace.csv)")
    add_common(p)

    p = sub.add_parser("simulate", help="run a synthetic fusion-policy scenario")
    p.add_argument("--config", required=True,
                   help="scenario config JSON, or a bundled name "
                        "(mmw-one-modality-dead, common-scenario)")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--seed", type=int, help="override the config seed")
    add_common(p)

    p = sub.add_parser("analyze", help="balanced-benchmark indicators from a score table")
    p.add_argument("table", help="csv with benchmark,rgbt,rgb,tir columns")
    p.add_argument("--metric", default="PR", help="metric label for the table (default PR)")
    p.add_argument("--format", choices=["csv", "json-lines", "table"], default="table")
    p.add_argument("--out", help="write the table here instead of stdout")
    add_common(p)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "analyze":
            values = cmd_analyze(args)
        else:
            from . import cli  # the numpy-backed commands

            values = getattr(cli, f"cmd_{args.command}")(args)
    except (FusebenchError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    return _check_expectations(args, values)


if __name__ == "__main__":
    # fusebench.cli imports this module: let it find this run, not run it again
    sys.modules.setdefault("fusebench.__main__", sys.modules[__name__])
    sys.exit(main())
