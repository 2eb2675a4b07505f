"""Statement-deletion mutation probe of ``src/fusebench``.

Each statement of each module is replaced by ``pass``, one mutant at a
time, in a copy of the repository. A mutant is killed when the tests fail
on it. Each mutant first runs its module's own test files; one that
survives them runs the whole tier-1 suite under ``-W error``. A statement
whose deletion survives both is either code that no test pins or code that
is not needed. Docstrings, ``pass`` itself and the imports that serve
only annotations, which are never evaluated, are not mutated.

Survivors listed in ``KEPT`` are kept on purpose, each with the reason no
test can or should tell it apart. The exit status is 1 if any other mutant
survives. Standard library only; pytest does not collect this file. The
mutants run one after another, never in parallel. Run it from anywhere::

    python tests/mutants.py              # every module: about two hours on one core
    python tests/mutants.py model io     # only these modules
    python tests/mutants.py --list       # print the mutants and exit
"""

from __future__ import annotations

import argparse
import ast
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = Path("src") / "fusebench"

# the tests each module's mutants run first; the cheapest file that can kill them comes first
OWN_TESTS = {
    "__init__": ["test_package.py"],
    "__main__": ["test_cli.py"],
    "analysis": ["test_analysis.py", "test_golden_reports.py"],
    "cli": ["test_cli.py"],
    "errors": ["test_model.py", "test_io.py"],
    "fusion": ["test_fusion.py", "test_model.py"],
    "io": ["test_io.py"],
    "metrics": ["test_metrics.py", "test_sweep.py"],
    "model": ["test_model.py"],
    "report": ["test_analysis.py", "test_golden_reports.py", "test_cli.py"],
    "simulate": ["test_simulate.py", "test_golden_simulate.py"],
}

# (module, enclosing function or class, the statement's first line) -> why its deletion is kept
KEPT = {
    ("report", "_is_number", "return False"):
        "its only caller negates it, and `not None` is `not False`",
    ("__main__", "Expectation.check", "return None"):
        "a function that falls off its end returns None; kept for consistent returns",
    ("model", "FrameColumns", "def _frames(self) -> tuple:"):
        "a placeholder each subclass overrides; no code builds a bare FrameColumns",
    ("model", "FrameColumns._frames", "raise NotImplementedError"):
        "the same placeholder's body",
    ("simulate", "", "from .fusion import fuse_streams"):
        "unused here; bench/test_bench.py checks that the tracer wraps a function another module imported",
}

# the slowest test files, run last in the whole suite
SLOW_TESTS = ("test_acceptance.py", "test_cli.py", "test_demos.py")

TIER_1 = ["-m", "pytest", "-q", "-x", "-W", "error", "-p", "no:cacheprovider", "--continue-on-collection-errors"]


class Mutant:
    """One statement of one module, to be replaced by ``pass``: from its
    first decorator, if it has one, to its end."""

    def __init__(self, module: str, owner: str, node: ast.stmt, lines: list[bytes]):
        self.module, self.owner = module, owner
        decorators = getattr(node, "decorator_list", [])
        self.start = (decorators[0].lineno if decorators else node.lineno, node.col_offset)
        self.end = (node.end_lineno, node.end_col_offset)
        first = lines[node.lineno - 1]
        text = first[node.col_offset:node.end_col_offset] if node.lineno == node.end_lineno else first
        self.text = text.decode().strip()
        self.key = (module, owner, self.text)

    def __str__(self) -> str:
        return f"{self.module}.py:{self.start[0]} {self.owner or '<module>'}: {self.text}"

    def apply(self, source: str) -> str:
        """``source`` with this statement replaced by ``pass``; the other lines keep their numbers."""
        lines = source.encode().splitlines(keepends=True)
        (first, col), (last, end_col) = self.start, self.end
        middle = b"pass" + b"\n" * (last - first)
        return b"".join([*lines[: first - 1], lines[first - 1][:col], middle, lines[last - 1][end_col:],
                         *lines[last:]]).decode()


def _is_docstring(node: ast.stmt) -> bool:
    return isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant) and isinstance(node.value.value, str)


def _names(node: ast.AST, annotations: bool = True) -> set[str]:
    """The names ``node`` reads, with or without those in annotations."""
    names = {node.id} if isinstance(node, ast.Name) else set()
    for field, value in ast.iter_fields(node):
        if annotations or field not in ("annotation", "returns"):
            for child in value if isinstance(value, list) else [value]:
                if isinstance(child, ast.AST):
                    names |= _names(child, annotations)
    return names


def _annotation_only(tree: ast.Module) -> set[ast.stmt]:
    """The statements that serve only annotations, which a module under
    ``from __future__ import annotations`` never evaluates: that import,
    ``if TYPE_CHECKING:`` blocks and imports of names only annotations read."""
    future = [n for n in tree.body if isinstance(n, ast.ImportFrom) and n.module == "__future__"]
    if not any(alias.name == "annotations" for n in future for alias in n.names):
        return set()
    only = _names(tree) - _names(tree, annotations=False)
    found = set(future)
    for node in ast.walk(tree):
        if isinstance(node, ast.If) and isinstance(node.test, ast.Name) and node.test.id == "TYPE_CHECKING":
            found.add(node)
        elif isinstance(node, (ast.Import, ast.ImportFrom)) and {
                (alias.asname or alias.name).split(".")[0] for alias in node.names} <= only:
            found.add(node)
    return found


def mutants(module: str, source: str) -> list[Mutant]:
    """The mutants of ``source``, in source order. An ``elif`` is not one
    (its body's statements are), nor is a docstring, ``pass`` or a
    statement that serves only annotations (:func:`_annotation_only`)."""
    tree = ast.parse(source)
    lines, skipped = source.encode().splitlines(), _annotation_only(tree)
    found = []

    def visit(body: list[ast.stmt], owner: str) -> None:
        for node in body:
            elif_ = lines[node.lineno - 1][node.col_offset:].startswith(b"elif")
            if not (_is_docstring(node) or isinstance(node, ast.Pass) or elif_ or node in skipped):
                found.append(Mutant(module, owner, node, lines))
            inner = f"{owner}.{node.name}".lstrip(".") if isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) else owner
            for field in ("body", "orelse", "finalbody"):
                visit(getattr(node, field, []), inner)
            for handler in getattr(node, "handlers", []):
                visit(handler.body, inner)
            for case in getattr(node, "cases", []):
                visit(case.body, inner)

    visit(tree.body, "")
    return found


def _run(copy: Path, tests: list[str], timeout: float | None = None) -> tuple[bool, float]:
    """Whether the tests pass in ``copy``, and the seconds they took; a run
    past ``timeout`` seconds (a mutant that loops forever) fails."""
    env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
    start = time.monotonic()
    # its own process group, so that a timeout also ends the commands the tests started
    with subprocess.Popen([sys.executable, *TIER_1, *tests], cwd=copy, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL, start_new_session=True) as proc:
        try:
            passed = proc.wait(timeout) == 0
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            passed = False
    return passed, time.monotonic() - start


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("modules", nargs="*", metavar="MODULE",
                        help=f"modules to mutate (default: all of {', '.join(OWN_TESTS)})")
    parser.add_argument("--list", action="store_true", help="print the mutants and exit")
    args = parser.parse_args(argv)
    if unknown := set(args.modules) - set(OWN_TESTS):
        parser.error(f"unknown modules: {', '.join(sorted(unknown))}")
    modules = args.modules or list(OWN_TESTS)
    sources = {m: (ROOT / PACKAGE / f"{m}.py").read_text(encoding="utf-8") for m in modules}
    todo = [mutant for m in modules for mutant in mutants(m, sources[m])]
    if args.list:
        print(*todo, sep="\n")
        return 0
    # the whole suite, the slowest files last: -x stops a killed mutant at its first failure
    suite = sorted((str(p.relative_to(ROOT)) for p in (ROOT / "tests").glob("test_*.py")),
                   key=lambda name: (Path(name).name in SLOW_TESTS, name))

    with tempfile.TemporaryDirectory(prefix="fusebench-mutants-") as tmp:
        copy = Path(tmp)
        for part in ("src", "tests", "demos", "pyproject.toml"):
            (shutil.copytree if (ROOT / part).is_dir() else shutil.copy)(ROOT / part, copy / part)
        passed, seconds = _run(copy, suite)
        if not passed:
            print("the tests fail without any mutant", file=sys.stderr)
            return 2
        limits = {"suite": 5 * seconds + 30}  # tests -> seconds a run may take: five times the clean run
        survivors, start = [], time.monotonic()
        for i, mutant in enumerate(todo, 1):
            own = [str(Path("tests") / t) for t in OWN_TESTS[mutant.module]]
            if mutant.module not in limits:
                limits[mutant.module] = 5 * _run(copy, own)[1] + 30
            path = copy / PACKAGE / f"{mutant.module}.py"
            path.write_text(mutant.apply(sources[mutant.module]), encoding="utf-8")
            try:
                survived = _run(copy, own, limits[mutant.module])[0] and _run(copy, suite, limits["suite"])[0]
            finally:
                path.write_text(sources[mutant.module], encoding="utf-8")
            if survived:
                survivors.append(mutant)
                reason = KEPT.get(mutant.key)
                print(f"[{i}/{len(todo)}] survived: {mutant}" + (f"  (kept: {reason})" if reason else ""),
                      flush=True)
        unlisted = [m for m in survivors if m.key not in KEPT]
    print(f"{len(todo)} mutants, {len(survivors)} survived, {len(unlisted)} not on the kept list "
          f"({time.monotonic() - start:.0f} s)")
    for mutant in unlisted:
        print(f"unlisted survivor: {mutant}")
    return 1 if unlisted else 0


if __name__ == "__main__":
    sys.exit(main())
