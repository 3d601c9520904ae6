"""List the statements of a source tree that a pytest run never executes.

    python tools/unreached.py [--source DIR] [PYTEST_ARG ...]

runs pytest in this process with the given arguments (default: the whole
suite) under ``sys.settrace``, recording the lines executed in frames
whose code lives under DIR (default: the package next to this script),
and prints, for each module of DIR, the statement lines that never ran,
then a total row.  A statement line is the first line of a statement
that compiles to bytecode; docstrings do not count.  The package must
be importable by the tests, as with ``PYTHONPATH=src``, and must not be
imported before pytest starts, since a module's top level runs only
once.  Code run in a subprocess or in another thread is not seen.  The
exit code is pytest's.

Line tracing makes a run about three times slower.  The script stands
in for a coverage tool, which this project does not depend on.
"""

from __future__ import annotations

import argparse
import ast
import os
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def statement_lines(source: str, filename: str) -> set[int]:
    """The first lines of the statements of ``source`` that compile to
    bytecode, docstrings left out."""
    tree = ast.parse(source, filename)
    docstrings = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr)
                    and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                docstrings.add(first)
    statements = {node.lineno for node in ast.walk(tree)
                  if isinstance(node, ast.stmt) and node not in docstrings}
    compiled = set()
    pending = [compile(source, filename, "exec")]
    while pending:
        code = pending.pop()
        compiled.update(line for _, _, line in code.co_lines() if line)
        pending.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return statements & compiled


def traced_run(source: Path, pytest_args: list[str]
               ) -> tuple[int, dict[str, set[int]]]:
    """Run pytest under a line tracer; return its exit code and the lines
    executed per real path of each file under ``source``."""
    prefix = os.path.realpath(source) + os.sep
    executed: dict[str, set[int]] = {}
    tracers: dict[str, object] = {}

    def trace(frame, event, arg):
        filename = frame.f_code.co_filename
        try:
            return tracers[filename]
        except KeyError:
            pass
        local = None
        path = os.path.realpath(filename)
        if path.startswith(prefix):
            add = executed.setdefault(path, set()).add

            def local(frame, event, arg):
                if event == "line":
                    add(frame.f_lineno)
                return local
        tracers[filename] = local
        return local

    sys.settrace(trace)
    try:
        code = pytest.main(pytest_args)
    finally:
        sys.settrace(None)
    return int(code), executed


def _ranges(lines: list[int]) -> str:
    spans: list[list[int]] = []
    for line in lines:
        if spans and line == spans[-1][1] + 1:
            spans[-1][1] = line
        else:
            spans.append([line, line])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in spans)


def report(source: Path, executed: dict[str, set[int]]) -> list[str]:
    """One row per module of ``source`` with statements that never ran,
    then the total."""
    rows, missed, total = [], 0, 0
    for path in sorted(source.glob("*.py")):
        lines = statement_lines(path.read_text(), str(path))
        never = sorted(lines - executed.get(os.path.realpath(path), set()))
        total += len(lines)
        missed += len(never)
        if never:
            rows.append(f"{path.name}: {len(never)} of {len(lines)}: "
                        f"{_ranges(never)}")
    rows.append(f"total: {missed} of {total} statements never ran")
    return rows


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0],
                                     allow_abbrev=False)
    parser.add_argument("--source", type=Path,
                        default=ROOT / "src" / "lockstep")
    args, pytest_args = parser.parse_known_args(argv)
    code, executed = traced_run(args.source, pytest_args)
    print("\n".join(report(args.source, executed)))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
