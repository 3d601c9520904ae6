"""Count the lines of each ``src/lockstep`` module by kind.

Every line is exactly one of: docstring (a line of a module, class or
function docstring), blank, comment (a comment and nothing else) or code
(any other line that a token of the program touches, a line of a
multi-line string that is not a docstring included).  "Code lines" in
ROADMAP.md mean the code column of this script.  Two last columns, outside
the line kinds, count ``options``, the parameters with a default value of
the public top-level functions and of the public methods, ``__init__``
included, of public top-level classes, and ``tables``, the shared tables:
each function defined under ``lru_cache`` or wrapped as
``lru_cache(...)(fn)``, and each ``Seeds(...)`` built.

    python tools/linecount.py [DIR]

prints one row per module of DIR (default: the package next to this
script) and a total row.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

COLUMNS = ("total", "code", "docstring", "comment", "blank")

_NOT_CODE = (tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING)


def docstring_lines(tree: ast.AST) -> set[int]:
    """The line numbers of every module, class and function docstring."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(source: str) -> dict[str, int]:
    """The count of each kind in ``COLUMNS`` for one module's source."""
    docs = docstring_lines(ast.parse(source))
    code, comments = set(), set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type == tokenize.COMMENT:
            comments.add(tok.start[0])
        elif tok.type not in _NOT_CODE:
            code.update(range(tok.start[0], tok.end[0] + 1))
    lines = source.splitlines()
    blank = {k for k, line in enumerate(lines, 1) if not line.strip()}
    code -= docs
    return {"total": len(lines), "code": len(code), "docstring": len(docs),
            "comment": len(comments - code - docs),
            "blank": len(blank - code - docs)}


def options(source: str) -> int:
    """The defaulted parameters of one module's public top-level functions
    and of the public methods and ``__init__`` of its public classes."""
    defs = []
    for node in ast.parse(source).body:
        if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            defs += [m for m in node.body
                     if isinstance(m, (ast.FunctionDef, ast.AsyncFunctionDef))
                     and (m.name == "__init__" or not m.name.startswith("_"))]
        elif (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
              and not node.name.startswith("_")):
            defs.append(node)
    return sum(len(d.args.defaults) + sum(v is not None for v in d.args.kw_defaults)
               for d in defs)


def _names(node: ast.AST, name: str) -> bool:
    """Whether ``node`` is ``name`` or ``module.name``, or a call of it."""
    if isinstance(node, ast.Call):
        node = node.func
    return (isinstance(node, ast.Name) and node.id == name
            or isinstance(node, ast.Attribute) and node.attr == name)


def tables(source: str) -> int:
    """The shared tables of one module: its functions decorated with
    ``lru_cache``, its ``lru_cache(...)(fn)`` wrappings and its
    ``Seeds(...)`` calls."""
    found = 0
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            found += any(_names(d, "lru_cache") for d in node.decorator_list)
        elif isinstance(node, ast.Call):
            found += (isinstance(node.func, ast.Call)
                      and _names(node.func, "lru_cache")) or _names(node, "Seeds")
    return found


def main(argv: list[str]) -> int:
    root = Path(argv[0]) if argv else Path(__file__).parent.parent / "src" / "lockstep"
    rows = {}
    for path in sorted(root.glob("*.py")):
        source = path.read_text()
        rows[path.name] = {**count(source), "options": options(source),
                           "tables": tables(source)}
    columns = (*COLUMNS, "options", "tables")
    rows["total"] = {column: sum(row[column] for row in rows.values())
                     for column in columns}
    print(f"{'module':<16}" + "".join(f"{column:>10}" for column in columns))
    for name, row in rows.items():
        print(f"{name:<16}" + "".join(f"{row[column]:>10}" for column in columns))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
