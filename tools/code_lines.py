"""Count code lines in Python files, per file and per function.

A code line is a line that holds a token other than a comment: every
line of a multi-line string counts, blank and comment-only lines do
not, and docstrings (the leading string of a module, class or function)
are left out. A function's count covers its whole body, nested
functions included.

    python tools/code_lines.py search_engine_ray/          # per file + total
    python tools/code_lines.py search_engine_ray/search.py --functions 20
"""

from __future__ import annotations

import argparse
import ast
import io
import os
import sys
import tokenize

_SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
         tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_lines(tree: ast.AST) -> set[int]:
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> tuple[set[int], ast.AST]:
    """The set of code line numbers of ``source`` and its syntax tree."""
    tree = ast.parse(source)
    lines: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _SKIP:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return lines - _docstring_lines(tree), tree


def functions(tree: ast.AST, lines: set[int]) -> list[tuple[str, int]]:
    """(qualified name, code lines) for every function in ``tree``."""
    out: list[tuple[str, int]] = []

    def visit(node: ast.AST, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = prefix + child.name
                if not isinstance(child, ast.ClassDef):
                    span = range(child.lineno, child.end_lineno + 1)
                    out.append((name, sum(1 for n in span if n in lines)))
                visit(child, name + ".")
            else:
                visit(child, prefix)

    visit(tree, "")
    return out


def _py_files(paths: list[str]) -> list[str]:
    files = []
    for p in paths:
        if os.path.isdir(p):
            for root, dirs, names in os.walk(p):
                dirs[:] = sorted(d for d in dirs if d != "__pycache__")
                files += [os.path.join(root, n) for n in sorted(names) if n.endswith(".py")]
        else:
            files.append(p)
    return files


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("paths", nargs="+", help="files or directories")
    ap.add_argument("--functions", type=int, default=0, metavar="N",
                    help="also list the N largest functions")
    args = ap.parse_args(argv)
    total, funcs = 0, []
    for path in _py_files(args.paths):
        with open(path, encoding="utf-8") as f:
            lines, tree = code_lines(f.read())
        total += len(lines)
        print(f"{len(lines):7d}  {path}")
        funcs += [(n, f"{path}:{name}") for name, n in functions(tree, lines)]
    print(f"{total:7d}  total")
    for n, name in sorted(funcs, key=lambda t: (-t[0], t[1]))[:args.functions]:
        print(f"{n:7d}  {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
