#!/usr/bin/env python3
"""Line counts of the ltll modules, in total and without blanks, comments and docstrings.

Run from anywhere in the repository:

    python3 tools/src_lines.py              # the working tree
    python3 tools/src_lines.py --base HEAD  # the working tree beside a revision

Each ``src/ltll/*.py`` module gets two counts: ``lines``, every line of the
file, and ``code``, the lines that hold a token other than a comment, so
blank lines, comment lines and docstrings (the string that opens a module,
class or function body) are left out.  With ``--base`` the same counts of
each module at that revision, read with ``git show``, stand beside the
tree's; a module missing on one side reads 0 there.
"""

from __future__ import annotations

import argparse
import ast
import io
import subprocess
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = "src/ltll"
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
           tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_lines(tree: ast.AST) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def count(source: str) -> tuple[int, int]:
    """(lines, code) of one module's source."""
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _LAYOUT:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(source.splitlines()), len(code - _docstring_lines(ast.parse(source)))


def tree_sources() -> dict[str, str]:
    return {p.name: p.read_text(encoding="utf-8") for p in sorted((ROOT / PACKAGE).glob("*.py"))}


def revision_sources(rev: str) -> dict[str, str]:
    def git(*args: str) -> str:
        return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                              text=True).stdout

    names = git("ls-tree", "--name-only", f"{rev}:{PACKAGE}").split()
    return {name: git("show", f"{rev}:{PACKAGE}/{name}") for name in names
            if name.endswith(".py")}


def table(sides: list[dict[str, str]]) -> list[str]:
    """Rows of module and (lines, code) per side, then the totals."""
    names = sorted(set().union(*sides))
    rows, totals = [], [0] * (2 * len(sides))
    for name in names:
        cells = [c for side in sides for c in (count(side[name]) if name in side else (0, 0))]
        totals = [a + b for a, b in zip(totals, cells)]
        rows.append((name, cells))
    rows.append(("total", totals))
    return [f"{name:<18}" + "".join(f"{c:>11}" for c in cells) for name, cells in rows]


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--base", help="git revision to count beside the working tree")
    args = p.parse_args(argv)
    sides = [tree_sources()]
    header = f"{'module':<18}{'lines':>11}{'code':>11}"
    if args.base:
        sides.append(revision_sources(args.base))
        header += f"{'base lines':>11}{'base code':>11}"
    print(header)
    print("\n".join(table(sides)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
