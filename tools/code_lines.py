"""Count the code lines of Python source files.

A code line is one that is not blank, not a comment alone, and not part of a
module, class or function docstring. Lines inside other multi-line strings
count, as does a line that holds only a closing bracket.

Usage: python tools/code_lines.py [PATH ...]

Each PATH is a file or a directory, searched for ``*.py``; the default is
``src/magnonsteer``. Prints each file's count, then the total.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}
_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def code_lines(source: str) -> int:
    """The number of code lines in one file's source text."""
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _NOT_CODE:
            lines.update(range(token.start[0], token.end[0] + 1))
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, _SCOPES) and ast.get_docstring(node, clean=False) is not None:
            lines.difference_update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    return len(lines)


def main(paths: list[str]) -> int:
    files = sorted(f for p in map(Path, paths or ["src/magnonsteer"])
                   for f in (p.rglob("*.py") if p.is_dir() else [p]))
    total = 0
    for path in files:
        count = code_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{count:6d}  {path}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
