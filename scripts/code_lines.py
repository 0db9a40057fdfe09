"""Count the lines of Python source that hold code.

Usage::

    python3 scripts/code_lines.py [FILE ...]

A line holds code unless it is blank, holds only a comment, or holds only
part of a module, class or function docstring.  A statement or a string
literal that spans several lines counts each of them.  Without arguments
the files are ``src/dqopt/*.py``.  Prints one ``<count> <file>`` line per
file and a total, as ``wc -l`` does.  The script uses only the standard
library.
"""

from __future__ import annotations

import ast
import io
import os
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# tokens that are no code: layout, comments, and the file's start and end
_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}
_HAS_DOCSTRING = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def _docstring_lines(tree: ast.Module) -> set:
    """The line numbers of every module, class and function docstring in ``tree``."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, _HAS_DOCSTRING) and ast.get_docstring(node, clean=False) is not None:
            doc = node.body[0]
            lines.update(range(doc.lineno, doc.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of lines of ``source`` that hold code."""
    docs = _docstring_lines(ast.parse(source))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in _NOT_CODE or (tok.type == tokenize.STRING and tok.start[0] in docs):
            continue
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def main(argv: list) -> int:
    paths = [Path(a) for a in argv] or sorted(ROOT.glob("src/dqopt/*.py"))
    counts = [code_lines(p.read_text(encoding="utf-8")) for p in paths]
    width = len(str(sum(counts)))
    for count, path in zip(counts, paths):
        print(f"{count:>{width}} {os.path.relpath(path)}")
    print(f"{sum(counts):>{width}} total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
