"""Print the statements of ``src/dqopt`` that the application never runs.

Usage::

    python3 scripts/reach.py

Runs the commands of ``scripts/cli_fingerprint.py`` (its hand-eye and
pose-graph solves, the capped solves and the malformed graphs, writing
into a temporary directory) and ``dqopt selftest``, all in this process
under ``sys.settrace``, and prints, per module and function, the line
numbers of the statements that never ran, then their count per module and
in all.  A statement is a statement node of the module's syntax tree, less
docstrings and ``global``/``nonlocal`` declarations, which compile to no
code; it ran when one of its own lines (for a compound statement, the
lines before its first nested statement) gave a line event.  The tracer
is set before ``dqopt`` is imported, so module and class bodies count too.
The run's seconds go to stderr.  The script is informational and exits 0
whatever it finds; it imports the ``dqopt`` of this checkout and uses only
the standard library besides.
"""

from __future__ import annotations

import ast
import contextlib
import importlib.util
import io
import os
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
_NO_CODE = (ast.Global, ast.Nonlocal)


def statements(source: str) -> list:
    """``(scope, line, own_lines)`` per statement of ``source``, in source order.

    ``scope`` is the dotted name of the innermost enclosing function or
    class, ``"<module>"`` at the top level.
    """
    out = []

    def visit(body, scope, has_docstring):
        for k, node in enumerate(body):
            if isinstance(node, _NO_CODE) or (
                    k == 0 and has_docstring and isinstance(node, ast.Expr)
                    and isinstance(node.value, ast.Constant) and isinstance(node.value.value, str)):
                continue
            nested = [b for b in _bodies(node) if b]
            first = min((b[0].lineno for b in nested), default=node.end_lineno + 1)
            start = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", ())])
            out.append((scope, node.lineno, range(start, max(first, node.lineno + 1))))
            if isinstance(node, _SCOPES):
                name = node.name if scope == "<module>" else f"{scope}.{node.name}"
                visit(node.body, name, True)
            else:
                for b in nested:
                    visit(b, scope, False)

    visit(ast.parse(source).body, "<module>", True)
    return out


def _bodies(node: ast.stmt) -> list:
    """The statement lists nested in ``node``: bodies, else and finally blocks, handlers, cases."""
    lists = [getattr(node, f, None) or [] for f in ("body", "orelse", "finalbody")]
    lists += [h.body for h in getattr(node, "handlers", ())]
    lists += [c.body for c in getattr(node, "cases", ())]
    return lists


def traced_lines(files, run) -> set:
    """The ``(file, line)`` pairs of ``files`` (absolute paths) that gave a line event during ``run()``."""
    files, seen, hit = set(map(str, files)), {}, set()

    def local(frame, event, arg):
        if event == "line":
            hit.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def call(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in seen:
            seen[name] = os.path.abspath(name) in files
        return local if seen[name] else None

    previous = sys.gettrace()
    sys.settrace(call)
    try:
        run()
    finally:
        sys.settrace(previous)
    return {(os.path.abspath(name), line) for name, line in hit}


def unreached(paths, run) -> dict:
    """``{path: (statements, {scope: [line, ...]})}``: what of each file ``run()`` never ran."""
    paths = [Path(p).resolve() for p in paths]
    hit = traced_lines(paths, run)
    out = {}
    for path in paths:
        stmts = statements(path.read_text(encoding="utf-8"))
        missed = {}
        for scope, line, own in stmts:
            if not any((str(path), k) in hit for k in own):
                missed.setdefault(scope, []).append(line)
        out[path] = (len(stmts), missed)
    return out


def _run_application() -> None:
    """The fingerprint's commands and ``dqopt selftest``, outputs to a temporary directory."""
    spec = importlib.util.spec_from_file_location("cli_fingerprint", ROOT / "scripts" / "cli_fingerprint.py")
    fingerprint = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(fingerprint)  # imports dqopt, under the tracer
    with tempfile.TemporaryDirectory(prefix="reach_") as out:
        fingerprint.run_all(out)
        fingerprint.run_malformed(out)
    with contextlib.redirect_stdout(io.StringIO()):
        code = fingerprint.main(["selftest"])
    if code != 0:
        raise SystemExit(f"dqopt selftest exited with {code}")


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    t0 = time.perf_counter()
    found = unreached(sorted((ROOT / "src" / "dqopt").glob("*.py")), _run_application)
    print(f"traced run took {time.perf_counter() - t0:.1f} s", file=sys.stderr)
    total = missed_total = 0
    for path, (count, missed) in found.items():
        missed_count = sum(map(len, missed.values()))
        total, missed_total = total + count, missed_total + missed_count
        print(f"{path.relative_to(ROOT)}: {missed_count} of {count} statements never ran")
        for scope, lines in missed.items():
            print(f"  {scope}: {' '.join(map(str, lines))}")
    print(f"{missed_total} of {total} statements never ran")
    return 0


if __name__ == "__main__":
    sys.exit(main())
