"""Compare two ``scripts/cli_fingerprint.py --out`` directories file by file.

Usage::

    python3 scripts/fingerprint_diff.py DIR_A DIR_B

Prints one line per file that differs, in name order:

- a file present on one side only;
- a ``.json`` file (a report or a generated input): every non-float field
  that changed, as ``path: A -> B`` (a field present on one side only
  reads ``<absent>`` on the other), and how many floats moved, with the
  largest relative change ``|a - b| / max(|a|, |b|)``, where it is and
  its two values;
- a ``.csv`` trace: the row counts and the largest relative change over
  the cells both sides have (a header or other text cell that changed is
  named too);
- any other file: that its bytes differ.

Identical files print nothing, and a last line counts them.  The exit
code is 0 when the directories hold the same files with the same bytes,
else 1, as for ``diff``.  The script uses only the standard library.
"""

from __future__ import annotations

import csv
import json
import math
import os
import sys

ABSENT = object()  # a field on one side only


def _show(value) -> str:
    return "<absent>" if value is ABSENT else repr(value)


def rel_change(a: float, b: float) -> float:
    """``|a - b| / max(|a|, |b|)``: 0 for equal values (NaN equals NaN), inf against a NaN."""
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    if math.isnan(a) or math.isnan(b):
        return math.inf
    return abs(a - b) / max(abs(a), abs(b))


def _leaves(value, path: str = ""):
    """``(path, leaf)`` for every scalar in a parsed JSON value, lists and objects walked in order."""
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _leaves(item, f"{path}.{key}" if path else key)
    elif isinstance(value, list):
        for k, item in enumerate(value):
            yield from _leaves(item, f"{path}[{k}]")
    else:
        yield path, value


def _float_moves(pairs) -> list[str]:
    """One summary of ``(where, a, b)`` float pairs: how many moved and the largest change."""
    moves = [(rel_change(a, b), where, a, b) for where, a, b in pairs]
    moves = [move for move in moves if move[0] > 0]
    if not moves:
        return []
    change, where, a, b = max(moves)
    return [f"{len(moves)} floats moved, largest relative change {change:.3g} "
            f"at {where} ({a!r} -> {b!r})"]


def diff_json(text_a: str, text_b: str) -> list[str]:
    """The changed non-float fields and the float summary of two JSON documents."""
    a, b = dict(_leaves(json.loads(text_a))), dict(_leaves(json.loads(text_b)))
    lines, floats = [], []
    for path in list(a) + [p for p in b if p not in a]:
        va, vb = a.get(path, ABSENT), b.get(path, ABSENT)
        if type(va) is float and type(vb) is float:
            floats.append((path, va, vb))
        elif type(va) is not type(vb) or va != vb:
            change = f"{_show(va)} -> {_show(vb)}"
            lines.append(f"{path}: {change}" if path else change)
    return lines + _float_moves(floats)


def _number(cell: str):
    try:
        return float(cell)
    except ValueError:
        return None


def diff_csv(text_a: str, text_b: str) -> list[str]:
    """The row counts, any changed text cell and the float summary of two CSV traces."""
    rows_a, rows_b = list(csv.reader(text_a.splitlines())), list(csv.reader(text_b.splitlines()))
    header = rows_a[0] if rows_a else []
    lines = [f"rows {len(rows_a)} -> {len(rows_b)}"]
    floats = []
    for r, (row_a, row_b) in enumerate(zip(rows_a, rows_b)):
        for c, (cell_a, cell_b) in enumerate(zip(row_a, row_b)):
            x, y = _number(cell_a), _number(cell_b)
            where = f"row {r} {header[c] if c < len(header) else c}"
            if x is not None and y is not None:
                floats.append((where, x, y))
            elif cell_a != cell_b:
                lines.append(f"{where}: {cell_a!r} -> {cell_b!r}")
        if len(row_a) != len(row_b):
            lines.append(f"row {r}: {len(row_a)} cells -> {len(row_b)}")
    return lines + _float_moves(floats)


def compare(dir_a: str, dir_b: str) -> tuple[list[str], int]:
    """``(lines, identical)``: one line per difference and the count of identical files."""
    names_a, names_b = set(os.listdir(dir_a)), set(os.listdir(dir_b))
    lines, identical = [], 0
    for name in sorted(names_a | names_b):
        if name not in names_b or name not in names_a:
            lines.append(f"{name}: only in {dir_a if name in names_a else dir_b}")
            continue
        with open(os.path.join(dir_a, name), "rb") as fa, open(os.path.join(dir_b, name), "rb") as fb:
            raw_a, raw_b = fa.read(), fb.read()
        if raw_a == raw_b:
            identical += 1
            continue
        if name.endswith((".json", ".csv")):
            differ = diff_json if name.endswith(".json") else diff_csv
            found = differ(raw_a.decode("utf-8"), raw_b.decode("utf-8"))
            lines += [f"{name}: {line}" for line in found or ["bytes differ, values equal"]]
        else:
            lines.append(f"{name}: bytes differ")
    return lines, identical


def main(argv: list[str]) -> int:
    if len(argv) != 2 or not all(os.path.isdir(d) for d in argv):
        print("usage: fingerprint_diff.py DIR_A DIR_B (two directories)", file=sys.stderr)
        return 2
    lines, identical = compare(*argv)
    for line in lines:
        print(line)
    print(f"{identical} files identical")
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
