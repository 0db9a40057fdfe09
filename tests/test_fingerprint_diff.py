"""Smoke test of ``scripts/fingerprint_diff.py`` on two hand-made output directories."""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCRIPT = os.path.join(ROOT, "scripts", "fingerprint_diff.py")
HEADER = "iter,stage,objective_std,objective_dual,feasibility,kkt_residual\n"


def _write(directory, files):
    directory.mkdir()
    for name, content in files.items():
        (directory / name).write_text(content)


def _run(a, b):
    out = subprocess.run([sys.executable, SCRIPT, str(a), str(b)],
                         capture_output=True, text=True, timeout=60)
    return out.returncode, out.stdout.splitlines()


def test_it_names_every_change_and_exits_1_unless_the_directories_match(tmp_path):
    report = {"stage1_value": 0.5, "solution": [{"std": [1.0, 0.0]}], "restart_index": 5,
              "iterations": {"stage1": 3}, "config": {"restarts": 8}}
    moved = dict(report, stage1_value=0.5 + 2.0**-40, restart_index=1,
                 solution=[{"std": [1.0, 1e-300]}], iterations={"stage1": 4})
    del moved["config"]
    same = {"x.stderr": "exit 2\nerror: line 3\n", "y.data.json": '{"A": [1.0]}\n'}
    _write(tmp_path / "a", dict(same, **{
        "r.report.json": json.dumps(report), "r.trace.csv": HEADER + "0,1,2.0,1.0,0.0,1.0\n",
        "z.stderr": "exit 1\n", "only-a.graph": ""}))
    _write(tmp_path / "b", dict(same, **{
        "r.report.json": json.dumps(moved),
        "r.trace.csv": HEADER + "0,1,2.0000000000000004,1.0,0.0,1.0\n1,1,1.0,1.0,0.0,0.5\n",
        "z.stderr": "exit 2\n", "only-b.graph": ""}))
    code, lines = _run(tmp_path / "a", tmp_path / "b")
    assert code == 1
    assert lines == [
        f"only-a.graph: only in {tmp_path / 'a'}",
        f"only-b.graph: only in {tmp_path / 'b'}",
        "r.report.json: restart_index: 5 -> 1",
        "r.report.json: iterations.stage1: 3 -> 4",
        "r.report.json: config.restarts: 8 -> <absent>",
        "r.report.json: 2 floats moved, largest relative change 1 at solution[0].std[1] "
        "(0.0 -> 1e-300)",
        "r.trace.csv: rows 2 -> 3",
        "r.trace.csv: 1 floats moved, largest relative change 2.22e-16 at row 1 objective_std "
        "(2.0 -> 2.0000000000000004)",
        "z.stderr: bytes differ",
        "2 files identical",
    ]
    code, lines = _run(tmp_path / "a", tmp_path / "a")
    assert (code, lines) == (0, ["6 files identical"])
    # positional arguments only, and both must be directories
    assert _run(tmp_path / "a", tmp_path / "missing")[0] == 2
