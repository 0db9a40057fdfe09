"""Smoke test of ``scripts/bench_pairs.py``: one tiny pair, this checkout on both sides."""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_one_tiny_pair_writes_every_run_and_a_summary_per_metric(tmp_path):
    out = tmp_path / "BENCH_smoke.json"
    cmd = [sys.executable, os.path.join(ROOT, "scripts", "bench_pairs.py"), "--parent", ROOT,
           "--change", ROOT, "--label", "smoke", "--workload", "handeye-batch", "--seeds", "3",
           "--pairs", "1", "--tiny", "--out", str(out)]
    subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=300, check=True)
    report = json.loads(out.read_text())
    assert list(report) == ["what", "command", "parent_commit", "change_commit", "machine",
                            "not_included", "summary", "runs"]
    runs = report["runs"]
    assert [(r["side"], r["order_in_pair"], r["pair"]) for r in runs] == [
        ("parent", 0, 0), ("change", 1, 0)]
    # the same code on both sides gives the same answers
    assert runs[0]["solutions_digest"] == runs[1]["solutions_digest"] is not None
    assert all(r["result"]["correct"] and r["result"]["failed"] == 0 for r in runs)
    metrics = runs[0]["result"]["metrics"]
    assert {s["metric"] for s in report["summary"]} == set(metrics)
    for s in report["summary"]:
        assert (s["workload"], s["seed"], s["trace"], s["pairs"]) == ("handeye-batch", 3, 0, 1)
        assert s["change_lower_in_pairs"] + s["change_higher_in_pairs"] <= 1
        assert s["unit"] == metrics[s["metric"]]["unit"]
        assert len(s["parent_median_q1_q3"]) == len(s["change_median_q1_q3"]) == 3
