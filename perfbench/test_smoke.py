"""Smoke test of the benchmark itself: ``python3 -m pytest perfbench/test_smoke.py``.

Runs every workload at its tiny size, traced and untraced, and checks that
every metric named in BENCHMARK.json is printed with its unit; then checks
that the answer checker rejects a perturbed solution, and that a CLI solve
that raises counts as failed.
"""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import check  # noqa: E402
import inputs  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)


def _run(workload: str, trace: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", "3", "--seconds", "1", "--trace", str(trace), "--tiny"]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    result = _run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    assert all(isinstance(m["value"], float) for m in result["metrics"].values())


def _truth_and_solution():
    """A noiseless AXYB truth and its exact solution as (std, dual) arrays."""
    _, truths = inputs.handeye_dataset("axyb", 5, 0.0, inputs.seeded_rng(9))
    sol = [(q.copy(), 0.5 * inputs.qmul(np.array([0.0, *t]), q)) for q, t in truths]
    return truths, sol


def test_checker_accepts_the_exact_solution():
    truths, sol = _truth_and_solution()
    _, _, reason = check.check_solution(sol, truths, 0.0)
    assert reason is None


def test_checker_fails_a_perturbed_solution():
    truths, sol = _truth_and_solution()
    q, d = sol[1]
    turn = inputs.axis_angle(1e-3, [0.0, 0.0, 1.0])
    sol[1] = (inputs.qmul(q, turn), inputs.qmul(d, turn))  # still unit, 1 mrad off
    _, _, reason = check.check_solution(sol, truths, 0.0)
    assert reason is not None and "noiseless error" in reason


def test_checker_fails_a_non_unit_solution():
    truths, sol = _truth_and_solution()
    sol[0] = (1.001 * sol[0][0], sol[0][1])
    _, _, reason = check.check_solution(sol, truths, 0.0)
    assert reason is not None and "not unit" in reason


def test_checker_fails_disagreeing_program_errors():
    truths, sol = _truth_and_solution()
    _, _, reason = check.check_solution(sol, truths, 0.0, reported=[(0.0, 0.0), (0.0, 0.5)])
    assert reason is not None and "differ" in reason


def test_a_raising_cli_counts_as_a_failed_solve():
    import run

    class Cli:
        @staticmethod
        def main(argv):
            raise ValueError("not a graph")

    class Dq:
        cli = Cli

    _, report, reason = run.solve(Dq, "cli", {"path": "graph.txt", "out": "report.json"})
    assert report is None and reason == "ValueError: not a graph"
