"""Each point's residual rows are evaluated once per solve and passed on, not kept.

``dqopt.solver._valued`` hands an objective's evaluation at a point to its
other hooks there: the restart check, stage I's start value and first step
share the affine rows, and stage II's last value and the report's gradient
share the bilinear ones.  The tests count the evaluations of a noiseless
solve, check that the reports are those of evaluating afresh in every hook,
byte for byte, and that no evaluation outlives a solve.
"""

import collections
import contextlib
import dataclasses
import gc
import io
import json
import weakref

import numpy as np
import pytest

import dqopt.cli
from dqopt import (
    DualQuaternion,
    EqdqoProblem,
    SolverConfig,
    build_axyb,
    build_pgo,
    generate_cycle_graph,
    generate_synthetic,
    kkt_analysis,
    serialize_graph,
    solve_eqdqo,
    squared_distance_objective,
)
from dqopt import posegraph
from dqopt.functions import ResidualNormObjective
from dqopt.posegraph import RelativePoseResidual


def _counted(make, counts, name):
    """``make`` whose evaluators count their calls in ``counts[name]``."""

    def counting(*args):
        evaluate = make(*args)

        def counted(z):
            counts[name] += 1
            return evaluate(z)

        return counted

    return counting


def test_a_noiseless_solve_pgo_evaluates_each_objective_once(tmp_path, monkeypatch):
    # stage I's start: one affine evaluation for the restart check, the start
    # value and the first step; stage II's kept point: one bilinear evaluation
    # for its value and the report's gradient
    graph = tmp_path / "pgo-200.graph"
    graph.write_text(serialize_graph(generate_cycle_graph(200, 60, seed=5)))
    counts = collections.Counter()
    monkeypatch.setattr(posegraph, "affine_rows", _counted(posegraph.affine_rows, counts, "affine"))
    monkeypatch.setattr(RelativePoseResidual, "stack_arrays", staticmethod(
        _counted(RelativePoseResidual.stack_arrays, counts, "bilinear")))
    out = tmp_path / "report.json"
    with contextlib.redirect_stdout(io.StringIO()):
        assert dqopt.cli.main(["solve-pgo", "--in", str(graph), "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["iterations"] == {"stage1": 1, "stage2": 1} and report["stage1_value"] == 0.0
    assert counts == {"affine": 1, "bilinear": 1}


def _report_bytes(problem, cfg, report_text):
    """``report_text`` of a solve, with ``wall_time_ms`` zeroed, and its trace."""
    report = dataclasses.replace(solve_eqdqo(problem, cfg), wall_time_ms=0.0)
    return report_text(report), report.trace


def _cases():
    graph = generate_cycle_graph(60, 20, 0.01, 0.01, seed=5)
    cli = dqopt.cli
    yield ("pgo-noisy-60", build_pgo(graph), SolverConfig(restarts=2),
           lambda report: cli._json_text(cli._pgo_report(graph, report)))
    # seed 10's optimum holds one motion's group at its kink
    ds = generate_synthetic("axyb", 10, noise_rot=0.01, noise_trans=0.01, seed=10)
    yield ("axyb-kink", build_axyb(ds), SolverConfig(restarts=8, seed=0),
           lambda report: json.dumps(report.to_json_dict(), indent=2))


@pytest.mark.parametrize("name", ["pgo-noisy-60", "axyb-kink"])
def test_shared_evaluations_leave_every_report_byte_for_byte(name, monkeypatch):
    _, problem, cfg, report_text = next(c for c in _cases() if c[0] == name)
    shared = _report_bytes(problem, cfg, report_text)
    # without rows_at every hook evaluates its own rows, as before the sharing
    monkeypatch.delattr(ResidualNormObjective, "rows_at")
    fresh = _report_bytes(problem, cfg, report_text)
    assert shared[0] == fresh[0]
    assert shared[1] == fresh[1]


def test_kkt_analysis_evaluates_the_objective_once_at_a_kink(monkeypatch):
    # stage I's analysis at an AXYB optimum with one motion's residual at its
    # kink reads the residual rows twice, for the gradient and for the kink's
    # subgradient: one evaluation serves both, and the analysis is the one
    # that evaluates in each hook, bit for bit
    problem = build_axyb(generate_synthetic("axyb", 10, noise_rot=0.01, noise_trans=0.01, seed=10))
    solution = solve_eqdqo(problem, SolverConfig(restarts=8, seed=0)).solution
    stack = problem.objective._stack

    def counted_analysis():
        calls = []
        with monkeypatch.context() as m:
            m.setattr(problem.objective, "_stack", lambda z: calls.append(np.shape(z)) or stack(z))
            info = kkt_analysis(problem, solution, 1)
        return info, calls

    shared, calls = counted_analysis()
    assert calls == [(16,)]
    monkeypatch.delattr(ResidualNormObjective, "rows_at")
    fresh, calls = counted_analysis()
    assert len(calls) == 2  # the gradient's, then the kink's: this point has a kink
    assert np.array(shared.residual).tobytes() == np.array(fresh.residual).tobytes()
    assert np.array(shared.multipliers).tobytes() == np.array(fresh.multipliers).tobytes()
    assert shared.degenerate == fresh.degenerate


def test_no_evaluation_outlives_a_solve():
    # the evaluations hold per-edge arrays; a problem solved many times, as
    # the benchmark holds its problems, must not keep one
    problem = build_pgo(generate_cycle_graph(20, 6, 0.01, 0.01, seed=0))
    seen = []
    rows_at = problem.objective.rows_at

    def tracked(z):
        rows = rows_at(z)
        seen.append(weakref.ref(rows[2]))  # the pullback, which holds the per-edge arrays
        return rows

    problem.objective.rows_at = tracked
    report = solve_eqdqo(problem, SolverConfig(restarts=2))
    del problem.objective.rows_at
    gc.collect()
    assert report.iterations["stage2"] >= 1 and seen
    assert all(ref() is None for ref in seen)
    assert not any(isinstance(v, tuple) for v in vars(problem.objective).values())


def test_a_degenerate_point_still_reads_degenerate_in_stage_1():
    # a unit row and four anchor rows on one variable have dependent gradients;
    # the report takes degenerate from the block's rank at its point, which
    # kkt_analysis reads for each stage
    pinned = EqdqoProblem(
        squared_distance_objective(DualQuaternion.from_real(2.0)),
        (0,),
        {0: DualQuaternion.identity()},
    )
    report = solve_eqdqo(pinned, SolverConfig(restarts=1))
    assert report.degenerate is True
    for stage in (1, 2):
        assert kkt_analysis(pinned, report.solution, stage=stage).degenerate
    z = np.zeros(8)
    z[0] = 1.0
    assert kkt_analysis(pinned, z, stage=1).degenerate
