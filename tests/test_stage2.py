"""Stage II as one exact fit on the dual fiber: accuracy, invariance, robustness."""

import numpy as np
import pytest

from dqopt import (
    DualQuaternion,
    HandEyeDataset,
    SolverConfig,
    UnitDualQuaternion,
    build_axxb,
    build_axyb,
    build_pgo,
    evaluate_solution,
    generate_cycle_graph,
    generate_synthetic,
    pack,
    solve_eqdqo,
    spanning_tree_rows,
    vertex_errors,
)
import dqopt.solver as solver
from dqopt.handeye import pose_rows, pose_udqs, unit_rows
from helpers import tangent_matrix

SEEDS = range(5)


def _handeye_errors(model, sigma, seed):
    ds = generate_synthetic(model, 10, noise_rot=sigma, noise_trans=sigma, seed=seed)
    problem = build_axxb(ds) if model == "axxb" else build_axyb(ds)
    report = solve_eqdqo(problem, SolverConfig(restarts=8, seed=0))
    errors = evaluate_solution(ds, *report.solution)
    return [v for k, v in errors.items() if k.startswith("translation_error")]


def _graph(sigma, seed):
    return generate_cycle_graph(20, loop_closures=6, noise_rot=sigma, noise_trans=sigma, seed=seed)


def _pgo_solve(graph, guess):
    return solve_eqdqo(build_pgo(graph), SolverConfig(restarts=1, seed=0), initial=guess)


def _pgo_errors(sigma, seed):
    g = _graph(sigma, seed)
    report = _pgo_solve(g, spanning_tree_rows(g))
    # vertex 1 is anchored to the truth
    return [row["translation_error"] for row in vertex_errors(g, list(report.solution))[1:]]


@pytest.mark.parametrize("sigma", [1e-3, 1e-2])
@pytest.mark.parametrize("kind, multiple", [("axxb", 3.0), ("axyb", 3.0), ("pgo", 4.0)])
def test_noisy_translation_is_recovered_to_a_few_sigma(kind, multiple, sigma):
    # pose-graph errors build up along the cycle, hence the wider bound
    errors = []
    for seed in SEEDS:
        errors += _pgo_errors(sigma, seed) if kind == "pgo" else _handeye_errors(kind, sigma, seed)
    assert np.median(errors) <= multiple * sigma, np.median(errors) / sigma


def test_stage2_kkt_residual_vanishes_on_noisy_axxb():
    # over the dual coordinates, the only ones stage II moves, the exact fit
    # is stationary
    for seed in SEEDS:
        ds = generate_synthetic("axxb", 10, noise_rot=1e-2, noise_trans=1e-2, seed=seed)
        report = solve_eqdqo(build_axxb(ds), SolverConfig(restarts=4, seed=0))
        assert report.kkt_residual["stage2"] <= 1e-8, seed


def _shifted(pose: np.ndarray, shift: float) -> DualQuaternion:
    """The pose row ``pose`` with ``shift`` added to each translation component."""
    moved = unit_rows(np.concatenate((pose[:4], pose[4:] + shift)), "pose")
    return UnitDualQuaternion.from_rows(pose_udqs(moved))[0].as_dual_quaternion()


@pytest.mark.parametrize("kind", ["axxb", "pgo"])
def test_stage2_does_not_follow_the_warm_start_translation(kind):
    if kind == "axxb":
        ds = generate_synthetic("axxb", 10, noise_rot=1e-2, noise_trans=1e-2, seed=0)
        problem, cfg = build_axxb(ds), SolverConfig(restarts=2, seed=0)
        truth = ds.ground_truth_x
        starts = [[_shifted(truth, s)] for s in (0.0, 0.5, 2.0)]
    else:
        g = _graph(1e-2, 0)
        problem, cfg = build_pgo(g), SolverConfig(restarts=1, seed=0)
        guess = pose_rows(UnitDualQuaternion.from_rows(spanning_tree_rows(g)))
        starts = [[_shifted(p, s) for p in guess] for s in (0.0, 0.5, 2.0)]
    solutions = [pack(list(solve_eqdqo(problem, cfg, initial=x).solution)) for x in starts]
    for other in solutions[1:]:
        assert np.max(np.abs(other - solutions[0])) <= 1e-9


def test_a_translation_outlier_does_not_move_the_calibration():
    # the paper's sum of magnitudes ignores one gross outlier on consistent
    # data; a plain least-squares stage II would spread it over the answer
    for seed in SEEDS:
        ds = generate_synthetic("axxb", 10, seed=seed)
        poses_b = ds.poses_b.copy()
        poses_b[-1, 4:] += [0.5, -0.3, 0.2]
        ds = HandEyeDataset("axxb", ds.poses_a, poses_b, ground_truth_x=ds.ground_truth_x)
        report = solve_eqdqo(build_axxb(ds), SolverConfig(restarts=8, seed=0))
        errors = evaluate_solution(ds, *report.solution)
        assert errors["rotation_error_x"] <= 1e-6, seed
        assert errors["translation_error_x"] <= 1e-6, seed
        # reweighted solves, each with its trace row
        stage2_rows = [row for row in report.trace if row.stage == 2]
        assert report.iterations["stage2"] == len(stage2_rows) > 1


def test_stage2_runs_once_per_restart_tied_at_the_least_stage1_value(monkeypatch):
    calls = []
    original = solver._stage2

    def counted(problem, cfg, z1, *fiber):
        calls.append(problem.objective.value_at(z1).std)
        return original(problem, cfg, z1, *fiber)

    monkeypatch.setattr(solver, "_stage2", counted)
    ds = generate_synthetic("axxb", 10, noise_rot=1e-2, noise_trans=1e-2, seed=0)
    report = solve_eqdqo(build_axxb(ds), SolverConfig(restarts=8, seed=0))
    # noisy groups are appreciable: one solve, on the one least restart
    assert calls == [report.stage1_value]
    assert report.iterations["stage2"] == 1


def test_a_uniform_reweighting_ends_stage2_after_one_pass():
    # noiseless: the graph's one norm group is infinitesimal, and its
    # reweighting rescales every row alike, which leaves the fit in place
    g = generate_cycle_graph(12, loop_closures=4, seed=5)
    problem, cfg = build_pgo(g), SolverConfig(restarts=1, seed=0)
    _, _, outcome = solver._stage1_restarts(problem, cfg, spanning_tree_rows(g))[0]
    stage2 = solver._stage2(problem, cfg, outcome.z, outcome.fiber)
    assert len(stage2.trace) == 1
    # the second pass, with the rescaled weights, lands on the same point
    null = tangent_matrix(problem.block, outcome.z)
    z = solver._fiber_point(problem, outcome.z)
    r_p, weights = problem.objective.stage2_system(z)
    b = problem.objective.stage1_system(z)[0].toarray() @ null
    w1 = weights(r_p)
    y1 = np.linalg.solve(b.T @ (w1[:, None] * b), -b.T @ (w1 * r_p))
    w2 = weights(r_p + b @ y1)
    assert np.all(w2 == w2[0]) and w2[0] != w1[0]
    y2 = np.linalg.solve(b.T @ (w2[:, None] * b), -b.T @ (w2 * r_p))
    dual = solver._part_indices(g.n, 1)
    two_pass = z.copy()
    two_pass[dual] += null @ y2
    assert np.max(np.abs(stage2.z - two_pass)) <= 1e-12


def _fiber_from_scratch(problem, z):
    """``B = J N`` built anew at ``z``, as stage I evaluates a point."""
    # a point on a sparse fiber is evaluated alone, any other as a stack of one
    alone = problem.block.var.size > solver._DENSE_MAX
    jac = problem.objective.stage1_system(z if alone else z[None])[0]
    b = solver._fiber_product(jac, problem.block.tangent(z[None]), problem.block.var)
    return b if alone else b[0]


def _bytes(a):
    return (a.toarray() if solver._is_sparse(a) else a).tobytes()


@pytest.mark.parametrize("dense_max", [solver._DENSE_MAX, -1])
def test_stage2_from_stage1s_last_factorization_is_the_one_from_scratch(dense_max, monkeypatch):
    # every restart that did not merge carries the B = J N of its last
    # evaluation, at the point it returns, a capped one included.  A
    # noiseless problem's spectral start is at value 0 and runs alone;
    # without it the random restarts run too.
    monkeypatch.setattr(solver, "_DENSE_MAX", dense_max)
    problems = []
    for model, build in (("axxb", build_axxb), ("axyb", build_axyb)):
        for sigma in (0.0, 1e-2):
            ds = generate_synthetic(model, 10, noise_rot=sigma, noise_trans=sigma, seed=1)
            problem = build(ds)
            problems.append((problem, None, 4))
            if sigma == 0.0:
                problems.append((solver.EqdqoProblem(problem.objective, problem.constraints),
                                 None, 4))
    for sigma in (0.0, 1e-2):
        g = generate_cycle_graph(12, loop_closures=4, noise_rot=sigma, noise_trans=sigma, seed=5)
        problems += [(build_pgo(g), spanning_tree_rows(g), 1), (build_pgo(g), None, 3)]
    stops = set()
    for problem, initial, restarts in problems:
        for cfg in (SolverConfig(restarts=restarts, seed=0),
                    SolverConfig(restarts=restarts, seed=0, max_outer=4)):
            for _, _, outcome in solver._stage1_restarts(problem, cfg, initial):
                stops.add(outcome.stop)
                scratch = _fiber_from_scratch(problem, outcome.z)
                assert _bytes(outcome.fiber) == _bytes(scratch)
                reused = solver._stage2(problem, cfg, outcome.z, outcome.fiber)
                fresh = solver._stage2(problem, cfg, outcome.z, scratch)
                assert reused.z.tobytes() == fresh.z.tobytes()
                assert reused.trace == fresh.trace
    assert {"converged", "max_outer"} <= stops
