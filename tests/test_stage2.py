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
    # reweighting rescales every row alike, which leaves the fit in place.
    # The tree start is exact in both parts, which stage II keeps without a
    # fit, so here that start has its dual parts zeroed.
    g = generate_cycle_graph(12, loop_closures=4, seed=5)
    problem, cfg = build_pgo(g), SolverConfig(restarts=1, seed=0)
    tree = spanning_tree_rows(g)
    tree[:, 4:] = 0.0
    _, _, outcome = solver._stage1_restarts(problem, cfg, tree)[0]
    stage2 = solver._stage2(problem, cfg, outcome.z, outcome.trace[-1])
    assert len(stage2.trace) == 1 and stage2.trace[0].kkt_residual > 0.0
    # the second pass, with the rescaled weights, lands on the same point
    null = tangent_matrix(problem.block, outcome.z)
    z = solver._fiber_point(problem, outcome.z)
    jac, _, r_p, w, groups = problem.objective.stage_system(z)
    b = jac(False) @ null
    w1 = solver._stage2_weights(w, r_p, groups)
    y1 = np.linalg.solve(b.T @ (w1[:, None] * b), -b.T @ (w1 * r_p))
    w2 = solver._stage2_weights(w, r_p + b @ y1, groups)
    assert np.all(w2 == w2[0]) and w2[0] != w1[0]
    y2 = np.linalg.solve(b.T @ (w2[:, None] * b), -b.T @ (w2 * r_p))
    dual = solver._part_indices(g.n, 1)
    two_pass = z.copy()
    two_pass[dual] += null @ y2
    assert np.max(np.abs(stage2.z - two_pass)) <= 1e-12


def _stage1_fiber(problem, z):
    """``B = J N`` of the stage-I objective at ``z``, as stage I evaluates a point: a stack of one."""
    sparse = problem.block.var.size > solver._DENSE_MAX
    jac = problem.stage1.stage_system(z[None])[0](sparse)
    b = solver._fiber_product(jac, problem.block.tangent(z[None]), problem.block)
    return b if sparse else b[0]


def _dense(a):
    return a.toarray() if solver._is_sparse(a) else a


def _stage2_fiber(problem, cfg, outcome, monkeypatch):
    """The ``B = J N`` that stage II forms at stage I's point ``outcome.z``."""
    formed = []
    fiber_product = solver._fiber_product

    def spy(*args):
        formed.append(fiber_product(*args))
        return formed[-1]

    with monkeypatch.context() as m:
        m.setattr(solver, "_fiber_product", spy)
        solver._stage2(problem, cfg, outcome.z, outcome.trace[-1])
    (b,) = formed
    return b


@pytest.mark.parametrize("dense_max", [solver._DENSE_MAX, -1])
def test_stage2_forms_its_fiber_from_the_objectives_slope(dense_max, monkeypatch):
    # Stage II forms B = A N from the objective's slope A at the point stage
    # I returns, a capped one included, dense or sparse as stage I's.  A
    # hand-eye problem's A is constant, so B is stage I's last one bit for
    # bit; a pose graph's is the bilinear rows' A, not that of stage I's
    # affine rows.  A noiseless problem's spectral start is at value 0 and
    # runs alone; without it the random restarts run too.  A noiseless
    # graph's tree start is exact in both parts, which stage II keeps
    # without a fit, so here that start has its dual parts zeroed.
    monkeypatch.setattr(solver, "_DENSE_MAX", dense_max)
    problems = []
    for model, build in (("axxb", build_axxb), ("axyb", build_axyb)):
        for sigma in (0.0, 1e-2):
            ds = generate_synthetic(model, 10, noise_rot=sigma, noise_trans=sigma, seed=1)
            problem = build(ds)
            problems.append((problem, None, 4))
            if sigma == 0.0:
                bare = solver.EqdqoProblem(problem.objective, problem.unit, problem.anchors)
                problems.append((bare, None, 4))
    for sigma in (0.0, 1e-2):
        g = generate_cycle_graph(12, loop_closures=4, noise_rot=sigma, noise_trans=sigma, seed=5)
        problem, tree = build_pgo(g), spanning_tree_rows(g)
        if sigma == 0.0:
            tree[:, 4:] = 0.0
            problem = solver.EqdqoProblem(problem.objective, problem.unit, problem.anchors, tree,
                                          problem.stage1)
        problems += [(problem, tree, 1), (problem, None, 3)]
    stops = set()
    for problem, initial, restarts in problems:
        for cfg in (SolverConfig(restarts=restarts, seed=0),
                    SolverConfig(restarts=restarts, seed=0, max_outer=4)):
            for _, _, outcome in solver._stage1_restarts(problem, cfg, initial):
                stops.add(outcome.stop)
                b = _stage2_fiber(problem, cfg, outcome, monkeypatch)
                assert solver._is_sparse(b) == (dense_max < 0)
                stage1 = _dense(_stage1_fiber(problem, outcome.z))
                if problem.stage1 is problem.objective:
                    assert _dense(b).tobytes() == stage1.tobytes()
                    continue
                sparse = problem.block.var.size > solver._DENSE_MAX
                slope = _dense(problem.objective.stage_system(outcome.z)[0](sparse))
                want = slope @ tangent_matrix(problem.block, outcome.z)
                assert np.max(np.abs(_dense(b) - want)) <= 1e-14
                assert np.max(np.abs(stage1 - want)) > 1e-3
    assert {"converged", "max_outer"} <= stops


def _after_stage1(problem, monkeypatch):
    """Calls of the fit's kernels and of ``objective.value_at`` after stage I, and its outcomes."""
    calls, ranked = [], []
    restarts = solver._stage1_restarts

    def stage1(*args):
        ranked[:] = restarts(*args)
        calls.clear()
        return ranked

    def spy(name, fn):
        return lambda *args: calls.append(name) or fn(*args)

    monkeypatch.setattr(solver, "_stage1_restarts", stage1)
    for name in ("_fiber_product", "_reduced_solve"):
        monkeypatch.setattr(solver, name, spy(name, getattr(solver, name)))
    monkeypatch.setattr(problem.objective, "value_at", spy("value_at", problem.objective.value_at))
    return calls, ranked


def _exact_solve(g, start, monkeypatch, cfg=SolverConfig(restarts=1, seed=0)):
    """Solve ``g`` from ``start``: the report, the calls after stage I and stage I's point."""
    problem = build_pgo(g)
    calls, ranked = _after_stage1(problem, monkeypatch)
    report = solve_eqdqo(problem, cfg, initial=start)
    (_, _, outcome), = ranked
    return report, calls, outcome.z


@pytest.mark.parametrize("n", [12, 60])
def test_a_start_exact_in_both_parts_is_kept_without_a_fit(n, monkeypatch):
    # Every group of the noiseless tree start reads 0 + 0 epsilon and every
    # row holds: both parts are at their minimum, so stage II keeps the
    # point, dense fiber (12 vertices) or sparse (60), with one evaluation.
    g = generate_cycle_graph(n, loop_closures=n // 3, seed=5)
    assert (3 * (n - 1) > solver._DENSE_MAX) == (n == 60)
    report, calls, z1 = _exact_solve(g, spanning_tree_rows(g), monkeypatch)
    assert report.stage1_value == 0.0
    assert calls == ["value_at"]
    assert pack(list(report.solution)).tobytes() == z1.tobytes()
    rows = [row for row in report.trace if row.stage == 2]
    assert report.iterations["stage2"] == len(rows) == 1 and rows[0].kkt_residual == 0.0
    assert (rows[0].objective_std, rows[0].objective_dual) == (0.0, report.stage2_value)
    assert max(row["translation_error"] for row in vertex_errors(g, list(report.solution))) <= 1e-12

    # The same start with zero duals is fitted, from the fiber's minimum-norm
    # point, to the same answer.
    tree = spanning_tree_rows(g)
    tree[:, 4:] = 0.0
    fitted, calls, _ = _exact_solve(g, tree, monkeypatch)
    assert {"_fiber_product", "_reduced_solve"} <= set(calls)
    assert calls.count("value_at") == fitted.iterations["stage2"]
    assert np.max(np.abs(pack(list(fitted.solution)) - z1)) <= 1e-12


def test_a_start_off_its_dual_rows_is_fitted(monkeypatch):
    # Moving a dual part along its standard part breaks that variable's dual
    # unit row and barely moves the residuals: the objective still reads
    # 0 + 0 epsilon to rounding, but the rows do not hold, so stage II fits.
    g = generate_cycle_graph(12, loop_closures=4, seed=5)
    cfg = SolverConfig(restarts=1, seed=0, tol_feas=1e-14)
    tree = spanning_tree_rows(g)
    tree[3, 4:] += 1e-13 * tree[3, :4]
    problem = build_pgo(g)
    v = problem.objective.value_at(tree.ravel())
    h, h_d = solver._feasibility(problem, tree.ravel())
    assert v.std == 0.0 and v.dual <= solver._KINK_ROUNDING and h <= cfg.tol_feas < h_d
    report, calls, _ = _exact_solve(g, tree, monkeypatch, cfg)
    assert {"_fiber_product", "_reduced_solve"} <= set(calls)
    assert max(report.feasibility.values()) <= cfg.tol_feas


def test_a_start_with_dual_residuals_above_rounding_is_fitted(monkeypatch):
    # Moving one vertex's translation by about 2e-10 keeps every row and
    # leaves its edges' dual residuals near 1e-10: the objective reads 0 in
    # its standard part but not 0 to rounding in its dual part, so stage II
    # fits, to the exact start's answer and a dual value at rounding.
    g = generate_cycle_graph(12, loop_closures=4, seed=5)
    problem, tree = build_pgo(g), spanning_tree_rows(g)
    q = tree[3, :4]
    moved = tree.copy()
    moved[3, 4:] += 1e-10 * np.array([-q[1], q[0], -q[3], q[2]])
    v = problem.objective.value_at(moved.ravel())
    assert v.std == 0.0 and 1e-10 <= v.dual <= solver.TOL_APPRECIABLE
    assert max(solver._feasibility(problem, moved.ravel())) <= SolverConfig().tol_feas
    report, calls, _ = _exact_solve(g, moved, monkeypatch)
    assert {"_fiber_product", "_reduced_solve"} <= set(calls)
    assert report.stage2_value <= solver._KINK_ROUNDING
    assert np.max(np.abs(pack(list(report.solution)) - tree.ravel())) <= 1e-12


@pytest.mark.parametrize("kind", ["pgo", "axxb", "axyb"])
def test_noisy_graphs_and_noiseless_calibrations_are_fitted_without_another_evaluation(
        kind, monkeypatch):
    # A noisy graph ends stage I above value 0, and a noiseless calibration's
    # spectral start has zero duals, whose value stage I's last row shows is
    # appreciable: each is fitted, with one evaluation per stage-II row.
    if kind == "pgo":
        g = _graph(1e-2, 0)
        problem, initial = build_pgo(g), spanning_tree_rows(g)
        cfg = SolverConfig(restarts=1, seed=0)
    else:
        ds = generate_synthetic(kind, 10, seed=1)
        problem = build_axxb(ds) if kind == "axxb" else build_axyb(ds)
        cfg, initial = SolverConfig(restarts=8, seed=0), None
    calls, ranked = _after_stage1(problem, monkeypatch)
    report = solve_eqdqo(problem, cfg, initial=initial)
    assert (report.stage1_value > 0) == (kind == "pgo")
    assert {"_fiber_product", "_reduced_solve"} <= set(calls)
    assert calls.count("value_at") == report.iterations["stage2"] and len(ranked) == 1
