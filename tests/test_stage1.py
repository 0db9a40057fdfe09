"""Stage I as second-order steps on the unit-quaternion tangent space."""

import os
import subprocess
import sys

import numpy as np
import pytest

import dqopt
import dqopt.solver as solver
from dqopt import (
    SolverConfig,
    build_axxb,
    build_axyb,
    build_pgo,
    generate_cycle_graph,
    generate_synthetic,
    pack,
    posegraph,
    solve_eqdqo,
    spanning_tree_rows,
)
from dqopt.functions import ResidualNormObjective
from dqopt.solver import TraceRow

SEEDS = range(3)
SIGMA = 0.01


@pytest.mark.parametrize("seed", SEEDS)
def test_noisy_pose_graph_stage1_is_stationary_within_ten_steps(seed):
    g = generate_cycle_graph(20, loop_closures=6, noise_rot=SIGMA, noise_trans=SIGMA, seed=seed)
    cfg = SolverConfig(restarts=1, seed=0)
    report = solve_eqdqo(build_pgo(g), cfg, initial=spanning_tree_rows(g))
    assert report.kkt_residual["stage1"] <= 1e-8
    assert report.iterations["stage1"] <= 10


@pytest.mark.parametrize("seed", SEEDS)
def test_noisy_axxb_stage1_is_stationary(seed):
    # a reweighted least-squares step alone converges linearly and stalls
    # near 1e-7 once the value no longer resolves its decrease
    ds = generate_synthetic("axxb", 10, noise_rot=SIGMA, noise_trans=SIGMA, seed=seed)
    report = solve_eqdqo(build_axxb(ds), SolverConfig(restarts=8, seed=0))
    assert report.kkt_residual["stage1"] <= 1e-8


def test_importing_the_cli_loads_no_scipy_optimize():
    src = os.path.dirname(os.path.dirname(os.path.abspath(dqopt.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    code = "import sys, dqopt.cli; print('scipy.optimize' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False"


@pytest.mark.parametrize("kind", ["axyb", "axyb-kink", "pgo"])
def test_sparse_systems_take_the_steps_of_dense_ones(kind, monkeypatch):
    # small systems are solved densely and large ones sparsely, in both
    # stages; force the sparse path on a small problem and compare (AXYB
    # seed 10 has a kink optimum, so its steps hold a group at its kink)
    if kind == "pgo":
        g = generate_cycle_graph(12, loop_closures=4, noise_rot=SIGMA, noise_trans=SIGMA, seed=5)
        problem = build_pgo(g)
        initial = spanning_tree_rows(g)
    else:
        seed = 10 if kind == "axyb-kink" else 5
        ds = generate_synthetic("axyb", 10, noise_rot=SIGMA, noise_trans=SIGMA, seed=seed)
        problem, initial = build_axyb(ds), None
    cfg = SolverConfig(restarts=2, seed=0)
    dense = {r: (v, o) for v, r, o in solver._stage1_restarts(problem, cfg, initial, solver._JacobianMemo())}
    monkeypatch.setattr(solver, "_DENSE_MAX", -1)
    sparse = {r: (v, o) for v, r, o in solver._stage1_restarts(problem, cfg, initial, solver._JacobianMemo())}
    assert sparse.keys() == dense.keys()
    for r, (value, outcome) in sparse.items():
        assert len(outcome.trace) == len(dense[r][1].trace)
        assert value == pytest.approx(dense[r][0], rel=1e-12)
        assert np.max(np.abs(outcome.z - dense[r][1].z)) <= 1e-9
    if kind == "axyb-kink":
        # stage II reweights the group at its kink by 1 / |r_dual|, where the
        # dense and sparse fits part by about 1e-9
        return
    # and stage II on the same fiber, dense or sparse
    monkeypatch.undo()
    dense = solve_eqdqo(problem, cfg, initial)
    monkeypatch.setattr(solver, "_DENSE_MAX", -1)
    sparse = solve_eqdqo(problem, cfg, initial)
    assert sparse.iterations == dense.iterations
    assert np.max(np.abs(pack(list(sparse.solution)) - pack(list(dense.solution)))) <= 1e-9


@pytest.fixture
def no_merging(monkeypatch):
    # a restart that merges stops early, so it equals its solo run only as a
    # prefix; the tests that compare whole runs restart by restart run
    # without merging, and tests/test_merge.py pins what merging changes
    monkeypatch.setattr(solver, "_MERGE_RADIUS", -1.0)


def _starts(problem, cfg, initial=None):
    return np.stack([solver._restart_start(problem, cfg, initial, r) for r in range(cfg.restarts)])


def _assert_batch_matches_singles(problem, cfg, starts):
    starts = problem.block.project(starts)
    batch = solver._stage1(problem, cfg, starts, solver._JacobianMemo())
    for k, outcome in enumerate(batch):
        (alone,) = solver._stage1(problem, cfg, starts[k : k + 1], solver._JacobianMemo())
        assert np.max(np.abs(outcome.z - alone.z)) <= 1e-12
        assert len(outcome.trace) == len(alone.trace)
        assert outcome.stop == alone.stop
    return batch


def _lockstep_cases():
    for model in ("axxb", "axyb"):
        ds = generate_synthetic(model, 10, noise_rot=SIGMA, noise_trans=SIGMA, seed=3)
        problem = build_axxb(ds) if model == "axxb" else build_axyb(ds)
        yield model, problem, None, 8
    g = generate_cycle_graph(12, loop_closures=4, noise_rot=SIGMA, noise_trans=SIGMA, seed=5)
    yield "pgo", build_pgo(g), spanning_tree_rows(g), 4


@pytest.mark.parametrize("case", list(_lockstep_cases()), ids=lambda c: c[0])
def test_restarts_in_lockstep_take_the_steps_they_take_alone(case, no_merging):
    _, problem, initial, restarts = case
    cfg = SolverConfig(restarts=restarts, seed=0)
    starts = _starts(problem, cfg, initial)
    batch = _assert_batch_matches_singles(problem, cfg, starts)
    # the restarts do stop at different steps, so some ran on alone in the batch
    assert len({len(outcome.trace) for outcome in batch}) > 1


def test_restarts_on_a_sparse_fiber_step_one_at_a_time(monkeypatch, no_merging):
    g = generate_cycle_graph(12, loop_closures=4, noise_rot=SIGMA, noise_trans=SIGMA, seed=5)
    problem, cfg = build_pgo(g), SolverConfig(restarts=3, seed=0)
    starts = _starts(problem, cfg, spanning_tree_rows(g))
    monkeypatch.setattr(solver, "_DENSE_MAX", -1)
    points = []
    fiber_product = solver._fiber_product

    def spy(jac, frames, block):
        b = fiber_product(jac, frames, block)
        points.append((len(frames), solver._is_sparse(jac), solver._is_sparse(b)))
        return b

    monkeypatch.setattr(solver, "_fiber_product", spy)
    batch = _assert_batch_matches_singles(problem, cfg, starts)
    # every step of the batch took its points one by one, each on the sparse path
    assert set(points) == {(1, True, True)}
    assert len(points) == 2 * sum(len(o.trace) for o in batch)


def test_a_restart_at_the_step_cap_leaves_the_others_their_own_outcomes(no_merging):
    # every trace ends with a row at the point its restart returns, so a run
    # of s steps has s + 1 rows: with the cap at k steps, a restart that
    # converges within k steps, k itself included, keeps its outcome, and
    # the others stop at the cap with the first k + 1 rows of their run
    ds = generate_synthetic("axyb", 10, noise_rot=SIGMA, noise_trans=SIGMA, seed=0)
    problem = build_axyb(ds)
    cfg = SolverConfig(restarts=8, seed=0)
    free = solver._stage1(problem, cfg, problem.block.project(_starts(problem, cfg)), solver._JacobianMemo())
    k = 10
    cfg = SolverConfig(restarts=8, seed=0, max_outer=k)
    capped = _assert_batch_matches_singles(problem, cfg, _starts(problem, cfg))
    assert {full.stop for full in free} == {"converged"}
    # one restart converges after exactly k steps, on the boundary
    assert any(len(full.trace) == k + 1 for full in free)
    for full, outcome in zip(free, capped):
        if len(full.trace) <= k + 1:
            assert (outcome.stop, len(outcome.trace)) == (full.stop, len(full.trace))
            assert np.array_equal(outcome.z, full.z)
        else:
            assert (outcome.stop, len(outcome.trace)) == ("max_outer", k + 1)
            assert outcome.trace == full.trace[: k + 1]
    assert {outcome.stop for outcome in capped} == {"converged", "max_outer"}


# AXYB calibrations whose optimum puts one motion's residual exactly at 0, a kink
KINK_SEEDS = (10, 11, 15, 21)


@pytest.mark.parametrize("restarts", [1, 8])
@pytest.mark.parametrize("seed", KINK_SEEDS)
def test_kink_optima_converge_on_the_subdifferential(seed, restarts):
    ds = generate_synthetic("axyb", 10, noise_rot=SIGMA, noise_trans=SIGMA, seed=seed)
    problem = build_axyb(ds)
    cfg = SolverConfig(restarts=restarts, seed=0)
    starts = problem.block.project(_starts(problem, cfg))
    stops = [o.stop for o in solver._stage1(problem, cfg, starts, solver._JacobianMemo())]
    assert "converged" in stops and set(stops) <= {"converged", "merged"}
    report = solve_eqdqo(problem, cfg)
    # the kink group sits at its kink to rounding, not at the 1e-8 band edge
    z = pack(list(report.solution))
    _, r, _, w, (starts, _) = problem.objective.stage_system(z)
    norms = np.sqrt(np.add.reduceat(r * r, starts))
    assert (w[starts] == 0).sum() == 1 and norms.min() <= 1e-12
    # the stage-I KKT residual is the distance to the subdifferential there
    assert report.kkt_residual["stage1"] <= 1e-8
    assert dqopt.kkt_analysis(problem, report.solution, stage=1).residual <= 1e-8


# stage_system's (starts, row_group) of one group of 3 rows
ONE_GROUP = (np.array([0]), np.zeros(3, int))


def _pinned_group(d=3):
    """One pinned group of ``d`` rows with ``B = I``, at its kink, for point-wise checks."""
    return np.eye(d)[None], np.zeros((1, d)), np.ones((1, d), dtype=bool)


def test_a_group_at_its_kink_is_released_only_past_multiplier_1():
    b, r, rows = _pinned_group()
    model, span = np.eye(3)[None], solver._pinned_range(b, rows)
    for size, eps in ((1.5, 0.5), (1.0 + 1e-12, solver._RELEASE_MIN)):
        # u = -g, so the group leaves along u for the model's eps, and at
        # least out of the band
        grad = np.array([[-size, 0.0, 0.0]])
        kinks = solver._kinks(b, r, np.where(rows, 0.0, 1.0), ONE_GROUP, grad)
        assert kinks.release[0] == pytest.approx([1.0, 0.0, 0.0])
        y = solver._active_solve(model, np.zeros((1, 3)), grad, r, rows, span, kinks.release)
        assert np.linalg.norm(r + y) == pytest.approx(eps, rel=1e-9)
    # within the subdifferential the group stays at its kink and the point is stationary
    grad = np.array([[-0.5, 0.25, 0.0]])
    kinks = solver._kinks(b, r, np.where(rows, 0.0, 1.0), ONE_GROUP, grad)
    assert not kinks.release.any() and kinks.settled[0] and kinks.sigma[0] <= 1e-15


def test_a_near_null_direction_of_the_pinned_rows_gives_no_multiplier():
    # singular values 1, 1 and 1e-9: the third is cut, so its gradient
    # stays in the reduced gradient instead of reading a multiplier of 1e9
    b = np.diag([1.0, 1.0, 1e-9])[None]
    r, rows = np.zeros((1, 3)), np.ones((1, 3), dtype=bool)
    grad = np.array([[0.5, 0.0, 0.3]])
    kinks = solver._kinks(b, r, np.zeros((1, 3)), ONE_GROUP, grad)
    assert kinks.u[0] == pytest.approx([-0.5, 0.0, 0.0])
    assert kinks.sigma[0] == pytest.approx(0.3)
    assert kinks.settled[0]  # |u| <= 1 and the rows at 0, but sigma is not small


@pytest.mark.parametrize("seed", [4, 10, 14])
def test_a_pinned_norm_counts_in_the_value_a_step_must_lower(seed):
    # near-noiseless AXYB: a group sits in the band at 5e-9 to 9e-9, and holding
    # it at its kink costs the others less than its norm, which the value
    # reads as 0; compared without that norm, the step looks uphill and the
    # restart stalls within two rows, at a stage-I KKT residual of 4e-3 to 0.14
    ds = generate_synthetic("axyb", 3, noise_rot=1e-6, noise_trans=1e-6, seed=seed)
    report = solve_eqdqo(build_axyb(ds), SolverConfig(restarts=1))
    assert report.kkt_residual["stage1"] <= 1e-8
    assert report.iterations["stage1"] <= 12


@pytest.mark.parametrize("seed", [0, 5, 23])
def test_a_rough_start_on_noiseless_data_ends_with_every_kink_at_rounding(seed):
    # every group enters the band, where the value reads 0, a step before its
    # rows reach 0: stopping there leaves errors of 1.5e-10 to 5e-10
    ds = generate_synthetic("axyb", 3, seed=seed)
    problem = build_axyb(ds)
    rng = np.random.default_rng([seed, 1])  # not the stream that drew the truth
    initial = problem.start + 1e-4 * rng.standard_normal(problem.start.shape)
    report = solve_eqdqo(problem, SolverConfig(restarts=1), initial)
    x, y = report.solution
    assert max(dqopt.evaluate_solution(ds, x, y).values()) <= 1e-12


def _per_edge_problem(graph):
    """``build_pgo(graph)`` with one magnitude group per edge in the objective and in ``stage1``."""
    problem = build_pgo(graph)
    ij, q, start = posegraph._tree_start(graph)
    n, sizes = graph.n, [1] * graph.m
    bilinear = posegraph.RelativePoseResidual.stack_arrays(n, *ij.T, q)
    objective = ResidualNormObjective(n, bilinear, sizes)
    stage1 = ResidualNormObjective(n, problem.stage1.rows_at, sizes)
    return solver.EqdqoProblem(objective, problem.unit, problem.anchors, start, stage1)


@pytest.mark.parametrize("n, chords, seed, rows", [
    *(pytest.param(20, 6, s, 30, id=str(s)) for s in range(5)),
    # 177 tangent directions: each step evaluates its point as a sparse stack of one
    *(pytest.param(60, 20, s, 35, id=f"60-{s}") for s in range(5)),
])
def test_per_edge_groups_converge_with_many_groups_at_their_kink(n, chords, seed, rows):
    # a sum of edge magnitudes puts many groups at their kink at once: the
    # Levenberg-Marquardt steps must hold them there too, and a step releases
    # only the group with the largest multiplier
    g = generate_cycle_graph(n, loop_closures=chords, noise_rot=SIGMA, noise_trans=SIGMA, seed=seed)
    report = solve_eqdqo(_per_edge_problem(g), SolverConfig(restarts=1))
    assert report.kkt_residual["stage1"] <= 1e-8
    assert report.iterations["stage1"] <= rows


def test_a_singular_model_on_the_pinned_rows_null_space_takes_the_least_norm_step(monkeypatch):
    # B_A = diag(1, 0, 0) fixes y_0 = 2; the model is flat along y_1 at the
    # first point, so the point falls back to the pseudo-inverse alone
    b = np.diag([1.0, 0.0, 0.0])[None].repeat(2, axis=0)
    span = solver._pinned_range(b, np.ones((2, 3), dtype=bool))
    model = np.stack([np.diag([5.0, 0.0, 2.0]), np.eye(3)])
    grad, t = np.array([[0.0, 0.0, 1.0], [0.0, 1.0, 1.0]]), np.array([[2.0, 0.0, 0.0]] * 2)
    calls = []
    solve_or_pinv = solver._solve_or_pinv
    monkeypatch.setattr(solver, "_solve_or_pinv", lambda *a: calls.append(1) or solve_or_pinv(*a))
    y = solver._pinned_solve(model, grad, span, t)
    assert len(calls) == 2
    assert y == pytest.approx(np.array([[2.0, 0.0, -0.5], [2.0, -1.0, -1.0]]), abs=1e-15)


def test_a_point_that_takes_no_step_stops_stalled_where_it_started(monkeypatch):
    # with the damping cap below its floor no Levenberg-Marquardt step is
    # tried, so a random start whose Newton step climbs takes none
    g = generate_cycle_graph(12, loop_closures=4, noise_rot=SIGMA, noise_trans=SIGMA, seed=5)
    problem, cfg = build_pgo(g), SolverConfig(restarts=4, seed=0)
    monkeypatch.setattr(solver, "_DAMP_CAP", solver._DAMP_FLOOR / 10)
    starts = _starts(problem, cfg, spanning_tree_rows(g))
    outcomes = solver._stage1(problem, cfg, problem.block.project(starts), solver._JacobianMemo())
    assert [o.stop for o in outcomes] == ["converged", "stalled", "stalled", "stalled"]
    for start, outcome in zip(starts[1:], outcomes[1:]):
        assert len(outcome.trace) == 1
        assert np.array_equal(outcome.z, problem.block.project(start[None])[0])
        assert outcome.trace[0].objective_std == outcome.value


@pytest.fixture
def formed(monkeypatch):
    """Calls of ``_fiber_product`` and ``_kinks`` (``B = J N`` and the kink record), by name."""
    calls = dict.fromkeys(("_fiber_product", "_kinks"), 0)
    for name in calls:
        def spy(*args, _name=name, _fn=getattr(solver, name)):
            calls[_name] += 1
            return _fn(*args)

        monkeypatch.setattr(solver, name, spy)
    return calls


def _noiseless_cases():
    for model, build in (("axxb", build_axxb), ("axyb", build_axyb)):
        yield model, build(generate_synthetic(model, 10, seed=1))  # the spectral start
    yield "pgo-60", build_pgo(generate_cycle_graph(60, loop_closures=20, seed=1))  # sparse fiber
    yield "pgo-per-edge", _per_edge_problem(generate_cycle_graph(20, loop_closures=6, seed=1))


@pytest.mark.parametrize("case", list(_noiseless_cases()), ids=lambda c: c[0])
def test_a_noiseless_start_stops_converged_without_forming_b(case, formed):
    # every row weighs 0 and every group norm reads 0 to rounding: a global
    # minimum, whose gradient and multipliers are 0 without B
    _, problem = case
    start = problem.start.reshape(1, -1)
    z = problem.block.project(start)
    assert not problem.stage1.stage_system(z)[3].any()
    (outcome,) = solver._stage1(problem, SolverConfig(restarts=1), z, solver._JacobianMemo())
    assert formed == {"_fiber_product": 0, "_kinks": 0}
    std, dual = problem.stage1.value_at(z)
    feas = np.max(np.abs(problem.block.values(z)[0]))
    # the one row the Jacobian path gives, with |g| and the multipliers 0
    assert outcome.trace == [TraceRow(0, 1, std[0], dual[0], feas, 0.0)]
    assert outcome.stop == "converged"
    assert np.array_equal(outcome.z, z[0])


def test_a_pinned_norm_above_rounding_still_forms_b(formed):
    # noiseless AXYB 1e-10 off its spectral start: every row weighs 0, but
    # the group norms, 1e-10 or so, are above _KINK_ROUNDING, so the point steps
    problem = build_axyb(generate_synthetic("axyb", 10, seed=1))
    rng = np.random.default_rng(7)
    start = problem.start.reshape(1, -1)
    start = problem.block.project(start + 1e-10 * rng.standard_normal(start.shape))
    _, r, _, w, (starts, _) = problem.stage1.stage_system(start)
    assert not w.any()
    assert np.sqrt(np.add.reduceat(r * r, starts, axis=-1)).max() > solver._KINK_ROUNDING
    (outcome,) = solver._stage1(problem, SolverConfig(restarts=1), start, solver._JacobianMemo())
    assert formed["_fiber_product"] > 0 and formed["_kinks"] > 0
    assert outcome.stop == "converged" and len(outcome.trace) > 1
    _, r, _, _, (starts, _) = problem.stage1.stage_system(outcome.z)
    assert np.sqrt(np.add.reduceat(r * r, starts)).max() <= solver._KINK_ROUNDING


def test_a_start_held_at_the_step_cap_by_a_pinned_norm_still_forms_b(formed):
    # AXXB, 5 motions, sigma 1e-6, seed 0: one group of five stays pinned at a
    # norm of 8.9e-9, above _KINK_ROUNDING, through all 61 rows
    problem = build_axxb(generate_synthetic("axxb", 5, noise_rot=1e-6, noise_trans=1e-6, seed=0))
    start = problem.block.project(problem.start.reshape(1, -1))
    (outcome,) = solver._stage1(problem, SolverConfig(restarts=1), start, solver._JacobianMemo())
    assert formed["_fiber_product"] == 61 and formed["_kinks"] > 0
    assert (outcome.stop, len(outcome.trace)) == ("max_outer", 61)


def test_a_step_with_a_nan_row_forms_b_for_every_point(formed):
    # a NaN weight is no 0: the step takes the Jacobian path, and the noiseless
    # point beside the NaN one gets from it the row and stop it gets alone
    problem = build_pgo(generate_cycle_graph(12, loop_closures=4, seed=5))
    clean = problem.start.reshape(-1)
    bad = clean.copy()
    bad[24:32] = np.nan  # vertex 3
    (alone,) = solver._stage1(problem, SolverConfig(restarts=1), problem.block.project(clean[None]),
                              solver._JacobianMemo())
    assert formed["_fiber_product"] == 0
    both = solver._stage1(problem, SolverConfig(restarts=2),
                          problem.block.project(np.stack([clean, bad])), solver._JacobianMemo())
    assert formed["_fiber_product"] == 1
    assert (both[0].stop, both[0].trace) == (alone.stop, alone.trace)
    assert np.array_equal(both[0].z, alone.z)
    assert both[1].stop == "stalled" and np.isnan(both[1].trace[0].kkt_residual)
