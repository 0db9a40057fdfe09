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
    solve_eqdqo,
    spanning_tree_rows,
)

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


@pytest.mark.parametrize("kind", ["axyb", "pgo"])
def test_sparse_systems_take_the_steps_of_dense_ones(kind, monkeypatch):
    # small systems are solved densely and large ones sparsely, in both
    # stages; force the sparse path on a small problem and compare
    if kind == "pgo":
        g = generate_cycle_graph(12, loop_closures=4, noise_rot=SIGMA, noise_trans=SIGMA, seed=5)
        problem = build_pgo(g)
        initial = spanning_tree_rows(g)
    else:
        ds = generate_synthetic("axyb", 10, noise_rot=SIGMA, noise_trans=SIGMA, seed=5)
        problem, initial = build_axyb(ds), None
    cfg = SolverConfig(restarts=2, seed=0)
    dense = {r: (v, o) for v, r, o in solver._stage1_restarts(problem, cfg, initial)}
    monkeypatch.setattr(solver, "_DENSE_MAX", -1)
    sparse = {r: (v, o) for v, r, o in solver._stage1_restarts(problem, cfg, initial)}
    assert sparse.keys() == dense.keys()
    for r, (value, outcome) in sparse.items():
        assert len(outcome.trace) == len(dense[r][1].trace)
        assert value == pytest.approx(dense[r][0], rel=1e-12)
        assert np.max(np.abs(outcome.z - dense[r][1].z)) <= 1e-9
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
    batch = solver._stage1(problem, cfg, starts)
    for k, outcome in enumerate(batch):
        (alone,) = solver._stage1(problem, cfg, starts[k : k + 1])
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

    def spy(jac, frames, var):
        b = fiber_product(jac, frames, var)
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
    free = solver._stage1(problem, cfg, _starts(problem, cfg))
    k = 12
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
