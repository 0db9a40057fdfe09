import numpy as np
import pytest

from dqopt import (
    DualQuaternion,
    EqdqoProblem,
    Quaternion,
    SolverConfig,
    anchor_constraints,
    build_axxb,
    generate_synthetic,
    inner_solve,
    kkt_analysis,
    kkt_residual,
    mu_schedule_down_to,
    pack,
    solve_eqdqo,
    solve_stage1,
    solve_stage2,
    squared_distance_objective,
    unit_norm_constraint,
)
from dqopt.errors import (
    DegenerateConstraintGradients,
    Infeasible,
    MaxIterations,
    NonStandardProblem,
)
from helpers import LeakyFunction, covering_radius, grid_min_stage1, super_fibonacci_grid

E0 = Quaternion.identity()
ZERO = Quaternion(0, 0, 0, 0)


def _toy_problem():
    # min |x - 2|^2 subject to |x|^2 = 1; optimum x = 1, value 1, multiplier 1
    return EqdqoProblem(
        squared_distance_objective(DualQuaternion.from_real(2.0)),
        (unit_norm_constraint(1, 0),),
    )


def _fast_cfg(**kw):
    base = dict(restarts=4, seed=0)
    base.update(kw)
    return SolverConfig(**base)


def test_toy_solve_reaches_analytic_optimum():
    report = solve_eqdqo(_toy_problem(), _fast_cfg())
    assert report.stage1_value == pytest.approx(1.0, abs=1e-7)
    sol = list(report.solution)[0]
    assert sol.std.approx_eq(E0, tol=1e-6)
    assert abs(report.stage2_value) <= 1e-6
    assert report.feasibility["h"] <= 1e-9
    assert report.feasibility["h_d"] <= 1e-9


def test_kkt_multiplier_at_analytic_optimum():
    z = np.zeros(8)
    z[0] = 1.0
    info = kkt_analysis(_toy_problem(), z, stage=1)
    assert not info.degenerate
    assert info.lambdas[0] == pytest.approx(1.0, abs=1e-9)
    assert info.residual <= 1e-10
    assert kkt_residual(_toy_problem(), z, stage=1) <= 1e-10


def test_problem_rejects_non_standard_objective():
    with pytest.raises(NonStandardProblem, match="objective .*LeakyFunction"):
        EqdqoProblem(LeakyFunction(), (unit_norm_constraint(1, 0),))


def test_problem_rejects_non_standard_constraint():
    objective = squared_distance_objective(DualQuaternion.identity())
    with pytest.raises(NonStandardProblem, match="constraint 1 .*LeakyFunction"):
        EqdqoProblem(objective, (unit_norm_constraint(1, 0), LeakyFunction()))


def test_kkt_rejects_a_point_of_the_wrong_arity():
    # coordinates 8-15 would belong to a second variable the problem lacks
    z = np.zeros(16)
    z[0] = 1.0
    z[8:] = 5.0
    with pytest.raises(ValueError, match=r"expected shape \(8,\)"):
        kkt_analysis(_toy_problem(), z, stage=1)
    two = [DualQuaternion.identity(), DualQuaternion.identity()]
    with pytest.raises(ValueError):
        kkt_residual(_toy_problem(), two, stage=2)


def test_kkt_stage2_at_analytic_optimum():
    # the dual row multiplier absorbs the dual objective gradient exactly
    z = np.zeros(8)
    z[0] = 1.0
    info = kkt_analysis(_toy_problem(), z, stage=2)
    assert info.residual <= 1e-10
    with pytest.raises(DegenerateConstraintGradients):
        # at a stage-I optimum the stage-II system is structurally
        # rank-deficient: the band gradient is spanned by the rows
        kkt_residual(_toy_problem(), z, stage=2)
    assert kkt_residual(_toy_problem(), z, stage=2, on_degenerate="lstsq") <= 1e-10


def test_stage1_matches_grid_enumeration_on_toy():
    grid = super_fibonacci_grid(4000)
    problem = _toy_problem()
    gmin = grid_min_stage1(problem.objective, grid)
    s1 = solve_stage1(problem, _fast_cfg())
    # objective is 2(1 + |c|)-Lipschitz in chord distance on the sphere
    lip = 2.0 * (1.0 + 2.0)
    slack = lip * covering_radius(grid, seed=1)
    assert s1.value <= gmin + 1e-7
    assert s1.value >= gmin - slack


def test_stage1_matches_grid_enumeration_on_calibration_instance():
    ds = generate_synthetic("axxb", 3, seed=17)
    problem = build_axxb(ds)
    grid = super_fibonacci_grid(4000)
    gmin = grid_min_stage1(problem.objective, grid)
    s1 = solve_stage1(problem, _fast_cfg())
    lip = 2.0 * 3  # each unit-coefficient residual term is 2-Lipschitz
    slack = lip * covering_radius(grid, seed=2)
    assert s1.value <= gmin + 1e-7
    assert s1.value >= gmin - slack


def test_stage1_ignores_initial_dual_coordinates():
    problem = _toy_problem()
    a = [DualQuaternion(Quaternion(0.3, 0.5, -0.2, 0.1), ZERO)]
    b = [DualQuaternion(Quaternion(0.3, 0.5, -0.2, 0.1), Quaternion(9, -3, 2, 7))]
    ra = solve_stage1(problem, _fast_cfg(restarts=1), initial=a)
    rb = solve_stage1(problem, _fast_cfg(restarts=1), initial=b)
    assert ra.value == rb.value
    assert all(p.approx_eq(q, tol=0.0) for p, q in zip(ra.x, rb.x))


def test_stage2_keeps_the_band():
    problem = _toy_problem()
    cfg = _fast_cfg()
    s1 = solve_stage1(problem, cfg)
    report = solve_stage2(problem, s1, cfg)
    tau = max(1e-8, 1e-6 * abs(s1.value))
    assert abs(report.stage1_value - s1.value) <= tau
    assert report.feasibility["h"] <= cfg.tol_feas
    assert report.feasibility["h_d"] <= cfg.tol_feas


def test_solve_is_deterministic():
    cfg = _fast_cfg()
    r1 = solve_eqdqo(_toy_problem(), cfg)
    r2 = solve_eqdqo(_toy_problem(), cfg)
    z1 = pack(list(r1.solution))
    z2 = pack(list(r2.solution))
    assert np.array_equal(z1, z2)
    assert r1.stage1_value == r2.stage1_value
    assert r1.restart_index == r2.restart_index
    assert len(r1.trace) == len(r2.trace)
    for a, b in zip(r1.trace, r2.trace):
        assert a == b


def test_infeasible_raises():
    # pinning x to 2 while requiring |x| = 1 admits no feasible point
    problem = EqdqoProblem(
        squared_distance_objective(DualQuaternion.identity()),
        (unit_norm_constraint(1, 0),)
        + anchor_constraints(1, 0, DualQuaternion.from_real(2.0)),
    )
    with pytest.raises(Infeasible):
        solve_eqdqo(problem, _fast_cfg(restarts=2, max_outer=6))


def test_report_json_shape():
    report = solve_eqdqo(_toy_problem(), _fast_cfg())
    data = report.to_json_dict()
    assert list(data.keys()) == [
        "stage1_value",
        "stage2_value",
        "solution",
        "multipliers",
        "kkt_residual",
        "feasibility",
        "iterations",
        "restart_index",
        "wall_time_ms",
        "config",
    ]
    assert set(data["multipliers"]) == {"lambda", "sigma"}
    assert set(data["kkt_residual"]) == {"stage1", "stage2"}
    assert data["iterations"]["stage1"] >= 1
    assert len(data["solution"]) == 1


def test_trace_rows_are_labeled_and_feasible_at_the_end():
    report = solve_eqdqo(_toy_problem(), _fast_cfg())
    stages = {row.stage for row in report.trace}
    assert stages == {1, 2}
    last_stage1 = [r for r in report.trace if r.stage == 1][-1]
    assert last_stage1.feasibility <= 1e-9


def test_inner_solve_plain_quadratic():
    # min |z - 3|^2 with one linear constraint z_0 = 1
    def obj(z):
        d = z - 3.0
        return float(d @ d), 2.0 * d

    def con(z):
        g = np.zeros(4)
        g[0] = 1.0
        return float(z[0] - 1.0), g

    z = inner_solve(obj, [con], np.zeros(4), SolverConfig(restarts=1))
    assert np.allclose(z, [1.0, 3.0, 3.0, 3.0], atol=1e-6)


def test_inner_solve_max_iterations():
    def obj(z):
        d = z - 3.0
        return float(d @ d), 2.0 * d

    def con(z):
        g = np.zeros(4)
        g[0] = 1.0
        return float(z[0] - 1.0), g

    tiny = SolverConfig(restarts=1, max_outer=1, max_inner=1, tol_grad=1e-14, tol_feas=1e-14)
    with pytest.raises(MaxIterations):
        inner_solve(obj, [con], np.full(4, 50.0), tiny)


def test_mu_schedule_builder():
    sched = mu_schedule_down_to(1e-5)
    assert sched[0] == pytest.approx(1e-2)
    assert sched[-1] == pytest.approx(1e-5)
    assert all(a > b for a, b in zip(sched, sched[1:]))
    with pytest.raises(ValueError):
        mu_schedule_down_to(0.0)


def test_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(restarts=0)
    with pytest.raises(ValueError):
        SolverConfig(tol_grad=-1.0)
    with pytest.raises(ValueError):
        SolverConfig(mu_schedule=(1e-3, 1e-2))
    with pytest.raises(ValueError):
        SolverConfig(tau_l=-0.5)
