import fractions
import json
import math

import numpy as np
import pytest

from dqopt import (
    DualQuaternion,
    EqdqoProblem,
    Quaternion,
    ResidualNormObjective,
    SolverConfig,
    UnitNormConstraint,
    anchor_constraints,
    build_axxb,
    build_axyb,
    build_pgo,
    generate_cycle_graph,
    generate_synthetic,
    kkt_analysis,
    pack,
    scalar_power,
    solve_eqdqo,
    spanning_tree_rows,
    squared_distance_objective,
    unpack,
)
from dqopt import solver
from dqopt.errors import ArityMismatch, Infeasible, NonStandardProblem
from dqopt.functions import ConstraintBlock
from helpers import (
    LeakyFunction,
    covering_radius,
    grid_min_stage1,
    super_fibonacci_grid,
    tangent_matrix,
)

E0 = Quaternion.identity()
ZERO = Quaternion(0, 0, 0, 0)


def _toy_problem():
    # min |x - 2|^2 subject to |x|^2 = 1; optimum x = 1, value 1, multiplier 1
    return EqdqoProblem(squared_distance_objective(DualQuaternion.from_real(2.0)), (0,))


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
    assert info.multipliers[0] == pytest.approx(1.0, abs=1e-9)
    assert info.residual <= 1e-10


def test_problem_rejects_non_standard_objective():
    with pytest.raises(NonStandardProblem, match="objective .*LeakyFunction"):
        EqdqoProblem(LeakyFunction(), (0,))
    with pytest.raises(NonStandardProblem, match="stage1 .*LeakyFunction"):
        EqdqoProblem(_toy_problem().objective, (0,), stage1=LeakyFunction())


def test_problem_rejects_an_objective_without_residual_rows():
    # standard, but stage I has no residual rows to take steps on
    squared = scalar_power(squared_distance_objective(DualQuaternion.identity()), 2)
    with pytest.raises(TypeError, match="objective .*_ScalarPower"):
        EqdqoProblem(squared, (0,))
    # the rows belong to the objective stage I minimizes, when it is another one
    with pytest.raises(TypeError, match="stage1 .*_ScalarPower"):
        EqdqoProblem(_toy_problem().objective, (0,), stage1=squared)
    rows = squared_distance_objective(DualQuaternion.identity())
    assert EqdqoProblem(squared, (0,), stage1=rows).stage1 is rows
    toy = _toy_problem()
    assert toy.stage1 is toy.objective


def test_problem_keeps_its_unit_variables_and_anchor_targets_read_only():
    objective = squared_distance_objective(DualQuaternion.identity(), arity=3)
    target = DualQuaternion.identity()
    unit = np.array([2, 0])
    problem = EqdqoProblem(objective, unit, {1: target})
    assert not hasattr(problem, "constraints")
    assert problem.unit.tolist() == [2, 0] and not problem.unit.flags.writeable
    assert unit.flags.writeable  # the caller's array is not the problem's
    assert dict(problem.anchors) == {1: target} and problem.block.size == 6
    with pytest.raises(TypeError):
        problem.anchors[0] = target
    # the unit rows in unit order, then the anchor's four
    z = np.zeros(24)
    z[16], z[8], z[10] = 2.0, 0.5, 3.0  # |x_2|^2 = 4, x_1 = (0.5, 0, 3, 0)
    h, _ = problem.block.values(z)
    assert h.tolist() == [3.0, -1.0, -0.5, 0.0, 3.0, 0.0]


def test_problem_names_a_bad_unit_variable_or_anchor_when_built():
    objective = squared_distance_objective(DualQuaternion.identity(), arity=3)
    target = DualQuaternion.identity()
    bad = [
        (ValueError, "^unit variable 3 out of range for arity 3$", (0, 3), None),
        (ValueError, "^unit variable -1 out of range for arity 3$", (-1,), None),
        (ValueError, "^unit variable 1 is listed more than once$", (2, 1, 0, 1), None),
        (ValueError, "^anchored variable 5 out of range for arity 3$", (0,), {5: target}),
        (TypeError, "^anchor target of variable 2 is not a DualQuaternion$", (),
         {2: Quaternion.identity()}),
    ]
    for error, match, unit, anchors in bad:
        with pytest.raises(error, match=match):
            EqdqoProblem(objective, unit, anchors)


def test_no_build_or_solve_constructs_a_constraint_object(monkeypatch):
    from dqopt.functions import _ComponentAnchor

    built = []
    for cls in (UnitNormConstraint, _ComponentAnchor):
        def spy(self, *args, _init=cls.__init__, **kwargs):
            built.append(type(self).__name__)
            _init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", spy)
    problems = [
        build_axxb(generate_synthetic("axxb", 8, 0.01, 0.01, seed=1)),
        build_axyb(generate_synthetic("axyb", 8, 0.01, 0.01, seed=1)),
        build_pgo(generate_cycle_graph(30, 8, 0.01, 0.01, seed=1)),
    ]
    for problem in problems:
        report = solve_eqdqo(problem, SolverConfig(restarts=2, seed=0))
        kkt_analysis(problem, report.solution, stage=1)
    assert built == []
    # the spies do record a construction
    anchor_constraints(2, 1, DualQuaternion.identity())
    assert built == ["_ComponentAnchor"] * 4


def test_kkt_reads_the_constraint_block_not_each_constraint(monkeypatch):
    calls = []
    original = UnitNormConstraint.gradient_at

    def counted(self, z):
        calls.append(self.index)
        return original(self, z)

    monkeypatch.setattr(UnitNormConstraint, "gradient_at", counted)
    problem = build_pgo(generate_cycle_graph(10, loop_closures=3, seed=0))
    z = np.tile([1.0, 0, 0, 0, 0, 0, 0, 0], 10)
    kkt_analysis(problem, z, stage=2)
    assert calls == []


def test_unconstrained_problem_solves_with_an_empty_constraint_block():
    center = DualQuaternion(Quaternion(0.5, -1.0, 2.0, 0.3), Quaternion(0.1, 0.2, -0.3, 0.4))
    report = solve_eqdqo(EqdqoProblem(squared_distance_objective(center)), _fast_cfg(restarts=2))
    assert report.stage1_value <= 1e-12
    assert list(report.solution)[0].std.approx_eq(center.std, tol=1e-6)
    assert report.feasibility == {"h": 0.0, "h_d": 0.0}
    assert report.multipliers["lambda"] == []


def test_kkt_rejects_a_point_of_the_wrong_arity():
    # coordinates 8-15 would belong to a second variable the problem lacks
    z = np.zeros(16)
    z[0] = 1.0
    z[8:] = 5.0
    with pytest.raises(ValueError, match=r"expected shape \(8,\)"):
        kkt_analysis(_toy_problem(), z, stage=1)
    two = [DualQuaternion.identity(), DualQuaternion.identity()]
    with pytest.raises(ValueError):
        kkt_analysis(_toy_problem(), two, stage=2)


def test_kkt_takes_arity_rows_of_8_as_solve_eqdqo_takes_initial():
    from dqopt import build_axxb, build_pgo, generate_cycle_graph, generate_synthetic

    for problem in (build_axxb(generate_synthetic("axxb", 6, noise_rot=0.01, seed=1)),
                    build_pgo(generate_cycle_graph(6, loop_closures=1, noise_rot=0.01, seed=2))):
        rows = problem.start
        assert rows.shape == (problem.arity, 8)
        for stage in (1, 2):
            assert kkt_analysis(problem, rows, stage) == kkt_analysis(problem, rows.ravel(), stage)
        # every other shape still raises
        for shape in ((8, problem.arity), (1, 8 * problem.arity), (1, problem.arity, 8),
                      (problem.arity + 1, 8), (problem.arity, 4)):
            if shape != rows.shape:
                with pytest.raises(ValueError, match="expected shape"):
                    kkt_analysis(problem, np.zeros(shape), 1)


def test_the_report_reads_stage_iis_rows_for_both_kkt_analyses(monkeypatch):
    # an AXYB optimum with one motion's residual at its kink: the report's
    # stage-I analysis reads the residual rows, the ones stage II evaluated
    # at the point it returned, and evaluates the objective no more
    problem = build_axyb(generate_synthetic("axyb", 10, 0.01, 0.01, seed=10))
    calls, stack, stage2 = [], problem.objective._stack, solver._stage2
    monkeypatch.setattr(problem.objective, "_stack", lambda z: calls.append(np.shape(z)) or stack(z))

    def spy(*args):
        outcome = stage2(*args)
        calls.append("stage II")
        return outcome

    monkeypatch.setattr(solver, "_stage2", spy)
    report = solve_eqdqo(problem, SolverConfig())
    assert calls[-1] == "stage II" and calls.count("stage II") >= 1
    monkeypatch.undo()
    info = kkt_analysis(problem, report.solution, 1)
    assert info.residual == report.kkt_residual["stage1"] > 0
    assert list(info.multipliers) == report.multipliers["lambda"]


def test_kkt_rejects_a_stage_other_than_1_or_2():
    with pytest.raises(ValueError, match="stage must be 1 or 2"):
        kkt_analysis(_toy_problem(), [DualQuaternion.identity()], stage=3)


def test_a_stage1_of_another_arity_raises_arity_mismatch():
    other = squared_distance_objective(DualQuaternion.identity(), 2)
    with pytest.raises(ArityMismatch, match="stage1 arity 2 != objective arity 1"):
        EqdqoProblem(_toy_problem().objective, stage1=other)


def test_kkt_stage2_at_analytic_optimum():
    # the dual row multiplier absorbs the dual objective gradient exactly
    z = np.zeros(8)
    z[0] = 1.0
    info = kkt_analysis(_toy_problem(), z, stage=2)
    assert info.residual <= 1e-10
    assert not info.degenerate
    assert info.multipliers[0] == pytest.approx(1.0, abs=1e-9)


def test_a_unit_row_on_an_anchored_variable_is_allowed_and_reads_degenerate():
    # a unit row and four anchor rows on one variable: five gradients in
    # its four coordinates are dependent, in both stages
    z = np.zeros(8)
    z[0] = 1.0
    pinned = EqdqoProblem(squared_distance_objective(DualQuaternion.from_real(2.0)), (0,),
                          {0: DualQuaternion.identity()})
    for stage in (1, 2):
        info = kkt_analysis(pinned, z, stage=stage)
        assert info.degenerate and len(info.multipliers) == 5
        assert info.residual <= 1e-10


def _constraint_functions(problem):
    """The problem's rows as dual functions, in the block's order: its independent reference."""
    n = problem.arity
    return [UnitNormConstraint(n, i) for i in problem.unit.tolist()] + [
        con for i, target in problem.anchors.items() for con in anchor_constraints(n, i, target)]


def _dense_multipliers(problem, z, stage):
    """Reference multipliers and residual from ``np.linalg.lstsq`` on the stacked gradients."""
    part = stage - 1
    slots = (8 * np.arange(problem.arity)[:, None] + 4 * part + np.arange(4)).ravel()
    target = problem.objective.gradient_at(z)[part][slots]
    g = np.array([con.gradient_at(z)[part][slots] for con in _constraint_functions(problem)])
    mult, *_ = np.linalg.lstsq(g.T, -target, rcond=None)
    return mult, float(np.linalg.norm(target + g.T @ mult))


def _noisy_graph_problem():
    graph = generate_cycle_graph(30, loop_closures=10, noise_rot=0.01, noise_trans=0.01, seed=2)
    return build_pgo(graph), spanning_tree_rows(graph)


@pytest.mark.parametrize("case", ["pgo", "axxb", "axyb"])
def test_block_multipliers_match_a_dense_least_squares_solve(case):
    if case == "pgo":
        problem, guess = _noisy_graph_problem()
        cfg = _fast_cfg(restarts=1)
    else:
        ds = generate_synthetic(case, 10, noise_rot=0.01, noise_trans=0.01, seed=1)
        problem = build_axxb(ds) if case == "axxb" else build_axyb(ds)
        guess, cfg = None, _fast_cfg()
    # stage II keeps stage I's standard coordinates, so its point serves both analyses
    report = solve_eqdqo(problem, cfg, initial=guess)
    z = pack(list(report.solution))
    for stage, name in ((1, "lambda"), (2, "mu")):
        info = kkt_analysis(problem, z, stage=stage)
        ref, ref_residual = _dense_multipliers(problem, z, stage)
        assert not info.degenerate
        assert np.max(np.abs(np.array(info.multipliers) - ref)) <= 1e-10, (case, stage)
        assert abs(info.residual - ref_residual) <= 1e-10, (case, stage)
        assert report.multipliers[name] == list(info.multipliers)


def _unprojected_problems():
    """AXYB's objective with constraints the builders never make, each at a random point."""
    objective = build_axyb(generate_synthetic("axyb", 6, noise_rot=0.01, seed=3)).objective
    target = DualQuaternion(Quaternion(0.3, -0.4, 0.5, 0.2), Quaternion(1.0, 0.2, -0.7, 0.1))
    cases = {
        "a unit row plus four anchors": ((1, 0), {1: target}),
        "a sphere variable at x = 0": ((1, 0), None),
        "a free variable": ((1,), None),
    }
    rng = np.random.default_rng(17)
    for name, (unit, anchors) in cases.items():
        for _ in range(10):
            z = rng.standard_normal(16) * rng.uniform(0.1, 10.0)
            if name == "a sphere variable at x = 0":
                z[:4] = 0.0
            yield name, EqdqoProblem(objective, unit, anchors), z


def test_block_multipliers_match_a_dense_least_squares_solve_off_the_constraint_set():
    for name, problem, z in _unprojected_problems():
        for stage in (1, 2):
            info = kkt_analysis(problem, z, stage=stage)
            ref, ref_residual = _dense_multipliers(problem, z, stage)
            slots = solver._part_indices(problem.arity, stage - 1)
            target = problem.objective.gradient_at(z)[stage - 1][slots]
            g = np.array([con.gradient_at(z)[stage - 1][slots]
                          for con in _constraint_functions(problem)])
            deficient = np.linalg.matrix_rank(g) < len(g)
            assert info.degenerate == deficient, (name, stage)
            scale = np.max(np.abs(ref))
            assert np.max(np.abs(np.array(info.multipliers) - ref)) <= 1e-12 * scale, (name, stage)
            assert abs(info.residual - ref_residual) <= 1e-12 * np.linalg.norm(target), (name, stage)


def test_pose_graph_solve_is_not_degenerate():
    problem, guess = _noisy_graph_problem()
    report = solve_eqdqo(problem, _fast_cfg(restarts=1), initial=guess)
    assert report.degenerate is False
    assert report.to_json_dict()["degenerate"] is False
    # 29 unit rows and vertex 1's 4 anchor rows
    assert len(report.multipliers["lambda"]) == len(report.multipliers["mu"]) == 33


def test_stage1_matches_grid_enumeration_on_toy():
    grid = super_fibonacci_grid(4000)
    problem = _toy_problem()
    gmin = grid_min_stage1(problem.objective, grid)
    value = solve_eqdqo(problem, _fast_cfg()).stage1_value
    # objective is 2(1 + |c|)-Lipschitz in chord distance on the sphere
    lip = 2.0 * (1.0 + 2.0)
    slack = lip * covering_radius(grid, seed=1)
    assert value <= gmin + 1e-7
    assert value >= gmin - slack


def test_stage1_matches_grid_enumeration_on_calibration_instance():
    ds = generate_synthetic("axxb", 3, seed=17)
    problem = build_axxb(ds)
    grid = super_fibonacci_grid(4000)
    gmin = grid_min_stage1(problem.objective, grid)
    value = solve_eqdqo(problem, _fast_cfg()).stage1_value
    lip = 2.0 * 3  # each unit-coefficient residual term is 2-Lipschitz
    slack = lip * covering_radius(grid, seed=2)
    assert value <= gmin + 1e-7
    assert value >= gmin - slack


def test_stage1_ignores_initial_dual_coordinates():
    # stage I steps on the standard coordinates alone (its trace rows still
    # show the dual value at the start's duals), and stage II starts from the
    # dual fiber's minimum-norm point
    problem = _toy_problem()
    a = [DualQuaternion(Quaternion(0.3, 0.5, -0.2, 0.1), ZERO)]
    b = [DualQuaternion(Quaternion(0.3, 0.5, -0.2, 0.1), Quaternion(9, -3, 2, 7))]
    ra = solve_eqdqo(problem, _fast_cfg(restarts=1), initial=a)
    rb = solve_eqdqo(problem, _fast_cfg(restarts=1), initial=b)
    assert ra.iterations == rb.iterations
    assert [(t.objective_std, t.feasibility, t.kkt_residual) for t in ra.trace] == [
        (t.objective_std, t.feasibility, t.kkt_residual) for t in rb.trace
    ]
    assert np.array_equal(pack(list(ra.solution)), pack(list(rb.solution)))


def test_stage1_trace_rows_report_the_rows_stage1_holds():
    # a spanning-tree start carries duals that stage I leaves for stage II to
    # replace; at the stage-I point they miss the dual rows by 3.3e-2
    graph = generate_cycle_graph(20, 6, 0.01, 0.01, 0)
    problem = build_pgo(graph)
    start = problem.block.project(spanning_tree_rows(graph).reshape(1, -1))
    outcome = solver._stage1(problem, SolverConfig(restarts=1), start)[0]
    assert solver._feasibility(problem, outcome.z)[1] > 3e-2
    assert len(outcome.trace) == 3
    assert max(row.feasibility for row in outcome.trace) <= 1e-15


def test_stage2_keeps_the_band():
    problem = _toy_problem()
    cfg = _fast_cfg()
    value = solver._stage1_restarts(problem, cfg, None)[0][0]
    report = solve_eqdqo(problem, cfg)
    tau = max(1e-8, 1e-6 * abs(value))
    assert abs(report.stage1_value - value) <= tau
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


def _off_the_sphere():
    # pinning x to 2 while requiring |x| = 1 admits no feasible point
    return EqdqoProblem(squared_distance_objective(DualQuaternion.identity()), (0,),
                        {0: DualQuaternion.from_real(2.0)})


def _dual_rows_that_cannot_hold():
    # the anchor sets x = 1 + eps, on the unit row's standard part, but the
    # unit row's dual part 2 <x, x_d> = 2 cannot vanish
    return EqdqoProblem(squared_distance_objective(DualQuaternion.identity()), (0,),
                        {0: DualQuaternion(Quaternion(1, 0, 0, 0), Quaternion(1, 0, 0, 0))})


def test_infeasible_raises():
    with pytest.raises(Infeasible):
        solve_eqdqo(_off_the_sphere(), _fast_cfg(restarts=2, max_outer=6))


def test_dual_rows_that_cannot_hold_raise_infeasible():
    with pytest.raises(Infeasible):
        solve_eqdqo(_dual_rows_that_cannot_hold(), _fast_cfg(restarts=2))


def test_infeasible_names_the_restarts_that_ran():
    # every restart of the pinned toy runs and ends off its unit row
    with pytest.raises(Infeasible, match=r"across restarts \[0, 1, 2\] \(best feasibility"):
        solve_eqdqo(_off_the_sphere(), _fast_cfg(restarts=3, max_outer=6))
    # restart 0 of the dual toy starts at value 0, so it runs alone, and
    # stage II cannot hold its dual unit row
    with pytest.raises(Infeasible, match=r"across restarts \[0\] \(stage II left h_d"):
        solve_eqdqo(_dual_rows_that_cannot_hold(), _fast_cfg(restarts=8))


def test_report_json_shape():
    report = solve_eqdqo(_toy_problem(), _fast_cfg())
    data = report.to_json_dict()
    assert list(data.keys()) == [
        "stage1_value",
        "stage2_value",
        "solution",
        "multipliers",
        "kkt_residual",
        "degenerate",
        "feasibility",
        "iterations",
        "restart_index",
        "wall_time_ms",
        "config",
    ]
    assert set(data["multipliers"]) == {"lambda", "mu"}
    assert data["degenerate"] is False
    assert set(data["kkt_residual"]) == {"stage1", "stage2"}
    assert data["iterations"]["stage1"] >= 1
    assert len(data["solution"]) == 1


def test_trace_rows_are_labeled_and_feasible_at_the_end():
    report = solve_eqdqo(_toy_problem(), _fast_cfg())
    stages = {row.stage for row in report.trace}
    assert stages == {1, 2}
    last_stage1 = [r for r in report.trace if r.stage == 1][-1]
    assert last_stage1.feasibility <= 1e-9


def test_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(restarts=0)
    with pytest.raises(ValueError):
        SolverConfig(tol_grad=-1.0)
    with pytest.raises(ValueError, match="seed must be non-negative, got -1"):
        SolverConfig(seed=-1)
    with pytest.raises(ValueError, match="iteration caps must be positive"):
        SolverConfig(max_outer=0)
    # the restarts advance as one batch: threads stays a name that accepts 1
    for threads in (0, 2):
        with pytest.raises(ValueError, match=f"^threads must be 1, got {threads}$"):
            SolverConfig(threads=threads)
    # a NaN tolerance passes every comparison, and an infinite one stops nothing
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="positive and finite"):
            SolverConfig(tol_grad=bad)
        with pytest.raises(ValueError, match="positive and finite"):
            SolverConfig(tol_feas=bad)
    # a NumPy integer count is range-checked as an int is
    with pytest.raises(ValueError, match="restarts must be at least 1"):
        SolverConfig(restarts=np.int64(0))
    # stage I takes Gauss-Newton steps: there is no smoothing schedule or inner solver to set
    with pytest.raises(TypeError):
        SolverConfig(mu_schedule=(1e-3, 1e-2))
    with pytest.raises(TypeError):
        SolverConfig(max_inner=300)
    # stage II cannot move the standard value, so there is no band width to set
    with pytest.raises(TypeError):
        SolverConfig(tau_l=1e-6)


NON_INTEGER_COUNTS = [
    ("restarts", 2.5),  # once ended in a TypeError from range
    ("max_outer", 3.5),  # likewise
    ("seed", 1.5),  # once ended inside SeedSequence
    ("threads", 2.5),  # once solved and echoed 2.5
    ("restarts", True),  # once echoed true
]


@pytest.mark.parametrize("name,value", NON_INTEGER_COUNTS)
def test_config_rejects_counts_that_are_not_integers(name, value):
    with pytest.raises(ValueError, match=f"^{name} must be an integer, got {value!r}$"):
        SolverConfig(**{name: value})


NON_REAL_TOLERANCES = [
    ("tol_grad", True),  # once echoed true
    ("tol_feas", False),
    ("tol_grad", "1e-9"),  # once ended in a TypeError from <
    ("tol_feas", None),
    ("tol_grad", 1e-9j),
]


@pytest.mark.parametrize("name,value", NON_REAL_TOLERANCES)
def test_config_rejects_tolerances_that_are_not_real(name, value):
    with pytest.raises(ValueError, match=f"^{name} must be a real number, got {value!r}$"):
        SolverConfig(**{name: value})


def test_config_stores_real_tolerances_as_float():
    # a NumPy float32 tolerance once made json.dumps of the report raise
    cfg = SolverConfig(tol_grad=np.float32(1e-9), tol_feas=fractions.Fraction(1, 10**9))
    assert [type(cfg.tol_grad), type(cfg.tol_feas)] == [float, float]
    assert (cfg.tol_grad, cfg.tol_feas) == (float(np.float32(1e-9)), 1e-9)
    report = json.loads(json.dumps(solve_eqdqo(_toy_problem(), cfg).to_json_dict()))
    assert report["config"]["tol_grad"] == float(np.float32(1e-9))


def test_config_stores_numpy_integer_counts_as_int():
    # a NumPy integer echoed in the report once made json.dumps raise
    cfg = SolverConfig(restarts=np.int64(3), seed=np.uint8(2), max_outer=np.int32(40),
                       threads=np.int16(1))
    counts = [getattr(cfg, name) for name in ("restarts", "seed", "max_outer", "threads")]
    assert [type(count) for count in counts] == [int] * 4
    report = json.loads(json.dumps(solve_eqdqo(_toy_problem(), cfg).to_json_dict()))
    assert report["config"] == {"restarts": 3, "seed": 2, "tol_grad": 1e-9, "tol_feas": 1e-9,
                                "max_outer": 40, "threads": 1}
    assert list(report["config"]) == ["restarts", "seed", "tol_grad", "tol_feas", "max_outer",
                                      "threads"]


def _count_fibers_after_stage1(monkeypatch):
    """Counts of ``_fiber_product`` calls made after stage I's restarts return."""
    calls = []
    fiber_product, stage1_restarts = solver._fiber_product, solver._stage1_restarts

    def counted(*args, **kwargs):
        calls.append(1)
        return fiber_product(*args, **kwargs)

    def restarts(*args, **kwargs):
        scored = stage1_restarts(*args, **kwargs)
        calls.clear()
        return scored

    monkeypatch.setattr(solver, "_fiber_product", counted)
    monkeypatch.setattr(solver, "_stage1_restarts", restarts)
    return calls


def test_one_fiber_is_built_per_stage2_candidate_capped_or_not(monkeypatch):
    # stage II forms its own B = J N from the objective's slope at the point
    # stage I returns, a capped stage I's included: one product per candidate
    problem, guess = _noisy_graph_problem()
    calls = _count_fibers_after_stage1(monkeypatch)
    report = solve_eqdqo(problem, _fast_cfg(restarts=1), initial=guess)
    assert report.iterations["stage1"] < 60 and len(calls) == 1
    calls = _count_fibers_after_stage1(monkeypatch)
    report = solve_eqdqo(problem, _fast_cfg(restarts=1, max_outer=1), initial=guess)
    assert report.iterations["stage1"] == 2 and len(calls) == 1


def test_a_solve_evaluates_the_objective_gradient_once(monkeypatch):
    # both KKT analyses of the report read one gradient at stage II's point
    calls = []
    original = ResidualNormObjective.gradient_at

    def counted(self, z, *rows):
        calls.append(z)
        return original(self, z, *rows)

    monkeypatch.setattr(ResidualNormObjective, "gradient_at", counted)
    problem, guess = _noisy_graph_problem()
    for prob, cfg, initial in (
        (build_axxb(generate_synthetic("axxb", 8, noise_rot=0.01, seed=2)), _fast_cfg(restarts=3), None),
        (problem, _fast_cfg(restarts=1), guess),
    ):
        calls.clear()
        solve_eqdqo(prob, cfg, initial=initial)
        assert len(calls) == 1


@pytest.mark.parametrize("model", ["axxb", "axyb"])
def test_the_stage1_analysis_at_stage2s_point_is_the_one_at_stage1s(model):
    # stage II keeps the standard coordinates, which are all the stage-I
    # analysis reads
    for seed in range(3):
        ds = generate_synthetic(model, 8, noise_rot=0.01, noise_trans=0.01, seed=seed)
        problem = (build_axxb if model == "axxb" else build_axyb)(ds)
        cfg = _fast_cfg(restarts=2)
        report = solve_eqdqo(problem, cfg)
        scored = solver._stage1_restarts(problem, cfg, None)
        stage1 = next(o for _, r, o in scored if r == report.restart_index)
        info = kkt_analysis(problem, stage1.z, stage=1)
        assert report.kkt_residual["stage1"] == info.residual
        assert report.multipliers["lambda"] == list(info.multipliers)


def test_an_initial_array_starts_restart_zero_as_dual_quaternions_do():
    g = generate_cycle_graph(12, loop_closures=4, noise_rot=0.01, noise_trans=0.01, seed=5)
    problem, cfg = build_pgo(g), SolverConfig(restarts=2, seed=0)
    rows = spanning_tree_rows(g)
    from_rows = solve_eqdqo(problem, cfg, initial=rows)
    from_objects = solve_eqdqo(problem, cfg, initial=list(unpack(rows.reshape(-1), g.n)))
    assert from_rows.trace == from_objects.trace
    assert np.array_equal(pack(list(from_rows.solution)), pack(list(from_objects.solution)))
    for bad in (rows[:-1], rows.reshape(-1), rows[:, :4]):
        with pytest.raises(ArityMismatch):
            solve_eqdqo(problem, cfg, initial=bad)


def test_initial_overrides_the_problems_start_and_only_restart_zero_takes_either():
    problem = build_axxb(generate_synthetic("axxb", 10, 0.01, 0.01, seed=3))
    bare = EqdqoProblem(problem.objective, problem.unit, problem.anchors)
    cfg = SolverConfig(restarts=3, seed=0)
    assert bare.start is None and not problem.start.flags.writeable
    assert np.array_equal(solver._restart_start(problem, cfg, None, 0), problem.start.ravel())
    for r in (1, 2):
        assert np.array_equal(solver._restart_start(problem, cfg, None, r),
                              solver._restart_start(bare, cfg, None, r))
    rows = np.array([[0.5, 0.5, -0.5, 0.5, 0.0, 0.0, 0.0, 0.0]])
    given, given_bare = (solve_eqdqo(p, cfg, initial=rows) for p in (problem, bare))
    assert given.trace == given_bare.trace and given.restart_index == given_bare.restart_index
    assert solve_eqdqo(problem, cfg).trace != given.trace


def test_a_start_of_the_wrong_shape_raises_arity_mismatch():
    problem = build_axyb(generate_synthetic("axyb", 6, seed=4))
    rows = np.array(problem.start)
    for bad in (rows[:1], rows.reshape(-1), rows[:, :4], [DualQuaternion.identity()]):
        with pytest.raises(ArityMismatch):
            EqdqoProblem(problem.objective, problem.unit, problem.anchors, bad)
    objects = [DualQuaternion(Quaternion(*row[:4]), Quaternion(*row[4:])) for row in rows]
    from_objects = EqdqoProblem(problem.objective, problem.unit, problem.anchors, objects)
    assert np.array_equal(from_objects.start, rows)


@pytest.mark.parametrize("restarts", [1, 8])
@pytest.mark.parametrize("fill, fault", [(np.nan, "non-finite entry"), (np.inf, "non-finite entry"),
                                         (0.0, "zero standard part on a unit row")])
def test_an_unusable_initial_guess_raises_value_error_naming_it(restarts, fill, fault):
    # a NaN point read as stage-I value 0 once, ran restart 0 alone and
    # failed the solve as infeasible, blaming the constraints
    problem = build_axxb(generate_synthetic("axxb", 6, 0.01, 0.01, 1))
    with pytest.raises(ValueError, match=f"^initial guess variable 0 has a {fault}$"):
        solve_eqdqo(problem, SolverConfig(restarts=restarts), initial=np.full((1, 8), fill))


def test_a_start_with_non_finite_rows_or_a_zero_standard_part_raises_value_error_naming_it():
    problem = build_axyb(generate_synthetic("axyb", 6, seed=4))
    rows = np.array(problem.start)
    rows[1, 5] = np.nan
    with pytest.raises(ValueError, match="^start variable 1 has a non-finite entry$"):
        EqdqoProblem(problem.objective, problem.unit, problem.anchors, rows)
    rows[1] = 0.0
    zero = EqdqoProblem(problem.objective, problem.unit, problem.anchors, rows)
    for restarts in (1, 8):
        with pytest.raises(ValueError, match="^start variable 1 has a zero standard part"):
            solve_eqdqo(zero, SolverConfig(restarts=restarts))


def test_the_report_takes_stage2s_last_evaluation_of_its_point(monkeypatch):
    # the last stage-II trace row is evaluated at the final point, so the
    # candidate check and the report evaluate neither the value nor the rows again
    problem, guess = _noisy_graph_problem()
    after = []
    stage2, value_at, feasibility = solver._stage2, problem.objective.value_at, solver._feasibility

    def tracked(*args):
        outcome = stage2(*args)
        after[:] = ["stage2"]
        return outcome

    monkeypatch.setattr(solver, "_stage2", tracked)
    monkeypatch.setattr(problem.objective, "value_at",
                        lambda z, *rows: after.append("value") or value_at(z, *rows))
    monkeypatch.setattr(solver, "_feasibility", lambda p, z: after.append("rows") or feasibility(p, z))
    cfg = _fast_cfg(restarts=1)
    report = solve_eqdqo(problem, cfg, initial=guess)
    assert after == ["stage2"]
    last = report.trace[-1]
    assert (last.objective_std, last.objective_dual) == (report.stage1_value, report.stage2_value)
    assert last.feasibility == max(report.feasibility.values())


def test_a_singular_point_of_a_dense_stack_solves_to_nan_and_leaves_the_others_alone():
    from dqopt.solver import _reduced_solve

    rng = np.random.default_rng(11)
    a = rng.standard_normal((4, 5, 5))
    h = a @ a.swapaxes(-1, -2)
    # a zero row and column: the elimination meets an exactly zero pivot
    h[2, 3, :] = h[2, :, 3] = 0.0
    rhs = rng.standard_normal((4, 5))
    shift = rng.uniform(0.5, 1.0, (4, 1))
    shift[2] = 0.0
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.solve(h + shift[..., None] * np.eye(5), rhs[..., None])
    out = _reduced_solve(h, rhs, shift)
    assert np.isnan(out[2]).all()
    for k in (0, 1, 3):
        alone = _reduced_solve(h[k], rhs[k], shift[k])
        assert np.isfinite(alone).all()
        assert out[k].tobytes() == alone.tobytes()


def _plain_fiber_product(jac, frames, var):
    """``J N`` point by point and entry by entry, the 4 products of each column added left to right."""
    out = np.empty((len(frames), jac.shape[-2], var.size))
    for p, frame in enumerate(frames):
        j = jac if jac.ndim == 2 else jac[p]
        for col, v in enumerate(var.tolist()):
            prods = [j[:, 4 * v + c] * frame[col, c] for c in range(4)]
            out[p, :, col] = ((prods[0] + prods[1]) + prods[2]) + prods[3]
    return out


@pytest.mark.parametrize("name, problem, count", [
    ("pgo", build_pgo(generate_cycle_graph(12, 4, noise_rot=0.01, seed=3)), 1),
    ("pgo", build_pgo(generate_cycle_graph(12, 4, noise_rot=0.01, seed=3)), 2),
    ("axxb", build_axxb(generate_synthetic("axxb", 8, noise_rot=0.01, noise_trans=0.01, seed=4)), 8),
    ("axyb", build_axyb(generate_synthetic("axyb", 8, noise_rot=0.01, noise_trans=0.01, seed=5)), 8),
], ids=["pgo-1", "pgo-2", "axxb-8", "axyb-8"])
def test_the_dense_fiber_product_adds_each_columns_four_products_left_to_right(name, problem, count):
    rng = np.random.default_rng(30)
    z = problem.block.project(np.stack([solver._random_start(problem.arity, rng) for _ in range(count)]))
    frames, var = problem.block.tangent(z), problem.block.var
    jac = problem.objective.stage_system(z)[0](False)
    # pose graphs give one Jacobian per point, hand-eye problems one for the stack
    assert jac.ndim == (3 if name == "pgo" else 2)
    b = solver._fiber_product(jac, frames, problem.block)
    assert b.flags.c_contiguous
    assert b.tobytes() == _plain_fiber_product(jac, frames, var).tobytes()


def _mixed_block():
    # variable 0 anchored, 1 and 3 on the sphere, 2 free
    target = DualQuaternion(Quaternion(0.6, 0.8, 0, 0), Quaternion(0, 1, 2, 3))
    return ConstraintBlock(4, (3, 1), {0: target})


@pytest.mark.parametrize("block", [
    build_pgo(generate_cycle_graph(12, 4, noise_rot=0.01, seed=3)).block,
    build_axyb(generate_synthetic("axyb", 8, noise_rot=0.01, noise_trans=0.01, seed=5)).block,
    _mixed_block(),
    ConstraintBlock(1, (), {0: DualQuaternion.identity()}),
], ids=["pgo", "axyb", "mixed", "anchored"])
def test_the_tangent_step_is_the_null_basis_times_y(block):
    from dqopt._sparse import sparse

    rng = np.random.default_rng(32)
    z = block.project(rng.standard_normal((3, 8 * block.arity)))
    frames = block.tangent(z)
    y = rng.standard_normal((3, block.var.size))
    y[:, ::4] = 0.0  # zero steps give signed-zero products
    step = solver._tangent_step(block, frames, y)
    rows = block.slots
    for p in range(3):
        null = tangent_matrix(block, z[p])
        dense = null @ y[p]
        assert np.max(np.abs(step[p] - dense), initial=0.0) <= 1e-14 * np.max(np.abs(dense),
                                                                              initial=0.0)
        # the sparse basis the fiber product builds, and SciPy's product with it
        csc = sparse.csc_matrix((frames[p].reshape(-1), rows, np.arange(0, rows.size + 1, 4)),
                                null.shape)
        assert np.array_equal(csc.toarray(), null)
        assert step[p].tobytes() == (csc @ y[p]).tobytes()
        # a point alone steps as it does in the stack
        assert solver._tangent_step(block, frames[p], y[p]).tobytes() == step[p].tobytes()


@pytest.mark.parametrize("case", ["axyb", "pgo"])
def test_a_solution_held_as_rows_reads_as_its_unpacked_entries(case):
    from dqopt.handeye import evaluate_solution, pose_errors, pose_rows
    from dqopt.posegraph import vertex_errors

    if case == "axyb":
        data = generate_synthetic("axyb", 8, noise_rot=0.01, noise_trans=0.01, seed=5)
        problem = build_axyb(data)
    else:
        data = generate_cycle_graph(30, 8, noise_rot=0.01, noise_trans=0.01, seed=3)
        problem = build_pgo(data)
    solution = solve_eqdqo(problem, SolverConfig(restarts=2, seed=0)).solution
    rows = solution.rows
    assert rows.shape == (problem.arity, 8) and not rows.flags.writeable
    entries = list(solution)
    assert pack(entries).tobytes() == rows.tobytes()
    assert pack(unpack(rows.reshape(-1), problem.arity)).tobytes() == rows.tobytes()
    assert entries == list(unpack(rows.reshape(-1), problem.arity))
    # repr tells -0.0 from 0.0, which == does not
    assert repr(solution.to_json_list()) == repr([e.to_dict() for e in solution.entries])
    assert pose_rows(solution).tobytes() == pose_rows(entries).tobytes()
    if case == "axyb":
        rot, trans = pose_errors(np.array([data.ground_truth_x, data.ground_truth_y]),
                                 pose_rows(solution))
        errors = evaluate_solution(data, *entries)
        assert [errors[f"{kind}_error_{name}"] for kind in ("rotation", "translation")
                for name in "xy"] == rot + trans
    else:
        assert repr(vertex_errors(data, solution)) == repr(vertex_errors(data, entries))
