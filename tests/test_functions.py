import re

import numpy as np
import pytest

from dqopt import (
    ConstraintBlock,
    DualFunction,
    DualNumber,
    DualQuaternion,
    DualQuaternionMap,
    Quaternion,
    RelativePoseResidual,
    ResidualNormObjective,
    UnitDualQuaternion,
    UnitNormConstraint,
    affine_rows,
    anchor_constraints,
    build_axxb,
    build_axyb,
    check_standardness,
    combine,
    compose_unit,
    fd_gradient,
    generate_synthetic,
    gradient_check,
    map_power,
    normalize_map,
    pack,
    scalar_power,
    squared_distance_objective,
    unit_exp,
    unit_log,
    unpack,
    variable_map,
)
from dqopt import solver
from dqopt.algebra import right_mult_matrix
from dqopt.errors import ArityMismatch, NonUnitValue
from helpers import (
    LeakyFunction,
    affine_objective,
    affine_stack,
    affine_value,
    tangent_matrix,
    term_matrix,
)

I = Quaternion(0, 1, 0, 0)
ONE = Quaternion.identity()
ZERO = Quaternion(0, 0, 0, 0)
ONE_DQ = DualQuaternion.identity()
ZERO_DQ = DualQuaternion.zero()


def _rand_dq(rng):
    c = rng.standard_normal(8)
    return DualQuaternion(Quaternion(*c[:4]), Quaternion(*c[4:]))


def test_pack_unpack_roundtrip():
    rng = np.random.default_rng(79)
    values = [_rand_dq(rng) for _ in range(3)]
    z = pack(values)
    assert z.shape == (24,)
    back = unpack(z, 3)
    for a, b in zip(values, back):
        assert a.approx_eq(b, tol=0.0)
    # layout: variable i occupies [8i, 8i+4) std and [8i+4, 8i+8) dual
    assert np.allclose(z[8:12], values[1].std.as_array())
    assert np.allclose(z[12:16], values[1].dual.as_array())


def test_variable_and_power_magnitudes():
    rng = np.random.default_rng(83)
    f = variable_map(2, 1).magnitude()
    g = map_power(variable_map(2, 0), 2).magnitude()
    for _ in range(50):
        a, b = _rand_dq(rng), _rand_dq(rng)
        assert f.value((a, b)) == b.magnitude()
        assert g.value((a, b)).approx_eq((a * a).magnitude(), tol=1e-12)


def test_a_power_of_the_single_variable_map():
    cube = map_power(variable_map(1, 0), 3)
    assert cube.arity == 1
    rng = np.random.default_rng(89)
    q = _rand_dq(rng)
    assert cube(q).approx_eq(q * q * q, tol=1e-12)


def test_combine_ops_match_dual_arithmetic():
    rng = np.random.default_rng(97)
    f = variable_map(1, 0).magnitude()
    g = squared_distance_objective(DualQuaternion.identity())
    for op in ("sum", "product", "min", "max"):
        h = combine(f, g, op)
        q = _rand_dq(rng)
        a, b = f.value((q,)), g.value((q,))
        expect = {
            "sum": a + b,
            "product": a * b,
            "min": a if a <= b else b,
            "max": a if a >= b else b,
        }[op]
        assert h.value((q,)) == expect


def test_combine_rejects_arity_mismatch():
    with pytest.raises(ArityMismatch):
        combine(variable_map(1, 0).magnitude(), variable_map(2, 0).magnitude(), "sum")


def test_combined_gradients_at_generic_points():
    rng = np.random.default_rng(139)
    f = affine_objective(1, [[([(_rand_dq(rng), 0, _rand_dq(rng))], _rand_dq(rng))]])
    g = squared_distance_objective(_rand_dq(rng))
    for op in ("sum", "product", "min", "max"):
        h = combine(f, g, op)
        for _ in range(5):
            rep = gradient_check(h, rng.standard_normal(8))
            assert rep.passed, (op, rep.max_rel_error_std, rep.max_rel_error_dual)


def test_min_and_max_ties_take_the_first_arguments_gradient():
    # g's center is f's reflected through x, so both parts of the values tie
    # exactly while the gradients differ in sign
    x = DualQuaternion(Quaternion(1, 2, 0, 0), Quaternion(0, 1, 0, 0))
    f = squared_distance_objective(DualQuaternion.zero())
    g = squared_distance_objective(x + x)
    z = pack([x])
    assert f.value_at(z) == g.value_at(z)
    first = np.concatenate(f.gradient_at(z))
    assert not np.array_equal(first, np.concatenate(g.gradient_at(z)))
    for op in ("min", "max"):
        assert np.array_equal(np.concatenate(combine(f, g, op).gradient_at(z)), first)
    # the values tie the same way: equal dual numbers, the first one returned
    a, b = DualNumber(1.0, 2.0), DualNumber(1.0, 2.0)
    for op in ("min", "max"):
        assert combine(_Constant(a), _Constant(b), op).value((x,)) is a


class _Constant(DualFunction):
    def __init__(self, value):
        super().__init__(1, declared_standard=True)
        self.constant = value

    def value(self, values):
        return self.constant


def test_calling_a_function_checks_its_arity():
    rng = np.random.default_rng(149)
    f = squared_distance_objective(_rand_dq(rng))
    q = _rand_dq(rng)
    assert f(q) == f.value((q,))
    with pytest.raises(ArityMismatch, match="expected 1 arguments, got 2"):
        f(q, q)


def test_scalar_power_dual_rule():
    # (a + b eps)^3 = a^3 + 3 a^2 b eps
    f = scalar_power(variable_map(1, 0).magnitude(), 3)
    q = DualQuaternion(Quaternion(2, 0, 0, 0), I)
    v = f.value((q,))
    m = q.magnitude()
    assert v.std == pytest.approx(m.std**3)
    assert v.dual == pytest.approx(3 * m.std**2 * m.dual)


def test_standardness_accepts_standard_compositions():
    fns = [
        variable_map(2, 0).magnitude(),
        combine(
            map_power(variable_map(2, 1), 2).magnitude(),
            variable_map(2, 0).magnitude(),
            "max",
        ),
        compose_unit(
            lambda u: unit_log(u).magnitude(),
            normalize_map(variable_map(2, 1)),
            validate=False,
            declared_standard=True,
        ),
    ]
    for k, fn in enumerate(fns):
        rep = check_standardness(fn, arity=2, n_samples=60, seed=k)
        assert rep.passed, rep.max_std_delta


def test_standardness_catches_violations():
    rep = check_standardness(LeakyFunction(), n_samples=40, seed=5)
    assert not rep.passed
    assert rep.witness is not None
    assert rep.max_std_delta > 1e-6


def test_compose_unit_validation():
    f = compose_unit(lambda u: unit_log(u).magnitude(), variable_map(1, 0))
    with pytest.raises(NonUnitValue):
        f.value((DualQuaternion(Quaternion(3, 0, 0, 0), ZERO),))


def test_unit_log_exp_inverse_pair():
    rng = np.random.default_rng(101)
    for _ in range(50):
        axis = rng.standard_normal(3)
        axis /= np.linalg.norm(axis)
        rot = Quaternion.exp_axis_angle(float(rng.uniform(0.2, 2.5)), Quaternion(0, *axis))
        from dqopt import UnitDualQuaternion

        u = UnitDualQuaternion.from_pose(rot, Quaternion(0, *rng.standard_normal(3)))
        v = unit_exp(unit_log(u))
        assert v.std.approx_eq(u.std, tol=1e-10)
        assert v.dual.approx_eq(u.dual, tol=1e-10)


def test_affine_residual_eval_matches_rows():
    rng = np.random.default_rng(103)
    for _ in range(50):
        left = _rand_dq(rng)
        right = _rand_dq(rng)
        const = _rand_dq(rng)
        r = ([(left, 0, right), (const, 1, DualQuaternion.identity())], ZERO_DQ)
        rows = affine_stack(2, [r])
        values = (_rand_dq(rng), _rand_dq(rng))
        z = pack(list(values))
        exact = affine_value(r, values)
        r_std, r_dual, pullback, _ = rows(z)
        assert np.allclose(r_std, exact.std.as_array(), atol=1e-12)
        assert np.allclose(r_dual, exact.dual.as_array(), atol=1e-12)
        # rows are affine: central differences of w . r are exact up to rounding
        w_std, w_dual = rng.standard_normal((2, 4))
        grads = (pullback(w_std), pullback(np.zeros(4), w_dual))
        for c in range(16):
            dz = np.zeros(16)
            dz[c] = 0.5
            plus, minus = rows(z + dz), rows(z - dz)
            for part, w in enumerate((w_std, w_dual)):
                fd = w @ (plus[part] - minus[part])
                assert abs(fd - grads[part][c]) <= 1e-12


def test_affine_pullback_is_the_stacked_jacobian_product():
    rng = np.random.default_rng(107)
    res = [([(_rand_dq(rng), v, _rand_dq(rng))], _rand_dq(rng)) for v in (0, 2, 1, 2)]
    # the reference: each term's standard and dual matrices placed by hand,
    # the dual rows M_d x_s + M_s x_d
    jac_std, jac_dual = np.zeros((2, 16, 24))
    for e, ([(left, v, right)], _) in enumerate(res):
        m_std, m_dual = term_matrix(left, right)
        jac_std[4 * e : 4 * e + 4, 8 * v : 8 * v + 4] = m_std
        jac_dual[4 * e : 4 * e + 4, 8 * v : 8 * v + 4] = m_dual
        jac_dual[4 * e : 4 * e + 4, 8 * v + 4 : 8 * v + 8] = m_std
    _, _, pullback, _ = affine_stack(3, res)(rng.standard_normal(24))
    a, b = rng.standard_normal((2, 16))
    assert np.array_equal(pullback(a), jac_std.T @ a)
    assert np.array_equal(pullback(a, b), jac_std.T @ a + jac_dual.T @ b)


def test_residual_norm_objective_branches():
    # group 1 appreciable, group 2 purely dual; the exact value adds
    # |r_s| + <r_s, r_d>/|r_s| for the first and |r_d| eps for the second
    g1 = ([], DualQuaternion(Quaternion(3, 0, 0, 0), I))
    g2 = ([], DualQuaternion(ZERO, Quaternion(0, 0, 4, 3)))
    obj = affine_objective(1, [[g1], [g2]])
    v = obj.value((DualQuaternion.zero(),))
    assert v.std == pytest.approx(3.0)
    assert v.dual == pytest.approx(0.0 + 5.0)  # <(3,0,0,0),(0,1,0,0)>/3 = 0, then |r_d|


def test_squared_magnitude_pitfall():
    # a nonzero purely-dual residual is invisible to squared magnitudes
    r = DualQuaternion(ZERO, Quaternion(0, 3, 0, 4))
    squared = (r * r.conjugate()).as_dual_number()
    assert squared == DualNumber(0.0, 0.0)
    true_mag = r.magnitude()
    assert true_mag.compare(DualNumber(0.0, 0.0)) > 0
    assert true_mag == DualNumber(0.0, 5.0)

    # same story through the objective builder: the norm objective sees it
    obj = affine_objective(1, [[([], r)]])
    v = obj.value((DualQuaternion.zero(),))
    assert v > DualNumber(0.0, 0.0)
    sq = squared_distance_objective(DualQuaternion.zero())
    # |x - 0|^2 at x = r: standard part 0 and dual part 0, a blind spot
    assert sq.value((r,)) == DualNumber(0.0, 0.0)


def test_unit_norm_constraint_values():
    h = UnitNormConstraint(1, 0)
    on_unit = DualQuaternion(ONE, I)  # <std, dual> = 0
    assert h.value((on_unit,)) == DualNumber(0.0, 0.0)
    off = DualQuaternion(Quaternion(2, 0, 0, 0), ONE)
    v = h.value((off,))
    assert v.std == pytest.approx(3.0)  # |q|^2 - 1
    assert v.dual == pytest.approx(4.0)  # 2 <std, dual>


def test_anchor_constraints_pin_components():
    target = DualQuaternion(ONE, I)
    cons = anchor_constraints(2, 1, target)
    assert len(cons) == 4
    values = (DualQuaternion.zero(), target)
    for h in cons:
        assert h.value(values) == DualNumber(0.0, 0.0)
    values = (DualQuaternion.zero(), DualQuaternion(Quaternion(1, 0, 2, 0), I))
    hit = [h.value(values) for h in cons]
    assert hit[2] == DualNumber(2.0, 0.0)


def test_anchor_constraints_reject_an_index_out_of_range():
    for index in (2, 5, -1):
        with pytest.raises(ValueError, match="out of range"):
            anchor_constraints(2, index, DualQuaternion.identity())


def _mixed_constraints(n, target):
    """``(unit, anchors, functions)``: the block's data, and its rows as dual functions in order.

    Mixed and unsorted: unit variables and anchors out of variable order;
    variables 0 and 2 carry a unit row and four anchor rows, so five
    gradients share their columns; variable 1 is a sphere, and every
    variable from 3 on is free.
    """
    unit, anchors = (1, 0, 2), {2: target, 0: target}
    rows = [UnitNormConstraint(n, i) for i in unit]
    for i, t in anchors.items():
        rows.extend(anchor_constraints(n, i, t))
    return unit, anchors, tuple(rows)


def _stage_jacobian(cons, z):
    """``G`` stacked from each constraint's own ``gradient_at``, over the standard slots."""
    std = (8 * np.arange(len(z) // 8)[:, None] + np.arange(4)).ravel()
    return np.array([con.gradient_at(z)[0][std] for con in cons])


def test_constraint_block_matches_each_constraint_exactly():
    rng = np.random.default_rng(113)
    n = 4
    unit, anchors, cons = _mixed_constraints(n, _rand_dq(rng))
    block = ConstraintBlock(n, unit, anchors)
    assert block.size == len(cons)
    std = (8 * np.arange(n)[:, None] + np.arange(4)).ravel()
    for _ in range(50):
        z = rng.standard_normal(8 * n) * rng.uniform(0.01, 100.0)
        h, h_d = block.values(z)
        for j, con in enumerate(cons):
            (v_std, g_std), (v_dual, g_dual) = con.fast_rows(z)
            assert h[j] == v_std and h_d[j] == v_dual
            # fast_rows returns the constraint's own gradient_at
            own_std, own_dual = con.gradient_at(z)
            assert np.array_equal(g_std, own_std) and np.array_equal(g_dual, own_dual)
            # G^T e_j is row j of the stage Jacobian: h over the standard
            # slots and h_d over the dual ones
            row = block.pullback(z, np.eye(len(cons))[j])
            assert np.array_equal(row, g_std[std]) and np.array_equal(row, g_dual[std + 4])


def test_block_pullback_is_the_stage_jacobian_product():
    rng = np.random.default_rng(131)
    n = 4
    unit, anchors, cons = _mixed_constraints(n, _rand_dq(rng))
    block = ConstraintBlock(n, unit, anchors)
    for _ in range(50):
        z = rng.standard_normal(8 * n) * rng.uniform(0.01, 100.0)
        v = rng.standard_normal(len(cons))
        u = rng.standard_normal(4 * n)
        g = _stage_jacobian(cons, z)
        assert np.array_equal(block.pullback(z, v), g.T @ v)
        scale = np.abs(g) @ np.abs(u)
        assert np.allclose(block.apply(z, u), g @ u, rtol=0, atol=1e-14 * np.max(scale))
        # on the constraint set the tangent basis is orthonormal and G N = 0:
        # variable 1 spans 3 columns, the free variable 3 spans 4 and the
        # anchored variables 0 and 2 none
        z = block.project(z)
        null = tangent_matrix(block, z)
        assert np.bincount(block.var, minlength=n).tolist() == [0, 3, 0, 4]
        assert np.max(np.abs(null.T @ null - np.eye(null.shape[1]))) <= 1e-14
        assert np.max(np.abs(_stage_jacobian(cons, z) @ null)) <= 1e-14
    empty = ConstraintBlock(n, (), None)
    assert np.array_equal(empty.pullback(z, np.empty(0)), np.zeros(4 * n))
    assert empty.apply(z, u).shape == (0,)


def _sparse_jacobian_matches_matrix_free(evaluate, arity, rng):
    """``A`` from ``jacobian(sparse)``, in each layout, against the pullback and the dual rows' slope."""
    std = (8 * np.arange(arity)[:, None] + np.arange(4)).ravel()
    z = rng.standard_normal(8 * arity)
    r_std, r_dual, pullback, jacobian = evaluate(z)
    for sparse in (False, True):
        a = jacobian(sparse)
        assert a.shape == (r_std.size, 4 * arity)
        w = rng.standard_normal(r_std.size)
        assert np.allclose(a.T @ w, pullback(w)[std], rtol=0, atol=1e-12)
        # r_dual is affine in the dual coordinates with slope A
        at_zero = z.copy()
        at_zero[std + 4] = 0.0
        base = evaluate(at_zero)[1]
        for _ in range(5):
            v = rng.standard_normal(4 * arity)
            moved = at_zero.copy()
            moved[std + 4] = v
            assert np.allclose(a @ v, evaluate(moved)[1] - base, rtol=0, atol=1e-12)


def test_sparse_jacobian_matches_the_matrix_free_layer():
    rng = np.random.default_rng(137)
    res = [
        ([(_rand_dq(rng), v, _rand_dq(rng)), (_rand_dq(rng), 2, ONE_DQ)], _rand_dq(rng))
        for v in (0, 1, 0, 2)
    ]
    _sparse_jacobian_matches_matrix_free(affine_stack(3, res), 3, rng)
    edges = np.array([(0, 1), (1, 2), (2, 0), (3, 1), (0, 3)])
    unit = pack([_rand_dq(rng).normalized() for _ in edges]).reshape(-1, 2, 4)
    evaluate = RelativePoseResidual.stack_arrays(4, edges[:, 0], edges[:, 1], unit)
    _sparse_jacobian_matches_matrix_free(evaluate, 4, rng)
    # stage I's edge rows x_i q - x_j: the terms R(q) and -I
    minus = np.zeros(unit.shape + (4,))
    minus[:, 0] = -np.eye(4)
    evaluate = affine_rows(4, *edges.T, right_mult_matrix(unit), minus)
    _sparse_jacobian_matches_matrix_free(evaluate, 4, rng)
    # hand-eye's a x - x b, both terms on one variable, and a x - y b
    for model, arity in (("axxb", 1), ("axyb", 2)):
        ds = generate_synthetic(model, 5, noise_rot=0.01, noise_trans=0.01, seed=3)
        problem = (build_axxb if model == "axxb" else build_axyb)(ds)
        _sparse_jacobian_matches_matrix_free(problem.objective.rows_at, arity, rng)


def test_gradients_of_builders():
    rng = np.random.default_rng(107)
    center = _rand_dq(rng)
    fns = [
        squared_distance_objective(center),
        UnitNormConstraint(1, 0),
        anchor_constraints(1, 0, center)[1],
        scalar_power(squared_distance_objective(center), 2),
    ]
    for fn in fns:
        for _ in range(10):
            rep = gradient_check(fn, rng.standard_normal(8))
            assert rep.passed, (fn, rep.max_rel_error_std, rep.max_rel_error_dual)


def test_residual_norm_gradients_at_generic_points():
    rng = np.random.default_rng(109)
    res = [([(_rand_dq(rng), 0, _rand_dq(rng))], _rand_dq(rng)) for _ in range(3)]
    obj = affine_objective(1, [[r] for r in res])
    for _ in range(10):
        rep = gradient_check(obj, rng.standard_normal(8))
        assert rep.passed, (rep.max_rel_error_std, rep.max_rel_error_dual)


def test_stage_hooks_approach_exact_value():
    rng = np.random.default_rng(113)
    res = [([(_rand_dq(rng), 0, _rand_dq(rng))], _rand_dq(rng)) for _ in range(4)]
    obj = affine_objective(1, [[r] for r in res])
    z = rng.standard_normal(8)
    exact = obj.value_at(z)
    for mu in (1e-2, 1e-4, 1e-6):
        smooth, _ = obj.stage1_value_grad(z, mu)
        assert abs(smooth - exact.std) <= mu * len(res)
    branches = obj.branch_flags(z)
    smooth2, _ = obj.stage2_value_grad(z, 1e-6, branches)
    assert abs(smooth2 - exact.dual) <= 1e-4


def test_stage_hook_gradients_match_fd():
    rng = np.random.default_rng(127)
    res = [
        ([(_rand_dq(rng), 0, _rand_dq(rng)), (_rand_dq(rng), 1, _rand_dq(rng))], ZERO_DQ)
        for _ in range(3)
    ]
    obj = affine_objective(2, [[r] for r in res])
    mu = 1e-3
    for _ in range(5):
        z = rng.standard_normal(16)
        v, g = obj.stage1_value_grad(z, mu)
        num = fd_gradient(lambda w: obj.stage1_value_grad(w, mu)[0], z, step=1e-6)
        assert np.max(np.abs(g - num) / np.maximum(1.0, np.abs(g))) <= 1e-5
        br = obj.branch_flags(z)
        v2, g2 = obj.stage2_value_grad(z, mu, br)
        num2 = fd_gradient(lambda w: obj.stage2_value_grad(w, mu, br)[0], z, step=1e-6)
        assert np.max(np.abs(g2 - num2) / np.maximum(1.0, np.abs(g2))) <= 1e-5


def test_stacked_points_evaluate_bit_for_bit_as_single_points():
    from dqopt import build_axyb, build_pgo, generate_cycle_graph, generate_synthetic

    ds = generate_synthetic("axyb", 10, noise_rot=0.01, noise_trans=0.01, seed=2)
    graph = generate_cycle_graph(9, loop_closures=3, noise_rot=0.01, noise_trans=0.01, seed=2)
    rng = np.random.default_rng(211)
    for problem in (build_axyb(ds), build_pgo(graph)):
        obj, block = problem.objective, problem.block
        stack = block.project(rng.standard_normal((5, 8 * problem.arity)))
        grads = rng.standard_normal((5, 4 * problem.arity))
        std, dual = obj.value_at(stack)
        jac, r, r_dual, w, _ = obj.stage_system(stack)
        jac = jac(False)  # formed only when called
        for k, z in enumerate(stack):
            one = obj.value_at(z)
            assert (std[k], dual[k]) == (one.std, one.dual)
            jac_k, r_k, r_dual_k, w_k, _ = obj.stage_system(z)
            jac_k = jac_k(False)
            assert np.array_equal(r[k], r_k) and np.array_equal(w[k], w_k)
            assert np.array_equal(r_dual[k], r_dual_k)
            dense = jac if jac.ndim == 2 else jac[k]
            jac_k = jac_k if isinstance(jac_k, np.ndarray) else jac_k.toarray()
            assert np.array_equal(dense, jac_k)
            for got, want in zip(block.values(stack), block.values(z)):
                assert np.array_equal(got[k], want)
            assert np.array_equal(block.tangent(stack)[k], block.tangent(z))
            assert np.array_equal(block.curvature(stack, grads)[k], block.curvature(z, grads[k]))


def test_stage1_rows_weigh_a_group_at_its_kink_0_and_keep_its_residual():
    from dqopt import TOL_APPRECIABLE, build_axyb, generate_synthetic

    problem = build_axyb(generate_synthetic("axyb", 6, seed=3))
    obj = problem.objective
    z = problem.start.reshape(-1)  # noiseless: every group within the band
    _, r, _, w, (starts, _) = obj.stage_system(z)
    r_std = obj._stack(z)[0]
    assert np.array_equal(r, r_std) and not w.any()
    # away from the band, rows weigh 1 / |r_g|, the reweighted majorizer's Hessian
    z = problem.block.project(z + 0.1)
    _, r, _, w, (starts, _) = obj.stage_system(z)
    norms = np.sqrt(np.add.reduceat(r * r, starts))
    assert norms.min() > TOL_APPRECIABLE
    assert np.array_equal(w, np.repeat(1.0 / norms, 4))


def test_a_nan_point_reads_a_nan_value_and_other_rows_keep_their_bits():
    from dqopt import build_axxb, build_pgo, generate_cycle_graph, generate_synthetic

    rng = np.random.default_rng(29)
    for problem in (build_axxb(generate_synthetic("axxb", 6, seed=1)),
                    build_pgo(generate_cycle_graph(6, loop_closures=1, seed=2))):
        obj, n8 = problem.objective, 8 * problem.arity
        one = obj.value_at(np.full(n8, np.nan))
        assert np.isnan(one.std) and np.isnan(one.dual)
        # a NaN row, a row at value 0 (the noiseless start) and a generic one
        stack = np.stack((np.full(n8, np.nan), problem.start.ravel(), rng.standard_normal(n8)))
        stack[0, 1:] = stack[2, 1:]
        std, dual = obj.value_at(stack)
        assert np.isnan(std[0]) and np.isnan(dual[0]) and std[1] == 0.0
        for k in (1, 2):
            one = obj.value_at(stack[k])
            assert (std[k], dual[k]) == (one.std, one.dual)


# Each id is the file and line of the check, as they were when the test was written.
@pytest.mark.parametrize("call, message", [
    pytest.param(lambda: unpack(np.zeros(7), 1), r"^expected shape \(8,\), got \(7,\)$",
                 id="functions.py:98"),
    pytest.param(lambda: DualFunction(0), "^arity must be positive$", id="functions.py:130"),
    pytest.param(lambda: ResidualNormObjective(1, None, [2, 0]),
                 "^groups must be nonempty$", id="functions.py:489"),
])
def test_function_input_checks_raise_naming_the_fault(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_a_nan_point_counts_every_group_appreciable_in_the_branch_flags_and_stage2_weights():
    from dqopt import build_axxb, build_pgo, generate_cycle_graph, generate_synthetic

    for problem, groups in ((build_axxb(generate_synthetic("axxb", 6, seed=1)), 6),
                            (build_pgo(generate_cycle_graph(6, loop_closures=1, seed=2)), 1)):
        obj, nan = problem.objective, np.full(8 * problem.arity, np.nan)
        assert obj.branch_flags(nan) == (True,) * groups
        _, _, r_dual, w, rows = obj.stage_system(nan)
        # an infinitesimal group of unit rows would weigh 1 / |r_g| = 1/2 or less
        weights = solver._stage2_weights(w, np.ones_like(r_dual), rows)
        assert np.array_equal(weights, np.ones_like(r_dual))


def test_the_identity_and_plain_values_go_through_log_and_exp():
    # the identity's logarithm is zero, whose exponential is the identity again
    identity = UnitDualQuaternion.identity()
    assert unit_log(identity).approx_eq(ZERO_DQ, tol=0.0)
    assert unit_exp(unit_log(identity)).as_dual_quaternion().approx_eq(ONE_DQ, tol=0.0)
    # a plain dual quaternion is taken as the unit value it is
    plain = DualQuaternion(Quaternion(0.6, 0.8, 0.0, 0.0), Quaternion(0.0, 0.0, 0.5, 0.0))
    assert unit_log(plain).approx_eq(UnitDualQuaternion.of(plain).log(), tol=0.0)
    assert unit_exp(unit_log(plain)).as_dual_quaternion().approx_eq(plain, tol=1e-12)


def test_a_first_power_keeps_the_value_and_gradient():
    f = squared_distance_objective(_rand_dq(np.random.default_rng(3)))
    z = np.random.default_rng(4).standard_normal(8)
    power = scalar_power(f, 1)
    assert power.value_at(z) == f.value_at(z)
    for got, want in zip(power.gradient_at(z), f.gradient_at(z)):
        assert np.array_equal(got, want)


def test_gradient_check_takes_dual_quaternions_or_coordinates():
    f = squared_distance_objective(_rand_dq(np.random.default_rng(5)))
    point = [_rand_dq(np.random.default_rng(6))]
    by_values, by_array = gradient_check(f, point), gradient_check(f, pack(point))
    assert by_values.passed
    for name in ("analytic_std", "analytic_dual", "numeric_std", "numeric_dual"):
        assert np.array_equal(getattr(by_values, name), getattr(by_array, name))


def test_check_standardness_redraws_failed_trials_and_gives_up_after_too_many():
    calls = []

    def half_defined(values):
        calls.append(values)
        if values[0].std.w < 0:
            raise ValueError("undefined here")
        return values[0].magnitude()

    rep = check_standardness(half_defined, 1, n_samples=20, seed=0)
    # two calls per kept trial, and one per trial that failed and was redrawn
    assert rep.passed and len(calls) > 40

    def nowhere_defined(values):
        raise ValueError("undefined everywhere")

    with pytest.raises(RuntimeError, match="too many failed evaluation attempts"):
        check_standardness(nowhere_defined, 1, n_samples=1)


def test_unknown_combiners_and_powers_below_one_raise():
    f = variable_map(1, 0).magnitude()
    with pytest.raises(ValueError, match="unknown combiner 'mean'"):
        combine(f, f, "mean")
    with pytest.raises(ValueError, match="positive integer"):
        scalar_power(f, 0)
    with pytest.raises(ValueError, match="positive integer"):
        map_power(variable_map(1, 0), 0)


@pytest.mark.parametrize("value", [2.5, 2.0, True, np.True_, "2", None])
def test_the_factories_take_only_integer_exponents_arities_and_indices(value):
    # a float exponent was truncated, a bool read as 0 or 1, a float index failed only when called
    pick = variable_map(2, 1)
    f = pick.magnitude()
    for name, build in (("exponent", lambda: scalar_power(f, value)),
                        ("exponent", lambda: map_power(pick, value)),
                        ("arity", lambda: variable_map(value, 0)),
                        ("index", lambda: variable_map(2, value))):
        with pytest.raises(TypeError, match=f"^{name} must be an integer, got {re.escape(repr(value))}$"):
            build()


_T = DualQuaternion(Quaternion(1.0), Quaternion(0.0))


@pytest.mark.parametrize("build, error, message", [
    (lambda: UnitNormConstraint(2, 1.5), TypeError, "index must be an integer, got 1.5"),
    (lambda: UnitNormConstraint(True, 0), TypeError, "arity must be an integer, got True"),
    (lambda: DualFunction(2.7), TypeError, "arity must be an integer, got 2.7"),
    (lambda: DualQuaternionMap(2.5), TypeError, "arity must be an integer, got 2.5"),
    (lambda: DualQuaternionMap(0), ValueError, "arity must be positive"),
    (lambda: anchor_constraints(2, 1.0, _T), TypeError, "index must be an integer, got 1.0"),
    (lambda: squared_distance_objective(_T, 2, 1.9), TypeError, "index must be an integer, got 1.9"),
    (lambda: squared_distance_objective(_T, 2, 5), ValueError, "index 5 out of range for arity 2"),
    (lambda: squared_distance_objective(_T, 2, -1), ValueError, "index -1 out of range for arity 2"),
], ids=["unit-index", "unit-arity", "function-arity", "map-arity", "map-arity-0", "anchor-index",
        "distance-float-index", "distance-index-past-arity", "distance-negative-index"])
def test_the_constructors_take_only_integer_arities_and_indices_in_range(build, error, message):
    # a float or bool count is rejected when built, not truncated or left to fail later
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        build()


def test_the_factories_take_numpy_integers_as_python_ones():
    q = DualQuaternion(Quaternion(0.5, 0.5, 0.5, 0.5), Quaternion(0.0, 0.1, -0.2, 0.3))
    r = 2.0 * q
    for kind in (np.int64, np.int32, np.uint8):
        assert variable_map(kind(2), kind(1))(q, r) is r
        assert map_power(variable_map(1, 0), kind(3))(q) == map_power(variable_map(1, 0), 3)(q)
        f = variable_map(1, 0).magnitude()
        z = pack([q])
        assert scalar_power(f, kind(2)).value_at(z) == scalar_power(f, 2).value_at(z)


class _Bare(DualFunction):
    pass


class _BareMap(DualQuaternionMap):
    pass


def test_the_base_hooks_raise_until_a_subclass_defines_them():
    q = DualQuaternion.identity()
    with pytest.raises(NotImplementedError):
        _Bare(1).value((q,))
    with pytest.raises(NotImplementedError, match="_Bare has no analytic gradient"):
        _Bare(1).gradient_at(np.zeros(8))
    with pytest.raises(NotImplementedError):
        _BareMap(1)(q)


def test_calling_a_map_checks_its_arity():
    q = DualQuaternion.identity()
    pick, r = variable_map(2, 1), 2.0 * q
    assert pick(q, r) is r
    with pytest.raises(ArityMismatch, match="expected 2 arguments, got 1"):
        pick(q)


@pytest.mark.parametrize("make", [variable_map, UnitNormConstraint])
def test_an_index_out_of_range_is_rejected(make):
    for index in (2, 5, -1):
        with pytest.raises(ValueError, match=f"index {index} out of range for arity 2"):
            make(2, index)
