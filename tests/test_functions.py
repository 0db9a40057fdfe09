import numpy as np
import pytest

from dqopt import (
    AffineResidual,
    DualNumber,
    DualQuaternion,
    Quaternion,
    ResidualNormObjective,
    UnitNormConstraint,
    anchor_constraints,
    check_standardness,
    combine,
    compose_unit,
    fd_gradient,
    gradient_check,
    make_power,
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
from dqopt.errors import ArityMismatch, NonUnitValue
from helpers import LeakyFunction

I = Quaternion(0, 1, 0, 0)
ONE = Quaternion.identity()
ZERO = Quaternion(0, 0, 0, 0)


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


def test_make_power_is_single_variable():
    cube = make_power(3)
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
        r = AffineResidual(2, [(left, 0, right), (const, 1, DualQuaternion.identity())])
        values = (_rand_dq(rng), _rand_dq(rng))
        z = pack(list(values))
        exact = r.eval(values)
        r_std, r_dual, jac_std, jac_dual = r.rows(z)
        assert np.allclose(r_std, exact.std.as_array(), atol=1e-12)
        assert np.allclose(r_dual, exact.dual.as_array(), atol=1e-12)
        # rows are affine: the jacobians reproduce finite differences exactly
        dz = rng.standard_normal(16) * 0.1
        r_std2, r_dual2, _, _ = r.rows(z + dz)
        assert np.allclose(r_std2 - r_std, jac_std @ dz, atol=1e-12)
        assert np.allclose(r_dual2 - r_dual, jac_dual @ dz, atol=1e-12)


def test_residual_norm_objective_branches():
    # group 1 appreciable, group 2 purely dual; the exact value adds
    # |r_s| + <r_s, r_d>/|r_s| for the first and |r_d| eps for the second
    g1 = AffineResidual(1, [], constant=DualQuaternion(Quaternion(3, 0, 0, 0), I))
    g2 = AffineResidual(1, [], constant=DualQuaternion(ZERO, Quaternion(0, 0, 4, 3)))
    obj = ResidualNormObjective(1, [[g1], [g2]])
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
    res = AffineResidual(1, [], constant=r)
    obj = ResidualNormObjective(1, [[res]])
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
    res = [
        AffineResidual(1, [(_rand_dq(rng), 0, _rand_dq(rng))], constant=_rand_dq(rng))
        for _ in range(3)
    ]
    obj = ResidualNormObjective(1, [[r] for r in res])
    for _ in range(10):
        rep = gradient_check(obj, rng.standard_normal(8))
        assert rep.passed, (rep.max_rel_error_std, rep.max_rel_error_dual)


def test_stage_hooks_approach_exact_value():
    rng = np.random.default_rng(113)
    res = [
        AffineResidual(1, [(_rand_dq(rng), 0, _rand_dq(rng))], constant=_rand_dq(rng))
        for _ in range(4)
    ]
    obj = ResidualNormObjective(1, [[r] for r in res])
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
        AffineResidual(2, [(_rand_dq(rng), 0, _rand_dq(rng)), (_rand_dq(rng), 1, _rand_dq(rng))])
        for _ in range(3)
    ]
    obj = ResidualNormObjective(2, [[r] for r in res])
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
