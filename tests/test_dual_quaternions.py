import copy
import pickle

import numpy as np
import pytest

from dqopt import (
    DualNumber,
    DualQuaternion,
    DualQuaternionVector,
    Quaternion,
    UnitDualQuaternion,
)
from dqopt.algebra import canonical_sign
from dqopt.errors import (
    NonImaginaryTranslation,
    NonUnitAxis,
    NonUnitRotation,
    NotAppreciable,
    UnitValidationError,
)
from helpers import table_dq_product

I = Quaternion(0, 1, 0, 0)
J = Quaternion(0, 0, 1, 0)
K = Quaternion(0, 0, 0, 1)
ONE = Quaternion.identity()
ZERO = Quaternion(0, 0, 0, 0)


def _rand_dq(rng):
    c = rng.standard_normal(8)
    return DualQuaternion(Quaternion(*c[:4]), Quaternion(*c[4:]))


def test_product_matches_reference():
    rng = np.random.default_rng(53)
    for _ in range(300):
        p = _rand_dq(rng)
        q = _rand_dq(rng)
        got = p * q
        std, dual = table_dq_product(
            p.std.as_array(), p.dual.as_array(), q.std.as_array(), q.dual.as_array()
        )
        assert np.allclose(got.std.as_array(), std, atol=1e-13)
        assert np.allclose(got.dual.as_array(), dual, atol=1e-13)


def test_a_real_or_dual_number_times_a_dual_quaternion_scales_both_parts():
    rng = np.random.default_rng(59)
    for _ in range(100):
        q = _rand_dq(rng)
        a, b = rng.standard_normal(2).tolist()
        # (a + b eps)(p + q eps) = a p + (b p + a q) eps: a dual number commutes
        got = DualNumber(a, b) * q
        assert got == q * DualNumber(a, b)
        assert np.allclose(got.std.as_array(), a * q.std.as_array(), rtol=0, atol=1e-15)
        assert np.allclose(got.dual.as_array(), b * q.std.as_array() + a * q.dual.as_array(),
                           rtol=0, atol=1e-14)
        assert a * q == q * a and 2 * q == DualQuaternion(2 * q.std, 2 * q.dual)
    with pytest.raises(TypeError):
        "2" * _rand_dq(rng)


def test_a_vector_indexes_its_entries_as_a_tuple():
    rng = np.random.default_rng(67)
    entries = tuple(_rand_dq(rng) for _ in range(3))
    v = DualQuaternionVector(entries)
    assert [v[i] for i in range(3)] == list(entries)
    assert v[-1] is entries[2] and v[1:] == entries[1:]
    # a vector equals only a vector, not the tuple of its entries
    assert (v == entries) is False and (DualQuaternionVector(()) == ()) is False
    with pytest.raises(IndexError):
        v[3]


def test_a_vector_of_rows_builds_its_entries_on_first_access_as_a_copy():
    rng = np.random.default_rng(71)
    entries = tuple(_rand_dq(rng) for _ in range(3))
    source = np.array([[*e.std.as_array(), *e.dual.as_array()] for e in entries])
    v = DualQuaternionVector.from_rows(source)
    source[0, 0] = 9.0  # the vector keeps a read-only copy
    assert len(v) == 3 and "entries" not in vars(v)  # not built yet
    assert not v.rows.flags.writeable and v.rows[0, 0] == entries[0].std.w
    assert v.entries == entries and v[1] == entries[1] and list(v) == list(entries)
    w = DualQuaternionVector(entries)
    assert v == w and hash(v) == hash(w) and repr(v) == repr(w)
    assert v.to_json_list() == w.to_json_list() and v.norm2() == w.norm2()
    with pytest.raises(AttributeError):
        v.rows = None
    for copied in (pickle.loads(pickle.dumps(v)), copy.deepcopy(v), pickle.loads(pickle.dumps(w))):
        assert copied == v
    copied = copy.deepcopy(v)
    assert copied.rows.tobytes() == v.rows.tobytes() and not copied.rows.flags.writeable


def test_a_vector_of_entries_keeps_them_and_holds_their_rows():
    from dqopt import pack

    rng = np.random.default_rng(72)
    entries = tuple(_rand_dq(rng) for _ in range(3))
    w = DualQuaternionVector(entries)
    assert w.entries is entries and len(w) == 3
    assert not w.rows.flags.writeable and w.rows.shape == (3, 8)
    assert w.rows.tobytes() == pack(entries).tobytes()
    assert w == DualQuaternionVector.from_rows(w.rows)
    # a copy keeps the entries' types, so a vector of unit values equals its copy
    units = DualQuaternionVector([UnitDualQuaternion(e.normalized()) for e in entries])
    for vector in (w, units):
        for copied in (pickle.loads(pickle.dumps(vector)), copy.deepcopy(vector)):
            assert copied == vector and copied.rows.tobytes() == vector.rows.tobytes()
            assert not copied.rows.flags.writeable
    assert DualQuaternionVector().rows.shape == (0, 8)


def test_magnitude_frozen_values():
    # |2 + i eps| = 2: the dual part vanishes since <q, q_d> = 0
    m = DualQuaternion(Quaternion(2, 0, 0, 0), I).magnitude()
    assert m == DualNumber(2.0, 0.0)

    # |(1 + i) + eps| = sqrt(2) + eps / sqrt(2)
    m = DualQuaternion(Quaternion(1, 1, 0, 0), ONE).magnitude()
    assert m.std == pytest.approx(np.sqrt(2.0), abs=1e-15)
    assert m.dual == pytest.approx(1.0 / np.sqrt(2.0), abs=1e-15)

    # purely dual value: magnitude is the infinitesimal |q_d| eps
    m = DualQuaternion(ZERO, Quaternion(0, 3, 0, 4)).magnitude()
    assert m == DualNumber(0.0, 5.0)


def test_magnitude_squares_to_self_product():
    # |q|^2 must equal q q*, which is the independent definition
    rng = np.random.default_rng(59)
    for _ in range(300):
        q = _rand_dq(rng)
        m = q.magnitude()
        qq = q * q.conjugate()
        assert np.allclose(qq.std.as_array()[1:], 0.0, atol=1e-12)
        assert np.allclose(qq.dual.as_array()[1:], 0.0, atol=1e-12)
        assert (m * m).approx_eq(qq.as_dual_number(), tol=1e-10)


def test_vector_norm2_squares_to_the_sum_of_entry_self_products():
    # appreciable: n n = sum_e conj(e) e, a dual number
    rng = np.random.default_rng(61)
    for _ in range(100):
        v = DualQuaternionVector(_rand_dq(rng) for _ in range(4))
        n = v.norm2()
        assert n.std > 0.0
        total = DualNumber(0.0, 0.0)
        for e in v:
            total = total + (e.conjugate() * e).as_dual_number()
        assert (n * n).approx_eq(total, tol=1e-10)
    # infinitesimal: the Euclidean norm of the dual parts times eps
    v = DualQuaternionVector([DualQuaternion(ZERO, 3.0 * I), DualQuaternion(ZERO, 4.0 * K)])
    assert v.norm2() == DualNumber(0.0, 5.0)


def test_inverse_frozen_value():
    inv = DualQuaternion(ONE, I).inverse()
    assert inv.approx_eq(DualQuaternion(ONE, -I), tol=1e-15)


def test_inverse_property():
    rng = np.random.default_rng(61)
    for _ in range(200):
        q = _rand_dq(rng)
        if q.std.norm() < 1e-3:
            continue
        assert (q * q.inverse()).approx_eq(DualQuaternion.identity(), tol=1e-10)
        assert (q.inverse() * q).approx_eq(DualQuaternion.identity(), tol=1e-10)


def test_square_of_mixed_element_is_real():
    # (i + j eps)^2 = -1 exactly: the dual cross terms cancel
    q = DualQuaternion(I, J)
    assert (q * q).approx_eq(DualQuaternion.from_real(-1.0), tol=0.0)


def test_from_pose_frozen_values():
    u = UnitDualQuaternion.from_pose(ONE, Quaternion(0, 2, 0, 0))
    assert u.std.approx_eq(ONE, tol=0.0)
    assert u.dual.approx_eq(I, tol=0.0)

    r = Quaternion(np.sqrt(0.5), np.sqrt(0.5), 0, 0)
    u = UnitDualQuaternion.from_pose(r, J)
    # dual part (r j) / 2 = (sqrt2 / 4)(j + k)
    expect = np.array([0.0, 0.0, np.sqrt(2.0) / 4.0, np.sqrt(2.0) / 4.0])
    assert np.allclose(u.dual.as_array(), expect, atol=1e-15)


def test_pose_roundtrip():
    rng = np.random.default_rng(67)
    for _ in range(200):
        axis = rng.standard_normal(3)
        axis /= np.linalg.norm(axis)
        rot = Quaternion.exp_axis_angle(float(rng.uniform(-3, 3)), Quaternion(0, *axis))
        t = Quaternion(0, *rng.standard_normal(3))
        u = UnitDualQuaternion.from_pose(rot, t)
        assert u.as_dual_quaternion().unit_deviation() <= 1e-12
        r2, t2 = u.to_pose()
        assert r2.approx_eq(rot, tol=1e-12)
        assert t2.approx_eq(t, tol=1e-12)


def test_log_frozen_values():
    # pure translation: log(1 + i eps) = i eps
    u = UnitDualQuaternion(DualQuaternion(ONE, I))
    lg = u.log()
    assert lg.std.approx_eq(ZERO, tol=0.0)
    assert lg.dual.approx_eq(I, tol=1e-15)

    # quarter turn about z, no translation: log = (pi/4) k
    u = UnitDualQuaternion(
        DualQuaternion(Quaternion(np.sqrt(0.5), 0, 0, np.sqrt(0.5)), ZERO)
    )
    lg = u.log()
    assert np.allclose(lg.std.as_array(), [0, 0, 0, np.pi / 4], atol=1e-15)
    assert lg.dual.approx_eq(ZERO, tol=1e-15)


def test_exp_log_roundtrip():
    rng = np.random.default_rng(71)
    for _ in range(200):
        axis = rng.standard_normal(3)
        axis /= np.linalg.norm(axis)
        rot = Quaternion.exp_axis_angle(float(rng.uniform(0.1, 2.8)), Quaternion(0, *axis))
        t = Quaternion(0, *rng.standard_normal(3))
        u = UnitDualQuaternion.from_pose(rot, t)
        back = UnitDualQuaternion.exp(u.log())
        assert back.std.approx_eq(u.std, tol=1e-10)
        assert back.dual.approx_eq(u.dual, tol=1e-10)


def test_canonicalized_frozen_value():
    u = UnitDualQuaternion(DualQuaternion(-K, I))
    c = u.canonicalized()
    assert c.std.approx_eq(K, tol=0.0)
    assert c.dual.approx_eq(-I, tol=0.0)
    # already-canonical values pass through unchanged
    v = UnitDualQuaternion(DualQuaternion(K, -I))
    w = v.canonicalized()
    assert w.std.approx_eq(K, tol=0.0) and w.dual.approx_eq(-I, tol=0.0)
    # w = 0 with a negative x coefficient flips on x
    c = UnitDualQuaternion(DualQuaternion(-I, J)).canonicalized()
    assert c.std.approx_eq(I, tol=0.0) and c.dual.approx_eq(-J, tol=0.0)
    # leading zeros, then a negative coefficient: the first nonzero decides
    c = UnitDualQuaternion(DualQuaternion(Quaternion(0, 0, -0.6, 0.8), I)).canonicalized()
    assert c.std.approx_eq(Quaternion(0, 0, 0.6, -0.8), tol=0.0)
    assert c.dual.approx_eq(-I, tol=0.0)
    # a negative zero counts as zero; the zero quaternion keeps sign +1
    assert canonical_sign(Quaternion(-0.0, 0, -1, 0)) == -1
    assert canonical_sign(Quaternion(-0.0, 1, 0, 0)) == 1
    assert canonical_sign(ZERO) == 1


def test_unit_validation_rejects_off_unit():
    with pytest.raises(UnitValidationError):
        UnitDualQuaternion(DualQuaternion(Quaternion(2, 0, 0, 0), ZERO))
    with pytest.raises(UnitValidationError):
        # unit standard part but nonzero inner product with the dual part
        UnitDualQuaternion(DualQuaternion(ONE, ONE))


def test_of_normalizes_nearby_values():
    q = DualQuaternion(Quaternion(1 + 2e-7, 0, 0, 0), I)
    u = UnitDualQuaternion.of(q)
    assert u.as_dual_quaternion().unit_deviation() <= 1e-12


def test_unit_product_and_inverse():
    rng = np.random.default_rng(73)
    for _ in range(200):
        a = _rand_unit(rng)
        b = _rand_unit(rng)
        prod = a * b
        assert prod.as_dual_quaternion().unit_deviation() <= 1e-12
        ident = a * a.inverse()
        assert ident.std.approx_eq(ONE, tol=1e-12)
        assert ident.dual.approx_eq(ZERO, tol=1e-12)


def _rand_unit(rng):
    axis = rng.standard_normal(3)
    axis /= np.linalg.norm(axis)
    rot = Quaternion.exp_axis_angle(float(rng.uniform(-3, 3)), Quaternion(0, *axis))
    return UnitDualQuaternion.from_pose(rot, Quaternion(0, *rng.standard_normal(3)))


# Each id is the file and line of the check, as they were when the test was written.
@pytest.mark.parametrize("call, error, message", [
    pytest.param(lambda: DualQuaternion(ZERO, ONE).inverse(), NotAppreciable,
                 "^inverse requires an appreciable standard part$", id="algebra.py:492"),
    pytest.param(lambda: DualQuaternion(ZERO, ONE).normalized(), NotAppreciable,
                 "^cannot normalize with a zero standard part$", id="algebra.py:500"),
    pytest.param(lambda: UnitDualQuaternion.of(DualQuaternion(ONE * 1.5, ZERO)), UnitValidationError,
                 "^unit deviation 0.5 exceeds 1e-06$", id="algebra.py:564"),
    pytest.param(lambda: UnitDualQuaternion.from_rows([[1, 0, 0, 0, 0, 0, 0, 0], [0, 0, 0, 0, 1, 0, 0, 0]]),
                 UnitValidationError, "^unit deviation 1.0 exceeds 1e-09$", id="algebra.py:583"),
    pytest.param(lambda: UnitDualQuaternion.from_pose(ONE, Quaternion(0.5, 1, 0, 0)),
                 NonImaginaryTranslation, "^real part 0.5$", id="algebra.py:598"),
    pytest.param(lambda: UnitDualQuaternion.from_pose(ONE * 2.0, I), NonUnitRotation,
                 "^rotation norm 2.0$", id="algebra.py:602"),
])
def test_algebra_input_checks_raise_naming_the_fault(call, error, message):
    with pytest.raises(error, match=message):
        call()


def test_bad_inputs_raise():
    with pytest.raises(TypeError, match="cannot embed str"):
        DualQuaternion.from_real("1")
    with pytest.raises(ValueError, match="imaginary content"):
        DualQuaternion(ONE, K).as_dual_number()
    assert DualQuaternion(ONE * 2.0, ONE * 3.0).as_dual_number() == DualNumber(2.0, 3.0)
    zero = DualQuaternion(ZERO, ONE)
    with pytest.raises(NotAppreciable):
        zero.inverse()
    with pytest.raises(NotAppreciable, match="zero standard part"):
        zero.normalized()
    with pytest.raises(NonUnitAxis, match="imaginary dual quaternion"):
        UnitDualQuaternion.exp(DualQuaternion(ONE, ZERO))


@pytest.mark.parametrize("name, apply", [
    ("__add__", lambda d: d + 1.0),
    ("__sub__", lambda d: d - 1.0),
    ("__mul__", lambda d: d * "a"),
    ("__rmul__", lambda d: "a" * d),
])
def test_arithmetic_with_an_unsupported_type_is_not_implemented(name, apply):
    d = DualQuaternion(Quaternion(1, 2, 3, 4), Quaternion(5, 6, 7, 8))
    other = 1.0 if name in ("__add__", "__sub__") else "a"
    assert getattr(d, name)(other) is NotImplemented
    with pytest.raises(TypeError):
        apply(d)


def test_unit_products_take_only_unit_dual_quaternions():
    u = UnitDualQuaternion.identity()
    assert u.__mul__(u.inner) is NotImplemented
    with pytest.raises(TypeError):
        u * 2.0
