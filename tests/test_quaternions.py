import numpy as np
import pytest

from dqopt import Quaternion, random_unit_quaternion
from dqopt.algebra import left_mult_matrix, right_mult_matrix
from dqopt.handeye import pose_compose, unit_rows
from helpers import rodrigues_matrix, table_quat_product


def test_frozen_product():
    p = Quaternion(1, 1, 0, 0)
    q = Quaternion(1, 0, 1, 0)
    assert (p * q).as_array().tolist() == [1.0, 1.0, 1.0, 1.0]


def test_product_matches_basis_table():
    rng = np.random.default_rng(19)
    for _ in range(300):
        a = rng.standard_normal(4)
        b = rng.standard_normal(4)
        got = (Quaternion.from_array(a) * Quaternion.from_array(b)).as_array()
        assert np.allclose(got, table_quat_product(a, b), atol=1e-13)


def test_conjugation_reverses_products():
    rng = np.random.default_rng(23)
    for _ in range(300):
        p = Quaternion.from_array(rng.standard_normal(4))
        q = Quaternion.from_array(rng.standard_normal(4))
        lhs = (p * q).conjugate()
        rhs = q.conjugate() * p.conjugate()
        assert lhs.approx_eq(rhs, tol=1e-12)


def test_left_right_matrices_realize_the_product():
    rng = np.random.default_rng(29)
    for _ in range(200):
        p = Quaternion.from_array(rng.standard_normal(4))
        q = Quaternion.from_array(rng.standard_normal(4))
        prod = (p * q).as_array()
        assert np.allclose(left_mult_matrix(p.as_array()) @ q.as_array(), prod, atol=1e-13)
        assert np.allclose(right_mult_matrix(q.as_array()) @ p.as_array(), prod, atol=1e-13)


def test_batched_mult_matrices_equal_each_rows_matrix_and_product():
    # A stack of matrices, multiplied in one batched matmul, must give each
    # row's own 2-D product bit for bit: the layout of the stack fixes the
    # summation order.
    rng = np.random.default_rng(31)
    q = rng.standard_normal((9, 8))[:, 2:6]
    x = rng.standard_normal((9, 8))[:, 4:, None]
    for mult in (left_mult_matrix, right_mult_matrix):
        batched = mult(q)
        assert batched.shape == (9, 4, 4)
        products = batched @ x
        for k in range(9):
            assert np.array_equal(batched[k], mult(q[k]))
            assert np.array_equal(products[k, :, 0], mult(q[k]) @ x[k, :, 0])


def test_norm_is_multiplicative():
    rng = np.random.default_rng(31)
    for _ in range(300):
        p = Quaternion.from_array(rng.standard_normal(4))
        q = Quaternion.from_array(rng.standard_normal(4))
        assert (p * q).norm() == pytest.approx(p.norm() * q.norm(), rel=1e-12)


def test_inverse():
    rng = np.random.default_rng(37)
    for _ in range(200):
        p = Quaternion.from_array(rng.standard_normal(4))
        assert (p * p.inverse()).approx_eq(Quaternion.identity(), tol=1e-12)


def test_rotation_matches_rodrigues():
    rng = np.random.default_rng(41)
    for _ in range(200):
        axis = rng.standard_normal(3)
        axis /= np.linalg.norm(axis)
        angle = float(rng.uniform(-3.0, 3.0))
        q = Quaternion.exp_axis_angle(angle, Quaternion(0.0, *axis))
        v = rng.standard_normal(3)
        # the translation of q after a pure translation by v is q v conj(q)
        rotation, shift = unit_rows([[*q.as_array(), 0.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0, *v]], "{}")
        moved = pose_compose(rotation[None], shift[None])[0]
        assert np.allclose(moved[4:], rodrigues_matrix(angle, axis) @ v, atol=1e-12)


def test_exp_log_roundtrip():
    rng = np.random.default_rng(43)
    for _ in range(200):
        q = random_unit_quaternion(rng)
        if q.w < 0:
            q = -q
        back = Quaternion.exp_imaginary(q.log())
        assert back.approx_eq(q, tol=1e-10)


def test_normalized_is_unit():
    rng = np.random.default_rng(47)
    for _ in range(100):
        p = Quaternion.from_array(rng.standard_normal(4) * 3.0)
        assert abs(p.normalized().norm() - 1.0) <= 1e-12
