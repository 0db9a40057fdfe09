import numpy as np
import pytest

from dqopt import DualNumber, dual_max, dual_min
from dqopt.errors import InfinitesimalSqrt, NegativeStandardPart


def test_arithmetic_matches_reference():
    rng = np.random.default_rng(7)
    for _ in range(300):
        a, b, c, d = rng.standard_normal(4)
        x = DualNumber(a, b)
        y = DualNumber(c, d)
        assert (x + y).std == a + c and (x + y).dual == b + d
        assert (x - y).std == a - c and (x - y).dual == b - d
        # (a + b eps)(c + d eps) = ac + (ad + bc) eps
        p = x * y
        assert p.std == a * c
        assert p.dual == pytest.approx(a * d + b * c, abs=1e-15)


def test_a_real_minus_a_dual_number_and_negation_act_on_both_parts():
    rng = np.random.default_rng(11)
    for _ in range(100):
        r, a, b = rng.standard_normal(3).tolist()
        x = DualNumber(a, b)
        # r - (a + b eps) = (r - a) - b eps, and -(a + b eps) = -a - b eps
        assert r - x == DualNumber(r - a, -b) and 2 - x == DualNumber(2 - a, -b)
        assert -x == DualNumber(-a, -b)
        assert x + -x == DualNumber(0.0, 0.0)
    assert DualNumber(1.0, 2.0).__rsub__("1") is NotImplemented


def test_sqrt_frozen_value():
    r = DualNumber(4.0, 4.0).sqrt()
    assert r.std == 2.0
    assert r.dual == 1.0


def test_sqrt_squares_back():
    rng = np.random.default_rng(11)
    for _ in range(200):
        x = DualNumber(float(rng.uniform(0.1, 50.0)), float(rng.standard_normal()))
        r = x.sqrt()
        assert r.std >= 0.0
        assert (r * r).approx_eq(x, tol=1e-10)


def test_sqrt_rejects_negative_standard_part():
    with pytest.raises(NegativeStandardPart):
        DualNumber(-1.0, 0.0).sqrt()


def test_sqrt_rejects_nonzero_infinitesimal():
    # no dual number squares to a nonzero multiple of eps
    with pytest.raises(InfinitesimalSqrt):
        DualNumber(0.0, 1.0).sqrt()


def test_sqrt_of_zero():
    assert DualNumber(0.0, 0.0).sqrt() == DualNumber(0.0, 0.0)


def test_order_frozen_cases():
    assert dual_min(DualNumber(1, 5), DualNumber(1, 3)) == DualNumber(1, 3)
    assert dual_max(DualNumber(1, 5), DualNumber(1, 3)) == DualNumber(1, 5)
    # an infinitesimal is positive but smaller than every appreciable positive
    eps = DualNumber(0.0, 1.0)
    assert DualNumber(0.0, 0.0) < eps < DualNumber(1e-300, -1e9)
    assert DualNumber(2, -7) < DualNumber(3, 1e6)


def test_order_axioms_on_lattice_triples():
    rng = np.random.default_rng(3)
    for _ in range(500):
        a, b, c = (
            DualNumber(float(rng.integers(-2, 3)), float(rng.integers(-2, 3)))
            for _ in range(3)
        )
        s = a.compare(b)
        assert s in (-1, 0, 1)
        assert b.compare(a) == -s
        if a <= b and b <= a:
            assert a.compare(b) == 0
        if a <= b and b <= c:
            assert a <= c
        # arithmetic compatibility is exact on integer draws
        if a < b:
            assert a + c < b + c
            w = DualNumber(float(rng.integers(1, 3)), float(rng.integers(-2, 3)))
            assert a * w < b * w


def test_appreciable_threshold():
    assert not DualNumber(0.0, 5.0).appreciable()
    assert not DualNumber(1e-8, 0.0).appreciable()
    assert DualNumber(2e-8, 0.0).appreciable()
    assert DualNumber(-1.0, 0.0).appreciable()



@pytest.mark.parametrize("name, apply", [
    ("__add__", lambda x: x + "a"),
    ("__radd__", lambda x: "a" + x),
    ("__sub__", lambda x: x - "a"),
    ("__rsub__", lambda x: "a" - x),
    ("__mul__", lambda x: x * "a"),
    ("__rmul__", lambda x: "a" * x),
])
def test_arithmetic_with_an_unsupported_type_is_not_implemented(name, apply):
    x = DualNumber(1.0, 2.0)
    assert getattr(x, name)("a") is NotImplemented
    with pytest.raises(TypeError):
        apply(x)
