"""Dual numbers, quaternions, dual quaternions, and unit/vector forms.

Every value type here is immutable, so instances can be shared freely
between threads.  Quaternion coefficients are kept in (w, x, y, z) order
and serialize as ``[w, x, y, z]``; dual quaternions serialize as
``{"std": [...], "dual": [...]}``.

Piecewise definitions (magnitude, vector norm, appreciability) branch on
``TOL_APPRECIABLE``; unit validation uses ``TOL_UNIT``; constructors accept
values within ``NORMALIZE_TOL`` of unit and renormalize them.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    InfinitesimalSqrt,
    NegativeStandardPart,
    NonImaginaryTranslation,
    NonUnitAxis,
    NonUnitRotation,
    NotAppreciable,
    UnitValidationError,
)

__all__ = [
    "TOL_APPRECIABLE",
    "TOL_UNIT",
    "NORMALIZE_TOL",
    "DualNumber",
    "Quaternion",
    "DualQuaternion",
    "UnitDualQuaternion",
    "DualQuaternionVector",
    "dual_min",
    "dual_max",
    "random_unit_quaternion",
]

#: Standard parts at or below this threshold count as zero when a piecewise
#: definition must pick a branch.
TOL_APPRECIABLE = 1e-8

#: Tolerance for validating unit quaternions and unit dual quaternions.
TOL_UNIT = 1e-9

#: Constructors renormalize inputs within this distance of a unit value and
#: reject anything farther away.
NORMALIZE_TOL = 1e-6


@dataclass(frozen=True, slots=True)
class DualNumber:
    """A value ``std + dual * eps`` where ``eps**2 == 0``.

    The total order is lexicographic: standard parts are compared first and
    dual parts break ties.  A dual number is "appreciable" when its standard
    part is nonzero beyond tolerance; otherwise it is infinitesimal.
    """

    std: float
    dual: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "std", float(self.std))
        object.__setattr__(self, "dual", float(self.dual))

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        other = _as_dual_number(other)
        if other is None:
            return NotImplemented
        return DualNumber(self.std + other.std, self.dual + other.dual)

    __radd__ = __add__

    def __sub__(self, other):
        other = _as_dual_number(other)
        if other is None:
            return NotImplemented
        return DualNumber(self.std - other.std, self.dual - other.dual)

    def __rsub__(self, other):
        other = _as_dual_number(other)
        if other is None:
            return NotImplemented
        return other - self

    def __neg__(self):
        return DualNumber(-self.std, -self.dual)

    def __mul__(self, other):
        other = _as_dual_number(other)
        if other is None:
            return NotImplemented
        return DualNumber(
            self.std * other.std,
            self.std * other.dual + self.dual * other.std,
        )

    __rmul__ = __mul__

    # -- order -------------------------------------------------------------

    def compare(self, other: "DualNumber") -> int:
        """Lexicographic comparison; returns -1, 0, or 1."""
        if self.std < other.std:
            return -1
        if self.std > other.std:
            return 1
        if self.dual < other.dual:
            return -1
        if self.dual > other.dual:
            return 1
        return 0

    def __lt__(self, other):
        return self.compare(other) < 0

    def __le__(self, other):
        return self.compare(other) <= 0

    def __gt__(self, other):
        return self.compare(other) > 0

    def __ge__(self, other):
        return self.compare(other) >= 0

    # -- queries -----------------------------------------------------------

    def appreciable(self) -> bool:
        return abs(self.std) > TOL_APPRECIABLE

    def sqrt(self, tol: float = TOL_APPRECIABLE) -> "DualNumber":
        """Square root of a nonnegative dual number.

        For an appreciable value ``a + b*eps`` the root is
        ``sqrt(a) + b / (2 sqrt(a)) * eps``, the unique nonnegative dual
        number that squares back to the input.  Nonzero infinitesimals have
        no square root at all (any candidate squares to zero), which is why
        they are rejected rather than approximated.
        """
        if self.std < -tol:
            raise NegativeStandardPart(f"sqrt of {self!r}")
        if abs(self.std) <= tol:
            if self.dual != 0.0:
                raise InfinitesimalSqrt(f"sqrt of infinitesimal {self!r}")
            return DualNumber(math.sqrt(self.std) if self.std > 0.0 else 0.0, 0.0)
        root = math.sqrt(self.std)
        return DualNumber(root, self.dual / (2.0 * root))

    def approx_eq(self, other: "DualNumber", tol: float = 1e-12) -> bool:
        return abs(self.std - other.std) <= tol and abs(self.dual - other.dual) <= tol


def _as_dual_number(value):
    if isinstance(value, DualNumber):
        return value
    if isinstance(value, (int, float)):
        return DualNumber(float(value), 0.0)
    return None


def dual_min(first: DualNumber, *rest: DualNumber) -> DualNumber:
    """Minimum under the lexicographic order."""
    best = first
    for value in rest:
        if value.compare(best) < 0:
            best = value
    return best


def dual_max(first: DualNumber, *rest: DualNumber) -> DualNumber:
    """Maximum under the lexicographic order."""
    best = first
    for value in rest:
        if value.compare(best) > 0:
            best = value
    return best


@dataclass(frozen=True, slots=True, init=False)
class Quaternion:
    """Quaternion ``w + x i + y j + z k`` over floats."""

    w: float
    x: float
    y: float
    z: float

    # Written out rather than generated: each coefficient is stored once,
    # already converted, which halves the cost of the many small values
    # built from arrays.
    def __init__(self, w, x=0.0, y=0.0, z=0.0):
        object.__setattr__(self, "w", float(w))
        object.__setattr__(self, "x", float(x))
        object.__setattr__(self, "y", float(y))
        object.__setattr__(self, "z", float(z))

    @classmethod
    def identity(cls) -> "Quaternion":
        return cls(1.0, 0.0, 0.0, 0.0)

    @classmethod
    def from_array(cls, values: Sequence[float]) -> "Quaternion":
        if len(values) != 4:
            raise ValueError(f"expected 4 components, got {len(values)}")
        return cls(values[0], values[1], values[2], values[3])

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, Quaternion):
            return NotImplemented
        return Quaternion(self.w + other.w, self.x + other.x, self.y + other.y, self.z + other.z)

    def __sub__(self, other):
        if not isinstance(other, Quaternion):
            return NotImplemented
        return Quaternion(self.w - other.w, self.x - other.x, self.y - other.y, self.z - other.z)

    def __neg__(self):
        return Quaternion(-self.w, -self.x, -self.y, -self.z)

    def __mul__(self, other):
        if isinstance(other, Quaternion):
            a, b = self, other
            return Quaternion(
                a.w * b.w - a.x * b.x - a.y * b.y - a.z * b.z,
                a.w * b.x + a.x * b.w + a.y * b.z - a.z * b.y,
                a.w * b.y - a.x * b.z + a.y * b.w + a.z * b.x,
                a.w * b.z + a.x * b.y - a.y * b.x + a.z * b.w,
            )
        if isinstance(other, (int, float)):
            s = float(other)
            return Quaternion(self.w * s, self.x * s, self.y * s, self.z * s)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, float)):
            return self * other
        return NotImplemented

    def __truediv__(self, other):
        if isinstance(other, (int, float)):
            return self * (1.0 / float(other))
        return NotImplemented

    # -- structure ---------------------------------------------------------

    def conjugate(self) -> "Quaternion":
        return Quaternion(self.w, -self.x, -self.y, -self.z)

    def dot(self, other: "Quaternion") -> float:
        """Euclidean inner product of the coefficient vectors."""
        return self.w * other.w + self.x * other.x + self.y * other.y + self.z * other.z

    def norm_squared(self) -> float:
        return self.w * self.w + self.x * self.x + self.y * self.y + self.z * self.z

    def norm(self) -> float:
        return math.sqrt(self.norm_squared())

    def inverse(self) -> "Quaternion":
        nsq = self.norm_squared()
        if nsq == 0.0:
            raise NotAppreciable("zero quaternion has no inverse")
        return Quaternion(self.w / nsq, -self.x / nsq, -self.y / nsq, -self.z / nsq)

    def normalized(self) -> "Quaternion":
        n = self.norm()
        if n == 0.0:
            raise NotAppreciable("cannot normalize the zero quaternion")
        return self / n

    def imaginary(self) -> "Quaternion":
        return Quaternion(0.0, self.x, self.y, self.z)

    def imaginary_norm(self) -> float:
        return math.sqrt(self.x * self.x + self.y * self.y + self.z * self.z)

    def is_imaginary(self, tol: float = 1e-12) -> bool:
        return abs(self.w) <= tol

    def approx_eq(self, other: "Quaternion", tol: float = 1e-12) -> bool:
        return (
            abs(self.w - other.w) <= tol
            and abs(self.x - other.x) <= tol
            and abs(self.y - other.y) <= tol
            and abs(self.z - other.z) <= tol
        )

    # -- exponential map ---------------------------------------------------

    @classmethod
    def exp_axis_angle(cls, angle: float, axis: "Quaternion") -> "Quaternion":
        """Unit quaternion for a rotation by ``angle`` about ``axis``.

        The axis must be an imaginary quaternion of unit length (within the
        normalization tolerance).  The result is
        ``cos(angle/2) + sin(angle/2) * axis``.
        """
        if not axis.is_imaginary(1e-12 * max(1.0, axis.norm())):
            raise NonUnitAxis("axis must be imaginary")
        n = axis.norm()
        if abs(n - 1.0) > NORMALIZE_TOL:
            raise NonUnitAxis(f"axis norm {n} is not 1")
        unit = axis / n
        half = 0.5 * float(angle)
        s = math.sin(half)
        return cls(math.cos(half), s * unit.x, s * unit.y, s * unit.z)

    @classmethod
    def exp_imaginary(cls, value: "Quaternion") -> "Quaternion":
        """Exponential of an imaginary quaternion; inverse of :meth:`log`."""
        if not value.is_imaginary(1e-9 * max(1.0, value.norm())):
            raise NonUnitAxis("exponent must be imaginary")
        a = value.imaginary_norm()
        if a <= 1e-300:
            return cls.identity()
        s = math.sin(a) / a
        return cls(math.cos(a), s * value.x, s * value.y, s * value.z)

    def log(self) -> "Quaternion":
        """Logarithm of a unit quaternion, an imaginary quaternion.

        For ``q = cos(t/2) + sin(t/2) * axis`` this returns ``(t/2) * axis``.
        Undefined arbitrarily close to -1, where the axis is ambiguous.
        """
        imn = self.imaginary_norm()
        if imn <= 1e-12:
            if self.w < 0.0:
                raise ValueError("quaternion logarithm is undefined near -1")
            return Quaternion(0.0, 0.0, 0.0, 0.0)
        half = math.atan2(imn, self.w)
        s = half / imn
        return Quaternion(0.0, s * self.x, s * self.y, s * self.z)

    # -- numpy interop -----------------------------------------------------

    def as_array(self) -> np.ndarray:
        return np.array([self.w, self.x, self.y, self.z], dtype=np.float64)


# Both multiplication matrices place coefficient ``_MULT_INDEX[r, c]`` of q
# at (r, c), with the signs below.  ``take`` allocates in C order, so a
# batched ``matmul`` of a stack of them sums each product in the same order
# as the 2-D product of one matrix.
_MULT_INDEX = np.array([[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]])
_LEFT_SIGNS = np.array([[1.0, -1, -1, -1], [1, 1, -1, 1], [1, 1, 1, -1], [1, -1, 1, 1]])
_RIGHT_SIGNS = np.array([[1.0, -1, -1, -1], [1, 1, 1, -1], [1, -1, 1, 1], [1, 1, -1, 1]])


def left_mult_matrix(q) -> np.ndarray:
    """Matrices ``L`` with ``L @ p == q * p`` for coefficient 4-vectors (w, x, y, z).

    ``q`` of shape ``(..., 4)`` gives one matrix per quaternion, shape ``(..., 4, 4)``.
    """
    return np.take(np.asarray(q, dtype=np.float64), _MULT_INDEX, axis=-1) * _LEFT_SIGNS


def right_mult_matrix(q) -> np.ndarray:
    """Matrices ``R`` with ``R @ p == p * q``; shapes as in :func:`left_mult_matrix`."""
    return np.take(np.asarray(q, dtype=np.float64), _MULT_INDEX, axis=-1) * _RIGHT_SIGNS


def quat_mul(a, b) -> np.ndarray:
    """Products ``a * b`` of ``(..., 4)`` coefficient arrays, rounded as :meth:`Quaternion.__mul__`.

    Each coefficient adds its four terms left to right with the signs of
    the scalar product, so every entry equals that product bit for bit.
    """
    t = np.asarray(a, dtype=np.float64)[..., None, :] * right_mult_matrix(b)
    return t[..., 0] + t[..., 1] + t[..., 2] + t[..., 3]


def quat_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """:meth:`Quaternion.dot` over the last axis of ``(..., 4)`` arrays, summed in its order."""
    p = a * b
    return p[..., 0] + p[..., 1] + p[..., 2] + p[..., 3]


def unit_deviations(std: np.ndarray, dual: np.ndarray) -> np.ndarray:
    """:meth:`DualQuaternion.unit_deviation` of ``(..., 4)`` part arrays, bit for bit."""
    return np.maximum(abs(np.sqrt(quat_dot(std, std)) - 1.0), abs(2.0 * quat_dot(std, dual)))


def normalize_dq(std: np.ndarray, dual: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """:meth:`DualQuaternion.normalized` of ``(..., 4)`` part arrays with nonzero ``std``, bit for bit."""
    norm = np.sqrt(quat_dot(std, std))
    inv = (1.0 / norm)[..., None]
    return std * inv, (dual - std * (quat_dot(std, dual) / (norm * norm))[..., None]) * inv


def canonical_signs(q: np.ndarray) -> np.ndarray:
    """Signs ``s`` (1.0 or -1.0) such that ``s * q`` has its first nonzero coefficient positive.

    ``q`` is ``(..., 4)`` in (w, x, y, z) order; the zero quaternion gets
    ``+1``.  This fixes one representative of each double-cover pair.
    """
    first = np.take_along_axis(q, np.argmax(q != 0.0, axis=-1)[..., None], axis=-1)[..., 0]
    return np.where(first < 0.0, -1.0, 1.0)


def canonical_sign(q: Quaternion) -> int:
    """:func:`canonical_signs` of one quaternion, as an int."""
    return int(canonical_signs(q.as_array()))


def random_unit_quaternion(rng: np.random.Generator) -> Quaternion:
    """Uniform sample from the unit quaternion manifold."""
    while True:
        v = rng.standard_normal(4)
        n = float(np.linalg.norm(v))
        if n > 1e-12:
            return Quaternion(v[0] / n, v[1] / n, v[2] / n, v[3] / n)


_ZERO_Q = Quaternion(0.0, 0.0, 0.0, 0.0)


@dataclass(frozen=True, slots=True)
class DualQuaternion:
    """A dual quaternion ``std + dual * eps`` with quaternion parts."""

    std: Quaternion
    dual: Quaternion = _ZERO_Q

    @classmethod
    def identity(cls) -> "DualQuaternion":
        return cls(Quaternion.identity(), _ZERO_Q)

    @classmethod
    def zero(cls) -> "DualQuaternion":
        return cls(_ZERO_Q, _ZERO_Q)

    @classmethod
    def from_real(cls, value) -> "DualQuaternion":
        """Embed a real or dual number as a dual quaternion."""
        d = _as_dual_number(value)
        if d is None:
            raise TypeError(f"cannot embed {type(value).__name__}")
        return cls(Quaternion(d.std), Quaternion(d.dual))

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, DualQuaternion):
            return NotImplemented
        return DualQuaternion(self.std + other.std, self.dual + other.dual)

    def __sub__(self, other):
        if not isinstance(other, DualQuaternion):
            return NotImplemented
        return DualQuaternion(self.std - other.std, self.dual - other.dual)

    def __neg__(self):
        return DualQuaternion(-self.std, -self.dual)

    def __mul__(self, other):
        # A dual number's parts are floats, so one rule covers both kinds.
        if isinstance(other, (DualQuaternion, DualNumber)):
            return DualQuaternion(
                self.std * other.std,
                self.std * other.dual + self.dual * other.std,
            )
        if isinstance(other, (int, float)):
            s = float(other)
            return DualQuaternion(self.std * s, self.dual * s)
        return NotImplemented

    def __rmul__(self, other):
        # Dual numbers and reals commute with every dual quaternion.
        if isinstance(other, (DualNumber, int, float)):
            return self * other
        return NotImplemented

    # -- structure ---------------------------------------------------------

    def conjugate(self) -> "DualQuaternion":
        return DualQuaternion(self.std.conjugate(), self.dual.conjugate())

    def appreciable(self) -> bool:
        return self.std.norm() > TOL_APPRECIABLE

    def magnitude(self) -> DualNumber:
        """Magnitude as a dual number.

        Appreciable values get ``|std| + <std, dual>/|std| * eps``; values
        with a vanishing standard part are purely infinitesimal and their
        magnitude is ``|dual| * eps``.
        """
        n = self.std.norm()
        if n > TOL_APPRECIABLE:
            return DualNumber(n, self.std.dot(self.dual) / n)
        return DualNumber(0.0, self.dual.norm())

    def inverse(self) -> "DualQuaternion":
        if not self.appreciable():
            raise NotAppreciable("inverse requires an appreciable standard part")
        qi = self.std.inverse()
        return DualQuaternion(qi, -(qi * self.dual * qi))

    def normalized(self) -> "DualQuaternion":
        """Closest unit dual quaternion: unit standard part, orthogonal dual."""
        n = self.std.norm()
        if n == 0.0:
            raise NotAppreciable("cannot normalize with a zero standard part")
        q = self.std / n
        # Remove the component of the dual part along the standard part so
        # the unit condition <q, q_d> = 0 holds exactly.
        qd = (self.dual - self.std * (self.std.dot(self.dual) / (n * n))) / n
        return DualQuaternion(q, qd)

    def unit_deviation(self) -> float:
        """How far this value is from satisfying the unit conditions."""
        return max(
            abs(self.std.norm() - 1.0),
            abs(2.0 * self.std.dot(self.dual)),
        )

    def is_imaginary(self, tol: float = 1e-12) -> bool:
        return self.std.is_imaginary(tol) and self.dual.is_imaginary(tol)

    def as_dual_number(self) -> DualNumber:
        """Extract a dual number from a value with no imaginary content."""
        imag = max(self.std.imaginary_norm(), self.dual.imaginary_norm())
        if imag > 1e-9:
            raise ValueError(f"value has imaginary content {imag}")
        return DualNumber(self.std.w, self.dual.w)

    def approx_eq(self, other: "DualQuaternion", tol: float = 1e-12) -> bool:
        return self.std.approx_eq(other.std, tol) and self.dual.approx_eq(other.dual, tol)

    # -- serialization -----------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "std": [self.std.w, self.std.x, self.std.y, self.std.z],
            "dual": [self.dual.w, self.dual.x, self.dual.y, self.dual.z],
        }


@dataclass(frozen=True, slots=True)
class UnitDualQuaternion:
    """A dual quaternion satisfying the unit conditions, i.e. a rigid motion.

    ``|std| == 1`` and ``<std, dual> == 0`` within ``TOL_UNIT``.  Construct
    via :meth:`of` (renormalizes nearby values), :meth:`from_pose`, or
    :meth:`exp`.
    """

    inner: DualQuaternion

    def __post_init__(self):
        dev = self.inner.unit_deviation()
        if dev > TOL_UNIT:
            raise UnitValidationError(f"unit deviation {dev} exceeds {TOL_UNIT}")

    @property
    def std(self) -> Quaternion:
        return self.inner.std

    @property
    def dual(self) -> Quaternion:
        return self.inner.dual

    @classmethod
    def of(cls, value: DualQuaternion) -> "UnitDualQuaternion":
        dev = value.unit_deviation()
        if dev > NORMALIZE_TOL:
            raise UnitValidationError(f"unit deviation {dev} exceeds {NORMALIZE_TOL}")
        return cls(value.normalized())

    @classmethod
    def identity(cls) -> "UnitDualQuaternion":
        return cls(DualQuaternion.identity())

    @classmethod
    def from_rows(cls, rows) -> tuple["UnitDualQuaternion", ...]:
        """Values of ``(k, 2, 4)`` rows (standard, dual part), validated in one pass.

        Every row must meet the unit conditions to ``TOL_UNIT``, as the
        constructor requires of one value; the check runs over all rows at
        once rather than once per value.
        """
        rows = np.asarray(rows, dtype=np.float64).reshape(-1, 2, 4)
        dev = unit_deviations(rows[:, 0], rows[:, 1])
        bad = np.flatnonzero(dev > TOL_UNIT)
        if bad.size:
            raise UnitValidationError(f"unit deviation {float(dev[bad[0]])} exceeds {TOL_UNIT}")
        out = []
        for std, dual in rows.tolist():
            value = object.__new__(cls)
            object.__setattr__(value, "inner", DualQuaternion(Quaternion(*std), Quaternion(*dual)))
            out.append(value)
        return tuple(out)

    @classmethod
    def from_pose(cls, rotation: Quaternion, translation: Quaternion) -> "UnitDualQuaternion":
        """The pose ``q + eps q t / 2``: imaginary ``translation`` ``t``, then ``rotation`` ``q``.

        Pose rows are world-frame, ``q + eps t q / 2``
        (:func:`~dqopt.handeye.pose_udqs`): a row of this value reads ``R(q) t``.
        """
        if not translation.is_imaginary(1e-12 * max(1.0, translation.norm())):
            raise NonImaginaryTranslation(f"real part {translation.w}")
        t = translation.imaginary()
        n = rotation.norm()
        if abs(n - 1.0) > NORMALIZE_TOL:
            raise NonUnitRotation(f"rotation norm {n}")
        q = rotation / n
        return cls(DualQuaternion(q, (q * t) * 0.5))

    def to_pose(self) -> tuple[Quaternion, Quaternion]:
        """``(q, t)``, ``t = 2 conj(q) q_d`` as :meth:`from_pose` takes it: a row's ``R(q)^T t``."""
        q = self.inner.std
        t = (q.conjugate() * self.inner.dual) * 2.0
        return q, t.imaginary()

    def canonicalized(self) -> "UnitDualQuaternion":
        """Fix the double-cover sign by :func:`canonical_sign` of the standard part."""
        return self if canonical_sign(self.inner.std) > 0 else UnitDualQuaternion(-self.inner)

    def conjugate(self) -> "UnitDualQuaternion":
        return UnitDualQuaternion(self.inner.conjugate())

    def inverse(self) -> "UnitDualQuaternion":
        # For unit values the inverse and the conjugate coincide.
        return self.conjugate()

    def __mul__(self, other):
        if not isinstance(other, UnitDualQuaternion):
            return NotImplemented
        return UnitDualQuaternion((self.inner * other.inner).normalized())

    def as_dual_quaternion(self) -> DualQuaternion:
        return self.inner

    def log(self) -> DualQuaternion:
        """Logarithm: half the rotation vector plus half the translation.

        The sign is canonicalized first, so the rotation angle lands in
        [0, pi].  The standard part is the rotation's
        :meth:`Quaternion.log`, ``(angle/2) * axis``, and the dual part is
        half the translation recovered by :meth:`to_pose`.
        """
        q, t = self.canonicalized().to_pose()
        return DualQuaternion(q.log(), t * 0.5)

    @classmethod
    def exp(cls, value: DualQuaternion) -> "UnitDualQuaternion":
        """Inverse of :meth:`log` for imaginary dual quaternions."""
        if not value.is_imaginary(1e-9):
            raise NonUnitAxis("exponent must be an imaginary dual quaternion")
        rot = Quaternion.exp_imaginary(value.std.imaginary())
        t = value.dual.imaginary() * 2.0
        return cls.from_pose(rot, t)


class DualQuaternionVector:
    """Immutable vector of dual quaternions with the dual-valued 2-norm.

    Built from its entries, which it keeps, or by :meth:`from_rows` from an
    ``(n, 8)`` array of coordinates (standard part, then dual part); either
    way it holds the coordinates, read-only, as ``rows``.  A vector of rows
    builds ``entries`` from the rows' floats on first access (iteration,
    indexing or ``.entries``), while ``len``, :meth:`to_json_list` and
    :func:`~dqopt.handeye.pose_rows` read the rows.  Equality, hashing
    and ``repr`` go by the entries.
    """

    def __init__(self, entries: Iterable[DualQuaternion] = ()):
        object.__setattr__(self, "entries", tuple(entries))
        rows = [(v.std.w, v.std.x, v.std.y, v.std.z, v.dual.w, v.dual.x, v.dual.y, v.dual.z)
                for v in self.entries]
        object.__setattr__(self, "rows", np.array(rows, dtype=np.float64).reshape(-1, 8))
        self.rows.flags.writeable = False

    @classmethod
    def from_rows(cls, rows) -> "DualQuaternionVector":
        """The vector of the ``(n, 8)`` coordinate rows ``rows``, kept as a read-only copy."""
        vector = object.__new__(cls)
        object.__setattr__(vector, "rows", np.array(rows, dtype=np.float64).reshape(-1, 8))
        vector.rows.flags.writeable = False
        return vector

    @functools.cached_property
    def entries(self) -> tuple[DualQuaternion, ...]:
        return tuple(DualQuaternion(Quaternion(*std), Quaternion(*dual))
                     for std, dual in self.rows.reshape(-1, 2, 4).tolist())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __reduce__(self):
        # copies rebuild through the constructor, so that their rows stay read-only
        # and their entries keep their types (UnitDualQuaternion among them)
        return type(self), (self.entries,)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.entries == other.entries

    def __hash__(self) -> int:
        return hash(self.entries)

    def __repr__(self) -> str:
        return f"DualQuaternionVector(entries={self.entries!r})"

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self):
        return iter(self.entries)

    def __getitem__(self, index):
        return self.entries[index]

    def norm2(self) -> DualNumber:
        """Dual-valued 2-norm.

        ``conj(e) * e`` is the dual number ``|e_std|^2 + 2 <e_std, e_dual> eps``
        for every entry, so the squared norm sums those scalars.  When the
        stacked standard part is appreciable the norm is that sum's
        :meth:`DualNumber.sqrt`; otherwise every entry is infinitesimal and
        the norm is the Euclidean norm of the dual parts times eps.
        """
        std_sq = 0.0
        cross = 0.0
        for e in self.entries:
            std_sq += e.std.norm_squared()
            cross += 2.0 * e.std.dot(e.dual)
        if std_sq > TOL_APPRECIABLE * TOL_APPRECIABLE:
            return DualNumber(std_sq, cross).sqrt(TOL_APPRECIABLE * TOL_APPRECIABLE)
        dual_sq = 0.0
        for e in self.entries:
            dual_sq += e.dual.norm_squared()
        return DualNumber(0.0, math.sqrt(dual_sq))

    def to_json_list(self) -> list:
        """:meth:`DualQuaternion.to_dict` of every entry, read off ``rows``."""
        return [{"std": row[:4], "dual": row[4:]} for row in self.rows.tolist()]
