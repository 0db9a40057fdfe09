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

    def appreciable(self, tol: float = TOL_APPRECIABLE) -> bool:
        return abs(self.std) > tol

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


@dataclass(frozen=True, slots=True)
class Quaternion:
    """Quaternion ``w + x i + y j + z k`` over floats."""

    w: float
    x: float = 0.0
    y: float = 0.0
    z: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "w", float(self.w))
        object.__setattr__(self, "x", float(self.x))
        object.__setattr__(self, "y", float(self.y))
        object.__setattr__(self, "z", float(self.z))

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

    def is_unit(self, tol: float = TOL_UNIT) -> bool:
        return abs(self.norm() - 1.0) <= tol

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

    def left_matrix(self) -> np.ndarray:
        """Matrix ``L`` with ``L @ vec(q) == vec(self * q)``."""
        return left_mult_matrix((self.w, self.x, self.y, self.z))

    def right_matrix(self) -> np.ndarray:
        """Matrix ``R`` with ``R @ vec(p) == vec(p * self)``."""
        return right_mult_matrix((self.w, self.x, self.y, self.z))

    def rotate_vector(self, v: Sequence[float]) -> np.ndarray:
        """Apply the rotation this unit quaternion represents to a 3-vector."""
        p = Quaternion(0.0, float(v[0]), float(v[1]), float(v[2]))
        r = self * p * self.conjugate()
        return np.array([r.x, r.y, r.z], dtype=np.float64)


def left_mult_matrix(q) -> np.ndarray:
    """Matrix ``L`` with ``L @ p == q * p`` for coefficient 4-vectors (w, x, y, z)."""
    w, x, y, z = q
    return np.array([[w, -x, -y, -z], [x, w, -z, y], [y, z, w, -x], [z, -y, x, w]])


def right_mult_matrix(q) -> np.ndarray:
    """Matrix ``R`` with ``R @ p == p * q`` for coefficient 4-vectors (w, x, y, z)."""
    w, x, y, z = q
    return np.array([[w, -x, -y, -z], [x, w, z, -y], [y, -z, w, x], [z, y, -x, w]])


def canonical_sign(q: Quaternion) -> int:
    """Sign ``s`` such that ``s * q`` has its first nonzero coefficient positive.

    Coefficients are scanned in (w, x, y, z) order; the zero quaternion
    gets ``+1``.  This fixes one representative of each double-cover pair.
    """
    for comp in (q.w, q.x, q.y, q.z):
        if comp > 0.0:
            return 1
        if comp < 0.0:
            return -1
    return 1


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
        if isinstance(other, DualQuaternion):
            return DualQuaternion(
                self.std * other.std,
                self.std * other.dual + self.dual * other.std,
            )
        if isinstance(other, DualNumber):
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

    def appreciable(self, tol: float = TOL_APPRECIABLE) -> bool:
        return self.std.norm() > tol

    def magnitude(self, tol: float = TOL_APPRECIABLE) -> DualNumber:
        """Magnitude as a dual number.

        Appreciable values get ``|std| + <std, dual>/|std| * eps``; values
        with a vanishing standard part are purely infinitesimal and their
        magnitude is ``|dual| * eps``.
        """
        n = self.std.norm()
        if n > tol:
            return DualNumber(n, self.std.dot(self.dual) / n)
        return DualNumber(0.0, self.dual.norm())

    def inverse(self, tol: float = TOL_APPRECIABLE) -> "DualQuaternion":
        if not self.appreciable(tol):
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

    def as_dual_number(self, tol: float = 1e-9) -> DualNumber:
        """Extract a dual number from a value with no imaginary content."""
        imag = max(self.std.imaginary_norm(), self.dual.imaginary_norm())
        if imag > tol:
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

    @classmethod
    def from_dict(cls, data: dict) -> "DualQuaternion":
        return cls(Quaternion.from_array(data["std"]), Quaternion.from_array(data["dual"]))


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
    def of(cls, value: DualQuaternion, normalize_tol: float = NORMALIZE_TOL) -> "UnitDualQuaternion":
        dev = value.unit_deviation()
        if dev > normalize_tol:
            raise UnitValidationError(f"unit deviation {dev} exceeds {normalize_tol}")
        return cls(value.normalized())

    @classmethod
    def identity(cls) -> "UnitDualQuaternion":
        return cls(DualQuaternion.identity())

    @classmethod
    def from_pose(cls, rotation: Quaternion, translation) -> "UnitDualQuaternion":
        """Build the motion ``rotation`` followed by ``translation``.

        ``translation`` may be an imaginary quaternion or a 3-sequence.  The
        dual part is ``rotation * translation / 2``.
        """
        if isinstance(translation, Quaternion):
            if not translation.is_imaginary(1e-12 * max(1.0, translation.norm())):
                raise NonImaginaryTranslation(f"real part {translation.w}")
            t = translation.imaginary()
        else:
            seq = list(translation)
            if len(seq) != 3:
                raise NonImaginaryTranslation(f"expected 3 components, got {len(seq)}")
            t = Quaternion(0.0, seq[0], seq[1], seq[2])
        n = rotation.norm()
        if abs(n - 1.0) > NORMALIZE_TOL:
            raise NonUnitRotation(f"rotation norm {n}")
        q = rotation / n
        return cls(DualQuaternion(q, (q * t) * 0.5))

    def to_pose(self) -> tuple[Quaternion, Quaternion]:
        """Recover (rotation, translation) with an imaginary translation."""
        q = self.inner.std
        t = (q.conjugate() * self.inner.dual) * 2.0
        return q, t.imaginary()

    def translation_vector(self) -> np.ndarray:
        _, t = self.to_pose()
        return np.array([t.x, t.y, t.z], dtype=np.float64)

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
        [0, pi].  The standard part is ``(angle/2) * axis`` and the dual
        part is half the translation recovered by :meth:`to_pose`.
        """
        canon = self.canonicalized()
        q, t = canon.to_pose()
        imn = q.imaginary_norm()
        if imn <= 1e-12:
            rot = Quaternion(0.0, 0.0, 0.0, 0.0)
        else:
            half = math.atan2(imn, q.w)
            s = half / imn
            rot = Quaternion(0.0, s * q.x, s * q.y, s * q.z)
        return DualQuaternion(rot, t * 0.5)

    @classmethod
    def exp(cls, value: DualQuaternion) -> "UnitDualQuaternion":
        """Inverse of :meth:`log` for imaginary dual quaternions."""
        if not value.is_imaginary(1e-9):
            raise NonUnitAxis("exponent must be an imaginary dual quaternion")
        rot = Quaternion.exp_imaginary(value.std.imaginary())
        t = value.dual.imaginary() * 2.0
        return cls.from_pose(rot, t)


@dataclass(frozen=True)
class DualQuaternionVector:
    """Immutable vector of dual quaternions with the dual-valued 2-norm."""

    entries: tuple[DualQuaternion, ...]

    def __post_init__(self):
        object.__setattr__(self, "entries", tuple(self.entries))

    @classmethod
    def of(cls, values: Iterable[DualQuaternion]) -> "DualQuaternionVector":
        return cls(tuple(values))

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def __getitem__(self, index):
        return self.entries[index]

    def conj_dot(self, other: "DualQuaternionVector") -> DualQuaternion:
        """Sum of ``conj(self_i) * other_i``."""
        if len(self) != len(other):
            raise ValueError("length mismatch")
        total = DualQuaternion.zero()
        for a, b in zip(self.entries, other.entries):
            total = total + a.conjugate() * b
        return total

    def norm2(self, tol: float = TOL_APPRECIABLE) -> DualNumber:
        """Dual-valued 2-norm.

        ``conj(e) * e`` is the dual number ``|e_std|^2 + 2 <e_std, e_dual> eps``
        for every entry, so the squared norm sums those scalars.  When the
        stacked standard part is appreciable the square root follows the
        usual first-order rule; otherwise every entry is infinitesimal and
        the norm is the Euclidean norm of the dual parts times eps.
        """
        std_sq = 0.0
        cross = 0.0
        for e in self.entries:
            std_sq += e.std.norm_squared()
            cross += 2.0 * e.std.dot(e.dual)
        if std_sq > tol * tol:
            root = math.sqrt(std_sq)
            return DualNumber(root, cross / (2.0 * root))
        dual_sq = 0.0
        for e in self.entries:
            dual_sq += e.dual.norm_squared()
        return DualNumber(0.0, math.sqrt(dual_sq))

    def to_json_list(self) -> list:
        return [e.to_dict() for e in self.entries]

    @classmethod
    def from_json_list(cls, data: list) -> "DualQuaternionVector":
        return cls(tuple(DualQuaternion.from_dict(d) for d in data))
