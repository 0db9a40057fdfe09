"""Hand-eye calibration as standard dual quaternion optimization.

Two measurement models:

- AXXB: a sensor rigidly mounted on an actuator observes poses while the
  actuator reports its own; consecutive measurement pairs give relative
  motions ``a_i`` and ``b_i`` and the unknown mounting transform ``x``
  satisfies ``a_i x = x b_i``.
- AXYB: absolute pose pairs with two unknowns, ``a_i x = y b_i``.

Both become sums of residual magnitudes (never squared: a squared
magnitude annihilates purely infinitesimal residuals) subject to unit
constraints, which the two-stage solver handles directly.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .algebra import (
    NORMALIZE_TOL,
    DualQuaternion,
    Quaternion,
    UnitDualQuaternion,
    canonical_sign,
    normalize_dq,
    quat_dot,
    quat_mul,
    random_unit_quaternion,
    unit_deviations,
)
from .errors import InvalidPose, NoGroundTruth, TooFewMotions, UnitValidationError
from .functions import AffineResidual, ResidualNormObjective, UnitNormConstraint, pack
from .solver import EqdqoProblem

__all__ = [
    "Pose",
    "HandEyeDataset",
    "relative_motions",
    "build_axxb",
    "build_axyb",
    "generate_synthetic",
    "evaluate_solution",
    "rotation_angle_between",
    "MIN_AXIS_SPREAD",
]

#: Motions whose rotation axes all lie within this angle of one line make
#: the calibration ill conditioned; generators guarantee more spread and
#: builders warn below it.
MIN_AXIS_SPREAD = 0.3


@dataclass(frozen=True)
class Pose:
    """Rigid transform as a unit rotation quaternion plus translation."""

    rotation: Quaternion
    translation: tuple[float, float, float]

    def __post_init__(self):
        n = self.rotation.norm()
        if abs(n - 1.0) > NORMALIZE_TOL:
            raise InvalidPose(f"rotation norm {n} is not 1")
        object.__setattr__(self, "rotation", self.rotation / n)
        t = tuple(float(v) for v in self.translation)
        if len(t) != 3:
            raise InvalidPose(f"translation needs 3 components, got {len(t)}")
        object.__setattr__(self, "translation", t)

    @classmethod
    def identity(cls) -> "Pose":
        return cls(Quaternion.identity(), (0.0, 0.0, 0.0))

    def matrix(self) -> np.ndarray:
        """Homogeneous 4x4 matrix with bottom row (0, 0, 0, 1)."""
        q = self.rotation
        w, x, y, z = q.w, q.x, q.y, q.z
        m = np.eye(4)
        m[0, 0] = 1 - 2 * (y * y + z * z)
        m[0, 1] = 2 * (x * y - w * z)
        m[0, 2] = 2 * (x * z + w * y)
        m[1, 0] = 2 * (x * y + w * z)
        m[1, 1] = 1 - 2 * (x * x + z * z)
        m[1, 2] = 2 * (y * z - w * x)
        m[2, 0] = 2 * (x * z - w * y)
        m[2, 1] = 2 * (y * z + w * x)
        m[2, 2] = 1 - 2 * (x * x + y * y)
        m[:3, 3] = self.translation
        return m

    @classmethod
    def from_matrix(cls, m: np.ndarray) -> "Pose":
        """Inverse of :meth:`matrix`, largest-pivot quaternion extraction."""
        m = np.asarray(m, dtype=np.float64)
        if m.shape != (4, 4):
            raise InvalidPose(f"expected 4x4 matrix, got {m.shape}")
        if np.max(np.abs(m[3] - np.array([0.0, 0.0, 0.0, 1.0]))) > 1e-9:
            raise InvalidPose("bottom row must be (0, 0, 0, 1)")
        r = m[:3, :3]
        if np.max(np.abs(r.T @ r - np.eye(3))) > 1e-6:
            raise InvalidPose("rotation block is not orthonormal")
        tr = r[0, 0] + r[1, 1] + r[2, 2]
        # Pick the largest diagonal pivot so the divisor stays well away
        # from zero for every rotation, including angles near pi.
        if tr > r[0, 0] and tr > r[1, 1] and tr > r[2, 2]:
            s = 2.0 * math.sqrt(1.0 + tr)
            q = Quaternion(
                0.25 * s,
                (r[2, 1] - r[1, 2]) / s,
                (r[0, 2] - r[2, 0]) / s,
                (r[1, 0] - r[0, 1]) / s,
            )
        elif r[0, 0] > r[1, 1] and r[0, 0] > r[2, 2]:
            s = 2.0 * math.sqrt(1.0 + r[0, 0] - r[1, 1] - r[2, 2])
            q = Quaternion(
                (r[2, 1] - r[1, 2]) / s,
                0.25 * s,
                (r[0, 1] + r[1, 0]) / s,
                (r[0, 2] + r[2, 0]) / s,
            )
        elif r[1, 1] > r[2, 2]:
            s = 2.0 * math.sqrt(1.0 + r[1, 1] - r[0, 0] - r[2, 2])
            q = Quaternion(
                (r[0, 2] - r[2, 0]) / s,
                (r[0, 1] + r[1, 0]) / s,
                0.25 * s,
                (r[1, 2] + r[2, 1]) / s,
            )
        else:
            s = 2.0 * math.sqrt(1.0 + r[2, 2] - r[0, 0] - r[1, 1])
            q = Quaternion(
                (r[1, 0] - r[0, 1]) / s,
                (r[0, 2] + r[2, 0]) / s,
                (r[1, 2] + r[2, 1]) / s,
                0.25 * s,
            )
        return cls(q.normalized(), tuple(m[:3, 3]))

    def compose(self, other: "Pose") -> "Pose":
        """This transform applied after ``other``: matrix product self @ other."""
        t = self.rotation.rotate_vector(other.translation) + np.asarray(self.translation)
        return Pose(self.rotation * other.rotation, tuple(t))

    def inverse(self) -> "Pose":
        qi = self.rotation.conjugate()
        t = -qi.rotate_vector(self.translation)
        return Pose(qi, tuple(t))

    def to_udq(self) -> UnitDualQuaternion:
        """Unit dual quaternion of this transform.

        The dual part is ``translation * rotation / 2`` with the
        world-frame translation on the left; this makes the conversion a
        homomorphism, ``(p1 @ p2).to_udq() == p1.to_udq() * p2.to_udq()``.
        The body-frame builder ``UnitDualQuaternion.from_pose`` would place
        ``rotation.conjugate().rotate_vector(translation)`` in its slot.
        """
        t = Quaternion(0.0, *self.translation)
        return UnitDualQuaternion(
            DualQuaternion(self.rotation, (t * self.rotation) * 0.5)
        )

    @classmethod
    def from_udq(cls, u: UnitDualQuaternion) -> "Pose":
        t = (u.dual * u.std.conjugate()) * 2.0
        return cls(u.std, (t.x, t.y, t.z))

    def approx_eq(self, other: "Pose", tol: float = 1e-9) -> bool:
        dq = min(
            max(abs(a - b) for a, b in zip(_qtuple(self.rotation), _qtuple(other.rotation))),
            max(abs(a + b) for a, b in zip(_qtuple(self.rotation), _qtuple(other.rotation))),
        )
        dt = max(abs(a - b) for a, b in zip(self.translation, other.translation))
        return dq <= tol and dt <= tol

    def to_json_dict(self) -> dict:
        q = self.rotation
        return {"q": [q.w, q.x, q.y, q.z], "t": list(self.translation)}

    @classmethod
    def from_json_dict(cls, data: dict) -> "Pose":
        return cls(Quaternion.from_array(data["q"]), tuple(data["t"]))


def _qtuple(q: Quaternion):
    return (q.w, q.x, q.y, q.z)


@dataclass(frozen=True)
class HandEyeDataset:
    """Measurement lists plus optional ground truth and generator metadata."""

    model: str
    poses_a: tuple[Pose, ...]
    poses_b: tuple[Pose, ...]
    ground_truth_x: UnitDualQuaternion | None = None
    ground_truth_y: UnitDualQuaternion | None = None
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.model not in ("axxb", "axyb"):
            raise ValueError(f"unknown model {self.model!r}")
        object.__setattr__(self, "poses_a", tuple(self.poses_a))
        object.__setattr__(self, "poses_b", tuple(self.poses_b))
        if len(self.poses_a) != len(self.poses_b):
            raise ValueError("pose lists must have equal length")

    def to_json_dict(self) -> dict:
        out = {
            "model": self.model,
            "A": [p.to_json_dict() for p in self.poses_a],
            "B": [p.to_json_dict() for p in self.poses_b],
        }
        if self.ground_truth_x is not None or self.ground_truth_y is not None:
            gt = {}
            if self.ground_truth_x is not None:
                gt["X"] = Pose.from_udq(self.ground_truth_x).to_json_dict()
            if self.ground_truth_y is not None:
                gt["Y"] = Pose.from_udq(self.ground_truth_y).to_json_dict()
            out["ground_truth"] = gt
        if self.meta:
            out["meta"] = dict(self.meta)
        return out

    @classmethod
    def from_json_dict(cls, data: dict) -> "HandEyeDataset":
        gt = data.get("ground_truth", {}) or {}
        gx = Pose.from_json_dict(gt["X"]).to_udq() if "X" in gt else None
        gy = Pose.from_json_dict(gt["Y"]).to_udq() if "Y" in gt else None
        return cls(
            model=data["model"],
            poses_a=tuple(Pose.from_json_dict(p) for p in data["A"]),
            poses_b=tuple(Pose.from_json_dict(p) for p in data["B"]),
            ground_truth_x=gx,
            ground_truth_y=gy,
            meta=dict(data.get("meta", {})),
        )


def relative_motions(
    dataset: HandEyeDataset,
) -> list[tuple[UnitDualQuaternion, UnitDualQuaternion]]:
    """Consecutive relative motion pairs for the AXXB model.

    Measurement ``i`` pairs ``A_{i+1} A_i^{-1}`` with ``B_{i+1}^{-1} B_i``,
    both converted to sign-canonicalized unit dual quaternions.
    """
    if dataset.model != "axxb":
        raise ValueError("relative motions apply to the axxb model")
    if len(dataset.poses_a) < 2:
        raise TooFewMotions("need at least 2 poses for relative motions")
    out = []
    for i in range(len(dataset.poses_a) - 1):
        a_rel = dataset.poses_a[i + 1].compose(dataset.poses_a[i].inverse())
        b_rel = dataset.poses_b[i + 1].inverse().compose(dataset.poses_b[i])
        out.append((a_rel.to_udq().canonicalized(), b_rel.to_udq().canonicalized()))
    return out


def _axis_spread(rotations: Sequence[Quaternion]) -> float:
    """Largest pairwise angle between rotation axis lines, 0 if under two axes."""
    axes = []
    for q in rotations:
        imn = q.imaginary_norm()
        if imn > 1e-6:
            axes.append(np.array([q.x, q.y, q.z]) / imn)
    best = 0.0
    for i in range(len(axes)):
        for j in range(i + 1, len(axes)):
            c = min(1.0, abs(float(axes[i] @ axes[j])))
            best = max(best, math.acos(c))
    return best


def _warn_if_degenerate(motions) -> None:
    if _axis_spread([m.std for m in motions]) < MIN_AXIS_SPREAD:
        warnings.warn(
            "rotation axes of the motions are nearly parallel; the "
            "calibration problem is ill conditioned",
            RuntimeWarning,
            stacklevel=3,
        )


_ONE = DualQuaternion.identity()
_MINUS_ONE = -DualQuaternion.identity()


def _magnitude_sum(arity: int, pairs, other: int) -> ResidualNormObjective:
    """Sum over ``(a, b)`` in ``pairs`` of ``|a x_0 - x_other b|``, one norm group each."""
    groups = []
    for a, b in pairs:
        terms = [(a.as_dual_quaternion(), 0, _ONE), (_MINUS_ONE, other, b.as_dual_quaternion())]
        groups.append([AffineResidual(arity, terms)])
    return ResidualNormObjective(arity, groups)


def build_axxb(dataset: HandEyeDataset) -> EqdqoProblem:
    """Problem: minimize the sum of ``|a_i x - x b_i|`` over unit ``x``.

    Magnitudes are summed unsquared; each residual is its own norm group.
    """
    motions = relative_motions(dataset)
    if len(motions) < 2:
        raise TooFewMotions(f"need at least 2 relative motions, got {len(motions)}")
    _warn_if_degenerate([a for a, _ in motions])
    return EqdqoProblem(_magnitude_sum(1, motions, 0), (UnitNormConstraint(1, 0),))


def build_axyb(dataset: HandEyeDataset) -> EqdqoProblem:
    """Problem: minimize the sum of ``|a_i x - y b_i|`` over unit ``x, y``.

    Variable 0 is ``x``, variable 1 is ``y``; absolute poses are used
    directly, sign-canonicalized.
    """
    if dataset.model != "axyb":
        raise ValueError("build_axyb needs an axyb dataset")
    if len(dataset.poses_a) < 3:
        raise TooFewMotions(f"need at least 3 pose pairs, got {len(dataset.poses_a)}")
    a_units = [p.to_udq().canonicalized() for p in dataset.poses_a]
    b_units = [p.to_udq().canonicalized() for p in dataset.poses_b]
    rel = [
        a_units[i + 1].inverse() * a_units[i] for i in range(len(a_units) - 1)
    ]
    _warn_if_degenerate(rel)
    objective = _magnitude_sum(2, zip(a_units, b_units), 1)
    return EqdqoProblem(objective, (UnitNormConstraint(2, 0), UnitNormConstraint(2, 1)))


# ---------------------------------------------------------------------------
# Synthetic data


def _random_pose(rng: np.random.Generator, trans_scale: float = 0.5) -> Pose:
    return Pose(
        random_unit_quaternion(rng), tuple(rng.normal(0.0, trans_scale, 3))
    )


def _random_rotation_about(rng: np.random.Generator, angle: float) -> Quaternion:
    axis = rng.standard_normal(3)
    axis /= np.linalg.norm(axis)
    return Quaternion.exp_axis_angle(angle, Quaternion(0.0, *axis))


def _noisy(pose: Pose, rng: np.random.Generator, sr: float, st: float) -> Pose:
    if sr == 0.0 and st == 0.0:
        return pose
    bump = _random_rotation_about(rng, rng.normal(0.0, sr)) if sr > 0 else Quaternion.identity()
    t = np.asarray(pose.translation) + (rng.normal(0.0, st, 3) if st > 0 else 0.0)
    return Pose(bump * pose.rotation, tuple(t))


def _spread_motion_angles(rng: np.random.Generator, n: int) -> list[Quaternion]:
    """Relative rotations with well-separated axes."""
    while True:
        rots = [
            _random_rotation_about(rng, rng.uniform(0.5, 2.5)) for _ in range(n)
        ]
        if _axis_spread(rots) >= MIN_AXIS_SPREAD:
            return rots


def generate_synthetic(
    model: str,
    n: int,
    noise_rot: float = 0.0,
    noise_trans: float = 0.0,
    seed: int = 0,
) -> HandEyeDataset:
    """Draw ground truth and measurements; noise perturbs the B side.

    ``n`` counts relative motions for axxb (so ``n + 1`` poses per side)
    and pose pairs for axyb.  Guarantees at least two relative rotation
    axes at angle ``MIN_AXIS_SPREAD`` or more.
    """
    if model == "axxb" and n < 2:
        raise TooFewMotions("axxb needs n >= 2 relative motions")
    if model == "axyb" and n < 3:
        raise TooFewMotions("axyb needs n >= 3 pose pairs")
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed])))
    truth_x = _random_pose(rng)
    meta = {
        "seed": seed,
        "n": n,
        "noise_rot": float(noise_rot),
        "noise_trans": float(noise_trans),
    }
    if model == "axxb":
        rotations = _spread_motion_angles(rng, n)
        poses_b = [_random_pose(rng)]
        for q in rotations:
            step = Pose(q, tuple(rng.normal(0.0, 0.5, 3)))
            # Convention: relative motion i is B_{i+1}^{-1} B_i = step.
            poses_b.append(poses_b[-1].compose(step.inverse()))
        poses_a = [_random_pose(rng)]
        for i in range(n):
            b_rel = poses_b[i + 1].inverse().compose(poses_b[i])
            a_rel = truth_x.compose(b_rel).compose(truth_x.inverse())
            poses_a.append(a_rel.compose(poses_a[i]))
        noisy_b = [_noisy(p, rng, noise_rot, noise_trans) for p in poses_b]
        return HandEyeDataset(
            "axxb",
            tuple(poses_a),
            tuple(noisy_b),
            ground_truth_x=truth_x.to_udq().canonicalized(),
            meta=meta,
        )
    if model != "axyb":
        raise ValueError(f"unknown model {model!r}")
    truth_y = _random_pose(rng)
    # Residuals subtract independently sign-canonicalized measurements, so
    # a pose pair only zeroes its residual at the canonical truths when the
    # canonical signs of a_i and b_i = y^{-1} a_i x agree with the product
    # of the truths' canonical signs.  Draw poses until that holds with a
    # scalar-part margin wide enough to survive the noise model.
    sign_target = canonical_sign(truth_x.rotation) * canonical_sign(truth_y.rotation)
    while True:
        poses_a = []
        while len(poses_a) < n:
            a = _random_pose(rng)
            qb = truth_y.rotation.conjugate() * a.rotation * truth_x.rotation
            if abs(a.rotation.w) < 0.2 or abs(qb.w) < 0.2:
                continue
            if canonical_sign(a.rotation) * canonical_sign(qb) != sign_target:
                continue
            poses_a.append(a)
        rel = [
            poses_a[i + 1].inverse().compose(poses_a[i]).rotation
            for i in range(n - 1)
        ]
        if _axis_spread(rel) >= MIN_AXIS_SPREAD:
            break
    # a_i x = y b_i, so b_i = y^{-1} a_i x.
    poses_b = [truth_y.inverse().compose(a).compose(truth_x) for a in poses_a]
    noisy_b = [_noisy(p, rng, noise_rot, noise_trans) for p in poses_b]
    return HandEyeDataset(
        "axyb",
        tuple(poses_a),
        tuple(noisy_b),
        ground_truth_x=truth_x.to_udq().canonicalized(),
        ground_truth_y=truth_y.to_udq().canonicalized(),
        meta=meta,
    )


# ---------------------------------------------------------------------------
# Evaluation


def rotation_angle_between(a: Quaternion, b: Quaternion) -> float:
    """Geodesic rotation angle between two unit quaternions, in [0, pi]."""
    p = a.conjugate() * b
    return 2.0 * math.atan2(p.imaginary_norm(), abs(p.w))


_CONJ = np.array([1.0, -1.0, -1.0, -1.0])


def pose_rows(values) -> np.ndarray:
    """Poses of unit dual quaternions as ``(k, 7)`` rows ``(qw, qx, qy, qz, tx, ty, tz)``.

    Each row is rounded as ``Pose.from_udq(UnitDualQuaternion.of(v))``;
    values that are :class:`UnitDualQuaternion` already skip ``of``.  Raises
    :class:`UnitValidationError` for a value farther than ``NORMALIZE_TOL``
    from unit.
    """
    values = list(values)
    dq = pack(values).reshape(-1, 2, 4)
    std, dual = dq[:, 0], dq[:, 1]
    plain = np.array([not isinstance(v, UnitDualQuaternion) for v in values], dtype=bool)
    if plain.any():
        dev = unit_deviations(std[plain], dual[plain])
        bad = np.flatnonzero(dev > NORMALIZE_TOL)
        if bad.size:
            raise UnitValidationError(f"unit deviation {float(dev[bad[0]])} exceeds {NORMALIZE_TOL}")
        std[plain], dual[plain] = normalize_dq(std[plain], dual[plain])
    t = quat_mul(dual, std * _CONJ) * 2.0
    rotation = std * (1.0 / np.sqrt(quat_dot(std, std)))[:, None]
    return np.concatenate((rotation, t[:, 1:]), axis=1)


def pose_errors(truth: np.ndarray, est: np.ndarray) -> tuple[list[float], list[float]]:
    """Rotation angles and world-frame translation distances from ``truth`` to ``est``.

    Both are ``(k, 7)`` pose rows as :func:`pose_rows` gives them; the
    results are lists of ``k`` floats, insensitive to the sign of either
    rotation quaternion and equal bit for bit to
    :func:`rotation_angle_between` and the norm of the translation
    difference per row.
    """
    p = quat_mul(truth[:, :4] * _CONJ, est[:, :4])
    imag = np.sqrt(p[:, 1] * p[:, 1] + p[:, 2] * p[:, 2] + p[:, 3] * p[:, 3])
    # math.atan2, not np.arctan2: the two differ in the last bit on some inputs.
    rot = [2.0 * math.atan2(s, abs(w)) for s, w in zip(imag.tolist(), p[:, 0].tolist())]
    dt = truth[:, 4:] - est[:, 4:]
    # Each (1, 3) @ (3, 1) product sums as np.linalg.norm's dot does.
    trans = np.sqrt((dt[:, None, :] @ dt[:, :, None])[:, 0, 0])
    return rot, trans.tolist()


def evaluate_solution(
    dataset: HandEyeDataset,
    x,
    y=None,
) -> dict:
    """Rotation and translation errors against recorded ground truth.

    Accepts unit dual quaternions or plain dual quaternions near unit.
    Raises :class:`NoGroundTruth` when the dataset has no recorded truth.
    """
    if dataset.ground_truth_x is None:
        raise NoGroundTruth("dataset has no recorded ground truth")
    truths, estimates = [dataset.ground_truth_x], [x]
    if y is not None:
        if dataset.ground_truth_y is None:
            raise NoGroundTruth("dataset has no recorded ground truth for y")
        truths.append(dataset.ground_truth_y)
        estimates.append(y)
    rot, trans = pose_errors(pose_rows(truths), pose_rows(estimates))
    out = {}
    for name, rot_k, trans_k in zip("xy", rot, trans):
        out[f"rotation_error_{name}"] = rot_k
        out[f"translation_error_{name}"] = trans_k
    return out
