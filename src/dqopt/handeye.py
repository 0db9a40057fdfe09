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

A :class:`HandEyeDataset` keeps its poses as ``(k, 7)`` rows ``(qw, qx,
qy, qz, tx, ty, tz)``, the row kernels (:func:`pose_compose` and its kin)
are the only pose arithmetic, and the builders and
:func:`generate_synthetic` run them in batched passes.
"""

from __future__ import annotations

import math
import warnings

import numpy as np

from .algebra import (
    NORMALIZE_TOL,
    TOL_APPRECIABLE,
    DualQuaternionVector,
    Quaternion,
    UnitDualQuaternion,
    canonical_signs,
    left_mult_matrix,
    normalize_dq,
    quat_dot,
    quat_mul,
    random_unit_quaternion,
    right_mult_matrix,
    unit_deviations,
)
from .errors import InvalidPose, NoGroundTruth, TooFewMotions, UnitValidationError
from .functions import ResidualNormObjective, affine_rows, pack
from .solver import EqdqoProblem

__all__ = [
    "HandEyeDataset",
    "relative_motions",
    "build_axxb",
    "build_axyb",
    "spectral_start",
    "generate_synthetic",
    "evaluate_solution",
    "rotation_angle_between",
    "MIN_AXIS_SPREAD",
]

#: Motions whose rotation axes all lie within this angle of one line make
#: the calibration ill conditioned; generators guarantee more spread and
#: builders warn below it.
MIN_AXIS_SPREAD = 0.3

_CONJ = np.array([1.0, -1.0, -1.0, -1.0])


def _unit(q: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Rows of the rotations ``q`` divided by their norms, then the translations ``t``."""
    return np.concatenate((q * (1.0 / np.sqrt(quat_dot(q, q)))[:, None], t), axis=1)


def checked_rows(rows, label: str) -> np.ndarray:
    """``(k, 7)`` pose rows as a new array, checked and left as they are.

    Raises :class:`InvalidPose`, naming the row ``label.format(index)``, for
    the first row that is not finite or has a rotation norm off 1 by more
    than ``NORMALIZE_TOL``.
    """
    rows = np.array(rows, dtype=np.float64)
    if rows.ndim > 2 or rows.size and rows.shape[-1] != 7:
        raise InvalidPose(f"pose rows need 7 columns, got shape {rows.shape}")
    rows = rows.reshape(-1, 7)
    norm = np.sqrt(quat_dot(rows[:, :4], rows[:, :4]))
    finite = np.isfinite(rows).all(axis=1)
    bad = np.flatnonzero(~finite | (abs(norm - 1.0) > NORMALIZE_TOL))
    if bad.size:
        i = bad[0]
        if not finite[i]:
            raise InvalidPose(f"{label.format(i)} is not finite: {rows[i].tolist()}")
        raise InvalidPose(f"{label.format(i)}: rotation norm {norm[i]} is not 1")
    return rows


def unit_rows(rows, label: str) -> np.ndarray:
    """:func:`checked_rows`, their rotations divided by their norms, as a new array."""
    rows = checked_rows(rows, label)
    return _unit(rows[:, :4], rows[:, 4:])


def _rotated(q: np.ndarray, v: np.ndarray) -> np.ndarray:
    """``q v conj(q)`` of ``(k, 4)`` rotations and ``(k, 3)`` vectors, ``v`` as pure quaternions."""
    p = np.zeros(q.shape)
    p[:, 1:] = v
    return quat_mul(quat_mul(q, p), q * _CONJ)[:, 1:]


def pose_inverse(rows: np.ndarray) -> np.ndarray:
    """Inverses of ``(k, 7)`` pose rows, rotations renormalized."""
    qi = rows[:, :4] * _CONJ
    return _unit(qi, -_rotated(qi, rows[:, 4:]))


def pose_compose(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Products ``a_i b_i`` of ``(k, 7)`` pose rows (``b`` applied first), rotations renormalized."""
    return _unit(quat_mul(a[:, :4], b[:, :4]), _rotated(a[:, :4], b[:, 4:]) + a[:, 4:])


def pose_udqs(rows: np.ndarray) -> np.ndarray:
    """Unit dual quaternions ``(k, 2, 4)`` (standard, dual part) of ``(k, 7)`` pose rows.

    The dual part is ``(t q) / 2``, the world-frame translation ``t`` on the
    left as a pure quaternion; so the conversion is a homomorphism.  (``t``
    is on the right in :meth:`~dqopt.algebra.UnitDualQuaternion.from_pose`.)
    """
    q = rows[:, :4]
    t = np.zeros_like(q)
    t[:, 1:] = rows[:, 4:]
    return np.stack((q, quat_mul(t, q) * 0.5), axis=1)


def canonicalized(dq: np.ndarray) -> np.ndarray:
    """``(k, 2, 4)`` dual quaternions with the :func:`~dqopt.algebra.canonical_signs` of their standard parts."""
    return dq * canonical_signs(dq[:, 0])[:, None, None]


def _json_rows(poses, label: str) -> np.ndarray:
    """Rows of JSON poses ``{"q": [w, x, y, z], "t": [x, y, z]}``, checked only for length and type."""
    rows = np.empty((len(poses), 7))
    for i, p in enumerate(poses):
        try:
            ok = len(p["q"]) == 4 and len(p["t"]) == 3
        except (KeyError, TypeError):  # no "q" or "t", or one without a length
            ok = False
        if not ok:
            raise InvalidPose(f"{label.format(i)} needs 4 rotation and 3 translation components")
        try:
            rows[i] = [*p["q"], *p["t"]]
        except (TypeError, ValueError):
            raise InvalidPose(f"{label.format(i)} has a component that is not a number") from None
    return rows


def _file_rows(poses, label: str) -> np.ndarray:
    """Checked rows of JSON poses, each rotation that is not unit to 4 ulps divided by its norm.

    Rows written from unit rows come back as they were, so a dataset read
    from its own JSON is the same dataset bit for bit; dividing such a row
    by its rounded norm again would move its last bits.
    """
    rows = checked_rows(_json_rows(poses, label), label)
    norm = np.sqrt(quat_dot(rows[:, :4], rows[:, :4]))
    off = abs(norm - 1.0) > 4 * np.finfo(np.float64).eps
    rows[off] = _unit(rows[off, :4], rows[off, 4:])
    return rows


def _json_poses(rows: np.ndarray) -> list[dict]:
    return [{"q": row[:4], "t": row[4:]} for row in rows.tolist()]


class HandEyeDataset:
    """Pose rows of both sides plus optional ground truth and generator metadata.

    ``poses_a`` and ``poses_b`` are read-only ``(k, 7)`` rows ``(qw, qx, qy,
    qz, tx, ty, tz)``, row ``i`` of each side measured together, and
    ``ground_truth_x``/``ground_truth_y`` read-only ``(7,)`` rows or None.
    The constructor takes rows only, checks them with :func:`checked_rows`
    and stores them as given; :meth:`from_json_dict` first divides each file
    row's rotation by its norm, unless the row is unit to a few ulps, as rows
    the dataset wrote are.  So :meth:`to_json_dict` of a dataset read from a
    file writes that file's rows back bit for bit.
    """

    def __init__(self, model: str, poses_a, poses_b, ground_truth_x=None, ground_truth_y=None,
                 meta: dict | None = None):
        poses_a, poses_b = checked_rows(poses_a, "A pose {}"), checked_rows(poses_b, "B pose {}")
        if model not in ("axxb", "axyb"):
            raise ValueError(f"unknown model {model!r}")
        if len(poses_a) != len(poses_b):
            raise ValueError("pose lists must have equal length")
        truths = [None if t is None else checked_rows(t, f"ground truth {k}").reshape(7)
                  for k, t in zip("XY", (ground_truth_x, ground_truth_y))]
        for rows in (poses_a, poses_b, *(t for t in truths if t is not None)):
            rows.flags.writeable = False
        self.model, self.poses_a, self.poses_b = model, poses_a, poses_b
        self.ground_truth_x, self.ground_truth_y = truths
        self.meta = dict(meta or {})

    def to_json_dict(self) -> dict:
        out = {"model": self.model, "A": _json_poses(self.poses_a), "B": _json_poses(self.poses_b)}
        truths = {k: _json_poses(t[None])[0]
                  for k, t in zip("XY", (self.ground_truth_x, self.ground_truth_y)) if t is not None}
        if truths:
            out["ground_truth"] = truths
        if self.meta:
            out["meta"] = dict(self.meta)
        return out

    @classmethod
    def from_json_dict(cls, data: dict) -> "HandEyeDataset":
        for key in ("model", "A", "B"):
            if key not in data:
                raise ValueError(f"missing field {key!r}")
        gt, meta = data.get("ground_truth") or {}, data.get("meta") or {}
        for key, value, kind in (("A", data["A"], "array"), ("B", data["B"], "array"),
                                 ("ground_truth", gt, "object"), ("meta", meta, "object")):
            if not isinstance(value, dict if kind == "object" else (list, tuple)):
                raise ValueError(f"field {key!r} is not a JSON {kind}")
        truths = (_file_rows([gt[k]], f"ground truth {k}") if k in gt else None for k in "XY")
        rows = (_file_rows(data[s], s + " pose {}") for s in "AB")
        return cls(data["model"], *rows, *truths, meta)


def relative_motions(dataset: HandEyeDataset) -> tuple[np.ndarray, np.ndarray]:
    """Consecutive relative motion pairs for the AXXB model, as ``(k, 2, 4)`` arrays ``(a, b)``.

    Measurement ``i`` pairs ``A_{i+1} A_i^{-1}`` with ``B_{i+1}^{-1} B_i``,
    both converted to sign-canonicalized unit dual quaternions.
    """
    if dataset.model != "axxb":
        raise ValueError("relative motions apply to the axxb model")
    a, b = dataset.poses_a, dataset.poses_b
    if len(a) < 2:
        raise TooFewMotions("need at least 2 poses for relative motions")
    a_rel = pose_compose(a[1:], pose_inverse(a[:-1]))
    b_rel = pose_compose(pose_inverse(b[1:]), b[:-1])
    return canonicalized(pose_udqs(a_rel)), canonicalized(pose_udqs(b_rel))


def _axis_spread(rotations: np.ndarray) -> float:
    """Largest angle between the rotation axis lines of ``(k, 4)`` quaternions, 0 if under two axes."""
    v = np.asarray(rotations, dtype=np.float64)[:, 1:]
    norms = np.linalg.norm(v, axis=1)
    axes = v[norms > 1e-6] / norms[norms > 1e-6, None]
    if len(axes) < 2:
        return 0.0
    cosines = abs(axes @ axes.T)[np.triu_indices(len(axes), 1)]
    # acos falls, so the largest angle is that of the smallest cosine
    return math.acos(min(1.0, float(cosines.min())))


def _warn_if_degenerate(rotations: np.ndarray) -> None:
    if _axis_spread(rotations) < MIN_AXIS_SPREAD:
        warnings.warn(
            "rotation axes of the motions are nearly parallel; the "
            "calibration problem is ill conditioned",
            RuntimeWarning,
            stacklevel=3,
        )


def _magnitudes(arity: int, a: np.ndarray, b: np.ndarray, other: int) -> ResidualNormObjective:
    """Sum over ``(k, 2, 4)`` pairs ``a``, ``b`` of ``|a_k x_0 - x_other b_k|``, one norm group each."""
    i = np.zeros(len(a), dtype=np.intp)
    rows = affine_rows(arity, i, i + other, left_mult_matrix(a), -right_mult_matrix(b))
    return ResidualNormObjective(arity, rows, np.ones(len(a), dtype=np.intp))


def _absolute_pairs(dataset: HandEyeDataset) -> tuple[np.ndarray, np.ndarray]:
    """The AXYB pose pairs ``(a, b)`` as sign-canonicalized ``(k, 2, 4)`` unit dual quaternions."""
    if dataset.model != "axyb":
        raise ValueError("build_axyb needs an axyb dataset")
    return tuple(canonicalized(pose_udqs(rows)) for rows in (dataset.poses_a, dataset.poses_b))


#: Reweighted passes of :func:`_spectral`, chosen by timing the benchmark's hand-eye problems.
_SPECTRAL_PASSES = 4


def _spectral(arity: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Rows ``(arity, 8)`` near the minimum of stage I over ``(k, 2, 4)`` pairs, zero duals.

    With ``C = sum_k w_k L(a_k)^T R(b_k)`` of the standard parts, whose
    multiplication matrices are orthogonal, ``sum_k w_k |a_k x - x b_k|^2 =
    x^T (2 sum_k w_k I - (C + C^T)) x`` for unit ``x`` and ``sum_k w_k |a_k x
    - y b_k|^2 = 2 sum_k w_k - 2 x^T C y`` for unit ``x, y``: the top
    eigenvector of ``C + C^T``, or the top singular pair of ``C``, minimizes
    it.  The pair is the top eigenvector ``(x, y) / sqrt(2)`` of ``[[0, C],
    [C^T, 0]]``: ``eigh``, which the solver loads anyway, where an SVD would
    map about 0.3 MB of LAPACK more.  All ``w_k = 1`` gives the minimum of
    the squared magnitudes.  Unless its residuals ``r_k`` are all within
    ``TOL_APPRECIABLE``, ``_SPECTRAL_PASSES`` more solves, each weighing
    ``w_k = 1 / max(|r_k|, TOL_APPRECIABLE)`` at the last one's minimizer,
    carry it toward the minimum of the unsquared sum, lowering it each time
    (the Weiszfeld iteration): 1 to 5 eigenproblems of order ``4 arity``.
    """
    left, right = left_mult_matrix(a[:, 0]), right_mult_matrix(b[:, 0])
    products = left.swapaxes(-1, -2) @ right
    c, m = products.sum(axis=0), np.zeros((4 * arity, 4 * arity))
    # the residuals a_k x - x b_k are jac @ x, and a_k x - y b_k are jac @ (x, y)
    jac = left - right if arity == 1 else np.concatenate((left, -right), axis=-1)
    for passes in range(_SPECTRAL_PASSES + 1):
        m[:4, -4:] = c  # so m + m^T is C + C^T, or [[0, C], [C^T, 0]]
        top = np.linalg.eigh(m + m.T)[1][:, -1] * math.sqrt(arity)
        norms = np.linalg.norm(jac @ top, axis=-1)
        if passes == _SPECTRAL_PASSES or norms.max() <= TOL_APPRECIABLE:
            break
        c = (1.0 / np.maximum(norms, TOL_APPRECIABLE) @ products.reshape(-1, 16)).reshape(4, 4)
    return np.concatenate((top.reshape(arity, 4), np.zeros((arity, 4))), axis=1)


def spectral_start(dataset: HandEyeDataset) -> np.ndarray:
    """The spectral start of the dataset's problem: ``(arity, 8)`` rows, dual parts zero.

    It minimizes the sum of *squared* residual magnitudes over the pairs :func:`build_axxb`
    or :func:`build_axyb` solves over (the rotation step of Daniilidis (1999) and of Horaud
    and Dornaika (1995)), then on noisy data takes 4 reweighted passes toward the minimum of
    their unsquared sum, the stage-I value: 1 to 5 eigenproblems of order 4 (AXXB) or 8
    (AXYB).  The builders make it the ``start`` restart 0 of :func:`~dqopt.solver.solve_eqdqo` takes.
    """
    if dataset.model == "axxb":
        return _spectral(1, *relative_motions(dataset))
    return _spectral(2, *_absolute_pairs(dataset))


def build_axxb(dataset: HandEyeDataset) -> EqdqoProblem:
    """Problem: minimize the sum of ``|a_i x - x b_i|`` over unit ``x``.

    Magnitudes are summed unsquared; each residual is its own norm group.
    The problem's ``start`` is the :func:`spectral_start` (1 to 5 4x4 eigenproblems).
    """
    a, b = relative_motions(dataset)
    if len(a) < 2:
        raise TooFewMotions(f"need at least 2 relative motions, got {len(a)}")
    _warn_if_degenerate(a[:, 0])
    return EqdqoProblem(_magnitudes(1, a, b, 0), (0,), start=_spectral(1, a, b))


def build_axyb(dataset: HandEyeDataset) -> EqdqoProblem:
    """Problem: minimize the sum of ``|a_i x - y b_i|`` over unit ``x, y``.

    Variable 0 is ``x``, variable 1 is ``y``; absolute poses are used
    directly, sign-canonicalized.  The problem's ``start`` is the
    :func:`spectral_start` (1 to 5 8x8 eigenproblems).
    """
    a, b = _absolute_pairs(dataset)
    if len(a) < 3:
        raise TooFewMotions(f"need at least 3 pose pairs, got {len(a)}")
    # rotations of the relative motions a_{i+1}^{-1} a_i
    _warn_if_degenerate(quat_mul(a[1:, 0] * _CONJ, a[:-1, 0]))
    return EqdqoProblem(_magnitudes(2, a, b, 1), (0, 1), start=_spectral(2, a, b))


# ---------------------------------------------------------------------------
# Synthetic data


def _pose_row(rng: np.random.Generator) -> np.ndarray:
    """Pose row of a uniform random rotation and a translation drawn from N(0, 0.5^2 I)."""
    return unit_rows([*random_unit_quaternion(rng).as_array(), *rng.normal(0.0, 0.5, 3)], "pose")[0]


def rotation_about(rng: np.random.Generator, angle: float) -> np.ndarray:
    """Unit quaternion of a rotation by ``angle`` about an axis drawn next from ``rng``."""
    axis = rng.standard_normal(3)
    axis /= np.linalg.norm(axis)
    return Quaternion.exp_axis_angle(angle, Quaternion(0.0, *axis)).as_array()


def check_noise(noise_rot: float, noise_trans: float) -> None:
    """Raise ``ValueError`` unless both noise scales are finite and non-negative."""
    for name, value in (("noise_rot", noise_rot), ("noise_trans", noise_trans)):
        if not (math.isfinite(value) and value >= 0.0):
            raise ValueError(f"{name} must be finite and non-negative, got {value}")


def _seeded_rng(seed: int) -> np.random.Generator:
    """The generators' random stream for ``seed``; ``ValueError`` for a negative one."""
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed])))


def _noisy(rows: np.ndarray, rng: np.random.Generator, sr: float, st: float) -> np.ndarray:
    """``rows`` turned by random rotations of angle ~N(0, sr^2) and shifted by N(0, st^2 I).

    Each row draws its angle, then its axis, then its translation noise.
    """
    if sr == 0.0 and st == 0.0:
        return rows
    bumps = np.tile([1.0, 0.0, 0.0, 0.0], (len(rows), 1))
    shifts = np.zeros((len(rows), 3))
    for k in range(len(rows)):
        if sr > 0.0:
            bumps[k] = rotation_about(rng, rng.normal(0.0, sr))
        if st > 0.0:
            shifts[k] = rng.normal(0.0, st, 3)
    noisy = np.concatenate((quat_mul(bumps, rows[:, :4]), rows[:, 4:] + shifts), axis=1)
    return unit_rows(noisy, "pose {}")


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
    axes at angle ``MIN_AXIS_SPREAD`` or more.  Raises ``ValueError`` for
    an unknown model, a noise scale that is negative or not finite, or a
    negative seed.
    """
    if model not in ("axxb", "axyb"):
        raise ValueError(f"unknown model {model!r}")
    if model == "axxb" and n < 2:
        raise TooFewMotions("axxb needs n >= 2 relative motions")
    if model == "axyb" and n < 3:
        raise TooFewMotions("axyb needs n >= 3 pose pairs")
    check_noise(noise_rot, noise_trans)
    rng = _seeded_rng(seed)
    truths = _pose_row(rng)[None]
    x = np.repeat(truths, n, axis=0)
    meta = {
        "seed": seed,
        "n": n,
        "noise_rot": float(noise_rot),
        "noise_trans": float(noise_trans),
    }
    if model == "axxb":
        # relative rotations with well-separated axes
        while True:
            rotations = np.array([rotation_about(rng, rng.uniform(0.5, 2.5)) for _ in range(n)])
            if _axis_spread(rotations) >= MIN_AXIS_SPREAD:
                break
        poses_b, poses_a = np.empty((n + 1, 7)), np.empty((n + 1, 7))
        poses_b[0] = _pose_row(rng)
        steps = unit_rows(np.concatenate((rotations, rng.normal(0.0, 0.5, (n, 3))), axis=1), "step {}")
        # Convention: relative motion i is B_{i+1}^{-1} B_i = steps[i].
        inverses = pose_inverse(steps)
        for i in range(n):
            poses_b[i + 1] = pose_compose(poses_b[i : i + 1], inverses[i : i + 1])[0]
        b_rel = pose_compose(pose_inverse(poses_b[1:]), poses_b[:-1])
        a_rel = pose_compose(pose_compose(x, b_rel), pose_inverse(x))
        poses_a[0] = _pose_row(rng)
        for i in range(n):
            poses_a[i + 1] = pose_compose(a_rel[i : i + 1], poses_a[i : i + 1])[0]
    else:
        truths = np.concatenate((truths, _pose_row(rng)[None]))
        # Residuals subtract independently sign-canonicalized measurements, so
        # a pose pair only zeroes its residual at the canonical truths when the
        # canonical signs of a_i and b_i = y^{-1} a_i x agree with the product
        # of the truths' canonical signs.  Draw poses until that holds with a
        # scalar-part margin wide enough to survive the noise model.
        qx, qy = truths[:, :4]
        sign_target = canonical_signs(qx) * canonical_signs(qy)
        while True:
            poses_a = []
            while len(poses_a) < n:
                a = _pose_row(rng)
                qb = quat_mul(quat_mul(qy * _CONJ, a[:4]), qx)
                # past the margin, the canonical signs are those of the scalar parts
                if min(abs(a[0]), abs(qb[0])) >= 0.2 and a[0] * qb[0] * sign_target > 0.0:
                    poses_a.append(a)
            poses_a = np.array(poses_a)
            rel = pose_compose(pose_inverse(poses_a[1:]), poses_a[:-1])
            if _axis_spread(rel[:, :4]) >= MIN_AXIS_SPREAD:
                break
        # a_i x = y b_i, so b_i = y^{-1} a_i x.
        poses_b = pose_compose(pose_compose(np.repeat(pose_inverse(truths[1:]), n, axis=0), poses_a), x)
    noisy_b = _noisy(poses_b, rng, noise_rot, noise_trans)
    truths = list(pose_rows(UnitDualQuaternion.from_rows(canonicalized(pose_udqs(truths))))) + [None]
    return HandEyeDataset(model, poses_a, noisy_b, *truths[:2], meta)


# ---------------------------------------------------------------------------
# Evaluation


def rotation_angle_between(a: Quaternion, b: Quaternion) -> float:
    """Geodesic rotation angle between two unit quaternions, in [0, pi]."""
    p = a.conjugate() * b
    return 2.0 * math.atan2(p.imaginary_norm(), abs(p.w))


def pose_rows(values) -> np.ndarray:
    """Poses of unit dual quaternions as ``(k, 7)`` rows ``(qw, qx, qy, qz, tx, ty, tz)``.

    The translation is the world-frame ``2 q_d conj(q)`` (``R(q) t`` of
    ``from_pose(q, t)``) and the rotation ``q`` divided by its norm, after
    ``UnitDualQuaternion.of``'s normalization; values that are
    :class:`UnitDualQuaternion` already skip ``of``, except in a
    :class:`DualQuaternionVector`, which is read from its rows, every entry
    normalized.  Raises :class:`UnitValidationError` for a value farther
    than ``NORMALIZE_TOL`` from unit.
    """
    if isinstance(values, DualQuaternionVector):
        std, dual = _normalized(values.rows[:, :4], values.rows[:, 4:])
    else:
        values = list(values)
        dq = pack(values).reshape(-1, 2, 4)
        std, dual = dq[:, 0], dq[:, 1]
        plain = np.array([not isinstance(v, UnitDualQuaternion) for v in values], dtype=bool)
        if plain.any():
            std[plain], dual[plain] = _normalized(std[plain], dual[plain])
    return _unit(std, (quat_mul(dual, std * _CONJ) * 2.0)[:, 1:])


def _normalized(std: np.ndarray, dual: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """:func:`normalize_dq` of values within ``NORMALIZE_TOL`` of unit; raises otherwise."""
    dev = unit_deviations(std, dual)
    bad = np.flatnonzero(dev > NORMALIZE_TOL)
    if bad.size:
        raise UnitValidationError(f"unit deviation {float(dev[bad[0]])} exceeds {NORMALIZE_TOL}")
    return normalize_dq(std, dual)


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
    rot, trans = pose_errors(np.array(truths), pose_rows(estimates))
    out = {}
    for name, rot_k, trans_k in zip("xy", rot, trans):
        out[f"rotation_error_{name}"] = rot_k
        out[f"translation_error_{name}"] = trans_k
    return out
