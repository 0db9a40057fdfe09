"""Shared test oracles, computed independently of the library, and pose-row shorthands.

The quaternion oracle multiplies through the basis table for {1, i, j, k}
rather than through any closed-form product formula, so it cannot share a
bug with the implementation under test.  The sphere grid enumerates unit
quaternions nearly uniformly for brute-force minimization.  The pose-row
shorthands are not oracles: they run the library's row kernels on one row.
Nor are the affine-residual helpers, which run ``affine_rows``, the
library's evaluator, with constants added by a wrapper, and read its
Jacobians back through its pullback; ``affine_value`` is their reference,
in quaternion arithmetic.
Nor is ``tangent_matrix``, which places ``ConstraintBlock.tangent``'s
frames in a dense matrix, nor ``ConcatenateSpy``, which stands in for a
module's ``numpy``.  ``timing_free`` and ``timing_free_lines`` take a
report's ``SolveReport.TIMING_FIELDS`` out, so that two runs compare.
"""

import numpy as np

from dqopt import (
    DualFunction,
    DualNumber,
    DualQuaternion,
    ResidualNormObjective,
    SolveReport,
    UnitDualQuaternion,
    affine_rows,
    pack,
)
from dqopt.algebra import left_mult_matrix, right_mult_matrix
from dqopt.handeye import pose_compose, pose_inverse, pose_udqs, unit_rows

# Basis products e_p * e_q = sign * e_m over (1, i, j, k).
_SIGN = np.array(
    [
        [1, 1, 1, 1],
        [1, -1, 1, -1],
        [1, -1, -1, 1],
        [1, 1, -1, -1],
    ],
    dtype=np.float64,
)
_INDEX = np.array(
    [
        [0, 1, 2, 3],
        [1, 0, 3, 2],
        [2, 3, 0, 1],
        [3, 2, 1, 0],
    ],
    dtype=np.intp,
)


def table_quat_product(a, b):
    """Quaternion product of coefficient 4-vectors via the basis table."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    out = np.zeros(4)
    for p in range(4):
        for q in range(4):
            out[_INDEX[p, q]] += _SIGN[p, q] * a[p] * b[q]
    return out


def table_dq_product(a_std, a_dual, b_std, b_dual):
    """Dual quaternion product as (std, dual) coefficient vectors."""
    std = table_quat_product(a_std, b_std)
    dual = table_quat_product(a_std, b_dual) + table_quat_product(a_dual, b_std)
    return std, dual


def rodrigues_matrix(angle, axis):
    """Rotation matrix from axis-angle, built without quaternions."""
    axis = np.asarray(axis, dtype=np.float64)
    axis = axis / np.linalg.norm(axis)
    k = np.array(
        [
            [0.0, -axis[2], axis[1]],
            [axis[2], 0.0, -axis[0]],
            [-axis[1], axis[0], 0.0],
        ]
    )
    return np.eye(3) + np.sin(angle) * k + (1.0 - np.cos(angle)) * (k @ k)


def matrix(row):
    """Homogeneous 4x4 matrix of a pose row ``(qw, qx, qy, qz, tx, ty, tz)``.

    The rotation block is the textbook matrix of a unit quaternion, written
    out from its coefficients; the bottom row is (0, 0, 0, 1).
    """
    w, x, y, z, *t = (float(v) for v in row)
    m = np.eye(4)
    m[:3, :3] = [
        [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
        [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
        [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
    ]
    m[:3, 3] = t
    return m


def pose_row(q, t):
    """The checked, normalized pose row of a rotation ``q`` and a translation ``t``."""
    return unit_rows([*q.as_array(), *t], "pose")[0]


def product(a, b):
    """The pose row ``a b`` of two rows: ``b`` applied first."""
    return pose_compose(a[None], b[None])[0]


def inverse(a):
    return pose_inverse(a[None])[0]


def udqs(rows):
    """The unit dual quaternions of ``(k, 7)`` pose rows."""
    return UnitDualQuaternion.from_rows(pose_udqs(np.asarray(rows)))


def poses_close(a, b, tol):
    """Whether two pose rows agree to ``tol``, a rotation and its negative counting as one."""
    a, b = np.asarray(a), np.asarray(b)
    rotation = min(np.max(abs(a[:4] - b[:4])), np.max(abs(a[:4] + b[:4])))
    return bool(rotation <= tol and np.max(abs(a[4:] - b[4:])) <= tol)


# ---------------------------------------------------------------------------
# Affine residuals given as dual quaternions; each residual is ``(terms,
# constant)``, the value ``sum left * x[v] * right + constant`` over ``terms``
# of ``(left, v, right)``.


def term_matrix(left, right):
    """The ``(2, 4, 4)`` standard and dual matrices of the term ``left * x * right``.

    They are ``L(left) R(right)`` in dual arithmetic, one 4x4 product per
    part, as ``affine_rows`` takes them.
    """
    lm = left_mult_matrix(pack([left]).reshape(2, 4))
    rm = right_mult_matrix(pack([right]).reshape(2, 4))
    return np.stack((lm[0] @ rm[0], lm[1] @ rm[0] + lm[0] @ rm[1]))


def affine_stack(arity, residuals):
    """The evaluator of ``residuals``, in order, with their constants added to the rows.

    ``affine_rows`` takes two terms per residual, so each pair of terms,
    a missing one zero, gets its own evaluator, and the evaluators' rows,
    pullbacks and Jacobians are summed.
    """
    zero = (DualQuaternion.zero(), 0, DualQuaternion.zero())
    count = max(1, *(len(terms) for terms, _ in residuals))
    padded = [list(terms) + [zero] * (count + count % 2 - len(terms)) for terms, _ in residuals]
    evaluators = []
    for p in range(0, count, 2):
        pairs = [terms[p : p + 2] for terms in padded]
        i, j = (np.array([pair[t][1] for pair in pairs]) for t in (0, 1))
        first, second = (np.array([term_matrix(pair[t][0], pair[t][2]) for pair in pairs]) for t in (0, 1))
        evaluators.append(affine_rows(arity, i, j, first, second))
    constants = np.array([pack([constant]).reshape(2, 4) for _, constant in residuals])
    c_std, c_dual = constants[:, 0].ravel(), constants[:, 1].ravel()

    def evaluate(z):
        (r_std, r_dual, pull, jac), *more = (e(z) for e in evaluators)

        def pullback(*weights):
            return sum((m[2](*weights) for m in more), pull(*weights))

        def jacobian(sparse):
            return sum((m[3](sparse) for m in more), jac(sparse))

        r_std = sum((m[0] for m in more), r_std) + c_std
        return r_std, sum((m[1] for m in more), r_dual) + c_dual, pullback, jacobian

    return evaluate


def pulled_jacobians(pullback, rows):
    """The Jacobians ``(J_s, J_d)``, ``(rows, 8n)`` each, that ``pullback`` transposes, row by row."""
    eye = np.eye(rows)
    return np.array([pullback(e) for e in eye]), np.array([pullback(0.0 * e, e) for e in eye])


def affine_jacobians(arity, terms):
    """The ``(4, 8n)`` Jacobians ``(J_s, J_d)`` of one residual with dual quaternion ``terms``."""
    pullback = affine_stack(arity, [(terms, DualQuaternion.zero())])(np.zeros(8 * arity))[2]
    return pulled_jacobians(pullback, 4)


def affine_objective(arity, groups):
    """The ``ResidualNormObjective`` over ``groups``, each a list of residuals."""
    stack = affine_stack(arity, [r for group in groups for r in group])
    return ResidualNormObjective(arity, stack, [len(group) for group in groups])


def affine_value(residual, values):
    """The residual's value in quaternion arithmetic, the reference for its rows."""
    terms, total = residual
    for left, v, right in terms:
        total = total + left * values[v] * right
    return total


class LeakyFunction(DualFunction):
    """Deliberately non-standard: the standard part reads a dual coordinate."""

    def __init__(self):
        super().__init__(1, declared_standard=False)

    def value(self, values):
        q = values[0]
        return DualNumber(q.std.norm() + 0.5 * q.dual.w, q.dual.norm())


# ---------------------------------------------------------------------------
# Brute-force minimization over the unit sphere in R^4

SUPER_PSI = 1.533751168755204288118041


class ConcatenateSpy:
    """``numpy`` for a module under test, recording each ``concatenate`` result's shape."""

    def __init__(self):
        self.shapes = []

    def __getattr__(self, name):
        return getattr(np, name)

    def concatenate(self, *args, **kwargs):
        out = np.concatenate(*args, **kwargs)
        self.shapes.append(out.shape)
        return out


def tangent_matrix(block, z):
    """The ``(4n, k)`` tangent basis at a point, placed from ``block.tangent`` and ``block.var``."""
    null = np.zeros((4 * block.arity, block.var.size))
    for j, (i, col) in enumerate(zip(block.var.tolist(), block.tangent(z))):
        null[4 * i : 4 * i + 4, j] = col
    return null


def super_fibonacci_grid(n):
    """Nearly uniform point set on the unit 3-sphere, shape (n, 4)."""
    i = np.arange(n, dtype=np.float64) + 0.5
    t = i / n
    d = 2.0 * np.pi * i
    r = np.sqrt(t)
    rr = np.sqrt(1.0 - t)
    alpha = d / np.sqrt(2.0)
    beta = d / SUPER_PSI
    return np.stack(
        [r * np.sin(alpha), r * np.cos(alpha), rr * np.sin(beta), rr * np.cos(beta)],
        axis=1,
    )


def covering_radius(grid, n_probe=2000, seed=0, margin=1.3):
    """Estimated covering radius of the grid in chord distance.

    Probes random unit vectors and takes the largest nearest-neighbor
    distance, inflated by ``margin`` to cover the gap the probe missed.
    """
    rng = np.random.default_rng(seed)
    probes = rng.standard_normal((n_probe, 4))
    probes /= np.linalg.norm(probes, axis=1, keepdims=True)
    # chord^2 = 2 - 2 <g, p> for unit vectors
    nearest = (grid @ probes.T).max(axis=0)
    return float(np.sqrt(np.max(2.0 - 2.0 * nearest))) * margin


def timing_free(report: dict) -> dict:
    """A JSON report's dict without :attr:`SolveReport.TIMING_FIELDS`."""
    return {key: value for key, value in report.items() if key not in SolveReport.TIMING_FIELDS}


def timing_free_lines(text: str) -> list[str]:
    """A JSON report's lines, one field a line, less those of :attr:`SolveReport.TIMING_FIELDS`."""
    keys = tuple(f'"{name}":' for name in SolveReport.TIMING_FIELDS)
    return [line for line in text.splitlines() if not line.lstrip().startswith(keys)]


def grid_min_stage1(objective, grid):
    """Smallest standard objective value over unit grid points, dual zero."""
    best = np.inf
    z = np.zeros(8)
    for g in grid:
        z[:4] = g
        v = objective.value_at(z).std
        if v < best:
            best = v
    return float(best)
