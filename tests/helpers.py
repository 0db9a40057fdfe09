"""Shared test oracles, computed independently of the library.

The quaternion oracle multiplies through the basis table for {1, i, j, k}
rather than through any closed-form product formula, so it cannot share a
bug with the implementation under test.  The sphere grid enumerates unit
quaternions nearly uniformly for brute-force minimization.
"""

import numpy as np

from dqopt import DualFunction, DualNumber

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
