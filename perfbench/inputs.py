"""Seeded problem generators for the benchmark, in plain NumPy.

They draw from the same curated distributions as ``dqopt.generate_synthetic``
and ``dqopt.generate_cycle_graph`` (well-spread motion axes, sign-consistent
AXYB pose pairs, cycle attitudes within 0.2 rad of the identity), but live
here so that a change to the library's generators does not change the
benchmark's inputs.  dqopt only ever receives the finished inputs: a dataset
dict in its JSON layout, or pose-graph text.

One deliberate difference: ground-truth hand-eye translations have a fixed
length ``TRUTH_T_LEN`` in a random direction.  Noisy hand-eye translations
currently stay at the warm start, so their error equals ``|t|``; a fixed
length keeps that defect visible at a steady level instead of letting the
median swing with the drawn lengths.

Poses are ``(q, t)`` pairs: a unit quaternion ``(w, x, y, z)`` and a
translation, composed as rigid transforms (``q`` applied, then ``t``).
"""

from __future__ import annotations

import math

import numpy as np

TRUTH_T_LEN = 0.8
MIN_AXIS_SPREAD = 0.3


def seeded_rng(*key: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(list(key))))


def qmul(a, b) -> np.ndarray:
    aw, ax, ay, az = a
    bw, bx, by, bz = b
    return np.array(
        [
            aw * bw - ax * bx - ay * by - az * bz,
            aw * bx + ax * bw + ay * bz - az * by,
            aw * by - ax * bz + ay * bw + az * bx,
            aw * bz + ax * by - ay * bx + az * bw,
        ]
    )


def qconj(q) -> np.ndarray:
    return np.array([q[0], -q[1], -q[2], -q[3]])


def rotate(q, v) -> np.ndarray:
    return qmul(qmul(q, np.array([0.0, *v])), qconj(q))[1:]


def canonical(q) -> np.ndarray:
    """The sign of ``q`` whose first nonzero coefficient is positive."""
    for c in q:
        if c != 0.0:
            return q if c > 0.0 else -q
    return q


def compose(p, r):
    """Transform ``p`` applied after ``r``."""
    return qmul(p[0], r[0]), rotate(p[0], r[1]) + p[1]


def inverse(p):
    qi = qconj(p[0])
    return qi, -rotate(qi, p[1])


def axis_angle(angle: float, axis) -> np.ndarray:
    axis = np.asarray(axis, dtype=np.float64)
    axis = axis / np.linalg.norm(axis)
    h = 0.5 * angle
    return np.array([math.cos(h), *(math.sin(h) * axis)])


def random_axis(rng) -> np.ndarray:
    v = rng.standard_normal(3)
    return v / np.linalg.norm(v)


def random_rotation(rng) -> np.ndarray:
    v = rng.standard_normal(4)
    return v / np.linalg.norm(v)


def _random_pose(rng):
    return random_rotation(rng), rng.normal(0.0, 0.5, 3)


def _truth_pose(rng):
    return random_rotation(rng), TRUTH_T_LEN * random_axis(rng)


def _noisy(p, rng, sigma: float):
    if sigma == 0.0:
        return p
    bump = axis_angle(rng.normal(0.0, sigma), random_axis(rng))
    return qmul(bump, p[0]), p[1] + rng.normal(0.0, sigma, 3)


def _axis_spread(rotations) -> float:
    axes = [q[1:] / np.linalg.norm(q[1:]) for q in rotations if np.linalg.norm(q[1:]) > 1e-6]
    best = 0.0
    for i in range(len(axes)):
        for j in range(i + 1, len(axes)):
            best = max(best, math.acos(min(1.0, abs(float(axes[i] @ axes[j])))))
    return best


def _pose_json(p) -> dict:
    return {"q": [float(c) for c in p[0]], "t": [float(c) for c in p[1]]}


def _axyb_poses(x, n: int, rng):
    """Draw ``y`` and ``n`` poses ``a``, or None when ``x`` and ``y`` admit too few.

    Residuals subtract independently sign-canonicalized poses, so keep
    poses whose canonical sign agrees with that of ``y^-1 a x`` times the
    truths' and whose scalar parts are far enough from zero to survive the
    noise.  When ``y`` is nearly ``x`` as a rotation the sign product is
    almost constant and may never match; give up after a bounded number
    of draws so the caller can redraw the truths.
    """
    y = _truth_pose(rng)
    sign = np.sign(x[0][0]) * np.sign(y[0][0])
    for _ in range(20):
        poses_a = []
        for _ in range(200 * n):
            a = _random_pose(rng)
            qb = qmul(qmul(qconj(y[0]), a[0]), x[0])
            if abs(a[0][0]) >= 0.2 and abs(qb[0]) >= 0.2 and np.sign(a[0][0]) * np.sign(qb[0]) == sign:
                poses_a.append(a)
                if len(poses_a) == n:
                    break
        else:
            return None
        rel = [compose(inverse(poses_a[i + 1]), poses_a[i])[0] for i in range(n - 1)]
        if _axis_spread(rel) >= MIN_AXIS_SPREAD:
            return y, poses_a
    return None


def handeye_dataset(model: str, n: int, sigma: float, rng):
    """One calibration dataset: ``(dict in dqopt's JSON layout, truths)``.

    ``n`` counts relative motions for axxb and pose pairs for axyb; noise
    of ``sigma`` (rad and scene units) perturbs the B poses.  ``truths`` is
    ``[x]`` or ``[x, y]`` with sign-canonical rotations.
    """
    x = _truth_pose(rng)
    if model == "axxb":
        while True:
            rots = [axis_angle(rng.uniform(0.5, 2.5), random_axis(rng)) for _ in range(n)]
            if _axis_spread(rots) >= MIN_AXIS_SPREAD:
                break
        poses_b = [_random_pose(rng)]
        for q in rots:
            step = (q, rng.normal(0.0, 0.5, 3))
            poses_b.append(compose(poses_b[-1], inverse(step)))
        poses_a = [_random_pose(rng)]
        for i in range(n):
            b_rel = compose(inverse(poses_b[i + 1]), poses_b[i])
            a_rel = compose(compose(x, b_rel), inverse(x))
            poses_a.append(compose(a_rel, poses_a[i]))
        truths = [x]
    else:
        while (found := _axyb_poses(x, n, rng)) is None:
            x = _truth_pose(rng)
        y, poses_a = found
        poses_b = [compose(compose(inverse(y), a), x) for a in poses_a]
        truths = [x, y]
    noisy_b = [_noisy(p, rng, sigma) for p in poses_b]
    data = {
        "model": model,
        "A": [_pose_json(p) for p in poses_a],
        "B": [_pose_json(p) for p in noisy_b],
        "ground_truth": {k: _pose_json(p) for k, p in zip("XY", truths)},
    }
    return data, [(canonical(q), t) for q, t in truths]


def _format_pose(q, t) -> str:
    return " ".join(repr(float(v)) for v in (*q, *t))


def cycle_graph(n: int, sigma: float, rng):
    """Loop trajectory with ``n // 3`` random chords: ``(text, truths)``.

    The text is dqopt's pose-graph format with identity VERTEX guesses,
    EDGE measurements and ``# TRUTH`` lines; ``truths`` lists the vertex
    poses in id order, vertex 1 being the identity.
    """
    raw = []
    for k in range(n):
        q = axis_angle(rng.uniform(0.05, 0.2), random_axis(rng))
        theta = 2.0 * math.pi * k / n
        raw.append((q, np.array([3.0 * math.cos(theta), 3.0 * math.sin(theta), 0.3 * math.sin(2.0 * theta)])))
    base = inverse(raw[0])
    truth = [compose(base, p) for p in raw]
    pairs = [(k, k + 1) for k in range(1, n)] + [(n, 1)]
    chords = [(i, j) for i in range(1, n + 1) for j in range(i + 2, n + 1) if not (i == 1 and j == n)]
    picks = rng.choice(len(chords), size=n // 3, replace=False)
    pairs.extend(chords[p] for p in sorted(picks))
    lines = [f"VERTEX {v} 1.0 0.0 0.0 0.0 0.0 0.0 0.0" for v in range(1, n + 1)]
    for i, j in pairs:
        q, t = _noisy(compose(inverse(truth[i - 1]), truth[j - 1]), rng, sigma)
        lines.append(f"EDGE {i} {j} {_format_pose(canonical(q), t)}")
    lines.extend(f"# TRUTH {v} {_format_pose(*truth[v - 1])}" for v in range(1, n + 1))
    return "\n".join(lines) + "\n", truth
