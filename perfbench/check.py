"""Answer checks for benchmark solves, independent of dqopt's own metrics.

A solve passes when every variable of its solution is a unit dual
quaternion to ``TOL_FEAS``, a noiseless solve recovers every ground-truth
pose to ``NOISELESS_TOL`` in rotation and translation, a noisy solve keeps
every rotation error within ``NOISY_ROT_MULTIPLE`` times the noise level,
and the errors the program reports itself agree with the ones computed
here.  Noisy translation is measured but not gated: it currently stays at
the warm start, and the benchmark reports that rather than failing on it.
"""

from __future__ import annotations

import math

import numpy as np

from inputs import canonical, qconj, qmul

TOL_FEAS = 1e-9  # SolverConfig.tol_feas default, which the benchmark uses
NOISELESS_TOL = 1e-6
NOISY_ROT_MULTIPLE = 10.0
REPORT_AGREEMENT = 1e-7
DIGEST_DECIMALS = 6


def pose_errors(std, dual, truth) -> tuple[float, float]:
    """Rotation angle (rad) and world-frame translation distance to ``truth``."""
    q_true, t_true = truth
    p = qmul(qconj(q_true), std)
    rot = 2.0 * math.atan2(float(np.linalg.norm(p[1:])), abs(float(p[0])))
    t_est = 2.0 * qmul(dual, qconj(std))[1:]
    return rot, float(np.linalg.norm(t_est - t_true))


def check_solution(solution, truths, sigma: float, reported=None):
    """Check one solve's answer.

    ``solution`` lists ``(std, dual)`` arrays per variable, ``truths`` the
    matching ``(q, t)`` poses, and ``reported`` the program's own
    ``(rotation, translation)`` errors per variable, if it gave any.
    Returns ``(rotation errors, translation errors, reason)`` where
    ``reason`` is None for a pass.
    """
    if len(solution) != len(truths):
        return [], [], f"{len(solution)} variables for {len(truths)} truths"
    for k, (s, d) in enumerate(solution):
        dev = max(abs(float(s @ s) - 1.0), abs(2.0 * float(s @ d)))
        if not dev <= TOL_FEAS:
            return [], [], f"variable {k} not unit: deviation {dev:.3e} > {TOL_FEAS:g}"
    errs = [pose_errors(s, d, t) for (s, d), t in zip(solution, truths)]
    rot = [e[0] for e in errs]
    trans = [e[1] for e in errs]
    if sigma == 0.0:
        worst = max(max(rot), max(trans))
        if not worst <= NOISELESS_TOL:
            return rot, trans, f"noiseless error {worst:.3e} > {NOISELESS_TOL:g}"
    elif not max(rot) <= NOISY_ROT_MULTIPLE * sigma:
        return rot, trans, (
            f"rotation error {max(rot):.3e} > {NOISY_ROT_MULTIPLE:g} x sigma {sigma:g}"
        )
    if reported is not None:
        if len(reported) != len(errs):
            return rot, trans, f"program reports {len(reported)} errors for {len(errs)} variables"
        gap = max(max(abs(a - r), abs(b - t)) for a, b, (r, t) in zip(rot, trans, reported))
        if not gap <= REPORT_AGREEMENT:
            return rot, trans, f"program's reported errors differ by {gap:.3e}"
    return rot, trans, None


def digest_update(h, solution) -> None:
    """Feed a sign-canonical, rounded solution into hash ``h``."""
    for s, d in solution:
        v = np.concatenate([s, d])
        if canonical(s) is not s:
            v = -v
        h.update((np.round(v, DIGEST_DECIMALS) + 0.0).tobytes())
