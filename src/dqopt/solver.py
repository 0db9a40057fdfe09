"""Two-stage solver for standard equality-constrained dual quaternion optimization.

A problem minimizes a dual-number-valued objective subject to dual-valued
equality constraints, under the lexicographic order on dual numbers.  The
problem is *standard* when the standard part of the objective and of every
constraint ignores the dual coordinates.  The order then decouples it into
two real programs, one per coordinate block:

- stage I minimizes the standard part over the standard coordinates,
  subject to the standard part of every constraint;
- stage II holds the standard coordinates at the stage-I point and
  minimizes the dual part over the dual coordinates, subject to the dual
  part of every constraint; a band check confirms the standard value stays
  at the stage-I value.

Non-standard problems are rejected when an :class:`EqdqoProblem` is built.
Their standard part reads the dual coordinates, so stage I could not drop
them and the two block programs above would not be the problem's split.
The hand-eye and pose-graph problems are standard.

Each stage runs an augmented-Lagrangian outer loop with an L-BFGS inner
minimizer.  Nonsmooth magnitude objectives are smoothed with a decreasing
schedule ``mu``; piecewise branches for stage II are frozen at the stage-I
point.  Restarts draw independent unit starting points; the reported
solution is the dn-order minimum over feasible restart outcomes.
"""

from __future__ import annotations

import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np
from scipy.optimize import minimize as _scipy_minimize

from .algebra import DualNumber, DualQuaternion, DualQuaternionVector, Quaternion
from .errors import (
    ArityMismatch,
    DegenerateConstraintGradients,
    Infeasible,
    MaxIterations,
    NonStandardProblem,
)
from .functions import DualFunction, pack, unpack

__all__ = [
    "SolverConfig",
    "EqdqoProblem",
    "Stage1Result",
    "SolveReport",
    "TraceRow",
    "KktInfo",
    "mu_schedule_down_to",
    "solve_stage1",
    "solve_stage2",
    "solve_eqdqo",
    "inner_solve",
    "kkt_analysis",
    "kkt_residual",
]

_DEFAULT_MU = (1e-2, 1e-3, 1e-4, 1e-5, 1e-6, 1e-7, 1e-8, 1e-9)

#: Singular values below this fraction of the largest are treated as zero
#: when ranking constraint-gradient systems.
_RANK_RCOND = 1e-8

# Strength of the stage-II proximal pull of the dual coordinates toward the
# warm start; see _stage2_single.
_STAGE2_PROX = 1e-6


def mu_schedule_down_to(mu_min: float, start: float = 1e-2, factor: float = 10.0):
    """Smoothing schedule from ``start`` down to ``mu_min`` by ``factor``."""
    if mu_min <= 0:
        raise ValueError("mu_min must be positive")
    out = []
    mu = start
    while mu > mu_min * (1.0 + 1e-12):
        out.append(mu)
        mu /= factor
    out.append(mu_min)
    return tuple(out)


@dataclass(frozen=True)
class SolverConfig:
    """Tuning knobs for the two-stage solver.

    ``tau_l`` is the stage-II band half-width around the stage-I value;
    ``None`` selects ``max(1e-8, 1e-6 * |stage-I value|)`` per problem.
    """

    restarts: int = 8
    seed: int = 0
    tol_grad: float = 1e-9
    tol_feas: float = 1e-9
    mu_schedule: tuple[float, ...] = _DEFAULT_MU
    tau_l: float | None = None
    max_outer: int = 60
    max_inner: int = 300
    threads: int = 1

    def __post_init__(self):
        if self.restarts < 1:
            raise ValueError("restarts must be at least 1")
        if self.tol_grad <= 0 or self.tol_feas <= 0:
            raise ValueError("tolerances must be positive")
        if self.tau_l is not None and self.tau_l <= 0:
            raise ValueError("tau_l must be positive when given")
        sched = tuple(float(m) for m in self.mu_schedule)
        if not sched or any(m <= 0 for m in sched):
            raise ValueError("mu_schedule must be nonempty and positive")
        if any(b >= a for a, b in zip(sched, sched[1:])):
            raise ValueError("mu_schedule must be strictly decreasing")
        object.__setattr__(self, "mu_schedule", sched)
        if self.max_outer < 1 or self.max_inner < 1:
            raise ValueError("iteration caps must be positive")
        if self.threads < 1:
            raise ValueError("threads must be at least 1")

    def to_json_dict(self) -> dict:
        return {
            "restarts": self.restarts,
            "seed": self.seed,
            "tol_grad": self.tol_grad,
            "tol_feas": self.tol_feas,
            "mu_schedule": list(self.mu_schedule),
            "tau_l": self.tau_l,
            "max_outer": self.max_outer,
            "max_inner": self.max_inner,
            "threads": self.threads,
        }


@dataclass(frozen=True)
class EqdqoProblem:
    """Objective plus equality constraints, all dual-number valued.

    Each constraint imposes both scalar parts equal to zero.  The objective
    and every constraint must declare standard structure (a standard part
    that ignores the dual coordinates), because stage I runs over the
    standard coordinates alone; otherwise construction raises
    :class:`NonStandardProblem`.  :func:`dqopt.functions.check_standardness`
    probes whether a declaration holds.
    """

    objective: DualFunction
    constraints: tuple[DualFunction, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "constraints", tuple(self.constraints))
        for h in self.constraints:
            if h.arity != self.objective.arity:
                raise ArityMismatch(
                    f"constraint arity {h.arity} != objective arity {self.objective.arity}"
                )
        named = [("objective", self.objective)]
        named += [(f"constraint {j}", h) for j, h in enumerate(self.constraints)]
        for name, fn in named:
            if not fn.declared_standard:
                raise NonStandardProblem(
                    f"{name} ({type(fn).__name__}) does not declare standard "
                    "structure; stage I would depend on the dual coordinates"
                )

    @property
    def arity(self) -> int:
        return self.objective.arity


@dataclass(frozen=True)
class TraceRow:
    """One augmented-Lagrangian outer iteration, for convergence plots."""

    iteration: int
    stage: int
    objective_std: float
    objective_dual: float
    feasibility: float
    kkt_residual: float


@dataclass(frozen=True)
class Stage1Result:
    """Stage-I outcome: standard coordinates, feasible duals, optimal value.

    Iterates as ``(x, x_d, value)``.  ``solution`` bundles the same point as
    dual quaternions; ``branches`` records magnitude-branch selections for
    stage II.
    """

    x: tuple[Quaternion, ...]
    x_d: tuple[Quaternion, ...]
    value: float
    solution: DualQuaternionVector
    feasibility: dict
    kkt_residual: float
    grad_norm: float
    iterations: int
    converged: bool
    restart_index: int
    branches: tuple[bool, ...]
    trace: tuple[TraceRow, ...]

    def __iter__(self):
        return iter((self.x, self.x_d, self.value))

    @property
    def z(self) -> np.ndarray:
        return pack(list(self.solution))


@dataclass(frozen=True)
class SolveReport:
    """Complete two-stage solve record.

    ``stage1_value`` and ``stage2_value`` are the standard and dual parts
    of the exact objective recomputed at the reported solution, so the pair
    is the dual-number objective value at ``solution``.
    """

    stage1_value: float
    stage2_value: float
    solution: DualQuaternionVector
    multipliers: dict
    kkt_residual: dict
    feasibility: dict
    iterations: dict
    restart_index: int
    wall_time_ms: float
    config: SolverConfig
    trace: tuple[TraceRow, ...] = field(repr=False, default=())
    degenerate: bool = False

    def to_json_dict(self) -> dict:
        return {
            "stage1_value": self.stage1_value,
            "stage2_value": self.stage2_value,
            "solution": self.solution.to_json_list(),
            "multipliers": dict(self.multipliers),
            "kkt_residual": dict(self.kkt_residual),
            "feasibility": dict(self.feasibility),
            "iterations": dict(self.iterations),
            "restart_index": self.restart_index,
            "wall_time_ms": self.wall_time_ms,
            "config": self.config.to_json_dict(),
        }


# ---------------------------------------------------------------------------
# Augmented-Lagrangian engine


@dataclass
class _AlOutcome:
    z: np.ndarray
    iterations: int
    converged: bool
    grad_norm: float
    trace: list


def _al_minimize(
    start: np.ndarray,
    objective_vg: Callable[[np.ndarray, int], tuple[float, np.ndarray]],
    rows_fn: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray, np.ndarray]],
    cfg: SolverConfig,
    n_mu: int,
    stage_label: int,
    monitor: Callable[[np.ndarray], tuple[float, float, float]],
) -> _AlOutcome:
    """Generic equality-constrained minimization.

    ``objective_vg(z, k)`` evaluates the (possibly smoothed) objective at
    outer iteration ``k``; ``rows_fn`` returns constraint values, their
    gradient matrix, and per-row tolerances; ``monitor`` supplies exact
    objective parts and feasibility for the trace.
    """
    z = np.asarray(start, dtype=np.float64).copy()
    values, grads, tols = rows_fn(z)
    lam = np.zeros(values.shape[0])
    rho = 10.0
    s_prev = math.inf
    trace: list[TraceRow] = []
    converged = False
    grad_norm = math.inf
    stall = 0
    prev_obj = None
    prev_z = None
    outer = 0

    for outer in range(cfg.max_outer):
        k = outer
        lam_k = lam
        rho_k = rho

        def al_fun(zz, _k=k, _lam=lam_k, _rho=rho_k):
            f, g = objective_vg(zz, _k)
            c, gmat, _ = rows_fn(zz)
            if c.size:
                mult = _lam + _rho * c
                return f + _lam @ c + 0.5 * _rho * (c @ c), g + gmat.T @ mult
            return f, g

        gtol = max(cfg.tol_grad * 0.3, 0.05 * 0.2**outer)
        res = _scipy_minimize(
            al_fun,
            z,
            jac=True,
            method="L-BFGS-B",
            options={"maxiter": cfg.max_inner, "ftol": 1e-18, "gtol": gtol, "maxcor": 20},
        )
        z = np.asarray(res.x, dtype=np.float64)

        f, g = objective_vg(z, k)
        values, grads, tols = rows_fn(z)
        lam_hat = lam + rho * values if values.size else lam
        grad_l = g + grads.T @ lam_hat if values.size else g
        grad_norm = float(np.linalg.norm(grad_l))
        feas_ok = bool(np.all(np.abs(values) <= tols)) if values.size else True
        scaled = float(np.max(np.abs(values) / tols)) if values.size else 0.0

        exact_std, exact_dual, exact_feas = monitor(z)
        trace.append(
            TraceRow(outer, stage_label, exact_std, exact_dual, exact_feas, grad_norm)
        )

        if feas_ok and grad_norm <= cfg.tol_grad and outer + 1 >= n_mu:
            lam = lam_hat
            converged = True
            break

        # Once mu is pinned and the iterate is feasible, stop if the inner
        # solver can no longer move; rounding floors the gradient of tightly
        # smoothed perfect-fit objectives above tol_grad.
        if feas_ok and outer + 1 >= n_mu and prev_z is not None:
            same_z = np.max(np.abs(z - prev_z)) <= 1e-11 * (1.0 + np.max(np.abs(z)))
            same_f = abs(f - prev_obj) <= 1e-14 * (1.0 + abs(f))
            stall = stall + 1 if (same_z and same_f) else 0
            if stall >= 2:
                lam = lam_hat
                converged = True
                break
        prev_z = z.copy()
        prev_obj = float(f)

        if values.size and not (scaled <= max(1.0, 0.25 * s_prev)):
            rho = min(rho * 10.0, 1e12)
        else:
            lam = lam_hat
            s_prev = scaled

    return _AlOutcome(z, outer + 1, converged, grad_norm, trace)


def inner_solve(
    objective: Callable[[np.ndarray], tuple[float, np.ndarray]],
    eq_constraints: Sequence[Callable[[np.ndarray], tuple[float, np.ndarray]]],
    start: np.ndarray,
    cfg: SolverConfig,
) -> np.ndarray:
    """Minimize a smooth real function subject to smooth equality constraints.

    Augmented-Lagrangian outer loop, quasi-Newton inner minimization.  Each
    callable returns ``(value, gradient)``.  Raises :class:`MaxIterations`
    when the iteration caps are exhausted before the gradient and
    feasibility tolerances are met.
    """
    start = np.asarray(start, dtype=np.float64)
    constraints = list(eq_constraints)

    def rows_fn(z):
        if not constraints:
            return np.empty(0), np.empty((0, z.shape[0])), np.empty(0)
        vals = np.empty(len(constraints))
        grads = np.empty((len(constraints), z.shape[0]))
        for i, c in enumerate(constraints):
            vals[i], grads[i] = c(z)
        return vals, grads, np.full(len(constraints), cfg.tol_feas)

    def monitor(z):
        f, _ = objective(z)
        vals, _, _ = rows_fn(z)
        return f, 0.0, float(np.max(np.abs(vals))) if vals.size else 0.0

    outcome = _al_minimize(
        start, lambda z, k: objective(z), rows_fn, cfg, 1, 1, monitor
    )
    if not outcome.converged:
        raise MaxIterations(
            f"no convergence within {cfg.max_outer} outer iterations "
            f"(grad norm {outcome.grad_norm:.3e})"
        )
    return outcome.z


# ---------------------------------------------------------------------------
# Coordinate blocks and constraint rows


_NO_COORDS = np.empty(0, dtype=np.intp)


def _part_indices(arity: int, part: int) -> np.ndarray:
    """Flat indices of every variable's standard (part 0) or dual (part 1) slot."""
    return (8 * np.arange(arity)[:, None] + 4 * part + np.arange(4)).ravel()


def _block_rows(problem: EqdqoProblem, z: np.ndarray, part: int, idx: np.ndarray):
    """Every constraint row at ``z``, seen from the coordinates ``idx``.

    Returns the values of both scalar parts, shape ``(2, m)`` with the
    standard part first, and the gradients of part ``part`` (0 standard,
    1 dual) over ``idx``.
    """
    m = len(problem.constraints)
    vals = np.empty((2, m))
    grads = np.empty((m, idx.shape[0]))
    for j, con in enumerate(problem.constraints):
        (vals[0, j], g_std), (vals[1, j], g_dual) = con.fast_rows(z)
        grads[j] = (g_std, g_dual)[part][idx]
    return vals, grads


def _feasibility(problem: EqdqoProblem, z: np.ndarray) -> tuple[float, float]:
    """Largest constraint violations ``(max |h|, max |h_d|)`` at ``z``."""
    if not problem.constraints:
        return 0.0, 0.0
    vals, _ = _block_rows(problem, z, 0, _NO_COORDS)
    h, h_d = np.max(np.abs(vals), axis=1)
    return float(h), float(h_d)


def _random_start(problem: EqdqoProblem, rng: np.random.Generator) -> np.ndarray:
    """Unit standard parts per variable, zero dual parts."""
    z = np.zeros(8 * problem.arity)
    for i in range(problem.arity):
        v = rng.standard_normal(4)
        v /= np.linalg.norm(v)
        z[8 * i : 8 * i + 4] = v
    return z


def _project_duals(problem: EqdqoProblem, z: np.ndarray, tol: float) -> np.ndarray:
    """Move the dual coordinates onto the dual-row constraint manifold.

    Newton least-squares steps; exact in one step for constraints whose
    dual row is linear in the dual coordinates (unit norms and anchors).
    """
    if not problem.constraints:
        return z
    dual_idx = _part_indices(problem.arity, 1)
    z = z.copy()
    for _ in range(3):
        (_, h_d), grads = _block_rows(problem, z, 1, dual_idx)
        if np.max(np.abs(h_d)) <= tol:
            break
        delta, *_ = np.linalg.lstsq(grads, -h_d, rcond=None)
        z[dual_idx] += delta
    return z


# ---------------------------------------------------------------------------
# KKT analysis


@dataclass(frozen=True)
class KktInfo:
    """Stationarity residual with recovered multipliers.

    ``lambdas`` pair with the standard constraint rows, ``mus`` with the
    dual rows (internal; zero-length for stage I), ``sigma`` with the
    stage-II band on the standard objective value.
    """

    residual: float
    lambdas: tuple[float, ...]
    mus: tuple[float, ...]
    sigma: float
    degenerate: bool


def _point_to_z(point, arity: int) -> np.ndarray:
    """Flat coordinates of ``point``; raises ``ValueError`` unless ``(8 * arity,)``."""
    if isinstance(point, np.ndarray):
        z = np.asarray(point, dtype=np.float64)
    else:
        z = pack(list(point))
    if z.shape != (8 * arity,):
        raise ValueError(f"expected shape ({8 * arity},), got {z.shape}")
    return z


def kkt_analysis(
    problem: EqdqoProblem,
    point,
    stage: int = 1,
    multipliers: dict | None = None,
) -> KktInfo:
    """Least-squares multiplier recovery and stationarity residual.

    Stage I: ``grad f + sum lambda_j grad h_j`` over all coordinates.
    Stage II: ``grad f_d + sigma grad f + sum lambda_j grad h_j +
    sum mu_j grad (h_j)_d``; the ``mu_j`` columns are internal.  Piecewise
    gradients use the zero subgradient at kinks.
    """
    z = _point_to_z(point, problem.arity)
    g_std, g_dual = problem.objective.gradient_at(z)
    cols = []
    for con in problem.constraints:
        cs, _ = con.gradient_at(z)
        cols.append(cs)
    n_lam = len(cols)
    if stage == 1:
        target = g_std
        sigma_col = None
    elif stage == 2:
        target = g_dual
        for con in problem.constraints:
            _, cd = con.gradient_at(z)
            cols.append(cd)
        sigma_col = g_std
        cols.append(sigma_col)
    else:
        raise ValueError("stage must be 1 or 2")

    if multipliers is not None:
        lam = np.asarray(multipliers.get("lambda", ()), dtype=np.float64)
        if lam.shape[0] != n_lam:
            raise ValueError(f"expected {n_lam} lambda values, got {lam.shape[0]}")
        resid = target.copy()
        for j in range(n_lam):
            resid += lam[j] * cols[j]
        mus = np.asarray(multipliers.get("mu", np.zeros(n_lam)), dtype=np.float64)
        sigma = float(multipliers.get("sigma", 0.0))
        if stage == 2:
            for j in range(n_lam):
                resid += mus[j] * cols[n_lam + j]
            resid += sigma * sigma_col
        return KktInfo(
            float(np.linalg.norm(resid)),
            tuple(float(v) for v in lam),
            tuple(float(v) for v in mus) if stage == 2 else (),
            sigma if stage == 2 else 0.0,
            False,
        )

    if not cols:
        return KktInfo(float(np.linalg.norm(target)), (), (), 0.0, False)

    a = np.column_stack(cols)
    sol, _, rank, _ = np.linalg.lstsq(a, -target, rcond=_RANK_RCOND)
    resid = target + a @ sol
    degenerate = rank < a.shape[1]
    lam = tuple(float(v) for v in sol[:n_lam])
    if stage == 2:
        mus = tuple(float(v) for v in sol[n_lam : 2 * n_lam])
        sigma = float(sol[-1])
    else:
        mus = ()
        sigma = 0.0
    return KktInfo(float(np.linalg.norm(resid)), lam, mus, sigma, degenerate)


def kkt_residual(
    problem: EqdqoProblem,
    point,
    multipliers: dict | None = None,
    stage: int = 1,
    on_degenerate: str = "raise",
) -> float:
    """Stationarity residual norm; multipliers by least squares when absent.

    Raises :class:`DegenerateConstraintGradients` when the constraint
    gradient system is rank-deficient and multipliers were not supplied,
    unless ``on_degenerate`` is ``"lstsq"``.
    """
    info = kkt_analysis(problem, point, stage=stage, multipliers=multipliers)
    if info.degenerate and multipliers is None and on_degenerate == "raise":
        raise DegenerateConstraintGradients(
            "constraint gradients are rank-deficient; pass multipliers or "
            "on_degenerate='lstsq'"
        )
    return info.residual


# ---------------------------------------------------------------------------
# Stage drivers


def _block_minimize(
    problem: EqdqoProblem,
    cfg: SolverConfig,
    z: np.ndarray,
    part: int,
    value_grad: Callable[[np.ndarray, float], tuple[float, np.ndarray]],
    prox: float = 0.0,
) -> _AlOutcome:
    """Minimize over one coordinate block of ``z``, the other block held fixed.

    The block is the standard (part 0) or dual (part 1) coordinates of
    every variable, constrained by the same part of every constraint row;
    it is stage ``part + 1``.  ``value_grad(z, mu)`` gives the smoothed
    stage objective over all coordinates.  ``prox`` adds
    ``prox * |x - x0|^2`` toward the block's starting values ``x0``.  The
    outcome's ``z`` is embedded back into all coordinates.
    """
    n_mu = len(cfg.mu_schedule)
    idx = _part_indices(problem.arity, part)
    template = z.copy()
    x0 = z[idx]
    tols = np.full(len(problem.constraints), cfg.tol_feas)

    def embed(x):
        full = template.copy()
        full[idx] = x
        return full

    def block_vg(x, k):
        f, g = value_grad(embed(x), cfg.mu_schedule[min(k, n_mu - 1)])
        if not prox:
            return f, g[idx]
        d = x - x0
        return f + prox * float(d @ d), g[idx] + (2.0 * prox) * d

    def rows_fn(x):
        vals, grads = _block_rows(problem, embed(x), part, idx)
        return vals[part], grads, tols

    def monitor(x):
        full = embed(x)
        v = problem.objective.value_at(full)
        return v.std, v.dual, max(_feasibility(problem, full))

    outcome = _al_minimize(x0, block_vg, rows_fn, cfg, n_mu, part + 1, monitor)
    outcome.z = embed(outcome.z)
    return outcome


def _stage1_point(problem: EqdqoProblem, cfg: SolverConfig, z0: np.ndarray):
    """Stage I from ``z0``, then its dual coordinates projected onto the dual rows.

    Stage I moves the standard coordinates only, so the dual ones keep the
    hint from the starting point until the projection.
    """
    outcome = _block_minimize(
        problem, cfg, z0, 0, lambda z, mu: problem.objective.stage1_value_grad(z, mu)
    )
    return _project_duals(problem, outcome.z, cfg.tol_feas * 0.1), outcome


def _band_tolerance(cfg: SolverConfig, level: float) -> float:
    if cfg.tau_l is not None:
        return cfg.tau_l
    return max(1e-8, 1e-6 * abs(level))


def _stage2_single(
    problem: EqdqoProblem,
    cfg: SolverConfig,
    z1: np.ndarray,
    branches: tuple[bool, ...],
):
    """One stage-II minimization warm-started at the stage-I point.

    Returns the outcome and whether the band held.
    """
    objective = problem.objective
    mu_min = cfg.mu_schedule[-1]

    # Band anchor: smoothed standard value at the stage-I point, so the
    # warm start is band-feasible by construction.
    anchor, _ = objective.stage1_value_grad(z1, mu_min)
    tau = _band_tolerance(cfg, objective.value_at(z1).std)

    # The standard value depends on the standard coordinates alone and an
    # isolated stage-I minimizer pins them, so the band holds by
    # construction when only the dual coordinates move.  Keeping the
    # standard block in the search instead, with the band as a penalty row,
    # opens an unbounded descent valley on inexact fits: the dual part
    # gains bilinearly through standard-coordinate slack that the band
    # penalty resists only at fourth order.
    #
    # On inexact fits the dual part is flat, up to noise-level tilt, in
    # whole subspaces of the dual coordinates; a weak proximal pull toward
    # the warm start picks the nearby representative instead of drifting
    # arbitrarily far along the tilt.  Where the dual part has real
    # curvature the pull shifts the minimizer by O(prox/curvature), far
    # below solver tolerances.
    outcome = _block_minimize(
        problem,
        cfg,
        z1,
        1,
        lambda z, mu: objective.stage2_value_grad(z, mu, branches),
        prox=_STAGE2_PROX,
    )
    band_final, _ = objective.stage1_value_grad(outcome.z, mu_min)
    return outcome, abs(band_final - anchor) <= tau


@dataclass
class _Candidate:
    restart_index: int
    z1: np.ndarray
    stage1_outcome: _AlOutcome
    stage2_outcome: _AlOutcome
    pair: DualNumber
    feas: tuple[float, float]
    feasible: bool


def _restart_start(
    problem: EqdqoProblem,
    cfg: SolverConfig,
    initial,
    r: int,
) -> np.ndarray:
    if r == 0 and initial is not None:
        vals = list(initial)
        if len(vals) != problem.arity:
            raise ArityMismatch(
                f"initial guess has {len(vals)} variables, expected {problem.arity}"
            )
        return pack(vals)
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([cfg.seed, r])))
    return _random_start(problem, rng)


def _run_pipeline(problem: EqdqoProblem, cfg: SolverConfig, initial, r: int) -> _Candidate:
    z1, s1_outcome = _stage1_point(problem, cfg, _restart_start(problem, cfg, initial, r))
    branches = problem.objective.branch_flags(z1)
    s2_outcome, band_ok = _stage2_single(problem, cfg, z1, branches)
    feas_h, feas_hd = _feasibility(problem, s2_outcome.z)
    v = problem.objective.value_at(s2_outcome.z)
    feasible = feas_h <= cfg.tol_feas and feas_hd <= cfg.tol_feas and band_ok
    return _Candidate(r, z1, s1_outcome, s2_outcome, v, (feas_h, feas_hd), feasible)


def _run_restarts(cfg: SolverConfig, runner) -> list:
    indices = list(range(cfg.restarts))
    if cfg.threads > 1:
        with ThreadPoolExecutor(max_workers=cfg.threads) as pool:
            return list(pool.map(runner, indices))
    return [runner(r) for r in indices]


def _report(
    problem: EqdqoProblem,
    cfg: SolverConfig,
    t0: float,
    restart_index: int,
    kkt1: float,
    stage1,
    stage2: _AlOutcome,
    feas: tuple[float, float],
) -> SolveReport:
    """Report at stage II's final point.

    ``stage1`` supplies the stage-I iteration count and trace, ``kkt1``
    the stage-I stationarity residual, ``feas`` the final ``(h, h_d)``
    violations; ``t0`` is when the solve started.
    """
    wall_ms = (time.perf_counter() - t0) * 1e3
    z2 = stage2.z
    kkt2 = kkt_analysis(problem, z2, stage=2)
    v = problem.objective.value_at(z2)
    return SolveReport(
        stage1_value=v.std,
        stage2_value=v.dual,
        solution=DualQuaternionVector(unpack(z2, problem.arity)),
        multipliers={"lambda": list(kkt2.lambdas), "sigma": kkt2.sigma},
        kkt_residual={"stage1": kkt1, "stage2": kkt2.residual},
        feasibility={"h": feas[0], "h_d": feas[1]},
        iterations={"stage1": stage1.iterations, "stage2": stage2.iterations},
        restart_index=restart_index,
        wall_time_ms=wall_ms,
        config=cfg,
        trace=tuple(stage1.trace) + tuple(stage2.trace),
        degenerate=kkt2.degenerate,
    )


def solve_eqdqo(
    problem: EqdqoProblem,
    cfg: SolverConfig | None = None,
    initial: Sequence[DualQuaternion] | None = None,
) -> SolveReport:
    """Full two-stage solve with restarts.

    Every restart runs stage I then stage II; a restart is a candidate when
    its final point satisfies all constraint rows to ``tol_feas`` and the
    stage-II band.  The report carries the dn-order minimal candidate, ties
    broken by restart index.  Raises :class:`Infeasible` when no restart
    produces a candidate.
    """
    cfg = cfg or SolverConfig()
    t0 = time.perf_counter()
    results = _run_restarts(cfg, lambda r: _run_pipeline(problem, cfg, initial, r))
    candidates = [c for c in results if c.feasible]
    if not candidates:
        worst = min((max(c.feas) for c in results), default=math.inf)
        raise Infeasible(
            f"no feasible candidate across {cfg.restarts} restarts "
            f"(best feasibility {worst:.3e} > tol {cfg.tol_feas:.3e})"
        )
    best = candidates[0]
    for c in candidates[1:]:
        if c.pair.compare(best.pair) < 0:
            best = c
    kkt1 = kkt_analysis(problem, best.z1, stage=1)
    return _report(
        problem,
        cfg,
        t0,
        best.restart_index,
        kkt1.residual,
        best.stage1_outcome,
        best.stage2_outcome,
        best.feas,
    )


def solve_stage1(
    problem: EqdqoProblem,
    cfg: SolverConfig | None = None,
    initial: Sequence[DualQuaternion] | None = None,
) -> Stage1Result:
    """Stage I alone: minimize the standard part over restarts.

    The dual coordinates are dropped during the minimization and
    afterwards chosen feasible for the dual constraint rows.  Raises
    :class:`Infeasible` when no restart reaches feasibility.
    """
    cfg = cfg or SolverConfig()

    def runner(r):
        z1, outcome = _stage1_point(problem, cfg, _restart_start(problem, cfg, initial, r))
        return z1, outcome, r, _feasibility(problem, z1)

    scored = [
        (problem.objective.value_at(z1).std, r, z1, outcome, feas)
        for z1, outcome, r, feas in _run_restarts(cfg, runner)
        if max(feas) <= cfg.tol_feas
    ]
    if not scored:
        raise Infeasible(
            f"stage I found no feasible point across {cfg.restarts} restarts"
        )
    scored.sort(key=lambda item: (item[0], item[1]))
    value, r, z1, outcome, feas = scored[0]
    solution = DualQuaternionVector(unpack(z1, problem.arity))
    kkt1 = kkt_analysis(problem, z1, stage=1)
    return Stage1Result(
        x=tuple(e.std for e in solution),
        x_d=tuple(e.dual for e in solution),
        value=value,
        solution=solution,
        feasibility={"h": feas[0], "h_d": feas[1]},
        kkt_residual=kkt1.residual,
        grad_norm=outcome.grad_norm,
        iterations=outcome.iterations,
        converged=outcome.converged,
        restart_index=r,
        branches=problem.objective.branch_flags(z1),
        trace=tuple(outcome.trace),
    )


def solve_stage2(
    problem: EqdqoProblem,
    stage1: Stage1Result,
    cfg: SolverConfig | None = None,
) -> SolveReport:
    """Stage II from a stage-I record: minimize the dual part in the band."""
    cfg = cfg or SolverConfig()
    t0 = time.perf_counter()
    outcome, band_ok = _stage2_single(problem, cfg, stage1.z, stage1.branches)
    feas_h, feas_hd = _feasibility(problem, outcome.z)
    if not (feas_h <= cfg.tol_feas and feas_hd <= cfg.tol_feas and band_ok):
        raise Infeasible(
            f"stage II lost feasibility (h {feas_h:.3e}, h_d {feas_hd:.3e}, "
            f"band ok {band_ok})"
        )
    return _report(
        problem,
        cfg,
        t0,
        stage1.restart_index,
        stage1.kkt_residual,
        stage1,
        outcome,
        (feas_h, feas_hd),
    )
