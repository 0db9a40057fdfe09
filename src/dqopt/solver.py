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
  part of every constraint.  The standard value reads the standard
  coordinates only, so stage II cannot move it.

Non-standard problems are rejected when an :class:`EqdqoProblem` is built.
Their standard part reads the dual coordinates, so stage I could not drop
them and the two block programs above would not be the problem's split.
The hand-eye and pose-graph problems are standard.  Their constraints,
unit-norm conditions and anchor rows, are the only kinds accepted (else
``TypeError``); one :class:`~dqopt.functions.ConstraintBlock` evaluates
them for both stages, feasibility, dual projection and KKT analysis.

Stage I runs an augmented-Lagrangian outer loop with an L-BFGS inner
minimizer; nonsmooth magnitude objectives are smoothed with a decreasing
schedule ``mu``.  Stage II is exact linear algebra.  With the standard
coordinates fixed, every dual constraint row and every residual's dual
part is affine in the dual coordinates, so the feasible set is an affine
*dual fiber* and stage II is a weighted least-squares fit on it (see
:func:`solve_stage2`), with branches frozen at the stage-I point.
Restarts draw independent unit starting points; stage II runs for the
restarts tied at the least stage-I value, and the reported solution is
the dn-order minimum over their feasible outcomes.
"""

from __future__ import annotations

import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np
from scipy import sparse
from scipy.optimize import minimize as _scipy_minimize
from scipy.sparse.linalg import spsolve

from .algebra import DualQuaternion, DualQuaternionVector, Quaternion
from .errors import (
    ArityMismatch,
    DegenerateConstraintGradients,
    Infeasible,
    MaxIterations,
    NonStandardProblem,
)
from .functions import ConstraintBlock, DualFunction, pack, unpack

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

    ``mu_schedule``, ``tol_grad`` and ``max_inner`` steer the stage-I
    augmented-Lagrangian loop; ``max_outer`` caps its outer iterations and
    the stage-II reweighted solves.
    """

    restarts: int = 8
    seed: int = 0
    tol_grad: float = 1e-9
    tol_feas: float = 1e-9
    mu_schedule: tuple[float, ...] = _DEFAULT_MU
    max_outer: int = 60
    max_inner: int = 300
    threads: int = 1

    def __post_init__(self):
        if self.restarts < 1:
            raise ValueError("restarts must be at least 1")
        if self.tol_grad <= 0 or self.tol_feas <= 0:
            raise ValueError("tolerances must be positive")
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
    probes whether a declaration holds.  The constraints must be unit-norm
    conditions and :func:`dqopt.functions.anchor_constraints` rows, which
    ``block`` evaluates together; any other type raises ``TypeError``.
    """

    objective: DualFunction
    constraints: tuple[DualFunction, ...] = ()
    block: ConstraintBlock = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "constraints", tuple(self.constraints))
        named = [("objective", self.objective)]
        named += [(f"constraint {j}", h) for j, h in enumerate(self.constraints)]
        for name, fn in named:
            if fn.arity != self.arity:
                raise ArityMismatch(f"{name} arity {fn.arity} != objective arity {self.arity}")
            if not fn.declared_standard:
                raise NonStandardProblem(
                    f"{name} ({type(fn).__name__}) does not declare standard "
                    "structure; stage I would depend on the dual coordinates"
                )
        object.__setattr__(self, "block", ConstraintBlock(self.arity, self.constraints))

    @property
    def arity(self) -> int:
        return self.objective.arity


@dataclass(frozen=True)
class TraceRow:
    """One stage-I outer iteration or one stage-II solve, for convergence plots."""

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
class _StageOutcome:
    z: np.ndarray
    iterations: int
    converged: bool
    grad_norm: float
    trace: list


def _al_minimize(
    start: np.ndarray,
    objective_vg: Callable[[np.ndarray, int], tuple[float, np.ndarray]],
    rows_fn: Callable[[np.ndarray], tuple[np.ndarray, Callable, np.ndarray]],
    cfg: SolverConfig,
    n_mu: int,
    stage_label: int,
    monitor: Callable[[np.ndarray], tuple[float, float, float]],
) -> _StageOutcome:
    """Generic equality-constrained minimization.

    ``objective_vg(z, k)`` evaluates the (possibly smoothed) objective at
    outer iteration ``k``; ``rows_fn`` returns constraint values, their
    pullback ``v -> (gradient matrix)^T v``, and per-row tolerances;
    ``monitor`` supplies exact objective parts and feasibility for the trace.
    """
    z = np.asarray(start, dtype=np.float64).copy()
    values, _, tols = rows_fn(z)
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
            c, pullback, _ = rows_fn(zz)
            if c.size:
                mult = _lam + _rho * c
                return f + _lam @ c + 0.5 * _rho * (c @ c), g + pullback(mult)
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
        values, pullback, tols = rows_fn(z)
        lam_hat = lam + rho * values if values.size else lam
        grad_l = g + pullback(lam_hat) if values.size else g
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

    return _StageOutcome(z, outer + 1, converged, grad_norm, trace)


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
        vals = np.empty(len(constraints))
        grads = np.empty((len(constraints), z.shape[0]))
        for i, c in enumerate(constraints):
            vals[i], grads[i] = c(z)
        return vals, lambda v: grads.T @ v, np.full(len(constraints), cfg.tol_feas)

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


def _part_indices(arity: int, part: int) -> np.ndarray:
    """Flat indices of every variable's standard (part 0) or dual (part 1) slot."""
    return (8 * np.arange(arity)[:, None] + 4 * part + np.arange(4)).ravel()


def _feasibility(problem: EqdqoProblem, z: np.ndarray) -> tuple[float, float]:
    """Largest constraint violations ``(max |h|, max |h_d|)`` at ``z``."""
    h, h_d = problem.block.values(z)
    return float(np.max(np.abs(h), initial=0.0)), float(np.max(np.abs(h_d), initial=0.0))


def _random_start(problem: EqdqoProblem, rng: np.random.Generator) -> np.ndarray:
    """Unit standard parts per variable, zero dual parts."""
    z = np.zeros(8 * problem.arity)
    for i in range(problem.arity):
        v = rng.standard_normal(4)
        v /= np.linalg.norm(v)
        z[8 * i : 8 * i + 4] = v
    return z


def _dual_fiber(problem: EqdqoProblem, z: np.ndarray):
    """The dual rows' solution map and null space at the standard point of ``z``.

    Every row of the stage Jacobian ``G`` touches one variable, so one
    batched ``eigh`` of the ``(n, 4, 4)`` stack ``G_i^T G_i`` splits each
    variable's dual coordinates into ``G``'s row space and its null space
    (3 directions for a unit row alone, none for an anchored variable).
    Returns ``(solve, null)``: ``solve(v)`` is the minimum-norm ``x`` with
    ``G x = v`` (least squares when there is none), and ``null`` a sparse
    ``(4n, k)`` orthonormal basis of the null space.
    """
    block = problem.block
    e, vecs = np.linalg.eigh(block.gram(z))
    rank = e > _RANK_RCOND * e[:, -1:]
    inv = np.where(rank, 1.0 / np.where(rank, e, 1.0), 0.0)

    def solve(v):
        coef = (block.pullback(z, v).reshape(-1, 1, 4) @ vecs)[:, 0] * inv
        return (vecs @ coef[..., None]).ravel()

    # One column per null eigenvector, its 4 entries in its variable's rows.
    var, col = np.nonzero(~rank)
    rows = (4 * var[:, None] + np.arange(4)).ravel()
    null = sparse.csc_matrix(
        (vecs[var, :, col].ravel(), rows, np.arange(0, rows.size + 1, 4)),
        (4 * problem.arity, var.size),
    )
    return solve, null


def _project_duals(problem: EqdqoProblem, z: np.ndarray, tol: float) -> np.ndarray:
    """Move the dual coordinates onto the dual rows ``h_d = 0``.

    Every dual row is linear in the dual coordinates, with the stage
    Jacobian as its slope, so one minimum-norm step from
    :func:`_dual_fiber` solves them exactly.  A point already within
    ``tol`` is not moved.
    """
    z = z.copy()
    _, h_d = problem.block.values(z)
    if np.max(np.abs(h_d), initial=0.0) <= tol:
        return z
    solve, _ = _dual_fiber(problem, z)
    z[_part_indices(problem.arity, 1)] += solve(-h_d)
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


def _supplied(values, name: str, count: int) -> np.ndarray:
    """Supplied multipliers as ``count`` floats; ``ValueError`` for another count."""
    vals = np.asarray(values, dtype=np.float64).reshape(-1)
    if vals.shape[0] != count:
        raise ValueError(f"expected {count} {name} values, got {vals.shape[0]}")
    return vals


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
    gradients use the zero subgradient at kinks.  Supplied ``multipliers``
    must hold one ``lambda`` and, when given, one ``mu`` per constraint
    (``mu`` defaults to zeros, ``sigma`` to 0); otherwise ``ValueError``.
    """
    if stage not in (1, 2):
        raise ValueError("stage must be 1 or 2")
    z = _point_to_z(point, problem.arity)
    g_std, g_dual = problem.objective.gradient_at(z)
    _, _, j_s, j_d = problem.block.rows(z)
    m = problem.block.size
    target = g_std if stage == 1 else g_dual
    rows = (j_s,) if stage == 1 else (j_s, j_d, g_std[None])
    # One column per multiplier, in C order: the layout fixes the summation
    # order of ``a @ sol`` and so the last bits of the reported residual.
    a = np.empty((z.shape[0], sum(r.shape[0] for r in rows)))
    np.concatenate(rows, out=a.T)

    if multipliers is None:
        sol, _, rank, _ = np.linalg.lstsq(a, -target, rcond=_RANK_RCOND)
        degenerate = rank < a.shape[1]
    else:
        lam = _supplied(multipliers.get("lambda", ()), "lambda", m)
        mus = _supplied(multipliers.get("mu", np.zeros(m)), "mu", m)
        sigma = float(multipliers.get("sigma", 0.0))
        sol = np.concatenate((lam, mus, [sigma]))[: a.shape[1]]
        degenerate = False
    resid = target + a @ sol
    return KktInfo(
        float(np.linalg.norm(resid)),
        tuple(float(v) for v in sol[:m]),
        tuple(float(v) for v in sol[m : 2 * m]),
        float(sol[-1]) if stage == 2 else 0.0,
        degenerate,
    )


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
    if on_degenerate not in ("raise", "lstsq"):
        raise ValueError(f"on_degenerate must be 'raise' or 'lstsq', got {on_degenerate!r}")
    info = kkt_analysis(problem, point, stage=stage, multipliers=multipliers)
    if info.degenerate and multipliers is None and on_degenerate == "raise":
        raise DegenerateConstraintGradients(
            "constraint gradients are rank-deficient; pass multipliers or "
            "on_degenerate='lstsq'"
        )
    return info.residual


# ---------------------------------------------------------------------------
# Stage drivers


def _stage1_point(problem: EqdqoProblem, cfg: SolverConfig, z0: np.ndarray):
    """Stage I from ``z0``, then its dual coordinates projected onto the dual rows.

    The smoothed standard part is minimized over the standard coordinates
    against the standard part of every constraint row.  The dual
    coordinates keep the hint from the starting point until the projection.
    """
    n_mu = len(cfg.mu_schedule)
    idx = _part_indices(problem.arity, 0)
    tols = np.full(problem.block.size, cfg.tol_feas)

    def embed(x):
        full = z0.copy()
        full[idx] = x
        return full

    def block_vg(x, k):
        f, g = problem.objective.stage1_value_grad(embed(x), cfg.mu_schedule[min(k, n_mu - 1)])
        return f, g[idx]

    def rows_fn(x):
        full = embed(x)
        h, _ = problem.block.values(full)
        return h, lambda v: problem.block.pullback(full, v), tols

    def monitor(x):
        full = embed(x)
        v = problem.objective.value_at(full)
        return v.std, v.dual, max(_feasibility(problem, full))

    outcome = _al_minimize(z0[idx], block_vg, rows_fn, cfg, n_mu, 1, monitor)
    outcome.z = embed(outcome.z)
    return _project_duals(problem, outcome.z, cfg.tol_feas * 0.1), outcome


def _stage2(
    problem: EqdqoProblem,
    cfg: SolverConfig,
    z1: np.ndarray,
    branches: tuple[bool, ...],
) -> _StageOutcome:
    """Stage II at the standard coordinates of ``z1``; see :func:`solve_stage2`.

    The dual coordinates are ``x_p + N y`` on the dual fiber; each pass
    solves the sparse normal equations ``B^T W B y = -B^T W r_p`` with
    ``B = A N``, for the objective's rows ``r = r_p + B y``, until the
    weights stop changing or ``y`` stops moving, at most ``max_outer``
    times.  One trace row per solve.
    """
    dual = _part_indices(problem.arity, 1)
    z = z1.copy()
    z[dual] = 0.0
    _, h_d0 = problem.block.values(z)
    solve, null = _dual_fiber(problem, z)
    x_p = solve(-h_d0)
    z[dual] = x_p
    a, r_p, weights = problem.objective.stage2_system(z, branches)
    b = (a @ null).tocsc()
    b.eliminate_zeros()
    # Fiber directions that no row sees stay at x_p: all of them when the
    # objective has no rows (a smooth one, whose dual part is linear).
    seen = np.diff(b.indptr) > 0
    b, null = b[:, seen].tocsr(), null[:, seen]
    b_t = b.T.tocsr()
    row_of = np.repeat(np.arange(b.shape[0]), np.diff(b.indptr))
    w = weights(r_p)
    y = np.zeros(b.shape[1])
    trace = []
    for it in range(cfg.max_outer):
        wb = b.copy()
        wb.data *= w[row_of]
        y_new = spsolve(b_t @ wb, -(b_t @ (w * r_p)))
        z[dual] = x_p + null @ y_new
        r = r_p + b @ y_new
        stationarity = float(np.linalg.norm(b_t @ (w * r)))
        v = problem.objective.value_at(z)
        trace.append(TraceRow(it, 2, v.std, v.dual, max(_feasibility(problem, z)), stationarity))
        w_new = weights(r)
        done = np.array_equal(w_new, w) or np.max(np.abs(y_new - y), initial=0.0) <= cfg.tol_feas
        y, w = y_new, w_new
        if done:
            break
    return _StageOutcome(z, it + 1, done, stationarity, trace)


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


def _run_restarts(cfg: SolverConfig, runner) -> list:
    indices = list(range(cfg.restarts))
    if cfg.threads > 1:
        with ThreadPoolExecutor(max_workers=cfg.threads) as pool:
            return list(pool.map(runner, indices))
    return [runner(r) for r in indices]


def _stage1_restarts(problem: EqdqoProblem, cfg: SolverConfig, initial) -> list:
    """Stage I for every restart: the feasible outcomes, least stage-I value first.

    Items are ``(value, restart, z1, outcome, feasibility)``; equal values
    keep restart order.  Raises :class:`Infeasible` when no restart reaches
    feasibility.
    """

    def runner(r):
        z1, outcome = _stage1_point(problem, cfg, _restart_start(problem, cfg, initial, r))
        return z1, outcome, r, _feasibility(problem, z1)

    results = _run_restarts(cfg, runner)
    scored = [
        (problem.objective.value_at(z1).std, r, z1, outcome, feas)
        for z1, outcome, r, feas in results
        if max(feas) <= cfg.tol_feas
    ]
    if not scored:
        worst = min(max(feas) for *_, feas in results)
        raise Infeasible(
            f"no feasible candidate across {cfg.restarts} restarts "
            f"(best feasibility {worst:.3e} > tol {cfg.tol_feas:.3e})"
        )
    scored.sort(key=lambda item: (item[0], item[1]))
    return scored


def _report(
    problem: EqdqoProblem,
    cfg: SolverConfig,
    t0: float,
    restart_index: int,
    kkt1: float,
    stage1,
    stage2: _StageOutcome,
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

    Every restart runs stage I.  Stage II can only break ties in the
    standard value, so it runs for the feasible restarts whose stage-I
    value equals the least one exactly; a restart is a candidate when its
    final point satisfies all constraint rows to ``tol_feas``.  The report
    carries the dn-order minimal candidate, ties broken by restart index.
    Raises :class:`Infeasible` when no restart produces a candidate.
    """
    cfg = cfg or SolverConfig()
    t0 = time.perf_counter()
    scored = _stage1_restarts(problem, cfg, initial)
    candidates = []
    for value, r, z1, outcome, _ in scored:
        if value > scored[0][0]:
            break
        stage2 = _stage2(problem, cfg, z1, problem.objective.branch_flags(z1))
        feas = _feasibility(problem, stage2.z)
        if max(feas) <= cfg.tol_feas:
            pair = problem.objective.value_at(stage2.z)
            candidates.append((pair, r, z1, outcome, stage2, feas))
    if not candidates:
        raise Infeasible(
            f"no feasible candidate across {cfg.restarts} restarts "
            f"(stage II left h_d above tol {cfg.tol_feas:.3e})"
        )
    # min keeps the first of equal pairs, so ties go to the lower restart
    _, r, z1, outcome, stage2, feas = min(candidates, key=lambda c: c[0])
    kkt1 = kkt_analysis(problem, z1, stage=1)
    return _report(problem, cfg, t0, r, kkt1.residual, outcome, stage2, feas)


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
    value, r, z1, outcome, feas = _stage1_restarts(problem, cfg, initial)[0]
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
    """Stage II from a stage-I record: one exact fit on the dual fiber.

    With the standard coordinates held at the stage-I point, the dual
    constraint rows ``G x_d = -h_d(0)`` are affine, and so is every
    residual's dual part, ``r_dual = A x_d + b`` with ``A`` the standard
    Jacobian of the residuals.  The feasible dual coordinates form the
    *dual fiber* ``x_p + N y`` (minimum-norm solution plus null basis, per
    variable), and stage II minimizes ``sum_g w_g |r_dual,g|^2`` over ``y``
    by sparse normal equations.  Groups frozen infinitesimal at stage I
    are reweighted by ``1 / |r_dual,g|`` until the fit settles, which
    minimizes the paper's stage-II objective ``sum_g |r_dual,g|`` on them
    (robust to a few gross outliers).  Groups frozen appreciable weigh 1:
    at a stage-I KKT point their part of the paper's objective is constant
    on the fiber, so the paper leaves the dual coordinates undetermined
    there, and the least-squares fit is a tie-break that goes beyond the
    paper (the translation step of Daniilidis, 1999).  Objectives without
    residual rows keep ``y = 0``, exact for smooth standard objectives.
    Raises :class:`Infeasible` if the result misses a constraint row.
    """
    cfg = cfg or SolverConfig()
    t0 = time.perf_counter()
    outcome = _stage2(problem, cfg, stage1.z, stage1.branches)
    feas_h, feas_hd = _feasibility(problem, outcome.z)
    if not (feas_h <= cfg.tol_feas and feas_hd <= cfg.tol_feas):
        raise Infeasible(f"stage II lost feasibility (h {feas_h:.3e}, h_d {feas_hd:.3e})")
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
