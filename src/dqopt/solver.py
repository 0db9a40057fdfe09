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
Stage I reads the standard part alone, so it may minimize another
objective with the same standard part on the standard rows, the problem's
``stage1``: the pose-graph problem's stage I runs on the affine edge rows
``x_i q_ij - x_j``, whose Jacobian is constant, in place of the bilinear
``q_ij - conj(x_i) x_j`` that stage II and the report keep.
The hand-eye and pose-graph problems are standard.  Their constraints,
unit-norm conditions and whole anchors, the only kinds supported, are
data; one :class:`~dqopt.functions.ConstraintBlock` evaluates them for
both stages, feasibility, the dual fiber and KKT analysis.

:func:`solve_eqdqo` runs both stages and :func:`kkt_analysis` analyses
either one at a point; the report carries each stage's value, iterations,
trace rows and KKT analysis.  Stage I takes Gauss-Newton steps on the
objective's residual rows in the tangent space of the unit-norm and anchor
rows, with a Newton correction for sums of magnitudes whose groups at their
kink are equality rows of the step, and keeps every iterate feasible (see
:func:`_stage1`).  Stage II is exact linear algebra.
With the standard coordinates fixed, every dual constraint row and every
residual's dual part is affine in the dual coordinates, so the feasible set
is an affine *dual fiber* and stage II is one weighted least-squares fit
of every objective's dual rows on it (see :func:`_stage2`), with each
magnitude's branch frozen where the stage-I point puts it.
Every restart runs stage I, in lockstep (see :func:`_stage1`), and stage
II runs for those at the least stage-I value.  :func:`solve_eqdqo` states
where restarts start, when restart 0 runs alone and which restarts stage
II tries; :class:`SolverConfig` states when a restart stops "merged".
Stage II forms its ``B = J N`` from the objective's slope ``J`` at the
stage-I point, with ``N`` the constraint block's tangent frames, and the
reported solution is the dn-order minimum over the feasible outcomes.
"""

from __future__ import annotations

import functools
import math
import numbers
import time
from dataclasses import asdict, dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .algebra import TOL_APPRECIABLE, DualNumber, DualQuaternion, DualQuaternionVector
from .errors import ArityMismatch, Infeasible, NonStandardProblem
from .functions import ConstraintBlock, DualFunction, _count, pack

__all__ = [
    "SolverConfig",
    "EqdqoProblem",
    "SolveReport",
    "TraceRow",
    "KktInfo",
    "solve_eqdqo",
    "kkt_analysis",
]

@dataclass(frozen=True)
class SolverConfig:
    """Tuning knobs for the two-stage solver.

    Stage I stops once the norm of its tangent gradient is at most
    ``tol_grad``, or when no step lowers the standard value; ``max_outer``
    caps its steps and the stage-II reweighted solves.  At a kink of a sum
    of magnitudes (a group within ``TOL_APPRECIABLE`` of 0) the norm is the
    distance to the subdifferential, and the point stops on it only with
    every kink's multiplier norm at most 1 and its residual at rounding, so
    restarts at a kink optimum converge and merge like smooth ones.  A stage-I trace
    ends with a row at the point returned, so ``iterations["stage1"]``, its
    row count, is the steps plus one.  A restart's answer counts only if
    every constraint row holds to ``tol_feas``, in stage I at its last row.
    Restart 0 begins at the solve's ``initial`` point or the problem's
    ``start``, if either is given, the others at unit points drawn from
    ``seed``; :func:`solve_eqdqo` says when restart 0 runs alone.  The
    ``restarts`` that run advance in lockstep, and each stops on its own
    rule or *merges*: one whose point comes within ``_MERGE_RADIUS`` (1e-3,
    in the max-norm over the standard coordinates, up to the global sign)
    of a restart that converged to a positive value stops "merged" and is
    no candidate.  Near a minimum reached in the same step it stops before
    it steps, at its last row's point; near one reached earlier, at the top
    of the next step, one step past its last row.  Restarts that converged
    to value 0 (noiseless data, where restarts at one minimum differ in
    what stage II makes of them) or stalled (short of a minimum, so
    possibly apart from the others) are never merged into.
    ``threads`` accepts only 1, so that callers passing it keep working,
    the benchmark among them until ROADMAP item 13's benchmark change.
    Counts must be integers and tolerances real numbers, not bools; the
    report echoes them as Python ``int`` and ``float``.
    """

    restarts: int = 8
    seed: int = 0
    tol_grad: float = 1e-9
    tol_feas: float = 1e-9
    max_outer: int = 60
    threads: int = 1

    def __post_init__(self):
        for name in ("restarts", "seed", "max_outer", "threads"):
            object.__setattr__(self, name, _count(name, getattr(self, name), ValueError))
        for name in ("tol_grad", "tol_feas"):
            tol = getattr(self, name)
            if isinstance(tol, bool) or not isinstance(tol, numbers.Real):
                raise ValueError(f"{name} must be a real number, got {tol!r}")
            object.__setattr__(self, name, float(tol))
        if self.restarts < 1:
            raise ValueError("restarts must be at least 1")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        if not all(0 < tol < math.inf for tol in (self.tol_grad, self.tol_feas)):
            raise ValueError("tolerances must be positive and finite")
        if self.max_outer < 1:
            raise ValueError("iteration caps must be positive")
        if self.threads != 1:
            raise ValueError(f"threads must be 1, got {self.threads}")

    def to_json_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True, eq=False)
class EqdqoProblem:
    """Objective plus equality constraints, all dual-number valued.

    The constraints are data, of the only two kinds the solver supports:
    ``unit`` lists the variables with a unit-norm row and ``anchors`` maps
    variables to their :class:`DualQuaternion` targets.  ``block``, their
    :class:`~dqopt.functions.ConstraintBlock`, checks and orders the rows,
    each setting both scalar parts to zero, and keeps ``unit`` and
    ``anchors`` read-only.  Problems compare by identity.  Stage I
    minimizes ``stage1`` (``objective`` unless given); stage II, the KKT
    analysis and the report read ``objective``.  A given ``stage1`` must
    have ``objective``'s standard part wherever the standard constraint
    rows hold (unchecked); only :func:`~dqopt.posegraph.build_pgo` gives
    one, the affine edge rows ``x_i q_ij - x_j``.  Both must have the
    objective's arity (else :class:`ArityMismatch`) and declare standard
    structure, a standard part that ignores the dual coordinates, since
    stage I runs over the standard coordinates alone (else
    :class:`NonStandardProblem`; :func:`dqopt.functions.check_standardness`
    probes a declaration).  Both must give residual rows from the stage
    hook ``stage_system``, as :class:`~dqopt.functions.ResidualNormObjective`
    and :func:`~dqopt.functions.squared_distance_objective` do (else
    ``TypeError``): stage I steps on ``stage1``'s, and stage II and the KKT
    analysis fit or read ``objective``'s.  ``start``, if given, is where
    restart 0 begins when the solve gets no ``initial`` point: ``arity``
    dual quaternions or an ``(arity, 8)`` array of rows, stored as
    read-only rows (another count or shape raises :class:`ArityMismatch`,
    a NaN or infinite entry ``ValueError``).  Every hand-eye and pose-graph
    builder gives its good start, so every solve uses it.
    """

    objective: DualFunction
    unit: Sequence[int] = ()
    anchors: Mapping[int, DualQuaternion] | None = None
    start: np.ndarray | None = field(default=None, repr=False)
    stage1: DualFunction | None = field(default=None, repr=False)
    block: ConstraintBlock = field(init=False, repr=False)

    def __post_init__(self):
        if self.start is not None:
            start = _start_z(self.start, self.arity, "start").reshape(self.arity, 8)
            start.flags.writeable = False
            object.__setattr__(self, "start", start)
        if self.stage1 is None:
            object.__setattr__(self, "stage1", self.objective)
        for name, fn in (("objective", self.objective), ("stage1", self.stage1)):
            if fn.arity != self.arity:
                raise ArityMismatch(f"{name} arity {fn.arity} != objective arity {self.arity}")
            if not fn.declared_standard:
                raise NonStandardProblem(f"{name} ({type(fn).__name__}) does not declare standard "
                                         "structure; stage I would depend on the dual coordinates")
            if not hasattr(fn, "stage_system"):
                raise TypeError(f"{name} ({type(fn).__name__}) has no residual rows (stage_system)")
        block = ConstraintBlock(self.arity, self.unit, self.anchors)
        for name, value in (("block", block), ("unit", block.unit), ("anchors", block.anchors)):
            object.__setattr__(self, name, value)

    @property
    def arity(self) -> int:
        return self.objective.arity


@dataclass(frozen=True)
class TraceRow:
    """One stage-I point (each step's start, then the point returned) or stage-II solve.

    ``feasibility`` is the largest violation of the rows the stage holds:
    ``max |h|`` in stage I, which leaves the start's dual coordinates for
    stage II to replace or keep, and the larger of ``max |h|`` and ``max
    |h_d|`` in stage II.  ``kkt_residual`` is stage I's tangent gradient
    norm at the row's point (at a kink, its distance to the
    subdifferential; see :func:`_stage1`), or stage II's normal-equation
    residual after the solve (0 when stage II keeps a point exact in both
    parts to rounding, where every group is at its kink: see :func:`_stage2`).
    Stage-I rows read the problem's ``stage1``: for a pose graph,
    ``objective_std`` equals the objective's standard value on the
    standard rows, but ``objective_dual`` is the affine edge rows' dual
    value at the start's dual coordinates, not the objective's.
    """

    iteration: int
    stage: int
    objective_std: float
    objective_dual: float
    feasibility: float
    kkt_residual: float


@dataclass(frozen=True)
class SolveReport:
    """Complete two-stage solve record.

    ``stage1_value`` and ``stage2_value`` are the standard and dual parts
    of the exact objective recomputed at the reported solution, so the pair
    is the dual-number objective value at ``solution``.  ``multipliers``
    and ``kkt_residual`` come from :func:`kkt_analysis`: ``"lambda"`` and
    ``"stage1"`` at the stage-I point, ``"mu"`` and ``"stage2"`` at the
    solution.  ``degenerate`` is true when the constraint gradients there
    are linearly dependent, so the multipliers are not unique.
    ``solution`` holds stage II's final coordinates as rows
    (:meth:`DualQuaternionVector.from_rows`) and builds its dual
    quaternions on first access; the JSON report and
    :func:`~dqopt.handeye.pose_rows` read the rows.
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

    #: The fields, timings only, that differ between two runs of one solve;
    #: reports compare equal byte for byte without them.
    TIMING_FIELDS = ("wall_time_ms",)

    def to_json_dict(self) -> dict:
        return {
            "stage1_value": self.stage1_value,
            "stage2_value": self.stage2_value,
            "solution": self.solution.to_json_list(),
            "multipliers": dict(self.multipliers),
            "kkt_residual": dict(self.kkt_residual),
            "degenerate": self.degenerate,
            "feasibility": dict(self.feasibility),
            "iterations": dict(self.iterations),
            "restart_index": self.restart_index,
            "wall_time_ms": self.wall_time_ms,
            "config": self.config.to_json_dict(),
        }


@dataclass
class _StageOutcome:
    z: np.ndarray
    trace: list  # one row per iteration
    stop: str | None = None  # stage I: "converged", "stalled", "merged" or "max_outer"
    value: float | DualNumber | None = None  # at z: standard (stage I) or dual value (II)
    feasibility: tuple[float, float] | None = None  # stage II: _feasibility at z
    kinked: bool = False  # stage I: a group of stage1 at its kink at z has multipliers
    rows: tuple = ()  # stage II: the objective's rows at z, from _valued, for the report


# ---------------------------------------------------------------------------
# Coordinate blocks and constraint rows


@functools.lru_cache(maxsize=256)
def _part_indices(arity: int, part: int) -> np.ndarray:
    """Flat indices of every variable's standard (part 0) or dual (part 1) slot, read-only."""
    indices = (8 * np.arange(arity)[:, None] + 4 * part + np.arange(4)).ravel()
    indices.flags.writeable = False
    return indices


def _feasibility(problem: EqdqoProblem, z: np.ndarray) -> tuple[float, float]:
    """Largest constraint violations ``(max |h|, max |h_d|)`` at ``z``."""
    h, h_d = problem.block.values(z)
    return float(np.max(np.abs(h), initial=0.0)), float(np.max(np.abs(h_d), initial=0.0))


def _rows(fn, z: np.ndarray) -> tuple:
    """``(fn.rows_at(z),)``, or ``()`` for a function without rows, to pass on as ``*rows``."""
    return (fn.rows_at(z),) if hasattr(fn, "rows_at") else ()


def _valued(fn, z: np.ndarray) -> tuple:
    """``(value, rows)`` of ``fn`` at ``z``, with ``rows`` as :func:`_rows` gives them."""
    rows = _rows(fn, z)
    return fn.value_at(z, *rows), rows


def _random_start(arity: int, rng: np.random.Generator) -> np.ndarray:
    """Unit standard parts for each of ``arity`` variables, zero dual parts."""
    v = rng.standard_normal((arity, 4))
    z = np.zeros((arity, 8))
    # each norm summed as np.linalg.norm sums one vector's
    z[:, :4] = v / np.sqrt(_dots(v, v))[:, None]
    return z.reshape(-1)


def _fiber_product(jac, frames: np.ndarray, block: ConstraintBlock):
    """``B = J N`` for the residual Jacobian ``J`` and ``N`` the stack of tangent ``frames``.

    Column ``c`` of ``N`` is ``frames[..., c, :]`` in ``block.var[c]``'s
    slots.  A sparse ``J`` or over ``_DENSE_MAX`` columns (one point) give a
    sparse product on ``N`` as a CSC matrix.  Otherwise each entry adds the
    4 products of its column's variable left to right, as SciPy's product
    of a sparse ``J`` sums them, however many points are stacked.
    """
    if _is_sparse(jac) or block.var.size > _DENSE_MAX:
        from ._sparse import sparse

        null = sparse.csc_matrix((frames.ravel(), block.slots, np.arange(0, frames.size + 1, 4)),
                                 (jac.shape[-1], block.var.size))
        return (jac if _is_sparse(jac) else sparse.csr_matrix(jac)) @ null
    # One J for the stack or one per point: one column's products at a time,
    # so no (R, k, 4, d) array is built.
    n = frames.swapaxes(-1, -2)[..., None, :, :]
    cols = block.slots.reshape(-1, 4).T  # the slot of entry c of frame j at [c, j]
    terms = (jac[..., col] * n[..., c, :] for c, col in enumerate(cols))
    out = next(terms)
    for t in terms:
        out += t
    # C order, as SciPy returns it: BLAS sums other layouts in another order.
    return np.ascontiguousarray(out)


def _tangent_step(block: ConstraintBlock, frames: np.ndarray, y: np.ndarray) -> np.ndarray:
    """``N y`` per point for ``(..., d, 4)`` tangent ``frames`` and ``(..., d)`` ``y``.

    Each slot adds its ``frame * y`` terms to zero in column order, as
    SciPy's sparse product does: dense or sparse, stacked or not, bit for bit.
    """
    count, size = math.prod(y.shape[:-1]), 4 * block.arity
    at = (block.slots + size * np.arange(count)[:, None]).ravel()
    out = np.bincount(at, (frames * y[..., None]).ravel(), count * size)
    return out.reshape(y.shape[:-1] + (size,))


def _fiber_point(problem: EqdqoProblem, z: np.ndarray) -> np.ndarray:
    """``z`` with its duals at the dual fiber's minimum-norm point.

    Every dual row is affine in the dual coordinates, ``G x_d + h_d(0)``
    with ``h_d(0)`` its value at zero duals, so ``x_p = (G^T G)^+ G^T
    (-h_d(0))`` is the least-norm point that satisfies them (least squares
    when none does), with ``G`` at the standard coordinates of ``z``; the
    fiber is ``x_p + N y``, ``N`` the tangent basis of :func:`_fiber_product`.
    """
    dual = _part_indices(problem.arity, 1)
    z = z.copy()
    z[dual] = 0.0
    _, h_d0 = problem.block.values(z)
    z[dual] = problem.block.pinv(z, problem.block.pullback(z, -h_d0))
    return z


# ---------------------------------------------------------------------------
# KKT analysis


@dataclass(frozen=True)
class KktInfo:
    """Stationarity residual with recovered multipliers.

    ``multipliers`` holds one per constraint row: stage I's ``lambda`` of
    the standard row, or stage II's ``mu`` of the dual row.  ``degenerate``
    is true when the constraint gradients are linearly dependent, so the
    multipliers are not unique.
    """

    residual: float
    multipliers: tuple[float, ...]
    degenerate: bool


def _point_to_z(point, arity: int) -> np.ndarray:
    """Flat coordinates of ``point``; raises ``ValueError`` unless ``(8 * arity,)`` or ``(arity, 8)``."""
    z = np.asarray(point, dtype=np.float64) if isinstance(point, np.ndarray) else pack(point)
    if z.shape not in ((8 * arity,), (arity, 8)):
        raise ValueError(f"expected shape ({8 * arity},) or ({arity}, 8), got {z.shape}")
    return z.reshape(-1)


def kkt_analysis(problem: EqdqoProblem, point, stage: int = 1) -> KktInfo:
    """Multipliers and stationarity residual of one stage, over the coordinates it moves.

    There the stage Jacobian ``G`` of the constraint block is every row's
    gradient.  Stage I: ``t + G^T lambda`` with ``t = grad f`` over the
    standard coordinates.  Stage II: ``t + G^T mu`` with ``t = grad f_d``
    over the dual ones.  The multipliers are the minimum-norm least-squares
    ones ``-G (G^T G)^+ t``, ``(G^T G)^+`` in the closed form of
    :meth:`~dqopt.functions.ConstraintBlock.pinv`.  Piecewise gradients
    take the zero subgradient at kinks, except in stage I of an objective
    with several magnitude groups: there ``t`` also holds ``J_g^T u_g`` for
    each group ``g`` at its kink, with ``u_g`` the least-squares multipliers
    of :func:`_kinks` cut back to norm 1, so the residual is the distance to
    the subdifferential (the stage-I stationarity that :func:`_stage1` stops
    on) whenever every ``|u_g| <= 1``.
    ``point`` is ``arity`` dual quaternions or their coordinates, flat or
    as ``(arity, 8)`` rows; another shape raises ``ValueError``.
    """
    if stage not in (1, 2):
        raise ValueError("stage must be 1 or 2")
    z = _point_to_z(point, problem.arity)
    rows = _rows(problem.objective, z)  # one evaluation for the gradient and the kinks
    resid, mult = _kkt(problem, z, stage, problem.objective.gradient_at(z, *rows)[stage - 1], rows=rows)
    return KktInfo(resid, tuple(mult.tolist()), problem.block.rank(z) < problem.block.size)


def _kink_subgradient(problem: EqdqoProblem, z: np.ndarray, rows: tuple = ()):
    """``J_A^T u`` over the standard coordinates for the objective's kink groups at ``z``, or 0."""
    jac, r, _, w, groups = problem.objective.stage_system(z, *rows)
    if groups is None or w.all():
        return 0.0
    r, w = r[None], w[None]  # a stack of one, as stage I evaluates it
    jac = jac(problem.block.var.size > _DENSE_MAX)
    b = _dense(_fiber_product(jac, problem.block.tangent(z[None]), problem.block))
    return _tmv(jac, _kinks(b, r, w, groups, _tmv(b, w * r)).u)[0]


def _kkt(problem: EqdqoProblem, z, stage: int, grad, kinks: bool = True, rows: tuple = ()):
    """:func:`kkt_analysis`'s residual and multipliers at ``z``, given the stage part's gradient.

    With ``kinks`` false the caller knows that no group at its kink has a
    nonzero multiplier, and stage I reads no residual rows; else it reads
    ``rows``, the objective's rows at ``z`` if given, as for ``*rows``.
    """
    block = problem.block
    target = grad[_part_indices(problem.arity, stage - 1)]
    if stage == 1 and kinks:
        target = target + _kink_subgradient(problem, z, rows)
    mult = -block.apply(z, block.pinv(z, target))
    return float(np.linalg.norm(target + block.pullback(z, mult))), mult


# ---------------------------------------------------------------------------
# Stage drivers

#: Tangent spaces with at most this many directions get a dense ``B = J N``,
#: and so both stages dense least-squares systems: for a hand-eye problem's
#: 3 or 6, setting up ``scipy.sparse`` objects costs more than the solve,
#: and dense solves stay faster up to pose graphs of about 40 vertices (3
#: directions per vertex).  Larger ones stay sparse: the solver asks the
#: objective's ``jacobian(sparse)`` for a CSR matrix there.
_DENSE_MAX = 128

#: Levenberg-Marquardt damping as a multiple of the largest diagonal entry
#: of the reduced normal matrix: the floor keeps a rank-deficient matrix
#: invertible, and beyond the cap no descent step is sought.
_DAMP_FLOOR = 1e-12
_DAMP_CAP = 1e4

#: Relative change of the standard value that is rounding, not progress:
#: residual rows carry absolute rounding errors near 1e-16, so a value summed
#: from magnitudes near 1e-4 is uncertain to about 1e-12 of itself.
_ROUNDING = 1e-12

#: A group's rows ``B_A`` count as spanning only the eigenvectors of
#: ``B_A^T B_A`` whose eigenvalue exceeds this fraction of the largest, a
#: relative cut of 1e-6 on the singular values.  The 4 rows of an AXYB kink
#: span 3 dimensions, the complement of ``p = a x = y b``; the fourth reads
#: rounding, and without the cut its multipliers run to 1e3 and more.
_RANK_CUT = 1e-12

#: A pinned group whose norm is at most this sits at its kink to rounding,
#: and a stage-I point converges only with every pinned group there:
#: unit-quaternion residual rows carry absolute errors near 1e-16, and the
#: spectral start of noiseless hand-eye data leaves them below 1e-14.  A
#: dual value at most this reads 0 to rounding in stage II: exact tree
#: starts of noiseless 200-vertex graphs sum to about 2e-14.
_KINK_ROUNDING = 1e-12

#: A released group leaves for at least this norm, twice the band
#: ``TOL_APPRECIABLE`` in which magnitudes read 0.
_RELEASE_MIN = 2.0 * TOL_APPRECIABLE

#: A stage-I point this close to one where another restart converged, in the
#: max-norm over the standard coordinates and up to the global sign, is
#: heading for the same minimum: its restart stops there (see :class:`SolverConfig`).
_MERGE_RADIUS = 1e-3


# Batched linear algebra.  Dense operands carry a leading axis of points,
# ``(R, k, d)`` matrices with ``(R, k)`` vectors; sparse ones are single
# ``(k, d)`` matrices, with vectors of shape ``(1, k)``.  Each dense point's
# result equals the one it gets alone bit for bit, because every call
# below runs the same BLAS or LAPACK routine on each point's slice, laid
# out in C order as a single point's is (BLAS sums strided operands in
# another order).  Sparse branches import SciPy where they run (see
# ``dqopt._sparse``), so a dense solve loads none of it.


def _is_sparse(a) -> bool:
    """True for a SciPy sparse matrix: every dense operand here is an ndarray."""
    return not isinstance(a, np.ndarray)


def _mv(a, x: np.ndarray) -> np.ndarray:
    """``A x`` per point."""
    if _is_sparse(a):
        return (a @ x[0])[None]
    return (a @ x[..., None])[..., 0]


def _tmv(a, x: np.ndarray) -> np.ndarray:
    """``A^T x`` per point."""
    if _is_sparse(a):
        return (a.T @ x[0])[None]
    return (a.swapaxes(-1, -2) @ x[..., None])[..., 0]


def _dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a . b`` per point, summed as ``a @ b`` of two vectors is."""
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def _scale_rows(b, v: np.ndarray):
    """``diag(v) @ b`` per point."""
    if not _is_sparse(b):
        return v[..., None] * b
    out = b.copy()
    out.data *= np.repeat(v.reshape(-1), np.diff(out.indptr))
    return out


def _normal(b, v: np.ndarray):
    """``B^T diag(v) B`` per point."""
    b_t = b.T if _is_sparse(b) else b.swapaxes(-1, -2)
    return b_t @ _scale_rows(b, v)


def _diagonal(h) -> np.ndarray:
    if _is_sparse(h):
        return h.diagonal()[None]
    return h.diagonal(axis1=-2, axis2=-1)


def _reduced_solve(h, rhs: np.ndarray, shift=0.0) -> np.ndarray:
    """``(h + diag(shift))^{-1} rhs`` per point; ``shift`` broadcasts against ``rhs``.

    An exactly singular system gives NaNs for its point on both paths, as
    ``spsolve`` does.
    """
    if _is_sparse(h):
        from ._sparse import sparse, spsolve

        shift = np.broadcast_to(shift, rhs.shape)
        if shift.any():
            h = h + sparse.diags(shift.reshape(-1))
        return spsolve(h.tocsc(), rhs.reshape(-1)).reshape(rhs.shape)
    m = h.copy()
    # the diagonal of each (d, d) matrix, as a strided view
    m.reshape(m.shape[:-2] + (-1,))[..., :: rhs.shape[-1] + 1] += shift
    try:
        return np.linalg.solve(m, rhs[..., None])[..., 0]
    except np.linalg.LinAlgError:
        if m.ndim == 2:
            return np.full_like(rhs, np.nan)
        return np.stack([_reduced_solve(m_k, rhs_k) for m_k, rhs_k in zip(m, rhs)])


def _dense(a):
    """A sparse matrix as a stack of one dense matrix; dense stacks as they are."""
    return a.toarray()[None] if _is_sparse(a) else a


def _pinned_range(b: np.ndarray, rows: np.ndarray):
    """``(B_A V, V, free, 1 / eigenvalue)`` per point for the pinned ``rows`` of ``b``.

    ``B_A`` is ``b`` with each row scaled by ``rows``, its weight's square
    root, 0 off the pinned rows.  ``V`` holds the eigenvectors of ``B_A^T
    B_A``; those whose eigenvalue is at most ``_RANK_CUT`` times the largest
    span its null space (``free``, inverse 0), the others its range.
    """
    b_a = b * rows[..., None]
    lam, v = np.linalg.eigh(b_a.swapaxes(-1, -2) @ b_a)
    free = lam <= _RANK_CUT * lam[..., -1:]
    return b_a @ v, v, free, 1.0 / np.where(free, np.inf, lam)


class _Kinks:
    """The points of a step with a magnitude group at its kink, and their active sets.

    ``pos`` indexes those points among all of the step's, those that stop
    in it included, for the step's whole course.  Per point, ``groups``
    flags the groups pinned at their kink (stage-I weight 0 in ``stage_system``),
    ``rows`` flags their rows, ``u`` holds their least-squares
    multipliers cut back to norm 1 per group, and ``release`` is ``u`` in
    the rows of the group with the largest multiplier norm ``|u_g| > 1``,
    if that group is to leave its kink, zero elsewhere.  ``sigma``
    is ``|g + B_A^T u|`` with each ``u_g`` cut back to norm 1: the reduced
    gradient when every ``|u_g| <= 1``.  ``counted`` sums the pinned
    groups' norms, and ``settled`` says that every ``|u_g| <= 1`` and every
    pinned norm is at most ``_KINK_ROUNDING``.  ``span`` is
    :func:`_pinned_range` of ``rows``.  (A plain class: a dataclass would
    add about 0.4 ms to every ``import dqopt``.)
    """

    def __init__(self, pos, groups, rows, u, release, sigma, counted, settled, span):
        self.pos, self.groups, self.rows, self.u, self.release = pos, groups, rows, u, release
        self.sigma, self.counted, self.settled, self.span = sigma, counted, settled, span


def _kinks(b, r: np.ndarray, w: np.ndarray, groups: tuple, grad: np.ndarray) -> _Kinks:
    """The :class:`_Kinks` of a step's points, some group of which is at its kink.

    A group is pinned where ``stage_system`` weighs it 0; ``groups`` is
    its ``(starts, row_group)``, each group's first row and each row's
    group.  The multipliers are the minimum-norm least-squares ``u = -B_A
    (B_A^T B_A)^+ g`` on the range kept by ``_RANK_CUT``, with ``g`` the
    gradient of the other groups: 0 when ``g`` is, as when every group is
    pinned.
    """
    starts, group = groups
    pinned = w[..., starts] == 0
    pos = pinned.any(axis=-1).nonzero()[0]
    pinned = pinned[pos]
    rows = pinned[:, group]
    r_a = np.where(rows, r[pos], 0.0)
    norms = np.sqrt(np.add.reduceat(r_a * r_a, starts, axis=-1))
    span = b_v, v, free, inv = _pinned_range(_dense(b)[pos], rows)
    # g in the eigenbasis, where the null space's part is the reduced gradient
    g_v = _tmv(v, grad[pos])
    u = -_mv(b_v, inv * g_v)
    u_norm = np.sqrt(np.add.reduceat(u * u, starts, axis=-1))
    cut = u / np.maximum(u_norm, 1.0)[:, group]
    reduced, excess = g_v * free, _tmv(b_v, u - cut)  # the excess lies in the range
    rr, ee = _dots(reduced, reduced), _dots(excess, excess)
    top = u_norm.max(axis=-1)
    # Release once the excess is a third of the reduced gradient: releasing
    # far from the face's own minimum lets a group leave and come back.
    out = (top > 1.0) & (9.0 * ee >= rr)
    release = np.where((u_norm[:, group] == top[:, None]) & out[:, None], cut, 0.0)
    return _Kinks(pos, pinned, rows, cut, release, np.sqrt(rr + ee), norms.sum(axis=-1),
                  (top <= 1.0) & (norms.max(axis=-1) <= _KINK_ROUNDING), span)


def _pinned_solve(m, grad, span, t):
    """``y`` minimizing ``y^T m y / 2 + grad^T y`` subject to ``B_A y = t``, per point.

    ``span`` is :func:`_pinned_range` of the pinned rows, whose weights
    scale ``t`` as they scale ``B_A``; ``grad`` may be ``None``, for 0.  In
    the eigenbasis ``V``, ``y`` is the least-squares solution of the rows
    on their range plus the step on their null space that minimizes the
    model there.
    """
    b_v, v, free, inv = span
    x = inv * _tmv(b_v, t)
    if not free.any():
        return _mv(v, x)  # the rows fix every y; below, such a point would get 0 added
    m = v.swapaxes(-1, -2) @ m @ v
    lin = _mv(m, x) if grad is None else _mv(m, x) + _tmv(v, grad)
    # the model on the null space, the identity on the range, where x is set
    k = m * (free[..., :, None] & free[..., None, :])
    k.reshape(k.shape[:-2] + (-1,))[..., :: free.shape[-1] + 1] += ~free
    lin *= free
    try:
        x -= np.linalg.solve(k, lin[..., None])[..., 0]
    except np.linalg.LinAlgError:
        # point by point, as each solves alone
        x -= np.stack([_solve_or_pinv(k_p, lin_p) for k_p, lin_p in zip(k, lin)])
    return _mv(v, x)


def _active_solve(model, shift, grad, r, rows, span, release):
    """The step of ``model + diag(shift)`` with the pinned ``rows`` at their kink, per point.

    :func:`_pinned_solve` holds the rows' linearization ``r_A + B_A y`` at
    0, in least squares weighted by the square of ``rows`` (0 off the pinned
    rows) where it cannot hold.  A group along a nonzero ``release`` (in
    rows of weight 1) leaves in that direction instead, for the norm
    ``eps`` that minimizes the model plus ``eps`` (its magnitude), and at
    least ``_RELEASE_MIN``, out of the band where it reads 0.
    """
    m = model.copy()
    m.reshape(m.shape[:-2] + (-1,))[..., :: grad.shape[-1] + 1] += shift
    y = _pinned_solve(m, grad, span, -r * rows)
    out = None if release is None else release.any(axis=-1)
    if out is not None and out.any():
        m, y0 = m[out], y[out]
        y1 = _pinned_solve(m, None, tuple(a[out] for a in span), release[out])
        m_y1 = _mv(m, y1)
        slope, curv = _dots(grad[out], y1) + _dots(y0, m_y1) + 1.0, _dots(y1, m_y1)
        eps = np.where(curv > 0, -slope / np.where(curv > 0, curv, 1.0), _RELEASE_MIN)
        eps = np.where(slope < 0, np.maximum(eps, _RELEASE_MIN), 0.0)
        y[out] = y0 + eps[:, None] * y1
    return y


def _solve_or_pinv(k: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """``k^{-1} rhs``, or ``k^+ rhs`` for a singular ``k``."""
    try:
        return np.linalg.solve(k, rhs)
    except np.linalg.LinAlgError:
        return np.linalg.pinv(k) @ rhs


def _newton_step(b, r, w, groups, grad, h, shift, kinks=None):
    """Stage-I Newton step per point: ``(h + diag(shift)) y = -grad``, ``h = b^T W b``.

    ``grad = b^T W r``.  For a sum of magnitudes (``groups``, the
    ``(starts, row_group)`` of ``stage_system``, given), each smooth
    group's radial part ``c_g^T c_g``, ``c_g = r_g^T b_g / |r_g|^(3/2)``,
    leaves ``h``: ``|r_g|`` is flat along ``r_g``.  A group at its kink or
    at 0 has ``c_g = 0``.  Groups at their kink (``kinks``, weight 0 so out
    of ``h``) and groups the step would carry through zero (``|r_g|^(1/2)
    + c_g y < 0``) are pinned: :func:`_active_solve` holds their rows'
    linearization at 0, in least squares weighted as the band edge weighs
    a kink and as the majorizer weighs the others, and releases the group
    ``kinks`` names.  Points re-solve until none pins a new group; the
    others keep their ``y``.
    """
    if groups is None:
        return _reduced_solve(h, -grad, shift)
    starts, group = groups
    norms = np.sqrt(np.add.reduceat(r * r, starts, axis=-1))
    newton = norms > 0
    if kinks is not None:
        newton[kinks.pos] &= ~kinks.groups
    inv = np.where(newton, 1.0 / np.where(newton, norms, 1.0), 0.0)
    scaled = _scale_rows(b, r * inv[..., group] ** 1.5)
    if _is_sparse(scaled):
        from ._sparse import sparse

        sums = (np.ones(group.size), np.arange(group.size), np.append(starts, group.size))
        c = sparse.csr_matrix(sums, (starts.size, group.size)) @ scaled
        model = h - c.T @ c
    else:
        c = np.add.reduceat(scaled, starts, axis=-2)
        model = h - c.swapaxes(-1, -2) @ c
    y = _reduced_solve(model, -grad, shift)
    pinned = np.zeros(norms.shape, dtype=bool)
    pts, rows, span, release = np.zeros(0, dtype=np.intp), None, None, None
    if kinks is not None:
        pinned[kinks.pos], pts, rows, span = kinks.groups, kinks.pos, kinks.rows, kinks.span
        release = np.zeros(r.shape)
        release[pts] = kinks.release
    root, weight = np.sqrt(norms), None
    while True:
        if pts.size:
            y[pts] = _active_solve(_dense(model)[pts], shift[pts], grad[pts], r[pts], rows, span,
                                   None if release is None else release[pts])
        through = newton & ~pinned & (root + _mv(c, y) < 0)
        pts = through.any(axis=-1).nonzero()[0]
        if not pts.size:
            return y
        pinned |= through
        if weight is None:
            # square roots of the weights, relative to a kink's (1 / TOL_APPRECIABLE)
            weight = np.sqrt(w * TOL_APPRECIABLE) + (w == 0)
        rows = weight[pts] * pinned[pts][:, group]
        span = _pinned_range(_dense(b)[pts], rows)


def _near(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``(len(a), len(b))`` flags: standard coordinates within ``_MERGE_RADIUS``, up to sign.

    ``a`` and ``b`` are stacks of standard coordinates; the distance is the
    max-norm of ``a_i - b_j`` or of ``a_i + b_j``, whichever is smaller.
    """
    apart = np.abs(a[:, None] - b[None]).max(axis=-1)
    flipped = np.abs(a[:, None] + b[None]).max(axis=-1)
    return np.minimum(apart, flipped) <= _MERGE_RADIUS


def _stage1(problem: EqdqoProblem, cfg: SolverConfig, starts: np.ndarray, valued=None) -> list:
    """Stage I from every row of ``starts``, in lockstep: minimize the standard part.

    Each point of ``starts`` lies on the standard rows, as ``block.project``
    puts it, and steps in their tangent space ``N`` (3 orthonormal
    directions per sphere variable, 4 per free one).  With the objective's
    residual rows ``r``, Jacobian ``J``, row weights ``W`` and ``B = J N``,
    ``g = B^T W r`` is the tangent gradient.  A step first tries the Newton
    model (:func:`_newton_step`, with each unit row's curvature), then
    Levenberg-Marquardt steps on ``B^T W B`` until the exact standard value
    falls; ``y`` moves to ``x + N y`` put back on the rows, so every iterate
    is feasible.  A point stops when ``|g| <= tol_grad``, when no step
    lowers the value (or, with the value flat to rounding, ``|g|`` stops
    falling), or after ``max_outer`` steps, where the next pass stops it
    ``"max_outer"`` instead of stepping: every trace ends with a row at the
    point returned.

    A sum of magnitudes is not smooth where a group's residual is 0, and
    many optima sit at such a kink.  So each point has an active set: the
    groups in the ``TOL_APPRECIABLE`` band, which ``stage_system`` weighs
    0 (:func:`_kinks`, formed once per step).  Both the Newton and the
    Levenberg-Marquardt steps hold their linearized rows ``r_A + B_A y`` at
    0 (:func:`_active_solve`), and ``g`` leaves out their zero subgradient.  Their least-squares
    multipliers ``u_g`` (``g + B_A^T u`` as small as it gets) stand in
    for the subgradients: at such a point ``|g|`` above reads ``|g + B_A^T
    u|`` with each ``u_g`` cut back to norm 1, the distance to the
    subdifferential, and the point stops only if also every ``|u_g| <= 1``
    and every pinned norm is at most ``_KINK_ROUNDING``, so that noiseless
    data end at the truth to rounding, not at the band's edge.  A group with
    ``|u_g| > 1`` is released, out of the band in that step.  Values then
    compare with the pinned norms counted, since holding a group at its
    kink may cost the others what a norm in the band reads as 0.  A point
    without such a group steps exactly as it would without active sets.

    All points still running take each step together: one stack of tangent
    frames, one residual system and one batched solve per step.  Each keeps
    its own value, damping, previous gradient norm, flat flag and trace, so
    its iterates are those it takes alone.  Points that stop in a step,
    merged ones included (see :class:`SolverConfig`), stay in its stack,
    where their Newton step is solved but unused: ``running``, the mask of
    the others, picks the points that try a move, search and stall, and
    the next step leaves them out.  Stop reasons live in one string array,
    ``""`` while a point runs, written (and the same-step merge checked)
    only in a step where some point stops.  Points on a sparse fiber step
    one at a time, as a stack of one with a CSR Jacobian.
    Returns one :class:`_StageOutcome` per start.  The objective is the
    problem's ``stage1``, and ``valued``, if given, its :func:`_valued` at
    ``starts``.  Stage I never reads the dual coordinates: they stay those
    of the start.
    """
    obj, block = problem.stage1, problem.block
    std = _part_indices(problem.arity, 0)
    count = len(starts)
    z = starts.copy()
    (v_std, v_dual), rows = valued or _valued(obj, z)
    damp = np.full(count, _DAMP_FLOOR)
    grad_norm = np.full(count, math.inf)  # of the last step taken
    flat = np.zeros(count, dtype=bool)
    kinked = np.zeros(count, dtype=bool)  # at the last row's point
    stop = np.full(count, "", dtype="U9")  # "" while running
    traces = [[] for _ in range(count)]  # one row per step
    var = block.var
    alone = var.size > _DENSE_MAX  # points on a sparse fiber step one at a time

    def advance(it, idx):
        z_a = z[idx]
        jac, r, _, w, groups = obj.stage_system(z_a, *(rows if it == 0 and len(idx) == count else ()))
        kinked[idx] = False
        # Rows that all weigh 0 (a NaN weight is none) hold every group at its
        # kink: with every norm 0 to rounding, g and the multipliers are 0, and
        # each point stops "converged" with no J or B formed.
        if not w.any() and (groups is None or np.sqrt(
                np.add.reduceat(r * r, groups[0], axis=-1)).max() <= _KINK_ROUNDING):
            g_norm, small = np.zeros(len(idx)), np.ones(len(idx), dtype=bool)
        else:
            jac, frames = jac(alone), block.tangent(z_a)
            b = _fiber_product(jac, frames, block)
            wr = w * r
            grad = _tmv(b, wr)
            g_norm = np.sqrt(_dots(grad, grad))
            # a group at its kink weighs 0
            kinks = None if groups is None or w.all() else _kinks(b, r, w, groups, grad)
            small = g_norm <= cfg.tol_grad
            if kinks is not None:
                kinked[idx[kinks.pos]] = kinks.u.any(axis=-1)
                # the distance to the subdifferential stands in for |g|
                g_norm[kinks.pos] = kinks.sigma
                small[kinks.pos] = (kinks.sigma <= cfg.tol_grad) & kinks.settled
        feas = np.maximum.reduce(abs(block.values(z_a)[0]), axis=-1, initial=0.0)
        table = np.empty((len(idx), 4))
        table[:, 0], table[:, 1], table[:, 2], table[:, 3] = v_std[idx], v_dual[idx], feas, g_norm
        for k, row in zip(idx.tolist(), table.tolist()):
            traces[k].append(TraceRow(it, 1, *row))
        # Once the value is flat to rounding, only a falling gradient shows progress.
        stalled = flat[idx] & (g_norm >= grad_norm[idx])
        # after max_outer steps, the points still running stop where they are
        done = small | stalled | (it == cfg.max_outer)
        grad_norm[idx] = g_norm
        if done.any():
            reasons = np.where(small, "converged", np.where(stalled, "stalled", "max_outer"))
            # running points near a minimum reached in this step merge before they step
            if not done.all() and (into := small & (v_std[idx] > 0)).any():
                near = ~done & _near(z_a[:, std], z_a[into][:, std]).any(axis=1)
                reasons[near], done = "merged", done | near
            stop[idx[done]] = reasons[done]
            if done.all():
                return
        running = ~done
        h = _normal(b, w)
        scale = np.maximum.reduce(_diagonal(h), axis=-1, initial=0.0)
        scale[scale == 0] = 1.0
        # Values compare with the pinned groups counted: holding them at their
        # kink may cost the others what their norms in the band read as 0.
        ref = low = v_std[idx]
        if kinks is not None:
            ref = ref.copy()
            ref[kinks.pos] += kinks.counted
            # and they progress by a fall beyond rounding, not by a pinned norm's noise
            low = ref.copy()
            low[kinks.pos] -= _ROUNDING * np.abs(ref[kinks.pos])
        rounding = ref + _ROUNDING * np.abs(ref)
        curv = block.curvature(z_a, _tmv(jac, wr))
        shift = _DAMP_FLOOR * scale[:, None] - curv[:, var]
        y = _newton_step(b, r, w, groups, grad, h, shift, kinks)
        stepped = np.zeros(len(idx), dtype=bool)

        # ``pos`` below indexes the points of this step that try a move.
        def trial(pos, y):
            moved = z_a[pos]
            moved[:, std] += _tangent_step(block, frames[pos], y)
            moved = block.project(moved)
            return moved, obj.value_at(moved)

        def accept(pos, moved, moved_v, ok):
            points = idx[pos][ok]
            flat[points] = ~(moved_v[0][ok] < low[pos][ok])
            z[points], v_std[points], v_dual[points] = moved[ok], moved_v[0][ok], moved_v[1][ok]
            stepped[pos[ok]] = True

        tries = _dots(grad, y) < 0
        if kinks is not None:
            # a step back to a kink may climb the smooth groups' slope
            tries[kinks.pos] = True
        pos = (tries & running).nonzero()[0]
        if pos.size:
            moved, moved_v = trial(pos, y[pos])
            accept(pos, moved, moved_v, moved_v[0] <= rounding[pos])
        # Levenberg-Marquardt steps for the points the Newton step did not move.
        pos = (running & ~stepped & (damp[idx] <= _DAMP_CAP)).nonzero()[0]
        while pos.size:
            points = idx[pos]
            lm_shift = (damp[points] * scale[pos])[:, None]
            y = _reduced_solve(h[pos] if h.ndim == 3 else h, -grad[pos], lm_shift)
            if kinks is not None:
                at, of = np.intersect1d(pos, kinks.pos, return_indices=True)[1:]
                if at.size:
                    y[at] = _active_solve(_dense(h)[pos[at]], lm_shift[at], grad[pos[at]],
                                          r[pos[at]], kinks.rows[of],
                                          tuple(a[of] for a in kinks.span), kinks.release[of])
            moved, moved_v = trial(pos, y)
            lower = moved_v[0] < ref[pos]
            accept(pos, moved, moved_v, lower)
            # a trial within rounding of the value ends the search without a step
            higher = ~lower & ~(moved_v[0] <= rounding[pos])
            damp[points[lower]] = np.maximum(damp[points[lower]] / 10.0, _DAMP_FLOOR)
            damp[points[higher]] *= 10.0
            pos = pos[higher & (damp[points] <= _DAMP_CAP)]
        stop[idx[running & ~stepped]] = "stalled"

    for it in range(cfg.max_outer + 1):
        live = (stop == "").nonzero()[0]
        into = (stop == "converged") & (v_std > 0)
        if live.size and into.any():
            merged = _near(z[live][:, std], z[into][:, std]).any(axis=1)
            stop[live[merged]] = "merged"
            live = live[~merged]
        if not live.size:
            break
        for group in np.split(live, live.size) if alone else [live]:
            advance(it, group)
    return [_StageOutcome(z[k], traces[k], stop=reason, value=float(v_std[k]),
                          kinked=bool(kinked[k])) for k, reason in enumerate(stop.tolist())]


def _stage2(problem: EqdqoProblem, cfg: SolverConfig, z1: np.ndarray,
            last: TraceRow) -> _StageOutcome:
    """Stage II at the standard coordinates of ``z1``: one exact fit on the dual fiber.

    A magnitude is never negative, so a ``z1`` whose objective reads
    standard value exactly 0 and dual value 0 to rounding (at most
    ``_KINK_ROUNDING``), with every row held to ``tol_feas``, minimizes
    both parts to rounding: it comes back unchanged, with one trace row
    whose ``kkt_residual`` is 0, the distance to the subdifferential with
    every group at its kink.  No fiber is formed.  ``last``, stage I's last
    trace row (at ``z1``), spares that objective evaluation when it reads a
    positive value or a dual value above ``_KINK_ROUNDING``.  The outcome
    passes on its point's evaluation (:func:`_valued`) to :func:`_report`.

    With the standard coordinates held at the stage-I point, the dual
    constraint rows ``G x_d = -h_d(0)`` are affine, and so is every
    residual's dual part, with slope ``A`` the standard Jacobian of the
    residuals.  The feasible dual coordinates form the *dual fiber* ``x_p +
    N y`` of :func:`_fiber_point` (minimum-norm solution plus null basis,
    per variable), where the rows are ``r = r_p + B y`` with ``B = A N``.
    Stage II minimizes ``sum_g w_g |r_g|^2`` over ``y``: each pass solves
    the normal equations ``B^T W B y = -B^T W r_p``, dense or sparse as the
    fiber is.  The kink groups of a sum of magnitudes, infinitesimal at the
    stage-I point, are reweighted by ``1 / |r_g|`` (:func:`_stage2_weights`)
    until the fit settles, which minimizes the paper's stage-II objective
    ``sum_g |r_g|`` on them (robust to a few gross outliers).  Every other
    row weighs 1: at a stage-I KKT point its part of the objective's dual
    value is constant on the fiber, as is all of a smooth objective's, so
    the paper leaves the dual coordinates undetermined there, and the
    least-squares fit is a tie-break that goes beyond the paper (the
    translation step of Daniilidis, 1999).

    The passes stop when the weights stop changing or ``y`` stops moving,
    at most ``max_outer`` times: an objective without kink groups takes
    one.  A singular system gives a non-finite ``y``, which ends the
    passes.  One trace row per solve, or one for a kept ``z1``.  The
    outcome carries the value and feasibility of the last row, which are
    those of its point.

    The rows are those of ``objective``, whatever ``stage1`` is, and its
    ``stage_system`` gives their slope ``A`` at ``z1``.  ``B = A N`` is
    formed here by :func:`_fiber_product`, with ``N`` the tangent frames of
    :meth:`~dqopt.functions.ConstraintBlock.tangent` at ``z1``, dense or
    sparse as stage I's; for hand-eye's constant ``A`` it is stage I's last
    ``B`` bit for bit.
    """
    if last.objective_std == 0 and last.objective_dual <= _KINK_ROUNDING:
        v, rows = _valued(problem.objective, z1)
        if v.std == 0 and v.dual <= _KINK_ROUNDING:
            feas = _feasibility(problem, z1)
            if all(f <= cfg.tol_feas for f in feas):
                return _StageOutcome(z1, [TraceRow(0, 2, v.std, v.dual, max(feas), 0.0)],
                                     value=v, feasibility=feas, rows=rows)
    dual, block = _part_indices(problem.arity, 1), problem.block
    z = _fiber_point(problem, z1)
    x_p = z[dual]
    jac, _, r_p, w1, groups = problem.objective.stage_system(z)
    frames = block.tangent(z1)
    # Fiber directions that no row sees stay at x_p.
    b = _fiber_product(jac(block.var.size > _DENSE_MAX), frames, block)
    seen = np.asarray(abs(b).sum(axis=0)).ravel() > 0
    b = b[:, seen]
    b_t = b.T
    step = np.zeros(seen.size)  # y over every direction, 0 on the unseen ones
    w = _stage2_weights(w1, r_p, groups)
    y = np.zeros(b.shape[1])
    trace = []
    for it in range(cfg.max_outer):
        y_new = _reduced_solve(b_t @ _scale_rows(b, w), -(b_t @ (w * r_p)))
        step[seen] = y_new
        z[dual] = x_p + _tangent_step(block, frames, step)
        r = r_p + b @ y_new
        stationarity = float(np.linalg.norm(b_t @ (w * r)))
        v, rows = _valued(problem.objective, z)
        feas = _feasibility(problem, z)
        trace.append(TraceRow(it, 2, v.std, v.dual, max(feas), stationarity))
        if not np.all(np.isfinite(y_new)):
            break
        w_new = _stage2_weights(w1, r, groups)
        if np.array_equal(w_new, w) or np.max(np.abs(y_new - y), initial=0.0) <= cfg.tol_feas:
            break
        y, w = y_new, w_new
    return _StageOutcome(z, trace, value=v, feasibility=feas, rows=rows)


def _stage2_weights(w1: np.ndarray, r: np.ndarray, groups) -> np.ndarray:
    """Stage II's row weights at the dual rows ``r``, from the stage-I weights ``w1`` of one point.

    Of several groups, one that stage I weighs 0, at its kink, weighs ``1 /
    max(|r_g|, TOL_APPRECIABLE)``, so re-solving (IRLS) minimizes its
    magnitude; any other, NaN included, weighs 1, as does a lone group
    (``groups`` ``None``), whose reweighting would scale every row alike.
    """
    if groups is None:
        return np.ones(r.size)
    starts, group = groups
    norms = np.sqrt(np.add.reduceat(r * r, starts))
    return np.where(w1[starts] == 0, 1.0 / np.maximum(norms, TOL_APPRECIABLE), 1.0)[group]


def _start_z(start, arity: int, name: str) -> np.ndarray:
    """Flat coordinates of a start: ``arity`` dual quaternions or an ``(arity, 8)`` array of rows.

    Raises :class:`ArityMismatch`, naming the start ``name``, for another
    count or shape, and ``ValueError``, naming it and the variable, for a
    NaN or infinite entry.
    """
    if not isinstance(start, np.ndarray):
        vals = start if isinstance(start, DualQuaternionVector) else list(start)
        if len(vals) != arity:
            raise ArityMismatch(f"{name} has {len(vals)} variables, expected {arity}")
        start = pack(vals).reshape(arity, 8)
    if start.shape != (arity, 8):
        raise ArityMismatch(f"{name} has shape {start.shape}, expected ({arity}, 8)")
    rows = start.astype(np.float64)
    bad = np.flatnonzero(~np.isfinite(rows).all(axis=1))
    if bad.size:
        raise ValueError(f"{name} variable {bad[0]} has a non-finite entry")
    return rows.reshape(-1)


def _restart_start(
    problem: EqdqoProblem,
    cfg: SolverConfig,
    initial,
    r: int,
) -> np.ndarray:
    """Restart ``r``'s point: for ``r == 0`` ``initial``, else ``problem.start``, else a draw."""
    if r == 0 and initial is not None:
        return _start_z(initial, problem.arity, "initial guess")
    if r == 0 and problem.start is not None:
        return problem.start.reshape(-1)
    return _drawn_start(problem.arity, cfg.seed, r)


@functools.lru_cache(maxsize=256)
def _drawn_start(arity: int, seed: int, r: int) -> np.ndarray:
    """:func:`_random_start` from the stream of ``(seed, r)``, read-only.

    The draw depends on nothing else, so each solve with the same seed
    reuses it instead of seeding a generator per restart.
    """
    z = _random_start(arity, np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, r]))))
    z.flags.writeable = False
    return z


def _stage1_restarts(problem: EqdqoProblem, cfg: SolverConfig, initial) -> list:
    """Stage I for every restart: the outcomes on the standard rows, least stage-I value first.

    Items are ``(value, restart, outcome)``, with the values in
    :func:`solve_eqdqo`'s rounding band first, in restart order.  Restart
    0's start is put on the standard rows first, and runs alone at value 0
    (see :func:`solve_eqdqo`); otherwise every restart runs in one
    :func:`_stage1` call, and merged restarts are left out.  A restart's
    feasibility is its last trace row's, at the point it returns.  Raises
    ``ValueError`` when restart 0's start has a zero standard part on a
    unit row, and :class:`Infeasible`, naming the restarts that ran, when
    none satisfies the standard rows to ``tol_feas``.
    """
    with np.errstate(invalid="ignore", divide="ignore"):  # a zero norm is reported below
        projected = problem.block.project(_restart_start(problem, cfg, initial, 0)[None])
    lost = np.flatnonzero(~np.isfinite(projected.reshape(-1, 8)).all(axis=1))
    if lost.size:
        name = "initial guess" if initial is not None else "start"
        raise ValueError(f"{name} variable {lost[0]} has a zero standard part on a unit row")
    # The standard value is never negative, so a start at value 0 is a global
    # stage-I minimum: the random restarts could only tie with it.
    valued = _valued(problem.stage1, projected)  # ((std, dual), rows)
    if cfg.restarts > 1 and valued[0][0][0] != 0:
        drawn = np.stack([_restart_start(problem, cfg, initial, r) for r in range(1, cfg.restarts)])
        projected, valued = np.concatenate([projected, problem.block.project(drawn)]), None
    outcomes = _stage1(problem, cfg, projected, valued)
    h = [o.trace[-1].feasibility for o in outcomes]
    scored = [(o.value, r, o) for r, o in enumerate(outcomes)
              if h[r] <= cfg.tol_feas and o.stop != "merged"]
    if not scored:
        raise Infeasible(
            f"no feasible candidate across restarts {list(range(len(outcomes)))} "
            f"(best feasibility {min(h):.3e} > tol {cfg.tol_feas:.3e})"
        )
    least = min(item[0] for item in scored) * (1.0 + _ROUNDING)
    return sorted(scored, key=lambda item: (max(item[0], least), item[1]))


def _report(
    problem: EqdqoProblem,
    cfg: SolverConfig,
    t0: float,
    restart_index: int,
    stage1,
    stage2: _StageOutcome,
) -> SolveReport:
    """Report at stage II's final point, with both stages' KKT analyses there.

    ``stage1`` supplies the stage-I trace, one row per iteration; ``t0`` is
    when the solve started.  Stage II moved only the dual coordinates, so
    both analyses share one objective gradient, from the rows stage II
    evaluated there, and one rank of the block, which tells ``degenerate``.
    """
    wall_ms = (time.perf_counter() - t0) * 1e3
    z2 = stage2.z
    grad_std, grad_dual = problem.objective.gradient_at(z2, *stage2.rows)
    kkt1 = _kkt(problem, z2, 1, grad_std, stage1.kinked, stage2.rows)
    kkt2 = _kkt(problem, z2, 2, grad_dual)
    return SolveReport(
        stage1_value=stage2.value.std,
        stage2_value=stage2.value.dual,
        solution=DualQuaternionVector.from_rows(z2),
        multipliers={"lambda": kkt1[1].tolist(), "mu": kkt2[1].tolist()},
        kkt_residual={"stage1": kkt1[0], "stage2": kkt2[0]},
        feasibility=dict(zip(("h", "h_d"), stage2.feasibility)),
        iterations={"stage1": len(stage1.trace), "stage2": len(stage2.trace)},
        restart_index=restart_index,
        wall_time_ms=wall_ms,
        config=cfg,
        trace=tuple(stage1.trace) + tuple(stage2.trace),
        degenerate=problem.block.rank(z2) < problem.block.size,
    )


def solve_eqdqo(
    problem: EqdqoProblem,
    cfg: SolverConfig | None = None,
    initial: Sequence[DualQuaternion] | np.ndarray | None = None,
) -> SolveReport:
    """Full two-stage solve with restarts.

    Every restart runs stage I.  Stage II can only break ties in the
    standard value, so it runs for the restarts on the standard rows in the
    *rounding band*, whose stage-I value is within ``_ROUNDING`` (1e-12) of
    the least, relative to it: in restart order, each with those at its
    value exactly, until one of these groups gives a candidate, so a
    restart that ends a rounding below an earlier one at the same minimum
    does not win.  A restart is a candidate when its final point satisfies
    all constraint rows to ``tol_feas``; a merged one (see
    :class:`SolverConfig`) is none.  Stage II forms its own ``B = J N`` at
    the candidate's point, where its stage-I trace ends, capped or not, unless
    the objective reads 0 there, its dual part to rounding, and every row
    holds: then it keeps the point, and its last stage-I row spares that
    check's evaluation when it shows a value above rounding.
    ``iterations["stage1"]`` counts the trace rows.  The report carries the
    dn-order minimal candidate, ties broken by restart index.  Restart 0
    starts from ``initial`` when given, one dual quaternion per variable or
    an ``(arity, 8)`` array of rows (standard, dual part); another count or
    shape raises :class:`ArityMismatch`.  Without ``initial`` it starts from
    ``problem.start``, and only without either from a random point.  When
    that start is at stage-I value 0, a global minimum since the value is
    never negative, restart 0 runs alone, no other start is drawn, and the
    report is the one of ``restarts=1``.  A sum of magnitudes reads value 0
    wherever every magnitude is within its tolerance (``TOL_APPRECIABLE``,
    1e-8, for the hand-eye and pose-graph objectives), so an ``initial``
    at value 0 comes back about as precise as it was given: no random
    restart competes with it in stage II.  Raises ``ValueError``, naming
    the start and the variable, for a start with a NaN or infinite entry
    or a zero standard part on a unit row, and :class:`Infeasible`, naming
    the restarts stage I or else stage II ran for, when none gives a candidate.
    """
    cfg = cfg or SolverConfig()
    t0 = time.perf_counter()
    scored = _stage1_restarts(problem, cfg, initial)
    least = min(item[0] for item in scored) * (1.0 + _ROUNDING)  # as _stage1_restarts ties them
    candidates, tied = [], []
    # the values in the band, in restart order; each with its exact ties
    for exact in dict.fromkeys(value for value, _, _ in scored if value <= least):
        for _, r, outcome in (item for item in scored if item[0] == exact):
            tied.append(r)
            stage2 = _stage2(problem, cfg, outcome.z, outcome.trace[-1])
            # both violations within tol_feas; a NaN one is not
            if all(v <= cfg.tol_feas for v in stage2.feasibility):
                candidates.append((stage2.value, r, outcome, stage2))
        if candidates:
            break
    if not candidates:
        raise Infeasible(
            f"no feasible candidate across restarts {tied} "
            f"(stage II left h_d above tol {cfg.tol_feas:.3e})"
        )
    # min keeps the first of equal pairs, so ties go to the lower restart
    _, r, outcome, stage2 = min(candidates, key=lambda c: c[0])
    return _report(problem, cfg, t0, r, outcome, stage2)
