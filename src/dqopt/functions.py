"""Dual-number-valued functions of dual quaternion vectors.

A function here maps a vector of ``n`` dual quaternions to a dual number
``f_std + f_dual * eps``.  For optimization, points are flattened to
``z`` in ``R^{8n}``: variable ``i`` occupies ``z[8i:8i+4]`` (standard
part, wxyz order) and ``z[8i+4:8i+8]`` (dual part).

A function is *standard* when its standard-part value never depends on
the dual coordinates.  Objectives and constraints built from residual
magnitudes, unit-norm conditions, and anchors are all standard; the
two-stage solver relies on that structure.  Its constraints are data:
the unit-norm variables and the anchors' targets, whose rows
:class:`ConstraintBlock` evaluates together.  Likewise a
:class:`ResidualNormObjective` takes one array evaluator of all its
residual rows, :func:`affine_rows` (hand-eye, pose-graph stage I) or
:meth:`dqopt.posegraph.RelativePoseResidual.stack_arrays`, which returns the
rows in one call together with their *pullback* ``(w_std, w_dual) -> J_s^T
w_std + J_d^T w_dual``, the product of the transposed residual Jacobians
with row weights, and a ``jacobian(sparse)`` that gives the standard-slot
Jacobian on demand, in the layout the solver asks for.  Value and gradient
calls read derivatives only through the pullback, so they build no
Jacobian matrix; only the solver asks for one, through the objective's
*stage hook* ``stage_system``.  The value and stage-hook calls the solver
makes also take a stack ``(R, 8n)`` of points, one per restart.

Gradients come in pairs ``(grad_std, grad_dual)``, the coordinate
gradients of the two scalar parts over all ``8n`` coordinates.  Piecewise
functions (norms at zero) return the zero subgradient at their kinks,
which is a valid subgradient selection and keeps stationarity residuals
meaningful at nonsmooth minimizers.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import Callable, Mapping, Sequence

import numpy as np

from .algebra import (
    NORMALIZE_TOL,
    TOL_APPRECIABLE,
    _LEFT_SIGNS,
    _MULT_INDEX,
    DualNumber,
    DualQuaternion,
    DualQuaternionVector,
    UnitDualQuaternion,
    dual_max,
    dual_min,
)
from .errors import ArityMismatch, NonUnitValue

__all__ = [
    "pack",
    "unpack",
    "DualFunction",
    "combine",
    "scalar_power",
    "DualQuaternionMap",
    "variable_map",
    "normalize_map",
    "map_power",
    "compose_unit",
    "unit_log",
    "unit_exp",
    "affine_rows",
    "ResidualNormObjective",
    "UnitNormConstraint",
    "anchor_constraints",
    "ConstraintBlock",
    "squared_distance_objective",
    "StandardnessReport",
    "check_standardness",
    "GradientReport",
    "fd_gradient",
    "gradient_check",
]


def pack(values: Sequence[DualQuaternion]) -> np.ndarray:
    """Flatten dual quaternions into the solver coordinate vector: a copy of their vector's rows."""
    vector = values if isinstance(values, DualQuaternionVector) else DualQuaternionVector(values)
    return vector.rows.reshape(-1).copy()


def unpack(z: np.ndarray, arity: int) -> tuple[DualQuaternion, ...]:
    """Inverse of :func:`pack`: the entries of :meth:`DualQuaternionVector.from_rows`."""
    z = np.asarray(z, dtype=np.float64)
    if z.shape != (8 * arity,):
        raise ValueError(f"expected shape ({8 * arity},), got {z.shape}")
    return DualQuaternionVector.from_rows(z).entries


def _kept_sums(x: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """``np.sum(x[k][keep[k]])`` for every row ``k`` of the 2-D ``x``, bit for bit.

    Zeros in place of the dropped entries would shift the blocks of NumPy's
    pairwise summation, so rows that keep some but not all entries are
    summed one at a time.
    """
    out = np.sum(np.where(keep, x, 0.0), axis=-1)
    for k in (keep.any(axis=-1) & ~keep.all(axis=-1)).nonzero()[0]:
        out[k] = np.sum(x[k][keep[k]])
    return out


class _OfVariables:
    """The base of :class:`DualFunction` and :class:`DualQuaternionMap`: ``arity``,
    a positive integer, and a call that takes one value per variable."""

    def __init__(self, arity: int, declared_standard: bool = False):
        self.arity = _count("arity", arity)
        if self.arity < 1:
            raise ValueError("arity must be positive")
        self.declared_standard = bool(declared_standard)

    def value(self, values: tuple[DualQuaternion, ...]):
        raise NotImplementedError

    def __call__(self, *values: DualQuaternion):
        if len(values) != self.arity:
            raise ArityMismatch(f"expected {self.arity} arguments, got {len(values)}")
        return self.value(tuple(values))


class DualFunction(_OfVariables):
    """Base class for dual-number-valued functions.

    Subclasses implement :meth:`value` and usually :meth:`gradient_at`.
    An objective the solver minimizes also provides the stage hook
    ``stage_system``, its residual rows, as
    :meth:`ResidualNormObjective.stage_system` describes them.
    """

    def gradient_at(self, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Exact coordinate gradients ``(grad_std, grad_dual)``."""
        raise NotImplementedError(f"{type(self).__name__} has no analytic gradient")

    def value_at(self, z: np.ndarray):
        """The value at ``z``; for a stack ``(R, 8n)``, the arrays ``(std, dual)`` of its rows."""
        z = np.asarray(z, dtype=np.float64)
        if z.ndim == 1:
            return self.value(unpack(z, self.arity))
        values = [self.value(unpack(row, self.arity)) for row in z]
        return np.array([v.std for v in values]), np.array([v.dual for v in values])


def _count(name: str, value, error: type[Exception] = TypeError) -> int:
    """``value`` as an ``int``: a Python or NumPy integer, not a bool, else ``error`` names it."""
    # bool is an int subclass, a float would be truncated or compared unchecked,
    # and a NumPy integer would reach a JSON report
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise error(f"{name} must be an integer, got {value!r}")
    return int(value)


def _seed(seed) -> int:
    """``seed`` by :func:`_count`, a ``ValueError`` unless it is a non-negative integer."""
    if (seed := _count("seed", seed, ValueError)) < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    return seed


def _index(index, arity: int) -> int:
    """``index`` by :func:`_count`, a ``ValueError`` unless it names one of ``arity`` variables."""
    index = _count("index", index)
    if not 0 <= index < arity:
        raise ValueError(f"index {index} out of range for arity {arity}")
    return index


class _Composed(DualFunction):
    """A dual function a factory builds from its ``value`` and, if it has one, its gradient."""

    def __init__(self, arity: int, declared_standard: bool, value: Callable, gradient=None):
        super().__init__(arity, declared_standard)
        # the factory's callable, on the instance, is the value method
        self.value, self._gradient = value, gradient

    def gradient_at(self, z):
        return super().gradient_at(z) if self._gradient is None else self._gradient(z)


def combine(f: DualFunction, g: DualFunction, op: str) -> DualFunction:
    """Pointwise sum, product, min, or max of two dual functions."""
    if f.arity != g.arity:
        raise ArityMismatch(f"arity {f.arity} vs {g.arity}")
    if op not in ("sum", "product", "min", "max"):
        raise ValueError(f"unknown combiner {op!r}")

    def value(values):
        a = f.value(values)
        b = g.value(values)
        if op == "sum":
            return a + b
        if op == "product":
            return a * b
        # both keep ``a`` on a tie, as the gradient below does
        return dual_min(a, b) if op == "min" else dual_max(a, b)

    def gradient(z):
        if op == "sum":
            fs, fd = f.gradient_at(z)
            gs, gd = g.gradient_at(z)
            return fs + gs, fd + gd
        if op == "product":
            a = f.value_at(z)
            b = g.value_at(z)
            fs, fd = f.gradient_at(z)
            gs, gd = g.gradient_at(z)
            # (ab)_std = a_s b_s ; (ab)_dual = a_s b_d + a_d b_s
            grad_std = b.std * fs + a.std * gs
            grad_dual = b.dual * fs + a.std * gd + b.std * fd + a.dual * gs
            return grad_std, grad_dual
        # min/max pick the winning branch; ties go to the first argument,
        # a valid subgradient selection.
        a = f.value_at(z)
        b = g.value_at(z)
        cmp = a.compare(b)
        take_f = cmp <= 0 if op == "min" else cmp >= 0
        return f.gradient_at(z) if take_f else g.gradient_at(z)

    return _Composed(f.arity, f.declared_standard and g.declared_standard, value, gradient)


def scalar_power(f: DualFunction, exponent: int) -> DualFunction:
    """``f`` raised to a positive integer power in dual arithmetic."""
    m = _count("exponent", exponent)
    if m < 1:
        raise ValueError("exponent must be a positive integer")

    def value(values):
        v = f.value(values)
        # (a + b eps)^m = a^m + m a^(m-1) b eps
        return DualNumber(v.std**m, m * v.std ** (m - 1) * v.dual if m > 1 else v.dual)

    def gradient(z):
        v = f.value_at(z)
        gs, gd = f.gradient_at(z)
        if m == 1:
            return gs, gd
        grad_std = m * v.std ** (m - 1) * gs
        grad_dual = m * (m - 1) * v.std ** (m - 2) * v.dual * gs + m * v.std ** (m - 1) * gd
        return grad_std, grad_dual

    return _Composed(f.arity, f.declared_standard, value, gradient)


# ---------------------------------------------------------------------------
# Dual-quaternion-valued maps


class DualQuaternionMap(_OfVariables):
    """A map from a dual quaternion vector to a single dual quaternion, its :meth:`value`."""

    def magnitude(self) -> DualFunction:
        return _Composed(self.arity, self.declared_standard, lambda values: self.value(values).magnitude())


class _ComposedMap(DualQuaternionMap):
    """A map a factory builds from its ``value``, held on the instance as in :class:`_Composed`."""

    def __init__(self, arity: int, declared_standard: bool, value: Callable):
        super().__init__(arity, declared_standard)
        self.value = value


def variable_map(arity: int, index: int) -> DualQuaternionMap:
    """The map selecting variable ``index``."""
    index = _index(index, _count("arity", arity))
    return _ComposedMap(arity, True, lambda values: values[index])


def normalize_map(inner: DualQuaternionMap) -> DualQuaternionMap:
    """Project the inner map's value to the nearest unit dual quaternion."""
    return _ComposedMap(inner.arity, inner.declared_standard, lambda values: inner.value(values).normalized())


def map_power(inner: DualQuaternionMap, exponent: int) -> DualQuaternionMap:
    """The inner map's value raised to a positive integer power."""
    m = _count("exponent", exponent)
    if m < 1:
        raise ValueError("exponent must be a positive integer")

    def value(values):
        v = inner.value(values)
        out = v
        for _ in range(m - 1):
            out = out * v
        return out

    return _ComposedMap(inner.arity, inner.declared_standard, value)


def compose_unit(
    outer: Callable[[UnitDualQuaternion], DualNumber],
    inner: DualQuaternionMap,
    validate: bool = True,
    declared_standard: bool = False,
) -> DualFunction:
    """Apply a function defined on unit dual quaternions after an inner map.

    With ``validate`` the inner value must already be unit within the
    normalization tolerance; otherwise :class:`NonUnitValue` is raised.
    """

    def value(values):
        v = inner.value(values)
        if validate:
            dev = v.unit_deviation()
            if dev > NORMALIZE_TOL:
                raise NonUnitValue(f"inner map produced unit deviation {dev}")
        u = UnitDualQuaternion(v.normalized())
        return outer(u)

    return _Composed(inner.arity, declared_standard, value)


def unit_log(value) -> DualQuaternion:
    """Logarithm of a unit dual quaternion; accepts nearby plain values."""
    if isinstance(value, UnitDualQuaternion):
        return value.log()
    return UnitDualQuaternion.of(value).log()


def unit_exp(value: DualQuaternion) -> UnitDualQuaternion:
    """Exponential of an imaginary dual quaternion."""
    return UnitDualQuaternion.exp(value)


# ---------------------------------------------------------------------------
# Residuals and the residual-norm objective


def affine_rows(arity: int, i, j, first: np.ndarray, second: np.ndarray):
    """Evaluator ``z -> (r_std, r_dual, pullback, jacobian)`` of the rows ``first_e x_i + second_e x_j``.

    Residual ``e`` has a term on variable ``i[e]`` and one on ``j[e]`` (equal
    or not): ``first`` and ``second`` are ``(k, 2, 4, 4)`` arrays of their
    standard and dual matrices ``M_s``, ``M_d``, whose rows are ``M_s x_s``
    and ``M_s x_d + M_d x_s``; ``left_mult_matrix(a)`` is the term ``a x``
    and ``right_mult_matrix(b)`` the term ``x b``.  Each residual's rows are
    one matrix ``[F_s, S_s, F_d, S_d]`` over its gathered coordinates, less
    the dual columns of a term whose dual matrices are all zero: ``x_i q -
    x_j`` is ``[R(q_s), -I, R(q_d)]``.  ``z`` is a point ``(8n,)`` or a stack
    ``(R, 8n)``, each row of ``(R, 4k)`` equal bit for bit to its point's
    alone.  ``pullback(w_std, w_dual=None)`` is ``J_s^T w_std + J_d^T
    w_dual``, the weighted rows summed into their coordinates by
    ``np.bincount``.  ``jacobian(sparse)`` is the ``[F_s, S_s]`` blocks in
    the standard slots, laid out by :func:`_assemble` with its column plan
    on each call, and kept by nothing here: a dense ``(4k, 4n)`` array for
    any point or stack, or a CSR matrix.  The solver forms it once per solve.
    """
    n8 = 8 * int(arity)
    i, j = (np.asarray(v, dtype=np.intp) for v in (i, j))
    x_i, x_j = 8 * i[:, None] + np.arange(4), 8 * j[:, None] + np.arange(4)
    # the coordinates that the columns multiply, for the standard part and
    # the dual part; slot 8n of the padded point is 0
    mats, std, dual = [first[:, 0], second[:, 0]], [x_i, x_j], [x_i + 4, x_j + 4]
    for term, x in ((first, x_i), (second, x_j)):
        if term[:, 1].any():
            mats.append(term[:, 1])
            std.append(np.full(x.shape, n8))
            dual.append(x)
    # adding 0.0 turns each -0.0 into 0.0, as a CSR matrix's toarray() does,
    # so both layouts hold the same bits
    rows = np.concatenate(mats, 2) + 0.0
    block = rows[:, :, :8]
    slots = np.stack((np.concatenate(std, 1), np.concatenate(dual, 1)), 2)

    def jacobian(sparse: bool):
        return _assemble(block, _jacobian_cols(i, j), int(arity), sparse)

    def pullback(w_std: np.ndarray, w_dual: np.ndarray | None = None) -> np.ndarray:
        grad = np.bincount(slots[:, :8, 0].ravel(), (w_std.reshape(-1, 1, 4) @ block).ravel(), n8)
        if w_dual is not None:
            grad += np.bincount(slots[..., 1].ravel(), (w_dual.reshape(-1, 1, 4) @ rows).ravel(), n8)
        return grad

    def evaluate(z: np.ndarray):
        lead = z.shape[:-1]
        padded = np.concatenate((z, np.zeros(lead + (1,))), axis=-1)
        r = rows @ padded.take(slots, axis=-1)  # (..., k, 4, 2): both parts
        return r[..., 0].reshape(lead + (-1,)), r[..., 1].reshape(lead + (-1,)), pullback, jacobian

    return evaluate


def _jacobian_cols(i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """The ``(4k, 8)`` columns of the ``(k, 4, 8)`` standard blocks of ``k`` two-variable residuals.

    Row ``4e + r`` of the ``(4k, 4n)`` Jacobian holds row ``r`` of residual
    ``e``'s block, its 8 entries in columns ``4 i[e] + c`` then ``4 j[e] + c``.
    """
    cols = np.concatenate((4 * i[:, None] + np.arange(4), 4 * j[:, None] + np.arange(4)), 1)
    return np.repeat(cols, 4, axis=0)


def _assemble(blocks: np.ndarray, cols: np.ndarray, n: int, sparse: bool):
    """The Jacobian of ``(..., k, 4, 8)`` residual ``blocks`` in columns :func:`_jacobian_cols`.

    A CSR ``(4k, 4n)`` matrix when ``sparse`` (one point, or a stack of
    one), else a dense ``(..., 4k, 4n)`` array.  Where a residual's two
    variables are one, both layouts sum its two halves.
    """
    rows = len(cols)
    if sparse:
        from ._sparse import sparse as sp

        indptr = np.arange(0, cols.size + 1, 8)
        return sp.csr_matrix((blocks.ravel(), cols.ravel(), indptr), (rows, 4 * n))
    lead = blocks.shape[:-3]
    blocks = blocks.reshape(lead + (rows, 8))
    out = np.zeros(lead + (rows, 4 * n))
    out[..., np.arange(rows)[:, None], cols] = blocks
    same = np.flatnonzero(cols[:, 0] == cols[:, 4])
    if same.size:
        out[..., same[:, None], cols[same, :4]] = blocks[..., same, :4] + blocks[..., same, 4:]
    return out


class ResidualNormObjective(DualFunction):
    """Sum over groups of the dual-valued 2-norm of stacked residuals.

    Each group contributes ``|(r_1, ..., r_k)|`` where the 2-norm of a dual
    quaternion vector branches on whether the stacked standard part is
    appreciable, its norm above ``TOL_APPRECIABLE``.  A group with a single
    residual is that residual's magnitude; a single group holding every
    residual is the 2-norm of the whole residual vector.  The solver reads
    the stage hook :meth:`stage_system`.  No solve calls the smoothed hooks
    ``*_value_grad`` (branch softened to ``sqrt(s + mu^2) - mu``) or
    :meth:`branch_flags`; they stay only until ROADMAP item 13's benchmark
    change, since the benchmark's tracer wraps them.

    ``evaluate`` is an array evaluator ``z -> (r_std, r_dual, pullback,
    jacobian)`` of every residual row, 4 per residual, such as
    :func:`affine_rows` or
    :meth:`~dqopt.posegraph.RelativePoseResidual.stack_arrays` returns;
    its residuals all have arity ``arity``.  Group ``g`` holds the next
    ``sizes[g]`` residuals in row order.  Gradients are ``pullback(w_std,
    w_dual)``, the transposed residual Jacobians times per-row weights;
    value-only calls never call it, and only the solver calls
    ``jacobian(sparse)``, which :meth:`stage_system` hands it uncalled.
    ``value_at`` and ``stage_system`` also evaluate a stack ``(R, 8n)`` of
    points in one pass; a hook given ``rows``, :meth:`rows_at` at ``z``, evaluates none.
    """

    def __init__(self, arity: int, evaluate, sizes):
        super().__init__(arity, declared_standard=True)
        if not len(sizes) or min(sizes) < 1:
            raise ValueError("groups must be nonempty")
        rows = 4 * np.asarray(sizes, dtype=np.intp)
        # Row index where each group's block starts, for segmented sums.
        self._starts = np.concatenate([[0], np.cumsum(rows)[:-1]]).astype(np.intp)
        self._row_group = np.repeat(np.arange(rows.size), rows)
        self._groups = (self._starts, self._row_group) if rows.size > 1 else None
        self._stack = evaluate

    def _group_sums(self, r_std, r_dual):
        """Per-group sums: |r_std|^2, <r_std, r_dual>, |r_dual|^2."""
        s_std = np.add.reduceat(r_std * r_std, self._starts, axis=-1)
        cross = np.add.reduceat(r_std * r_dual, self._starts, axis=-1)
        s_dual = np.add.reduceat(r_dual * r_dual, self._starts, axis=-1)
        return s_std, cross, s_dual

    # -- exact value and subgradient ---------------------------------------

    def value(self, values):
        return self.value_at(pack(values))

    def rows_at(self, z):
        """The evaluator's output at ``z``: the hooks below take it as ``rows`` at that ``z``."""
        return self._stack(np.asarray(z, dtype=np.float64))

    def value_at(self, z, rows=None):
        """The value at ``z``; for a stack ``(R, 8n)``, the arrays ``(std, dual)`` of its rows.

        Each row's value equals that point's alone bit for bit.
        """
        z = np.asarray(z, dtype=np.float64)
        r_std, r_dual, _, _ = rows or self._stack(z)
        s_std, cross, s_dual = self._group_sums(r_std, r_dual)
        norms = np.sqrt(s_std)
        # a NaN norm counts as appreciable, so a NaN point reads a NaN value, not 0
        app = ~(norms <= TOL_APPRECIABLE)
        if app.all():
            total_std = np.add.reduce(norms, axis=-1)
            total_dual = 0.0 + np.add.reduce(cross / norms, axis=-1)
        elif not app.any():
            total_std = np.zeros(norms.shape[:-1])
            total_dual = 0.0 + np.add.reduce(np.sqrt(s_dual), axis=-1)
        else:
            lead, rows = norms.shape[:-1], (-1, norms.shape[-1])
            norms, cross, s_dual, app = (a.reshape(rows) for a in (norms, cross, s_dual, app))
            total_std = _kept_sums(norms, app).reshape(lead)
            total_dual = _kept_sums(cross / np.where(app, norms, 1.0), app)
            total_dual = (total_dual + _kept_sums(np.sqrt(s_dual), ~app)).reshape(lead)
        if z.ndim == 1:
            return DualNumber(total_std, total_dual)
        return total_std, total_dual

    def gradient_at(self, z, rows=None):
        r_std, r_dual, pullback, _ = rows or self._stack(z)
        s_std, cross, s_dual = self._group_sums(r_std, r_dual)
        norms = np.sqrt(s_std)
        dual_norms = np.sqrt(s_dual)
        app = norms > TOL_APPRECIABLE
        inf_pos = (~app) & (dual_norms > TOL_APPRECIABLE)

        # Row weights per group, expanded to residual rows.
        inv_norm = np.where(app, 1.0 / np.where(app, norms, 1.0), 0.0)
        grad_std = pullback(r_std * self._expand(inv_norm))

        # Appreciable groups: d/dz [cross / norm]; infinitesimal groups with a
        # nonzero dual stack: d/dz |r_dual|; kinks contribute zero.
        w1 = self._expand(inv_norm)
        w2 = self._expand(np.where(app, -cross * inv_norm**3, 0.0))
        w3 = self._expand(np.where(inf_pos, 1.0 / np.where(inf_pos, dual_norms, 1.0), 0.0))
        grad_dual = pullback(r_dual * w1 + r_std * w2, r_std * w1 + r_dual * w3)
        return grad_std, grad_dual

    def _expand(self, per_group: np.ndarray) -> np.ndarray:
        """Repeat a per-group weight across that group's residual rows."""
        return per_group.take(self._row_group, axis=-1)

    # -- smoothed stage hooks: no solve calls these; they go with ROADMAP item 13

    def stage1_value_grad(self, z, mu):
        r_std, _, pullback, _ = self._stack(z)
        s_std = np.add.reduceat(r_std * r_std, self._starts)
        soft = np.sqrt(s_std + mu * mu)
        value = float(np.sum(soft - mu))
        grad = pullback(r_std * self._expand(1.0 / soft))
        return value, grad

    def stage2_value_grad(self, z, mu, branches):
        if len(branches) != self._starts.size:
            raise ValueError("branch flags must match group count")
        r_std, r_dual, pullback, _ = self._stack(z)
        s_std, cross, s_dual = self._group_sums(r_std, r_dual)
        app = np.asarray(branches, dtype=bool)
        # Appreciable groups are smooth already (|r_std| stays near its
        # stage-I level), so they get only a tiny fixed floor rather than
        # the walking mu.  Anything larger reweights the groups and breaks
        # the first-order cancellation, in the dual coordinates, between
        # this term and the stage-I stationarity combination; the second
        # stage would then chase an artificial unbounded descent direction.
        floor = 1e-9
        soft_std = np.sqrt(s_std + floor * floor)
        soft_dual = np.sqrt(s_dual + mu * mu)
        value = float(np.sum(cross[app] / soft_std[app])) + float(
            np.sum(soft_dual[~app] - mu)
        )
        w1 = self._expand(np.where(app, 1.0 / soft_std, 0.0))
        w2 = self._expand(np.where(app, -cross / soft_std**3, 0.0))
        w3 = self._expand(np.where(app, 0.0, 1.0 / soft_dual))
        grad = pullback(r_dual * w1 + r_std * w2, r_std * w1 + r_dual * w3)
        return value, grad

    def branch_flags(self, z):
        r_std, _, _, _ = self._stack(np.asarray(z, dtype=np.float64))
        s_std = np.add.reduceat(r_std * r_std, self._starts)
        # a NaN norm counts as appreciable, as in ``value_at``
        return tuple(bool(b) for b in ~(np.sqrt(s_std) <= TOL_APPRECIABLE))

    def stage_system(self, z, rows=None):
        """The rows of both stages ``(J, r_std, r_dual, weights, groups)`` at ``z``.

        ``r_std`` and ``r_dual`` are the residual rows' standard and dual
        parts.  ``J(sparse)`` is the evaluator's ``(k, 4n)`` standard-slot
        Jacobian, uncalled; each call forms it, the solver once per solve in
        its layout, and none where all rows weigh 0.  With the standard
        coordinates fixed, ``r_dual`` is affine in the dual ones with the same slope.
        The weights are stage I's: rows of an appreciable group weigh ``1 /
        |r_std,g|``, so ``J^T W J`` is the Hessian of the reweighted
        majorizer of ``sum_g |r_g|``, and rows of a group at its kink,
        ``|r_std,g| <= TOL_APPRECIABLE``, weigh 0 (the zero subgradient).
        The solver reads the zero weight as the group's mark, in stage I
        with its rows ``r_std,g`` as where the kink is and in stage II as
        the branch to reweight.  ``groups`` is the pair ``(starts,
        row_group)``, each group's first row and each row's group, or
        ``None`` for one group, which has the minimizer of ``|r|^2``
        (Gauss-Newton).  For a stack ``(R, 8n)`` of points, the rows and
        the weights are ``(R, k)``.
        """
        r, r_dual, _, jacobian = rows or self._stack(z)
        norms = np.sqrt(np.add.reduceat(r * r, self._starts, axis=-1))
        # a NaN norm keeps a NaN weight, as in ``value_at``
        kink = norms <= TOL_APPRECIABLE
        weights = self._expand(np.where(kink, 0.0, 1.0 / np.where(kink, 1.0, norms)))
        return jacobian, r, r_dual, weights, self._groups


# ---------------------------------------------------------------------------
# Constraints


class UnitNormConstraint(DualFunction):
    """The paper's unit-norm condition on variable ``index``, as a dual function.

    The dual-number value is ``(|x_std|^2 - 1) + 2 <x_std, x_dual> eps``;
    both parts vanishing is exactly the unit condition.  The self-test's
    gradient suite checks it; a solve builds none, as :class:`ConstraintBlock`
    evaluates these rows from the unit-norm variables' indices.
    """

    def __init__(self, arity: int, index: int):
        super().__init__(arity, declared_standard=True)
        self.index = _index(index, self.arity)

    def value(self, values):
        x = values[self.index]
        return DualNumber(x.std.norm_squared() - 1.0, 2.0 * x.std.dot(x.dual))

    def gradient_at(self, z):
        n8 = 8 * self.arity
        s = 8 * self.index
        g_std = np.zeros(n8)
        g_dual = np.zeros(n8)
        g_std[s : s + 4] = 2.0 * z[s : s + 4]
        g_dual[s : s + 4] = 2.0 * z[s + 4 : s + 8]
        g_dual[s + 4 : s + 8] = 2.0 * z[s : s + 4]
        return g_std, g_dual

    def fast_rows(self, z):
        """No solve calls this; it stays only until ROADMAP item 13's benchmark change."""
        s = 8 * self.index
        xs = z[s : s + 4]
        xd = z[s + 4 : s + 8]
        v_std = float(xs @ xs) - 1.0
        v_dual = 2.0 * float(xs @ xd)
        g_std, g_dual = self.gradient_at(z)
        return (v_std, g_std), (v_dual, g_dual)


class _ComponentAnchor(DualFunction):
    """One coefficient of ``x[index] - target``; see :func:`anchor_constraints`."""

    def __init__(self, arity: int, index: int, component: int, target: DualQuaternion):
        super().__init__(arity, declared_standard=True)
        self.index, self.component, self.target = _index(index, self.arity), int(component), target
        self._t_std = float(target.std.as_array()[self.component])
        self._t_dual = float(target.dual.as_array()[self.component])

    def value(self, values):
        x, c = values[self.index], self.component
        return DualNumber(x.std.as_array()[c] - self._t_std, x.dual.as_array()[c] - self._t_dual)

    def gradient_at(self, z):
        n8 = 8 * self.arity
        s = 8 * self.index
        g_std = np.zeros(n8)
        g_dual = np.zeros(n8)
        g_std[s + self.component] = 1.0
        g_dual[s + 4 + self.component] = 1.0
        return g_std, g_dual

    def fast_rows(self, z):
        """No solve calls this; it stays only until ROADMAP item 13's benchmark change."""
        s = 8 * self.index
        v_std = float(z[s + self.component]) - self._t_std
        v_dual = float(z[s + 4 + self.component]) - self._t_dual
        g_std, g_dual = self.gradient_at(z)
        return (v_std, g_std), (v_dual, g_dual)


def anchor_constraints(
    arity: int, index: int, target: DualQuaternion
) -> tuple[DualFunction, ...]:
    """Constraints pinning variable ``index`` to ``target``: one per coefficient, a set of four.

    No solve builds these; they stay only while the benchmark's tracer wraps
    their ``fast_rows`` and ``gradient_at``, until ROADMAP item 13 deletes them.
    """
    return tuple(_ComponentAnchor(arity, index, c, target) for c in range(4))


class ConstraintBlock:
    """Every unit-norm and anchor row of a problem, evaluated in one call.

    The rows are one :class:`UnitNormConstraint` row per variable in
    ``unit``, each at most once, in that order, then the four coefficients
    of ``x_i - target`` per entry of ``anchors``.  An index out of range or
    repeated raises ``ValueError``, naming it; indices whose dtype is not an
    integer one (bools and floats included), and a Python or NumPy bool
    among integers, raise ``TypeError`` naming the first, as does a target
    that is not a :class:`DualQuaternion`, naming its variable.  Both
    families are standard with a dual part linear in the dual coordinates,
    so the Jacobian of ``h`` over the standard coordinates equals that of
    ``h_d`` over the dual ones: the *stage Jacobian* ``G``,
    shape ``(m, 4n)``, column ``4i + c`` for coefficient ``c`` of variable
    ``i``.  Every row touches one variable, so ``G`` is block diagonal by
    variable, and each variable is *anchored* (with a unit row or without),
    a *sphere* (a unit row only) or *free*.  :meth:`tangent`, :meth:`pinv`
    and :meth:`rank` are closed forms by class.

    ``__init__`` builds every index plan once, vectorized, and keeps
    ``unit`` and ``anchors`` read-only.  Each method keeps its plain
    formula's arithmetic order and array layouts, so results match it bit
    for bit.
    """

    def __init__(self, arity: int, unit: Sequence[int], anchors: Mapping | None):
        self.arity, anchors = int(arity), dict(anchors or {})
        u_var, a_var = (np.asarray(v).ravel() for v in (unit, list(anchors)))
        for name, given, var in (("unit", unit, u_var), ("anchored", anchors, a_var)):
            # NumPy reads a bool among integers as 0 or 1; arrays and ranges carry their dtype
            if not isinstance(given, (np.ndarray, range)):
                if flag := [v for v in given if isinstance(v, (bool, np.bool_))]:
                    raise TypeError(f"{name} variable {flag[0]!r} is not an integer")
            # a cast would truncate floats and read bools as 0 and 1; () reads float64
            if var.size and var.dtype.kind not in "iu":
                raise TypeError(f"{name} variable {var[:1].tolist()[0]!r} is not an integer")
            if (bad := np.flatnonzero((var < 0) | (var >= self.arity))).size:
                raise ValueError(f"{name} variable {var[bad[0]]} out of range for arity {self.arity}")
        u_var, a_var = u_var.astype(np.intp), a_var.astype(np.intp)
        count = np.bincount(u_var, minlength=self.arity)
        if (twice := np.flatnonzero(count > 1)).size:
            raise ValueError(f"unit variable {twice[0]} is listed more than once")
        if bad := [i for i, t in anchors.items() if not isinstance(t, DualQuaternion)]:
            raise TypeError(f"anchor target of variable {bad[0]} is not a DualQuaternion")
        u_var.flags.writeable = False
        self.unit, self.anchors = u_var, MappingProxyType(dict(zip(a_var.tolist(), anchors.values())))
        self.size = u_var.size + 4 * a_var.size
        self._u_at, self._a_at = slice(0, u_var.size), slice(u_var.size, self.size)
        u, a = u_var[:, None], a_var[:, None]
        self._u_slots, self._u_std = 8 * u + np.arange(8), 8 * u + np.arange(4)
        self._u_cols, self._a_cols = 4 * u + np.arange(4), (4 * a + np.arange(4)).ravel()
        coords = (8 * a + np.arange(4)).ravel()
        self._a_coords = np.stack((coords, coords + 4))
        parts = [(t.std.as_array(), t.dual.as_array()) for t in anchors.values()]
        self._a_targets = np.array(parts).reshape(-1, 2, 4).transpose(1, 0, 2).reshape(2, -1)
        # Columns of G^T v, unit rows' four then the anchors', for one bincount.
        self._pull_cols = np.concatenate((self._u_cols.ravel(), self._a_cols))
        # 4 per unit row: G_i^T G_i is that times x x^T, plus I if anchored
        self._anchored, self._anchored_weight = a_var, 4.0 * count[a_var]
        width = np.where(count > 0, 3, 4)
        width[a_var] = 0
        self._sphere = np.flatnonzero(width == 3)
        #: The variable of each tangent column, and ``_col`` its column of :meth:`tangent`'s frame.
        self.var = np.repeat(np.arange(self.arity), width)
        #: The standard slot ``4 var[j] + c`` of entry ``c`` of each frame ``j``, raveled.
        self.slots = (4 * self.var[:, None] + np.arange(4)).ravel()
        self._col = np.arange(self.var.size) - np.repeat(np.cumsum(width) - 4, width)
        # Entry e of frame j is left_mult_matrix(x)[e, col]: a signed coordinate of z.
        self._frame_at = 8 * self.var[:, None] + _MULT_INDEX.T[self._col]
        self._frame_sign = _LEFT_SIGNS.T[self._col][:, None]
        self._free = np.flatnonzero(width[self.var] == 4)
        self._free_frames = np.eye(4)[self._col[self._free]][:, None]

    def values(self, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(h, h_d)`` at ``z``, without any Jacobian; ``(R, m)`` each for a stack ``(R, 8n)``."""
        # take keeps the gathered slots in C order, as the BLAS dot below needs
        zz = z.take(self._u_slots, axis=-1)
        # xs.xs and xs.xd per unit row as a batched (1, 4) @ (4, 1) product,
        # summed bit for bit as ``xs @ xs``; h = xs.xs - 1 and h_d = 2 xs.xd.
        dots = (zz[..., None, None, :4] @ zz.reshape(zz.shape[:-1] + (2, 4, 1)))[..., 0, 0]
        vals = np.empty(z.shape[:-1] + (2, self.size))
        vals[..., 0, self._u_at] = dots[..., 0] - 1.0
        vals[..., 1, self._u_at] = 2.0 * dots[..., 1]
        if self._anchored.size:
            vals[..., self._a_at] = z[..., self._a_coords] - self._a_targets
        return vals[..., 0, :], vals[..., 1, :]

    def pullback(self, z: np.ndarray, v: np.ndarray) -> np.ndarray:
        """``G^T v`` at ``z``: ``2 x_k v_k`` per unit row plus ``v`` per anchor row."""
        unit = 2.0 * z[self._u_std] * v[self._u_at, None]
        weights = np.concatenate((unit.ravel(), v[self._a_at]))
        return np.bincount(self._pull_cols, weights, 4 * self.arity)

    def apply(self, z: np.ndarray, u: np.ndarray) -> np.ndarray:
        """``G u`` at ``z``: ``2 x_i . u_i`` per unit row, the anchored entry of ``u`` per anchor row."""
        out = np.empty(self.size)
        out[self._u_at] = 2.0 * np.einsum("ij,ij->i", z[self._u_std], u[self._u_cols])
        out[self._a_at] = u[self._a_cols]
        return out

    def project(self, z: np.ndarray) -> np.ndarray:
        """``z`` with unit-row standard parts normalized, then anchored ones set to target.

        ``z`` may be a stack ``(R, 8n)``, projected row by row.
        """
        out = z.copy()
        x = out[..., self._u_std]
        out[..., self._u_std] = x / np.sqrt(np.add.reduce(x * x, axis=-1, keepdims=True))
        out[..., self._a_coords[0]] = self._a_targets[0]
        return out

    def curvature(self, z: np.ndarray, grad: np.ndarray) -> np.ndarray:
        """``x_i . grad_i`` per variable with a unit row (else 0), ``grad`` over the standard slots.

        Along the unit sphere the Hessian of a function is the Euclidean one
        minus ``(x_i . grad_i) I``.  For a stack ``(R, 8n)`` of points and
        ``(R, 4n)`` gradients the result is ``(R, n)``.
        """
        out = np.zeros(z.shape[:-1] + (self.arity,))
        x, g = z.take(self._u_std, axis=-1), grad.take(self._u_cols, axis=-1)
        out[..., self.unit] = np.einsum("...ij,...ij->...i", x, g)
        return out

    def tangent(self, z: np.ndarray) -> np.ndarray:
        """The null space of ``G`` at ``z``: ``(k, 4)``, or ``(R, k, 4)`` for a stack ``(R, 8n)``.

        Row ``j`` holds column ``j``'s entries for variable ``var[j]``: per
        sphere variable ``x ⊗ i``, ``x ⊗ j``, ``x ⊗ k`` (columns 2-4 of
        ``left_mult_matrix(x)``, orthonormal where ``|x| = 1``), per free one
        the identity's columns, laid out frame-major: ``(k, R, 4)`` in memory.
        """
        at = z.reshape(-1, z.shape[-1]).T.take(self._frame_at, axis=0)  # (k, 4, R)
        out = np.multiply(at.swapaxes(1, 2), self._frame_sign, order="C")  # (k, R, 4), C order
        out[self._free] = self._free_frames
        return out[:, 0] if z.ndim == 1 else out.swapaxes(0, 1)

    def pinv(self, z: np.ndarray, u: np.ndarray) -> np.ndarray:
        """``(G^T G)^+ u`` at ``z`` for a ``4n`` vector ``u``: the minimum-norm least-squares step.

        With ``a`` 4 for a variable with a unit row, else 0, it is ``x (x . u)
        / (a |x|^4)`` (0 where ``x = 0``) per sphere variable, ``u - a x (x .
        u) / (1 + a |x|^2)`` (Sherman-Morrison) per anchored one, 0 per free one.
        """
        x, u = z.reshape(-1, 8)[:, :4], u.reshape(-1, 4)
        dot, sq = np.einsum("ij,ij->i", x, u), np.einsum("ij,ij->i", x, x)
        out = np.zeros(u.shape)
        s, q = self._sphere, sq[self._sphere]
        if not (live := q > 0).all():
            s, q = s[live], q[live]
        out[s] = x[s] * (dot[s] / (4.0 * q * q))[:, None]
        k, a = self._anchored, self._anchored_weight
        if k.size:
            out[k] = u[k] - x[k] * (a * dot[k] / (1.0 + a * sq[k]))[:, None]
        return out.ravel()

    def rank(self, z: np.ndarray) -> int:
        """Rank of ``G`` at ``z``: 1 per sphere variable with ``x != 0``, 4 per anchored one."""
        live = z.reshape(-1, 8)[self._sphere, :4].any(axis=-1)
        return int(np.count_nonzero(live)) + 4 * self._anchored.size


class _SquaredDistance(DualFunction):
    """``|x - center|^2`` as a dual number; smooth everywhere."""

    def __init__(self, center: DualQuaternion, arity: int = 1, index: int = 0):
        super().__init__(arity, declared_standard=True)
        self.center = center
        self.index = _index(index, self.arity)
        self._jac = np.zeros((4, 4 * self.arity))
        self._jac[np.arange(4), 4 * self.index + np.arange(4)] = 1.0

    def value(self, values):
        d = values[self.index] - self.center
        return DualNumber(d.std.norm_squared(), 2.0 * d.std.dot(d.dual))

    def gradient_at(self, z):
        n8 = 8 * self.arity
        s = 8 * self.index
        ds = z[s : s + 4] - self.center.std.as_array()
        dd = z[s + 4 : s + 8] - self.center.dual.as_array()
        g_std = np.zeros(n8)
        g_dual = np.zeros(n8)
        g_std[s : s + 4] = 2.0 * ds
        g_dual[s : s + 4] = 2.0 * dd
        g_dual[s + 4 : s + 8] = 2.0 * ds
        return g_std, g_dual

    def stage_system(self, z):
        """``(J, r, r_dual, 2, None)`` of the rows ``x - center``, the value ``|x - center|^2``.

        ``J`` is their constant slope in either part; stage II fits ``r_dual``.
        """
        s = 8 * self.index
        r = z[..., s : s + 4] - self.center.std.as_array()
        r_dual = z[..., s + 4 : s + 8] - self.center.dual.as_array()
        return lambda sparse: self._jac, r, r_dual, np.full(r.shape, 2.0), None


def squared_distance_objective(
    center: DualQuaternion, arity: int = 1, index: int = 0
) -> DualFunction:
    return _SquaredDistance(center, arity, index)


# ---------------------------------------------------------------------------
# Verification helpers


@dataclass(frozen=True)
class StandardnessReport:
    """Outcome of probing whether a function's standard part is standard."""

    passed: bool
    max_std_delta: float
    witness: tuple | None


def check_standardness(
    fn,
    arity: int | None = None,
    n_samples: int = 50,
    seed: int = 0,
    tol: float = 1e-12,
) -> StandardnessReport:
    """Probe a function by re-randomizing dual coordinates.

    Each trial draws one set of standard coordinates and two independent
    sets of dual coordinates; a standard function must produce identical
    standard-part values.  Trials whose evaluation fails (domain errors of
    piecewise definitions) are redrawn.
    """
    if arity is None:
        arity = fn.arity
    evaluate = fn.value if isinstance(fn, DualFunction) else fn
    rng = np.random.default_rng(seed)
    worst = 0.0
    witness = None
    done = 0
    attempts = 0
    while done < n_samples:
        attempts += 1
        if attempts > 200 * n_samples:
            raise RuntimeError("too many failed evaluation attempts")
        std = rng.standard_normal((arity, 4))
        dual_a = rng.standard_normal((arity, 4))
        dual_b = rng.standard_normal((arity, 4))
        point_a, point_b = (unpack(np.hstack((std, dual)).ravel(), arity) for dual in (dual_a, dual_b))
        try:
            va = evaluate(point_a)
            vb = evaluate(point_b)
        except Exception:
            continue
        delta = abs(va.std - vb.std)
        limit = tol * max(1.0, abs(va.std))
        if delta > worst:
            worst = delta
            if delta > limit:
                witness = (point_a, point_b, delta)
        done += 1
    return StandardnessReport(witness is None, worst, witness)


@dataclass(frozen=True)
class GradientReport:
    """Analytic-versus-numeric gradient comparison."""

    max_rel_error_std: float
    max_rel_error_dual: float
    passed: bool
    analytic_std: np.ndarray
    analytic_dual: np.ndarray
    numeric_std: np.ndarray
    numeric_dual: np.ndarray


def fd_gradient(value_fn: Callable[[np.ndarray], float], z: np.ndarray, step: float = 1e-5):
    """Central-difference gradient of a scalar function of ``z``."""
    z = np.asarray(z, dtype=np.float64)
    grad = np.empty_like(z)
    for i in range(z.shape[0]):
        zp = z.copy()
        zm = z.copy()
        zp[i] += step
        zm[i] -= step
        grad[i] = (value_fn(zp) - value_fn(zm)) / (2.0 * step)
    return grad


def _rel_errors(analytic: np.ndarray, numeric: np.ndarray) -> float:
    denom = np.maximum(1.0, np.abs(analytic))
    return float(np.max(np.abs(analytic - numeric) / denom)) if analytic.size else 0.0


def gradient_check(
    fn: DualFunction, point, step: float = 1e-5, tol: float = 1e-5
) -> GradientReport:
    """Compare analytic gradients against central differences at ``point``.

    ``point`` is either a flattened coordinate vector or a sequence of dual
    quaternions.  Relative error uses denominator ``max(1, |analytic|)``.
    """
    if isinstance(point, np.ndarray):
        z = np.asarray(point, dtype=np.float64)
    else:
        z = pack(list(point))
    a_std, a_dual = fn.gradient_at(z)
    n_std = fd_gradient(lambda v: fn.value_at(v).std, z, step)
    n_dual = fd_gradient(lambda v: fn.value_at(v).dual, z, step)
    err_std = _rel_errors(a_std, n_std)
    err_dual = _rel_errors(a_dual, n_dual)
    return GradientReport(
        err_std, err_dual, err_std <= tol and err_dual <= tol, a_std, a_dual, n_std, n_dual
    )
