"""Dual-number-valued functions of dual quaternion vectors.

A function here maps a vector of ``n`` dual quaternions to a dual number
``f_std + f_dual * eps``.  For optimization, points are flattened to
``z`` in ``R^{8n}``: variable ``i`` occupies ``z[8i:8i+4]`` (standard
part, wxyz order) and ``z[8i+4:8i+8]`` (dual part).

A function is *standard* when its standard-part value never depends on
the dual coordinates.  Objectives and constraints built from residual
magnitudes, unit-norm conditions, and anchors are all standard; the
two-stage solver relies on that structure.

Gradients come in pairs ``(grad_std, grad_dual)``, the coordinate
gradients of the two scalar parts over all ``8n`` coordinates.  Piecewise
functions (norms at zero) return the zero subgradient at their kinks,
which is a valid subgradient selection and keeps stationarity residuals
meaningful at nonsmooth minimizers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .algebra import (
    NORMALIZE_TOL,
    TOL_APPRECIABLE,
    DualNumber,
    DualQuaternion,
    Quaternion,
    UnitDualQuaternion,
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
    "make_power",
    "compose_unit",
    "unit_log",
    "unit_exp",
    "AffineResidual",
    "ResidualNormObjective",
    "UnitNormConstraint",
    "unit_norm_constraint",
    "anchor_constraints",
    "squared_distance_objective",
    "StandardnessReport",
    "check_standardness",
    "GradientReport",
    "fd_gradient",
    "gradient_check",
]

# Numerical floor under |r_std| in the second-stage surrogate for groups
# frozen as appreciable; see ResidualNormObjective.stage2_value_grad.
_APP_SOFT_FLOOR = 1e-9


def pack(values: Sequence[DualQuaternion]) -> np.ndarray:
    """Flatten dual quaternions into the solver coordinate vector."""
    out = np.empty(8 * len(values), dtype=np.float64)
    for i, v in enumerate(values):
        base = 8 * i
        out[base] = v.std.w
        out[base + 1] = v.std.x
        out[base + 2] = v.std.y
        out[base + 3] = v.std.z
        out[base + 4] = v.dual.w
        out[base + 5] = v.dual.x
        out[base + 6] = v.dual.y
        out[base + 7] = v.dual.z
    return out


def unpack(z: np.ndarray, arity: int) -> tuple[DualQuaternion, ...]:
    """Inverse of :func:`pack`."""
    z = np.asarray(z, dtype=np.float64)
    if z.shape != (8 * arity,):
        raise ValueError(f"expected shape ({8 * arity},), got {z.shape}")
    out = []
    for i in range(arity):
        base = 8 * i
        out.append(
            DualQuaternion(
                Quaternion(z[base], z[base + 1], z[base + 2], z[base + 3]),
                Quaternion(z[base + 4], z[base + 5], z[base + 6], z[base + 7]),
            )
        )
    return tuple(out)


class DualFunction:
    """Base class for dual-number-valued functions.

    Subclasses implement :meth:`value` and usually :meth:`gradient_at`.
    The stage hooks below default to the exact values and gradients, which
    is correct for objectives that are already smooth; objectives with
    nonsmooth structure override them with smoothed counterparts.
    """

    def __init__(self, arity: int, declared_standard: bool = False):
        if arity < 1:
            raise ValueError("arity must be positive")
        self.arity = int(arity)
        self.declared_standard = bool(declared_standard)

    # -- required hooks ------------------------------------------------

    def value(self, values: tuple[DualQuaternion, ...]) -> DualNumber:
        raise NotImplementedError

    def gradient_at(self, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Exact coordinate gradients ``(grad_std, grad_dual)``."""
        raise NotImplementedError(f"{type(self).__name__} has no analytic gradient")

    # -- ergonomics ------------------------------------------------------

    def __call__(self, *values: DualQuaternion) -> DualNumber:
        if len(values) != self.arity:
            raise ArityMismatch(f"expected {self.arity} arguments, got {len(values)}")
        return self.value(tuple(values))

    def value_at(self, z: np.ndarray) -> DualNumber:
        return self.value(unpack(z, self.arity))

    def fast_rows(self, z: np.ndarray):
        """Both scalar rows with gradients: ((v_std, g_std), (v_dual, g_dual))."""
        v = self.value_at(z)
        g_std, g_dual = self.gradient_at(z)
        return (v.std, g_std), (v.dual, g_dual)

    # -- solver stage hooks ----------------------------------------------

    def stage1_value_grad(self, z: np.ndarray, mu: float) -> tuple[float, np.ndarray]:
        """Smoothed standard-part value and gradient (defaults to exact)."""
        v = self.value_at(z)
        g_std, _ = self.gradient_at(z)
        return v.std, g_std

    def stage2_value_grad(
        self, z: np.ndarray, mu: float, branches: tuple[bool, ...]
    ) -> tuple[float, np.ndarray]:
        """Smoothed dual-part value and gradient (defaults to exact)."""
        v = self.value_at(z)
        _, g_dual = self.gradient_at(z)
        return v.dual, g_dual

    def branch_flags(self, z: np.ndarray) -> tuple[bool, ...]:
        """Piecewise-branch selections at ``z``; empty for smooth functions."""
        return ()


def _check_same_arity(f: DualFunction, g: DualFunction):
    if f.arity != g.arity:
        raise ArityMismatch(f"arity {f.arity} vs {g.arity}")


class _Combined(DualFunction):
    """Pointwise combination of two dual functions."""

    def __init__(self, f: DualFunction, g: DualFunction, op: str):
        _check_same_arity(f, g)
        if op not in ("sum", "product", "min", "max"):
            raise ValueError(f"unknown combiner {op!r}")
        super().__init__(f.arity, f.declared_standard and g.declared_standard)
        self.f = f
        self.g = g
        self.op = op

    def value(self, values):
        a = self.f.value(values)
        b = self.g.value(values)
        if self.op == "sum":
            return a + b
        if self.op == "product":
            return a * b
        if self.op == "min":
            return a if a.compare(b) <= 0 else b
        return a if a.compare(b) >= 0 else b

    def gradient_at(self, z):
        if self.op == "sum":
            fs, fd = self.f.gradient_at(z)
            gs, gd = self.g.gradient_at(z)
            return fs + gs, fd + gd
        if self.op == "product":
            a = self.f.value_at(z)
            b = self.g.value_at(z)
            fs, fd = self.f.gradient_at(z)
            gs, gd = self.g.gradient_at(z)
            # (ab)_std = a_s b_s ; (ab)_dual = a_s b_d + a_d b_s
            grad_std = b.std * fs + a.std * gs
            grad_dual = b.dual * fs + a.std * gd + b.std * fd + a.dual * gs
            return grad_std, grad_dual
        # min/max pick the winning branch; ties go to the first argument,
        # a valid subgradient selection.
        a = self.f.value_at(z)
        b = self.g.value_at(z)
        cmp = a.compare(b)
        take_f = cmp <= 0 if self.op == "min" else cmp >= 0
        return self.f.gradient_at(z) if take_f else self.g.gradient_at(z)


def combine(f: DualFunction, g: DualFunction, op: str) -> DualFunction:
    """Pointwise sum, product, min, or max of two dual functions."""
    return _Combined(f, g, op)


class _ScalarPower(DualFunction):
    def __init__(self, f: DualFunction, exponent: int):
        if exponent < 1:
            raise ValueError("exponent must be a positive integer")
        super().__init__(f.arity, f.declared_standard)
        self.f = f
        self.exponent = int(exponent)

    def value(self, values):
        v = self.f.value(values)
        m = self.exponent
        # (a + b eps)^m = a^m + m a^(m-1) b eps
        return DualNumber(v.std**m, m * v.std ** (m - 1) * v.dual if m > 1 else v.dual)

    def gradient_at(self, z):
        v = self.f.value_at(z)
        gs, gd = self.f.gradient_at(z)
        m = self.exponent
        if m == 1:
            return gs, gd
        grad_std = m * v.std ** (m - 1) * gs
        grad_dual = m * (m - 1) * v.std ** (m - 2) * v.dual * gs + m * v.std ** (m - 1) * gd
        return grad_std, grad_dual


def scalar_power(f: DualFunction, exponent: int) -> DualFunction:
    """``f`` raised to a positive integer power in dual arithmetic."""
    return _ScalarPower(f, exponent)


# ---------------------------------------------------------------------------
# Dual-quaternion-valued maps


class DualQuaternionMap:
    """A map from a dual quaternion vector to a single dual quaternion."""

    def __init__(self, arity: int, declared_standard: bool = False):
        self.arity = int(arity)
        self.declared_standard = bool(declared_standard)

    def value(self, values: tuple[DualQuaternion, ...]) -> DualQuaternion:
        raise NotImplementedError

    def __call__(self, *values: DualQuaternion) -> DualQuaternion:
        if len(values) != self.arity:
            raise ArityMismatch(f"expected {self.arity} arguments, got {len(values)}")
        return self.value(tuple(values))

    def magnitude(self, tol: float = TOL_APPRECIABLE) -> DualFunction:
        return _MapMagnitude(self, tol)


class _MapMagnitude(DualFunction):
    def __init__(self, inner: DualQuaternionMap, tol: float):
        super().__init__(inner.arity, inner.declared_standard)
        self.inner = inner
        self.tol = tol

    def value(self, values):
        return self.inner.value(values).magnitude(self.tol)


class _VariableMap(DualQuaternionMap):
    def __init__(self, arity: int, index: int):
        if not 0 <= index < arity:
            raise ValueError(f"index {index} out of range for arity {arity}")
        super().__init__(arity, declared_standard=True)
        self.index = index

    def value(self, values):
        return values[self.index]


def variable_map(arity: int, index: int) -> DualQuaternionMap:
    """The map selecting variable ``index``."""
    return _VariableMap(arity, index)


class _NormalizeMap(DualQuaternionMap):
    def __init__(self, inner: DualQuaternionMap):
        super().__init__(inner.arity, inner.declared_standard)
        self.inner = inner

    def value(self, values):
        return self.inner.value(values).normalized()


def normalize_map(inner: DualQuaternionMap) -> DualQuaternionMap:
    """Project the inner map's value to the nearest unit dual quaternion."""
    return _NormalizeMap(inner)


class _MapPower(DualQuaternionMap):
    def __init__(self, inner: DualQuaternionMap, exponent: int):
        if exponent < 1:
            raise ValueError("exponent must be a positive integer")
        super().__init__(inner.arity, inner.declared_standard)
        self.inner = inner
        self.exponent = int(exponent)

    def value(self, values):
        v = self.inner.value(values)
        out = v
        for _ in range(self.exponent - 1):
            out = out * v
        return out


def map_power(inner: DualQuaternionMap, exponent: int) -> DualQuaternionMap:
    """The inner map's value raised to a positive integer power."""
    return _MapPower(inner, exponent)


def make_power(exponent: int) -> DualQuaternionMap:
    """Single-variable power map ``x -> x**exponent``."""
    return map_power(variable_map(1, 0), exponent)


class _ComposeUnit(DualFunction):
    def __init__(self, outer, inner: DualQuaternionMap, validate: bool, declared_standard: bool):
        super().__init__(inner.arity, declared_standard)
        self.outer = outer
        self.inner = inner
        self.validate = validate

    def value(self, values):
        v = self.inner.value(values)
        if self.validate:
            dev = v.unit_deviation()
            if dev > NORMALIZE_TOL:
                raise NonUnitValue(f"inner map produced unit deviation {dev}")
        u = UnitDualQuaternion(v.normalized())
        return self.outer(u)


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
    return _ComposeUnit(outer, inner, validate, declared_standard)


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


class AffineResidual:
    """Residual ``sum_t left_t * x[var_t] * right_t + constant``.

    Both scalar parts are affine in the flattened coordinates, so the
    Jacobians are constant and get precomputed: with ``L``/``R`` the left
    and right multiplication matrices,

    - standard part rows: ``K_ss = L(left_std) R(right_std)`` applied to
      the variable's standard slot;
    - dual part rows: ``K_ss`` applied to the dual slot plus
      ``L(left_dual) R(right_std) + L(left_std) R(right_dual)`` applied to
      the standard slot.
    """

    def __init__(
        self,
        arity: int,
        terms: Sequence[tuple[DualQuaternion, int, DualQuaternion]],
        constant: DualQuaternion | None = None,
    ):
        self.arity = int(arity)
        self.terms = tuple((l, int(v), r) for (l, v, r) in terms)
        self.constant = constant if constant is not None else DualQuaternion.zero()
        for _, v, _ in self.terms:
            if not 0 <= v < self.arity:
                raise ValueError(f"variable index {v} out of range")
        n8 = 8 * self.arity
        jac_std = np.zeros((4, n8))
        jac_dual = np.zeros((4, n8))
        for left, v, right in self.terms:
            k_ss = left.std.left_matrix() @ right.std.right_matrix()
            k_mix = (
                left.dual.left_matrix() @ right.std.right_matrix()
                + left.std.left_matrix() @ right.dual.right_matrix()
            )
            s = 8 * v
            jac_std[:, s : s + 4] += k_ss
            jac_dual[:, s + 4 : s + 8] += k_ss
            jac_dual[:, s : s + 4] += k_mix
        self.jac_std = jac_std
        self.jac_dual = jac_dual
        self.const_std = self.constant.std.as_array()
        self.const_dual = self.constant.dual.as_array()

    def eval(self, values: Sequence[DualQuaternion]) -> DualQuaternion:
        """Exact dual quaternion value, computed in quaternion arithmetic."""
        total = self.constant
        for left, v, right in self.terms:
            total = total + left * values[v] * right
        return total

    def rows(self, z: np.ndarray):
        """(r_std, r_dual, jac_std, jac_dual) at ``z``."""
        return (
            self.jac_std @ z + self.const_std,
            self.jac_dual @ z + self.const_dual,
            self.jac_std,
            self.jac_dual,
        )


class ResidualNormObjective(DualFunction):
    """Sum over groups of the dual-valued 2-norm of stacked residuals.

    Each group contributes ``|(r_1, ..., r_k)|`` where the 2-norm of a dual
    quaternion vector branches on whether the stacked standard part is
    appreciable.  A group with a single residual is that residual's
    magnitude; a single group holding every residual is the 2-norm of the
    whole residual vector.  Both stage hooks smooth the branch they are on
    with the square-root softening ``sqrt(s + mu^2) - mu``.
    """

    def __init__(self, arity: int, groups, tol: float = TOL_APPRECIABLE):
        super().__init__(arity, declared_standard=True)
        self.groups = tuple(tuple(g) for g in groups)
        if not self.groups or any(not g for g in self.groups):
            raise ValueError("groups must be nonempty")
        self.tol = float(tol)
        self.residuals = tuple(r for g in self.groups for r in g)
        for r in self.residuals:
            if r.arity != self.arity:
                raise ArityMismatch(f"residual arity {r.arity} != {self.arity}")
        sizes = [4 * len(g) for g in self.groups]
        # Row index where each group's block starts, for segmented sums.
        self._starts = np.concatenate([[0], np.cumsum(sizes)[:-1]]).astype(np.intp)
        self._n_rows = int(np.sum(sizes))
        self._row_group = np.repeat(np.arange(len(self.groups)), sizes)
        self._affine = all(isinstance(r, AffineResidual) for r in self.residuals)
        if self._affine:
            self._jac_std = np.vstack([r.jac_std for r in self.residuals])
            self._jac_dual = np.vstack([r.jac_dual for r in self.residuals])
            self._const_std = np.concatenate([r.const_std for r in self.residuals])
            self._const_dual = np.concatenate([r.const_dual for r in self.residuals])

    # -- residual stacking ------------------------------------------------

    def _stacks(self, z: np.ndarray):
        """Stacked residual values and Jacobians over all groups."""
        if self._affine:
            return (
                self._jac_std @ z + self._const_std,
                self._jac_dual @ z + self._const_dual,
                self._jac_std,
                self._jac_dual,
            )
        r_std = np.empty(self._n_rows)
        r_dual = np.empty(self._n_rows)
        jac_std = np.zeros((self._n_rows, z.shape[0]))
        jac_dual = np.zeros((self._n_rows, z.shape[0]))
        row = 0
        for r in self.residuals:
            vs, vd, js, jd = r.rows(z)
            r_std[row : row + 4] = vs
            r_dual[row : row + 4] = vd
            jac_std[row : row + 4] = js
            jac_dual[row : row + 4] = jd
            row += 4
        return r_std, r_dual, jac_std, jac_dual

    def _group_sums(self, r_std, r_dual):
        """Per-group sums: |r_std|^2, <r_std, r_dual>, |r_dual|^2."""
        s_std = np.add.reduceat(r_std * r_std, self._starts)
        cross = np.add.reduceat(r_std * r_dual, self._starts)
        s_dual = np.add.reduceat(r_dual * r_dual, self._starts)
        return s_std, cross, s_dual

    # -- exact value and subgradient ---------------------------------------

    def value(self, values):
        return self._exact_value(pack(values))

    def value_at(self, z):
        return self._exact_value(np.asarray(z, dtype=np.float64))

    def _exact_value(self, z) -> DualNumber:
        r_std, r_dual, _, _ = self._stacks(z)
        s_std, cross, s_dual = self._group_sums(r_std, r_dual)
        norms = np.sqrt(s_std)
        app = norms > self.tol
        total_std = float(np.sum(norms[app]))
        total_dual = 0.0
        if np.any(app):
            total_dual += float(np.sum(cross[app] / norms[app]))
        if not np.all(app):
            total_dual += float(np.sum(np.sqrt(s_dual[~app])))
        return DualNumber(total_std, total_dual)

    def gradient_at(self, z):
        r_std, r_dual, jac_std, jac_dual = self._stacks(z)
        s_std, cross, s_dual = self._group_sums(r_std, r_dual)
        norms = np.sqrt(s_std)
        dual_norms = np.sqrt(s_dual)
        app = norms > self.tol
        inf_pos = (~app) & (dual_norms > self.tol)

        # Row weights per group, expanded to residual rows.
        inv_norm = np.where(app, 1.0 / np.where(app, norms, 1.0), 0.0)
        grad_std = jac_std.T @ (r_std * self._expand(inv_norm))

        # Appreciable groups: d/dz [cross / norm]; infinitesimal groups with a
        # nonzero dual stack: d/dz |r_dual|; kinks contribute zero.
        w1 = self._expand(inv_norm)
        w2 = self._expand(np.where(app, -cross * inv_norm**3, 0.0))
        w3 = self._expand(np.where(inf_pos, 1.0 / np.where(inf_pos, dual_norms, 1.0), 0.0))
        grad_dual = jac_std.T @ (r_dual * w1 + r_std * w2) + jac_dual.T @ (
            r_std * w1 + r_dual * w3
        )
        return grad_std, grad_dual

    def _expand(self, per_group: np.ndarray) -> np.ndarray:
        """Repeat a per-group weight across that group's residual rows."""
        return per_group[self._row_group]

    # -- smoothed stage hooks ----------------------------------------------

    def stage1_value_grad(self, z, mu):
        r_std, _, jac_std, _ = self._stacks(z)
        s_std = np.add.reduceat(r_std * r_std, self._starts)
        soft = np.sqrt(s_std + mu * mu)
        value = float(np.sum(soft - mu))
        grad = jac_std.T @ (r_std * self._expand(1.0 / soft))
        return value, grad

    def stage2_value_grad(self, z, mu, branches):
        if len(branches) != len(self.groups):
            raise ValueError("branch flags must match group count")
        r_std, r_dual, jac_std, jac_dual = self._stacks(z)
        s_std, cross, s_dual = self._group_sums(r_std, r_dual)
        app = np.asarray(branches, dtype=bool)
        # Appreciable groups are smooth already (|r_std| stays near its
        # stage-I level), so they get only a tiny fixed floor rather than
        # the walking mu.  Anything larger reweights the groups and breaks
        # the first-order cancellation, in the dual coordinates, between
        # this term and the stage-I stationarity combination; the second
        # stage would then chase an artificial unbounded descent direction.
        floor = _APP_SOFT_FLOOR
        soft_std = np.sqrt(s_std + floor * floor)
        soft_dual = np.sqrt(s_dual + mu * mu)
        value = float(np.sum(cross[app] / soft_std[app])) + float(
            np.sum(soft_dual[~app] - mu)
        )
        w1 = self._expand(np.where(app, 1.0 / soft_std, 0.0))
        w2 = self._expand(np.where(app, -cross / soft_std**3, 0.0))
        w3 = self._expand(np.where(app, 0.0, 1.0 / soft_dual))
        grad = jac_std.T @ (r_dual * w1 + r_std * w2) + jac_dual.T @ (
            r_std * w1 + r_dual * w3
        )
        return value, grad

    def branch_flags(self, z):
        r_std, _, _, _ = self._stacks(np.asarray(z, dtype=np.float64))
        s_std = np.add.reduceat(r_std * r_std, self._starts)
        return tuple(bool(b) for b in np.sqrt(s_std) > self.tol)


# ---------------------------------------------------------------------------
# Constraints


class UnitNormConstraint(DualFunction):
    """Equality constraint forcing variable ``index`` to be unit.

    The dual-number value is ``(|x_std|^2 - 1) + 2 <x_std, x_dual> eps``;
    both parts vanishing is exactly the unit condition.
    """

    def __init__(self, arity: int, index: int):
        super().__init__(arity, declared_standard=True)
        if not 0 <= index < arity:
            raise ValueError(f"index {index} out of range for arity {arity}")
        self.index = int(index)

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
        s = 8 * self.index
        xs = z[s : s + 4]
        xd = z[s + 4 : s + 8]
        v_std = float(xs @ xs) - 1.0
        v_dual = 2.0 * float(xs @ xd)
        g_std, g_dual = self.gradient_at(z)
        return (v_std, g_std), (v_dual, g_dual)


def unit_norm_constraint(arity: int, index: int) -> UnitNormConstraint:
    return UnitNormConstraint(arity, index)


class _ComponentAnchor(DualFunction):
    """One coefficient of ``x[index] - target``, as a dual-number constraint."""

    def __init__(self, arity: int, index: int, component: int, target: DualQuaternion):
        super().__init__(arity, declared_standard=True)
        self.index = int(index)
        self.component = int(component)
        self.target = target
        t_std = target.std.as_array()
        t_dual = target.dual.as_array()
        self._t_std = float(t_std[self.component])
        self._t_dual = float(t_dual[self.component])

    def value(self, values):
        x = values[self.index]
        xs = x.std.as_array()
        xd = x.dual.as_array()
        return DualNumber(xs[self.component] - self._t_std, xd[self.component] - self._t_dual)

    def gradient_at(self, z):
        n8 = 8 * self.arity
        s = 8 * self.index
        g_std = np.zeros(n8)
        g_dual = np.zeros(n8)
        g_std[s + self.component] = 1.0
        g_dual[s + 4 + self.component] = 1.0
        return g_std, g_dual

    def fast_rows(self, z):
        s = 8 * self.index
        v_std = float(z[s + self.component]) - self._t_std
        v_dual = float(z[s + 4 + self.component]) - self._t_dual
        g_std, g_dual = self.gradient_at(z)
        return (v_std, g_std), (v_dual, g_dual)


def anchor_constraints(
    arity: int, index: int, target: DualQuaternion
) -> tuple[DualFunction, ...]:
    """Constraints pinning variable ``index`` to ``target``, one per coefficient."""
    return tuple(_ComponentAnchor(arity, index, c, target) for c in range(4))


class _SquaredDistance(DualFunction):
    """``|x - center|^2`` as a dual number; smooth everywhere."""

    def __init__(self, center: DualQuaternion, arity: int = 1, index: int = 0):
        super().__init__(arity, declared_standard=True)
        self.center = center
        self.index = int(index)

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
    scale: float = 1.0,
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
        std = rng.standard_normal((arity, 4)) * scale
        dual_a = rng.standard_normal((arity, 4)) * scale
        dual_b = rng.standard_normal((arity, 4)) * scale
        point_a = tuple(
            DualQuaternion(Quaternion.from_array(std[i]), Quaternion.from_array(dual_a[i]))
            for i in range(arity)
        )
        point_b = tuple(
            DualQuaternion(Quaternion.from_array(std[i]), Quaternion.from_array(dual_b[i]))
            for i in range(arity)
        )
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
