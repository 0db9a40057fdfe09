"""The constraint block's planned methods against their plain formulas, bit for bit.

``_Plain`` spells out each method of :class:`~dqopt.functions.ConstraintBlock`
with no precomputed plan: every index array is derived from the unit-norm
variables and the anchors where it is used, each row placed by its own
position, and the tangent frames are placed in an identity stack.  The
block must give the same bytes, shapes and C-contiguity on every class of
variable, on single points and stacks, and at a zero standard part.
"""

import numpy as np
import pytest

from dqopt import (
    DualQuaternion,
    Quaternion,
    SolverConfig,
    build_axyb,
    build_pgo,
    error_vector,
    generate_cycle_graph,
    generate_synthetic,
    kkt_analysis,
    solve_eqdqo,
)
from dqopt.algebra import left_mult_matrix
from dqopt.functions import ConstraintBlock


class _Plain:
    """The block's formulas over index arrays built from the data on each call.

    Rows are the unit rows in ``unit`` order, then four per anchor,
    coefficients 0-3: row ``j`` of each family is a position, not a slice.
    """

    def __init__(self, arity, unit, anchors):
        self.arity = arity
        self.u_var = np.array(list(unit), dtype=np.intp)
        rows = [(i, c, t) for i, t in anchors.items() for c in range(4)]
        self.a_var = np.array([i for i, _, _ in rows], dtype=np.intp)
        self.a_comp = np.array([c for _, c, _ in rows], dtype=np.intp)
        self.a_targets = np.array([(t.std.as_array()[c], t.dual.as_array()[c])
                                   for _, c, t in rows]).reshape(-1, 2).T
        self.size = self.u_var.size + self.a_var.size
        self.u_row = np.arange(self.u_var.size)
        self.a_row = self.u_var.size + np.arange(self.a_var.size)
        self.anchored = np.flatnonzero(np.bincount(self.a_var, minlength=arity))
        self.weight = 4.0 * np.bincount(self.u_var, minlength=arity)
        width = np.where(self.weight > 0, 3, 4)
        width[self.anchored] = 0
        self.sphere = np.flatnonzero(width == 3)
        self.var = np.repeat(np.arange(arity), width)
        self.slots = (4 * self.var[:, None] + np.arange(4)).ravel()
        self.col = np.concatenate([np.arange(4 - w, 4) for w in width.tolist()])

    def u_slots(self):
        return 8 * self.u_var.reshape(-1, 1) + np.arange(8)

    def a_coords(self):
        return np.stack((8 * self.a_var + self.a_comp, 8 * self.a_var + 4 + self.a_comp))

    def values(self, z):
        zz = z.take(self.u_slots(), axis=-1)
        dots = (zz[..., None, None, :4] @ zz.reshape(zz.shape[:-1] + (2, 4, 1)))[..., 0, 0]
        vals = np.empty(z.shape[:-1] + (2, self.size))
        vals[..., 0, self.u_row] = dots[..., 0] - 1.0
        vals[..., 1, self.u_row] = 2.0 * dots[..., 1]
        if self.a_row.size:
            vals[..., self.a_row] = z[..., self.a_coords()] - self.a_targets
        return vals[..., 0, :], vals[..., 1, :]

    def pullback(self, z, v):
        unit = 2.0 * z[self.u_slots()[:, :4]] * v[self.u_row, None]
        weights = np.concatenate((unit.ravel(), v[self.a_row]))
        cols = np.concatenate(((4 * self.u_var[:, None] + np.arange(4)).ravel(),
                               4 * self.a_var + self.a_comp))
        return np.bincount(cols, weights, 4 * self.arity)

    def apply(self, z, u):
        out = np.empty(self.size)
        x = z[self.u_slots()[:, :4]]
        out[self.u_row] = 2.0 * np.einsum("ij,ij->i", x, u.reshape(-1, 4)[self.u_var])
        out[self.a_row] = u[4 * self.a_var + self.a_comp]
        return out

    def project(self, z):
        out = z.copy()
        slots = self.u_slots()[:, :4]
        x = out[..., slots]
        out[..., slots] = x / np.sqrt(np.add.reduce(x * x, axis=-1, keepdims=True))
        out[..., self.a_coords()[0]] = self.a_targets[0]
        return out

    def curvature(self, z, grad):
        out = np.zeros(z.shape[:-1] + (self.arity,))
        x = z.take(self.u_slots()[:, :4], axis=-1)
        g = grad.reshape(grad.shape[:-1] + (-1, 4)).take(self.u_var, axis=-2)
        out[..., self.u_var] = np.einsum("...ij,...ij->...i", x, g)
        return out

    def tangent(self, z):
        frames = np.broadcast_to(np.eye(4), z.shape[:-1] + (self.arity, 4, 4)).copy()
        x = z[..., 8 * self.sphere[:, None] + np.arange(4)]
        frames[..., self.sphere, :, :] = left_mult_matrix(x)
        return frames.swapaxes(-1, -2)[..., self.var, self.col, :]

    def pinv(self, z, u):
        x, u, a = z.reshape(-1, 8)[:, :4], u.reshape(-1, 4), self.weight
        dot, sq = np.einsum("ij,ij->i", x, u), np.einsum("ij,ij->i", x, x)
        out = np.zeros(u.shape)
        s, k = self.sphere[sq[self.sphere] > 0], self.anchored
        out[s] = x[s] * (dot[s] / (a[s] * sq[s] * sq[s]))[:, None]
        out[k] = u[k] - x[k] * (a[k] * dot[k] / (1.0 + a[k] * sq[k]))[:, None]
        return out.ravel()

    def rank(self, z):
        live = z.reshape(-1, 8)[self.sphere, :4].any(axis=-1)
        return int(np.count_nonzero(live)) + 4 * self.anchored.size


def _target():
    return DualQuaternion(Quaternion(0.6, 0.8, 0, 0), Quaternion(0, 1, 2, 3))


def _problem_case(problem):
    return problem.arity, problem.unit, problem.anchors


CASES = {
    # 0 anchored with a unit row, 1 and 4 spheres, 2 anchored without one,
    # 3 and 5 free; unit variables out of order, anchors out of order
    "mixed": (6, (4, 0, 1), {2: _target(), 0: _target()}),
    # unit rows on variables 1 to 3 in order, then variable 0's anchor
    "consecutive": (4, (1, 2, 3), {0: _target()}),
    "spheres": (2, (0, 1), {}),
    "free": (3, (1,), {}),
    "anchored": (1, (), {0: DualQuaternion.identity()}),
    "pgo": _problem_case(build_pgo(generate_cycle_graph(20, 6, 0.01, 0.01, seed=0))),
    "axyb": _problem_case(build_axyb(generate_synthetic("axyb", 6, 0.01, 0.01, seed=0))),
}


def _same(a, b):
    """Equal shapes, C-contiguity and bytes."""
    assert a.shape == b.shape and a.dtype == b.dtype
    assert a.flags.c_contiguous == b.flags.c_contiguous
    assert np.array_equal(a.view(np.int64), b.view(np.int64))


def _singles(arity, rng):
    """A point, one with every standard part 0 and one with variable 0's standard part 0."""
    point, zero, one = rng.standard_normal((3, 8 * arity))
    zero[8 * np.arange(arity)[:, None] + np.arange(4)] = 0.0
    one[:4] = 0.0
    return [point, zero, one]


@pytest.mark.parametrize("case", list(CASES))
def test_every_block_method_matches_its_plain_formula_bit_for_bit(case):
    arity, unit, anchors = CASES[case]
    block, plain = ConstraintBlock(arity, unit, anchors), _Plain(arity, unit, anchors)
    rng = np.random.default_rng(42)
    stack, singles = rng.standard_normal((3, 8 * arity)), _singles(arity, rng)
    for z in [stack, stack[:1]] + singles:
        grad = rng.standard_normal(z.shape[:-1] + (4 * arity,))
        _same(block.tangent(z), plain.tangent(z))
        for got, want in zip(block.values(z), plain.values(z)):
            _same(got, want)
        with np.errstate(invalid="ignore", divide="ignore"):  # a zero norm projects to NaN
            _same(block.project(z), plain.project(z))
        _same(block.curvature(z, grad), plain.curvature(z, grad))
    for z in singles:
        u, v = rng.standard_normal(4 * arity), rng.standard_normal(plain.size)
        _same(block.pinv(z, u), plain.pinv(z, u))
        _same(block.pullback(z, v), plain.pullback(z, v))
        _same(block.apply(z, u), plain.apply(z, u))
        assert block.rank(z) == plain.rank(z)
    _same(block.var, plain.var)
    _same(block.slots, plain.slots)


def test_a_200_vertex_pose_graph_block_has_the_loop_forms_columns():
    problem = build_pgo(generate_cycle_graph(200, 60, 0.01, 0.01, seed=1))
    block, plain = problem.block, _Plain(problem.arity, problem.unit, problem.anchors)
    for got, want in ((block.var, plain.var), (block._col, plain.col), (block.slots, plain.slots)):
        _same(got, want)


def test_kkt_edge_errors_and_restarts_read_a_solutions_rows(monkeypatch):
    graph = generate_cycle_graph(200, 60, 0.01, 0.01, seed=2)
    problem = build_pgo(graph)
    report = solve_eqdqo(problem, SolverConfig(restarts=1, seed=0))
    built = []
    init = DualQuaternion.__init__

    def spy(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(DualQuaternion, "__init__", spy)
    infos = [kkt_analysis(problem, report.solution, stage=stage) for stage in (1, 2)]
    errors = error_vector(graph, report.solution)
    again = solve_eqdqo(problem, SolverConfig(restarts=1, seed=0), initial=report.solution)
    assert built == []
    monkeypatch.undo()
    entries = list(report.solution)
    from_entries = solve_eqdqo(problem, SolverConfig(restarts=1, seed=0), initial=entries)
    _same(again.solution.rows, from_entries.solution.rows)
    for stage, info in zip((1, 2), infos):
        ref = kkt_analysis(problem, entries, stage=stage)
        assert repr((info.residual, info.degenerate)) == repr((ref.residual, ref.degenerate))
        _same(np.array(info.multipliers), np.array(ref.multipliers))
    _same(errors.rows, error_vector(graph, entries).rows)
