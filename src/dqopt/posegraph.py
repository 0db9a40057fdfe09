"""Pose graph optimization over unit dual quaternion poses.

Vertices are unknown rigid poses, directed edges carry measured relative
poses, and the objective is the dual-valued 2-norm of the stacked edge
errors ``q_ij - conj(x_i) * x_j`` subject to unit constraints per vertex.
Stage I minimizes the same norm of the affine rows ``x_i q_ij - x_j``,
equal to it on the unit set and with a constant Jacobian.
The subtraction makes residuals sensitive to the double-cover sign, so
:meth:`PoseGraph.measurements`, through which every problem reads the edge
poses, fixes their signs; a graph stores its rows as given.  Vertex 1 is
anchored to the identity to fix the global gauge.

A :class:`PoseGraph` keeps its records as arrays and nothing else: edge ids
and measured poses in input order, initial guesses and ground truth by
vertex id.  :func:`parse_graph` converts every record of a kind at once,
and :func:`build_pgo`, :func:`spanning_tree_guess` and
:func:`vertex_errors` work on those arrays, with no object per edge or
vertex; :func:`generate_cycle_graph` composes its poses with the batched
row kernels of :mod:`dqopt.handeye`.

Text format, one whitespace-separated record per line::

    VERTEX id qw qx qy qz tx ty tz     (optional initial guess)
    EDGE   i  j qw qx qy qz tx ty tz   (measurement)
    # TRUTH id qw qx qy qz tx ty tz    (ground truth, kept on round trips)

Other ``#`` lines are comments.  Vertex ids are 1-based.
"""

from __future__ import annotations

import functools
import math
from typing import Sequence

import numpy as np

from .algebra import (
    NORMALIZE_TOL,
    DualQuaternion,
    DualQuaternionVector,
    Quaternion,
    UnitDualQuaternion,
    left_mult_matrix,
    normalize_dq,
    quat_dot,
    quat_mul,
    right_mult_matrix,
)
from .errors import (
    DisconnectedGraph,
    NoGroundTruth,
    NonUnitMeasurement,
    ParseError,
    TooFewMotions,
)
from .functions import (
    ResidualNormObjective,
    _assemble,
    _count,
    _jacobian_cols,
    _seed,
    affine_rows,
    pack,
)
from .handeye import _CONJ, _seeded_rng, _unit, check_noise, pose_compose, pose_errors, pose_inverse
from .handeye import canonicalized, checked_rows, pose_rows, pose_udqs, rotation_about, unit_rows
from . import solver

__all__ = [
    "PoseGraph",
    "error_vector",
    "RelativePoseResidual",
    "build_pgo",
    "spanning_tree_guess",
    "spanning_tree_rows",
    "parse_graph",
    "serialize_graph",
    "generate_cycle_graph",
    "vertex_errors",
]


def _pose_rows_of(kind: str, ids: np.ndarray, rows) -> np.ndarray:
    """One pose row per record of ``ids``, checked by :func:`~dqopt.handeye.checked_rows`.

    Raises :class:`~dqopt.errors.InvalidPose` naming the ``kind`` and input
    index of the first bad row, or ``ValueError`` when the counts differ.
    """
    rows = checked_rows(rows, kind + " row {}")
    if len(rows) != len(ids):
        raise ValueError(f"{len(ids)} {kind} ids but {len(rows)} pose rows")
    return rows


def _by_id(kind: str, ids, rows) -> tuple[np.ndarray, np.ndarray]:
    """Vertex records sorted by id, as new arrays; of several records for one id, the last counts."""
    ids = np.array(ids, dtype=np.intp).reshape(-1)
    rows = _pose_rows_of(kind, ids, rows)
    if (ids[1:] > ids[:-1]).all():  # already sorted, each id once
        return ids, rows
    last = ids.size - 1 - np.unique(ids[::-1], return_index=True)[1]
    return ids[last], rows[last]


class PoseGraph:
    """Vertices 1..n, measurement edges, optional guesses and ground truth, as arrays.

    A pose is a row ``(qw, qx, qy, qz, tx, ty, tz)``: a unit rotation and
    the world-frame translation.  ``edge_ids`` ``(m, 2)`` holds each edge's
    source and target and ``edge_poses`` ``(m, 7)`` its measured pose, both
    in input order, with the rotation's sign as given; :meth:`measurements`
    fixes that sign.  ``vertex_ids``/``vertex_poses`` hold the initial
    guesses and ``truth_ids``/``truth_poses`` the ground truth, ids
    ascending.  These read-only arrays are the only store.

    ``vertices`` and ``truth`` are ``(ids, poses)`` pairs in any order; of
    several records for one id, the last counts.  Every pose row must be
    finite with a rotation norm within ``NORMALIZE_TOL`` of 1, else
    :class:`~dqopt.errors.InvalidPose` names its kind and input index; the
    rows are stored as given, not normalized.
    """

    def __init__(self, n: int, edge_ids, edge_poses, vertices=((), ()), truth=((), ())):
        self.n = _count("n", n, ValueError)
        if self.n < 1:
            raise ValueError("graph needs at least one vertex")
        # copies, so that no caller's array can change a validated graph
        self.edge_ids = np.array(edge_ids, dtype=np.intp).reshape(-1, 2)
        self.edge_poses = _pose_rows_of("edge", self.edge_ids, edge_poses)
        i, j = self.edge_ids.T
        outside = (np.minimum(i, j) < 1) | (np.maximum(i, j) > self.n)
        bad = np.flatnonzero(outside | (i == j))
        if bad.size:
            i, j = self.edge_ids[bad[0]].tolist()
            if not outside[bad[0]]:
                raise ValueError(f"self loop at vertex {i}")
            raise ValueError(f"edge ({i}, {j}) out of vertex range 1..{self.n}")
        self.vertex_ids, self.vertex_poses = _by_id("vertex", *vertices)
        self.truth_ids, self.truth_poses = _by_id("truth", *truth)
        for ids in (self.vertex_ids, self.truth_ids):
            if ids.size and (ids[0] < 1 or ids[-1] > self.n):
                vid = int(ids[0] if ids[0] < 1 else ids[-1])
                raise ValueError(f"vertex id {vid} out of range 1..{self.n}")
        for a in (self.edge_ids, self.edge_poses, self.vertex_ids, self.vertex_poses,
                  self.truth_ids, self.truth_poses):
            a.flags.writeable = False

    @property
    def m(self) -> int:
        return len(self.edge_ids)

    def edge_order(self) -> np.ndarray:
        """Edge indices by (source, target), input order among equals; fixes residual ordering."""
        i, j = self.edge_ids.T
        return np.argsort(i * (self.n + 1) + j, kind="stable")

    def measurements(self) -> np.ndarray:
        """The edge poses as unit dual quaternions, ``(m, 2, 4)`` (standard, dual), input order.

        Converted by :func:`~dqopt.handeye.pose_udqs`: the dual part is
        ``(t q) / 2`` with ``t`` the translation as a pure quaternion.  The
        residuals subtract them, so their signs are fixed here by
        :func:`~dqopt.handeye.canonicalized`, the same for ``q`` and ``-q``.
        """
        return canonicalized(pose_udqs(self.edge_poses))


def _sorted_edges(graph: PoseGraph) -> tuple[np.ndarray, np.ndarray]:
    """0-based ends ``(m, 2)`` and measurements ``(m, 2, 4)`` of the edges in residual order."""
    order = graph.edge_order()
    return graph.edge_ids[order] - 1, graph.measurements()[order]


def _bfs_tree(n: int, ij: np.ndarray):
    """Breadth-first tree from vertex 1 over the undirected structure of ``n`` vertices.

    Returns ``(vertices, parents, via, bounds)``: every vertex reached
    besides vertex 1 (0-based, in visit order), its tree parent and its
    entering edge, and the offsets where each depth starts and ends.  An
    entering edge is ``k`` when it runs from the parent to the vertex and
    ``m + k`` otherwise, ``k`` its row in ``ij``, the sorted edges' 0-based
    ends.  Neighbours are visited in that order, so the tree is
    deterministic.
    """
    m = len(ij)
    # Every edge once from each end, grouped by that end in edge order.
    owner = np.concatenate((ij[:, 0], ij[:, 1]))
    entry = np.argsort(owner * m + np.tile(np.arange(m), 2))
    start = np.searchsorted(owner[entry], np.arange(n + 1)).tolist()
    other = np.concatenate((ij[:, 1], ij[:, 0]))[entry].tolist()
    entry = entry.tolist()
    seen = [False] * n
    seen[0] = True
    vertices, parents, via, bounds = [], [], [], [0]
    frontier = [0]
    while frontier:
        for v in frontier:
            for s in range(start[v], start[v + 1]):
                w = other[s]
                if not seen[w]:
                    seen[w] = True
                    vertices.append(w)
                    parents.append(v)
                    via.append(entry[s])
        frontier = vertices[bounds[-1] :]
        bounds.append(len(vertices))
    return (
        np.array(vertices, dtype=np.intp),
        np.array(parents, dtype=np.intp),
        np.array(via, dtype=np.intp),
        bounds[:-1],
    )


def error_vector(graph: PoseGraph, poses: Sequence) -> DualQuaternionVector:
    """Edge errors stacked in sorted edge order under the given poses."""
    if len(poses) != graph.n:
        raise ValueError(f"expected {graph.n} poses, got {len(poses)}")
    ij, q = _sorted_edges(graph)
    r_std, r_dual, _, _ = RelativePoseResidual.stack_arrays(graph.n, *ij.T, q)(pack(poses))
    return DualQuaternionVector.from_rows(
        np.concatenate((r_std.reshape(-1, 4), r_dual.reshape(-1, 4)), axis=1))


# ---------------------------------------------------------------------------
# Residual with analytic derivatives


class RelativePoseResidual:
    """``q_ij - conj(x_i) x_j`` with its derivatives over the flat coordinates.

    Bilinear in the two variables; with ``C`` the conjugation sign matrix,
    ``conj(x_i) x_j`` has standard-part derivative ``L(conj(x_i))`` in
    ``x_j`` and ``R(x_j) C`` in ``x_i``, and the dual part adds the same
    blocks shifted to dual slots plus cross terms from the dual factors.
    :meth:`stack_arrays` evaluates many edges, given as index and
    measurement arrays, in one batched pass and pulls row weights back
    through those per-edge blocks, forming a (sparse) Jacobian matrix only
    on request.  :meth:`rows` evaluates this edge alone the same way; no
    solve calls it, and it stays only until ROADMAP item 13's benchmark change.
    """

    def __init__(self, arity: int, i: int, j: int, measurement: UnitDualQuaternion):
        self.arity = int(arity)
        self.i = int(i)
        self.j = int(j)
        if not (0 <= self.i < self.arity and 0 <= self.j < self.arity) or self.i == self.j:
            raise ValueError(f"edge ({i}, {j}) needs two distinct indices in [0, {arity})")
        self.measurement = measurement

    def rows(self, z: np.ndarray):
        """(r_std, r_dual, pullback, jacobian) of this edge at ``z``."""
        q = pack([self.measurement]).reshape(1, 2, 4)
        return self.stack_arrays(self.arity, [self.i], [self.j], q)(z)

    @staticmethod
    def stack_arrays(arity: int, i: np.ndarray, j: np.ndarray, measurements: np.ndarray):
        """Evaluator ``z -> (r_std, r_dual, pullback, jacobian)`` over the rows of ``k`` edges.

        Edge ``e`` runs from variable ``i[e]`` to ``j[e]`` (0-based, distinct,
        below ``arity``) with measurement ``measurements[e]``, a ``(k, 2, 4)``
        array of unit dual quaternions (standard, dual).
        Each call gathers all ``x_i``/``x_j`` with index arrays fixed here and
        forms ``L(conj(x_i))`` as a ``(k, 2, 4, 4)`` stack (both parts of each
        edge), and ``R(x_j) C`` once at the first ``pullback`` or ``jacobian``
        call, never for values alone; no loop over edges.  ``z`` is one point
        ``(8n,)`` or a stack ``(R, 8n)``, whose rows come out as ``(R, 4k)``,
        each equal bit for bit to that point's alone.  ``pullback(w_std,
        w_dual=None)`` (one point) returns ``J_s^T w_std + J_d^T w_dual`` as
        one ``8n`` vector: it forms each edge's 4x8 standard (and 4x16 dual)
        Jacobian block, multiplies it by the edge's four weights and sums the
        products into their columns with ``np.bincount``.  Value-only callers
        never call it, so they build no block; nor does a call whose weights
        are all ±0, as at an exact solution: its result at a finite ``z`` is
        all ``-0.0`` (a NaN weight takes the full path).  ``jacobian(sparse)``
        returns the same 4x8 standard blocks over the standard slots, column
        ``4i + c`` for coefficient ``c`` of vertex ``i``, laid out by
        :func:`~dqopt.functions._assemble`: a dense ``(4k, 4n)`` array for
        one point and ``(R, 4k, 4n)`` for a stack, or with ``sparse`` a CSR
        ``(4k, 4n)`` matrix for one point or a stack of one.
        """
        n = int(arity)
        n8 = 8 * n
        i = np.asarray(i, dtype=np.intp)
        j = np.asarray(j, dtype=np.intp)
        si = 8 * i[:, None] + np.arange(8)
        sj = 8 * j[:, None] + np.arange(8)
        q_std, q_dual = measurements[:, 0], measurements[:, 1]
        # Columns of each edge's blocks, edge by edge: the standard part depends
        # on the standard slots of x_i and x_j, the dual part on all 16.
        cols_std = np.concatenate((si[:, :4], sj[:, :4]), axis=1).ravel()
        cols_dual = np.concatenate((si, sj), axis=1).ravel()

        def evaluate(z: np.ndarray):
            lead = z.shape[:-1]
            # np.take keeps the gathered rows in C order, as for one point
            xj = z.take(sj, axis=-1)[..., None]
            # L(conj(x_i)) and R(x_j) C for both parts, the latter on first use by a derivative
            l_i = left_mult_matrix(z.take(si, axis=-1).reshape(lead + (-1, 2, 4)) * _CONJ)
            r_j = functools.cache(lambda: right_mult_matrix(xj.reshape(lead + (-1, 2, 4))) * _CONJ)
            l_s, l_d = l_i[..., 0, :, :], l_i[..., 1, :, :]
            r_s = q_std - (l_s @ xj[..., :4, :])[..., 0]
            r_d = q_dual - (l_s @ xj[..., 4:, :])[..., 0] - (l_d @ xj[..., :4, :])[..., 0]

            # The residual is q minus the product, so every block enters negated;
            # negating the sums instead is exact.
            def pullback(w_std: np.ndarray, w_dual: np.ndarray | None = None) -> np.ndarray:
                if not (w_std.any() or w_dual is not None and w_dual.any()):
                    return np.full(n8, -0.0)  # the sums below, each +0, negated
                block = np.concatenate((r_j()[:, 0], l_i[:, 0]), axis=2)
                grad = -np.bincount(cols_std, (w_std.reshape(-1, 1, 4) @ block).ravel(), n8)
                if w_dual is not None:
                    block = np.concatenate((r_j()[:, 1], r_j()[:, 0], l_i[:, 1], l_i[:, 0]), axis=2)
                    grad -= np.bincount(cols_dual, (w_dual.reshape(-1, 1, 4) @ block).ravel(), n8)
                return grad

            def jacobian(sparse):
                block = -np.concatenate((r_j()[..., 0, :, :], l_s), axis=-1)
                # one call per solve, at stage II's point: the columns are not kept
                return _assemble(block, _jacobian_cols(i, j), n, sparse)

            return r_s.reshape(lead + (-1,)), r_d.reshape(lead + (-1,)), pullback, jacobian

        return evaluate


def build_pgo(graph: PoseGraph) -> solver.EqdqoProblem:
    """Problem: minimize the 2-norm of all edge errors over unit poses.

    One norm group holds every residual (a genuine vector 2-norm, not a
    sum of magnitudes), evaluated from the graph's arrays by
    :meth:`RelativePoseResidual.stack_arrays`.  Stage I minimizes the
    problem's ``stage1``, the same norm of the affine rows ``x_i q_ij -
    x_j`` (:func:`~dqopt.functions.affine_rows` of ``R(q_ij)`` and ``-I``):
    its Jacobian is constant, and it equals the objective wherever the
    vertices' standard parts are unit.
    Constraints: the identity anchor on vertex 1 and one unit condition per
    other vertex; vertex 1 gets none, because its anchor implies it and a
    fifth row on its 4 coordinates would make the constraint gradients
    dependent.  ``start``
    is :func:`spanning_tree_rows`, from the search that proves the graph
    connected.  Raises :class:`TooFewMotions` when the graph has no edges,
    else :class:`DisconnectedGraph` as :func:`spanning_tree_rows` does.
    """
    if not graph.m:
        raise TooFewMotions(f"graph with {graph.n} vertices has no edges")
    ij, q, start = _tree_start(graph)
    residuals = RelativePoseResidual.stack_arrays(graph.n, *ij.T, q)
    objective = ResidualNormObjective(graph.n, residuals, [graph.m])
    minus = np.zeros(q.shape + (4,))
    minus[:, 0] = -np.eye(4)  # the term -x_j, with no dual matrix
    rows = affine_rows(graph.n, *ij.T, right_mult_matrix(q), minus)
    stage1 = ResidualNormObjective(graph.n, rows, [graph.m])
    anchor = {0: DualQuaternion.identity()}
    return solver.EqdqoProblem(objective, np.arange(1, graph.n), anchor, start, stage1)


def spanning_tree_guess(graph: PoseGraph) -> tuple[UnitDualQuaternion, ...]:
    """Initial poses by propagating measurements over a breadth-first tree.

    Vertex 1 is the identity; a forward tree edge (i, j) sets
    ``x_j = x_i q_ij`` and a backward one sets ``x_i = x_j conj(q_ij)``.
    Each level of the tree takes one batched product, rounded as
    :meth:`UnitDualQuaternion.__mul__` (the product, then ``normalized``).
    :func:`spanning_tree_rows` gives the same poses as an array; only the
    benchmark calls this form, until ROADMAP item 13's benchmark change.
    """
    return UnitDualQuaternion.from_rows(spanning_tree_rows(graph))


def spanning_tree_rows(graph: PoseGraph) -> np.ndarray:
    """The poses of :func:`spanning_tree_guess` as ``(n, 8)`` rows (standard, dual part).

    They equal ``build_pgo(graph).start`` bit for bit.  Raises
    :class:`DisconnectedGraph` when some vertex is unreachable from vertex 1.
    """
    return _tree_start(graph)[2]


def _tree_start(graph: PoseGraph) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(ij, q, poses)``: the :func:`_sorted_edges` and the spanning-tree poses ``(n, 8)``.

    One breadth-first search both proves the graph connected and builds
    the tree; fewer than ``n - 1`` edges raise :class:`DisconnectedGraph`
    before it, since it allocates per vertex.
    """
    if graph.m < graph.n - 1:
        raise DisconnectedGraph(f"graph with {graph.n} vertices and {graph.m} edges is not connected")
    ij, q = _sorted_edges(graph)
    vertices, parents, via, bounds = _bfs_tree(graph.n, ij)
    if len(vertices) != graph.n - 1:
        raise DisconnectedGraph(
            f"only {len(vertices) + 1} of {graph.n} vertices reachable from vertex 1"
        )
    # Entering edge k reads q_k, and m + k its conjugate.
    both = np.concatenate((q, q * _CONJ))
    # quat_mul for std*std, std*dual and dual*std, with every tree edge's
    # multiplication matrices formed once
    factors = right_mult_matrix(both[via][:, [0, 1, 0]])
    rows = 2 * parents[:, None] + np.array([0, 0, 1])
    poses = np.zeros((graph.n, 2, 4))
    poses[0, 0, 0] = 1.0
    flat = poses.reshape(-1, 4)
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        t = flat[rows[lo:hi], None, :] * factors[lo:hi]
        p = t[..., 0] + t[..., 1] + t[..., 2] + t[..., 3]
        v = vertices[lo:hi]
        poses[v, 0], poses[v, 1] = normalize_dq(p[:, 0], p[:, 1] + p[:, 2])
    return ij, q, poses.reshape(graph.n, 8)


# ---------------------------------------------------------------------------
# Text format

#: Tokens per record, counting the keyword, and the names of its id fields.
_RECORDS = {
    "EDGE": (10, ("edge source", "edge target")),
    "VERTEX": (9, ("vertex id",)),
    "TRUTH": (9, ("vertex id",)),  # after the leading "#"
}


def _records(text: str):
    """``(line, tokens)`` of every record, lines 1-based; a ``# TRUTH`` record drops its ``#``."""
    for line, raw in enumerate(text.splitlines(), start=1):
        tokens = raw.split()
        if tokens and tokens[0].startswith("#"):
            tokens = tokens[1:] if tokens[0] == "#" and tokens[1:2] == ["TRUTH"] else []
        if tokens:
            yield line, tokens


def _converted(text: str) -> dict | None:
    """``{kind: (ids, rows)}`` of every record, or None when some record fails a check.

    Each line is split once; the ids and numbers of all records of one kind
    are converted together and checked together: ids positive, no self
    loop, numbers finite, rotation norms within ``NORMALIZE_TOL`` of 1.
    ``ids`` is ``(k, w)`` for ``w`` id fields and ``rows`` the ``(k, 7)``
    pose rows, each rotation divided by its norm and then once more by
    :func:`~dqopt.handeye._unit`, its sign as given.
    """
    fields = {kind: ([], []) for kind in _RECORDS}
    for _, tokens in _records(text):
        kind = tokens[0]
        if kind not in _RECORDS or len(tokens) != _RECORDS[kind][0]:
            return None
        fields[kind][0].extend(tokens[1:-7])
        fields[kind][1].extend(tokens[-7:])
    out = {}
    for kind, (id_tokens, numbers) in fields.items():
        try:
            ids = np.array(list(map(int, id_tokens)), dtype=np.intp)
            values = np.array(numbers, dtype=np.float64).reshape(-1, 7)
        except (ValueError, OverflowError):
            return None
        ids = ids.reshape(-1, len(_RECORDS[kind][1]))
        q = values[:, :4]
        norm = np.sqrt(quat_dot(q, q))
        # ids[:, 1:] is empty for a vertex record, so it has no self loop
        if ((ids < 1).any() or (ids[:, :1] == ids[:, 1:]).any() or not np.isfinite(values).all()
                or (abs(norm - 1.0) > NORMALIZE_TOL).any()):
            return None
        out[kind] = ids, _unit(q * (1.0 / norm)[:, None], values[:, 4:])
    return out


def _record_error(line: int, tokens: list[str]) -> Exception | None:
    """The error of the first check that the record ``tokens`` on ``line`` fails, else None.

    The checks, in order: a known record type with its token count; each id
    in turn an integer that fits 64 bits, then positive; no self loop; all 7
    numbers, then all finite; a rotation norm within ``NORMALIZE_TOL`` of 1.
    Tokens convert as in :func:`_converted`: ids by ``int`` into ``np.intp``,
    numbers as ``float`` parses them, which is how NumPy parses them too.
    """
    kind = tokens[0]
    if kind not in _RECORDS:
        return ParseError(line, f"unknown record type {kind!r}")
    size, names = _RECORDS[kind]
    if len(tokens) != size:
        if kind == "TRUTH":
            return ParseError(line, f"TRUTH needs 8 fields, got {len(tokens) - 1}")
        return ParseError(line, f"{kind} needs {size} tokens, got {len(tokens)}")
    ids = []
    for name, token in zip(names, tokens[1:]):
        try:
            ids.append(np.intp(int(token)))
        except (ValueError, OverflowError):
            return ParseError(line, f"{name} must be an integer that fits 64 bits, got {token!r}")
        if ids[-1] < 1:
            return ParseError(line, f"{name} must be positive, got {ids[-1]}")
    if len(ids) == 2 and ids[0] == ids[1]:
        return ParseError(line, f"self loop at vertex {ids[0]}")
    values = []
    for token in tokens[-7:]:
        try:
            values.append(float(token))
        except ValueError:
            return ParseError(line, f"not a number: {token!r}")
    for token, value in zip(tokens[-7:], values):
        if not math.isfinite(value):
            return ParseError(line, f"not a finite number: {token!r}")
    q = np.array(values[:4])
    norm = float(np.sqrt(quat_dot(q, q)))
    if abs(norm - 1.0) > NORMALIZE_TOL:
        return NonUnitMeasurement(
            f"line {line}: {kind} rotation norm {norm} deviates beyond {NORMALIZE_TOL}"
        )
    return None


def parse_graph(text: str) -> PoseGraph:
    """Parse the text format; see the module docstring for the grammar.

    Valid text is converted in one pass over all records of a kind at once
    (:func:`_converted`).  Only text that fails there is read again, record
    by record, to raise the error of the first failing line
    (:func:`_record_error`): :class:`ParseError`, or
    :class:`NonUnitMeasurement` for a rotation norm off 1 by more than
    ``NORMALIZE_TOL``.
    """
    records = _converted(text)
    if records is None:
        # both passes accept the same records, so some record fails here
        raise next(filter(None, (_record_error(*record) for record in _records(text))))
    n = max((int(ids.max()) for ids, _ in records.values() if ids.size), default=0)
    if n == 0:
        raise ParseError(0, "no records found")
    return PoseGraph(n, *records["EDGE"], records["VERTEX"], records["TRUTH"])


def _format_rows(label: str, ids, rows: np.ndarray) -> list[str]:
    return [
        f"{label} {' '.join(map(str, i))} {' '.join(map(repr, row))}"
        for i, row in zip(ids, rows.tolist())
    ]


def serialize_graph(graph: PoseGraph) -> str:
    """Canonical text form: serialize, parse and serialize again gives the same bytes.

    Parse followed by serialize need not: of several records for one id
    only the last is written, and numbers are written as their ``repr``.
    """
    lines = _format_rows("VERTEX", graph.vertex_ids[:, None].tolist(), graph.vertex_poses)
    lines += _format_rows("EDGE", graph.edge_ids.tolist(), graph.edge_poses)
    lines += _format_rows("# TRUTH", graph.truth_ids[:, None].tolist(), graph.truth_poses)
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Synthetic graphs


def generate_cycle_graph(
    n: int,
    loop_closures: int = 0,
    noise_rot: float = 0.0,
    noise_trans: float = 0.0,
    seed: int = 0,
) -> PoseGraph:
    """Loop trajectory with sequential edges plus random chords.

    Ground-truth attitudes stay within 0.2 rad of the identity so every
    relative rotation keeps a positive scalar part: the sign that
    :meth:`PoseGraph.measurements` gives each measurement is then
    consistent with the stored truth, and the noiseless objective is
    exactly zero there.  Vertex 1 is the identity.
    Noise perturbs each measurement by a rotation of angle ~N(0, sigma_r^2)
    about a random axis plus translation noise ~N(0, sigma_t^2 I).  Raises
    ``ValueError`` for an ``n``, ``loop_closures`` or ``seed`` that is not a
    Python or NumPy integer (a bool is none), fewer than 3 vertices, a chord
    count the graph has no room for, a noise scale that is negative or not
    finite, or a negative seed.
    """
    n, seed = _count("n", n, ValueError), _seed(seed)
    loop_closures = _count("loop_closures", loop_closures, ValueError)
    if n < 3:
        raise ValueError("need at least 3 vertices")
    check_noise(noise_rot, noise_trans)
    rng = _seeded_rng(seed)
    raw = []
    for k in range(n):
        q = rotation_about(rng, rng.uniform(0.05, 0.2))
        theta = 2.0 * math.pi * k / n
        raw.append((*q, 3.0 * math.cos(theta), 3.0 * math.sin(theta), 0.3 * math.sin(2.0 * theta)))
    raw = unit_rows(raw, "vertex {}")
    truth = pose_compose(np.repeat(pose_inverse(raw[:1]), n, axis=0), raw)

    # 0-based: the ring's edges, then chords drawn by their number among every
    # pair two or more apart but the ring's (0, n - 1), in row order
    ring = np.arange(n)
    ij = np.stack((ring, np.roll(ring, -1)), axis=1)
    count = (n - 1) * (n - 2) // 2 - 1
    if not 0 <= loop_closures <= count:
        raise ValueError(f"loop_closures must be between 0 and {count}")
    if loop_closures:
        picks = np.sort(rng.choice(count, size=loop_closures, replace=False))
        picks += picks >= n - 3  # numbered with (0, n - 1): row i holds (i, i + 2) to (i, n - 1)
        ends = np.cumsum(np.arange(n - 2, 0, -1))
        i = np.searchsorted(ends, picks, side="right")
        ij = np.concatenate((ij, np.stack((i, picks - ends[i] + n), axis=1)))
    rel = pose_compose(pose_inverse(truth[ij[:, 0]]), truth[ij[:, 1]])
    if noise_rot > 0.0 or noise_trans > 0.0:
        # each edge draws its rotation, then its translation noise
        bumps = np.tile([1.0, 0.0, 0.0, 0.0], (len(ij), 1))
        shifts = np.zeros((len(ij), 3))
        for e in range(len(ij)):
            if noise_rot > 0.0:
                axis = rng.standard_normal(3)
                axis /= np.linalg.norm(axis)
                bump = Quaternion.exp_axis_angle(rng.normal(0.0, noise_rot), Quaternion(0.0, *axis))
                bumps[e] = bump.as_array()
            if noise_trans > 0.0:
                shifts[e] = rng.normal(0.0, noise_trans, 3)
        t = rel[:, 4:] + shifts if noise_trans > 0.0 else rel[:, 4:]
        rel = unit_rows(np.concatenate((quat_mul(bumps, rel[:, :4]), t), axis=1), "edge {}")
    measured = unit_rows(rel, "edge {}")
    ids = range(1, n + 1)
    identity = [(1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)] * n
    return PoseGraph(n, ij + 1, measured, (ids, identity), (ids, truth))


# the keys of a vertex_errors entry, which dqopt solve-pgo writes from its own lists too
_ERROR_KEYS = ("vertex", "rotation_error", "translation_error")


def vertex_errors(graph: PoseGraph, poses: Sequence[UnitDualQuaternion]) -> list[dict]:
    """Per-vertex rotation/translation error against the stored truth.

    One :func:`~dqopt.handeye.pose_errors` pass over all vertices; plain
    dual quaternions are normalized as ``UnitDualQuaternion.of`` would.
    """
    if len(poses) != graph.n:
        raise ValueError(f"expected {graph.n} poses, got {len(poses)}")
    if len(graph.truth_ids) != graph.n:
        missing = np.setdiff1d(np.arange(1, graph.n + 1), graph.truth_ids).tolist()
        raise NoGroundTruth(f"no ground truth for vertices {missing}")
    rot, trans = pose_errors(graph.truth_poses, pose_rows(poses))
    return [dict(zip(_ERROR_KEYS, row)) for row in zip(range(1, graph.n + 1), rot, trans)]
