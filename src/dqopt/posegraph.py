"""Pose graph optimization over unit dual quaternion poses.

Vertices are unknown rigid poses, directed edges carry measured relative
poses, and the objective is the dual-valued 2-norm of the stacked edge
errors ``q_ij - conj(x_i) * x_j`` subject to unit constraints per vertex.
The subtraction makes residuals sensitive to the double-cover sign, so
measurements are sign-canonicalized when parsed or generated, and vertex 1
is anchored to the identity to fix the global gauge.

Text format, one whitespace-separated record per line::

    VERTEX id qw qx qy qz tx ty tz     (optional initial guess)
    EDGE   i  j qw qx qy qz tx ty tz   (measurement)
    # TRUTH id qw qx qy qz tx ty tz    (ground truth, kept on round trips)

Other ``#`` lines are comments.  Vertex ids are 1-based.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .algebra import (
    DualQuaternion,
    Quaternion,
    UnitDualQuaternion,
    canonical_sign,
    left_mult_matrix,
    right_mult_matrix,
)
from .errors import DisconnectedGraph, NonUnitMeasurement, ParseError
from .functions import (
    ResidualNormObjective,
    UnitNormConstraint,
    anchor_constraints,
)
from .handeye import Pose, rotation_angle_between
from .solver import EqdqoProblem

__all__ = [
    "Edge",
    "PoseGraph",
    "edge_error",
    "error_vector",
    "RelativePoseResidual",
    "build_pgo",
    "spanning_tree_guess",
    "parse_graph",
    "serialize_graph",
    "generate_cycle_graph",
    "vertex_errors",
]


@dataclass(frozen=True)
class Edge:
    """Directed measurement: the pose of vertex ``j`` seen from vertex ``i``."""

    i: int
    j: int
    pose: Pose

    def measurement(self) -> UnitDualQuaternion:
        return self.pose.to_udq()


@dataclass(frozen=True)
class PoseGraph:
    """Vertices 1..n, measurement edges, optional guesses and ground truth."""

    n: int
    edges: tuple[Edge, ...]
    initial: dict = field(default_factory=dict)
    ground_truth: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("graph needs at least one vertex")
        object.__setattr__(self, "edges", tuple(self.edges))
        for e in self.edges:
            if not (1 <= e.i <= self.n and 1 <= e.j <= self.n):
                raise ValueError(f"edge ({e.i}, {e.j}) out of vertex range 1..{self.n}")
            if e.i == e.j:
                raise ValueError(f"self loop at vertex {e.i}")
        for d in (self.initial, self.ground_truth):
            for vid in d:
                if not 1 <= vid <= self.n:
                    raise ValueError(f"vertex id {vid} out of range 1..{self.n}")

    @property
    def m(self) -> int:
        return len(self.edges)

    def sorted_edges(self) -> tuple[Edge, ...]:
        """Lexicographic (i, j, input order); fixes residual ordering."""
        return tuple(sorted(self.edges, key=lambda e: (e.i, e.j)))

    def is_connected(self) -> bool:
        return len(_bfs_order(self)) == self.n


def _bfs_order(graph: PoseGraph) -> list[tuple[int, Edge | None, bool]]:
    """Breadth-first traversal from vertex 1 over the undirected structure.

    Yields (vertex, entering edge, forward?) triples in visit order; the
    root pairs with (None, True).  Edge direction ties are resolved by the
    sorted edge order, so the traversal is deterministic.
    """
    adjacency: dict[int, list[tuple[int, Edge, bool]]] = {
        v: [] for v in range(1, graph.n + 1)
    }
    for e in graph.sorted_edges():
        adjacency[e.i].append((e.j, e, True))
        adjacency[e.j].append((e.i, e, False))
    seen = {1}
    order = [(1, None, True)]
    queue = deque([1])
    while queue:
        v = queue.popleft()
        for w, e, forward in adjacency[v]:
            if w not in seen:
                seen.add(w)
                order.append((w, e, forward))
                queue.append(w)
    return order


def edge_error(x_i, x_j, q_ij) -> DualQuaternion:
    """Measurement minus predicted relative pose: ``q_ij - conj(x_i) x_j``."""
    xi = x_i.as_dual_quaternion() if isinstance(x_i, UnitDualQuaternion) else x_i
    xj = x_j.as_dual_quaternion() if isinstance(x_j, UnitDualQuaternion) else x_j
    q = q_ij.as_dual_quaternion() if isinstance(q_ij, UnitDualQuaternion) else q_ij
    return q - xi.conjugate() * xj


def error_vector(graph: PoseGraph, poses: Sequence) -> "DualQuaternionVector":
    """Edge errors stacked in sorted edge order under the given poses."""
    from .algebra import DualQuaternionVector

    if len(poses) != graph.n:
        raise ValueError(f"expected {graph.n} poses, got {len(poses)}")
    entries = [
        edge_error(poses[e.i - 1], poses[e.j - 1], e.measurement())
        for e in graph.sorted_edges()
    ]
    return DualQuaternionVector(tuple(entries))


# ---------------------------------------------------------------------------
# Residual with analytic Jacobians


_CONJ = np.array([1.0, -1.0, -1.0, -1.0])


class RelativePoseResidual:
    """``q_ij - conj(x_i) x_j`` with Jacobians over the flat coordinates.

    Bilinear in the two variables; with ``C`` the conjugation sign matrix,
    ``conj(x_i) x_j`` has standard-part derivative ``L(conj(x_i))`` in
    ``x_j`` and ``R(x_j) C`` in ``x_i``, and the dual part adds the same
    blocks shifted to dual slots plus cross terms from the dual factors.
    """

    def __init__(self, arity: int, i: int, j: int, measurement: UnitDualQuaternion):
        self.arity = int(arity)
        self.i = int(i)
        self.j = int(j)
        self.measurement = measurement
        self.q_std = measurement.std.as_array()
        self.q_dual = measurement.dual.as_array()
        self._dq = measurement.as_dual_quaternion()

    def eval(self, values: Sequence[DualQuaternion]) -> DualQuaternion:
        return self._dq - values[self.i].conjugate() * values[self.j]

    def rows(self, z: np.ndarray):
        si = 8 * self.i
        sj = 8 * self.j
        xi_s = z[si : si + 4] * _CONJ
        xi_d = z[si + 4 : si + 8] * _CONJ
        xj_s = z[sj : sj + 4]
        xj_d = z[sj + 4 : sj + 8]

        l_is = left_mult_matrix(xi_s)
        l_id = left_mult_matrix(xi_d)
        r_s = self.q_std - l_is @ xj_s
        r_d = self.q_dual - l_is @ xj_d - l_id @ xj_s

        n8 = z.shape[0]
        jac_std = np.zeros((4, n8))
        jac_dual = np.zeros((4, n8))
        rj_s = right_mult_matrix(xj_s) * _CONJ
        rj_d = right_mult_matrix(xj_d) * _CONJ
        jac_std[:, sj : sj + 4] = -l_is
        jac_std[:, si : si + 4] = -rj_s
        jac_dual[:, sj + 4 : sj + 8] = -l_is
        jac_dual[:, si + 4 : si + 8] = -rj_s
        jac_dual[:, sj : sj + 4] = -l_id
        jac_dual[:, si : si + 4] = -rj_d
        return r_s, r_d, jac_std, jac_dual


def build_pgo(graph: PoseGraph) -> EqdqoProblem:
    """Problem: minimize the 2-norm of all edge errors over unit poses.

    One norm group holds every residual (a genuine vector 2-norm, not a
    sum of magnitudes).  Constraints: one unit condition per vertex plus
    the identity anchor on vertex 1.  Raises :class:`DisconnectedGraph`
    when some vertex is unreachable.
    """
    if not graph.is_connected():
        raise DisconnectedGraph(
            f"graph with {graph.n} vertices is not weakly connected"
        )
    residuals = [
        RelativePoseResidual(graph.n, e.i - 1, e.j - 1, e.measurement())
        for e in graph.sorted_edges()
    ]
    objective = ResidualNormObjective(graph.n, [residuals])
    constraints = [UnitNormConstraint(graph.n, k) for k in range(graph.n)]
    constraints.extend(anchor_constraints(graph.n, 0, DualQuaternion.identity()))
    return EqdqoProblem(objective, tuple(constraints))


def spanning_tree_guess(graph: PoseGraph) -> tuple[UnitDualQuaternion, ...]:
    """Initial poses by propagating measurements over a breadth-first tree.

    Vertex 1 is the identity; a forward tree edge (i, j) sets
    ``x_j = x_i q_ij`` and a backward one sets ``x_i = x_j conj(q_ij)``.
    """
    order = _bfs_order(graph)
    if len(order) != graph.n:
        raise DisconnectedGraph(
            f"only {len(order)} of {graph.n} vertices reachable from vertex 1"
        )
    poses: dict[int, UnitDualQuaternion] = {}
    for v, e, forward in order:
        if e is None:
            poses[v] = UnitDualQuaternion.identity()
        elif forward:
            poses[v] = poses[e.i] * e.measurement()
        else:
            poses[v] = poses[e.j] * e.measurement().conjugate()
    return tuple(poses[v] for v in range(1, graph.n + 1))


# ---------------------------------------------------------------------------
# Text format


def _parse_floats(tokens, line_no):
    out = []
    for t in tokens:
        try:
            out.append(float(t))
        except ValueError:
            raise ParseError(line_no, f"not a number: {t!r}") from None
    return out


def _parse_int(token, line_no, what):
    try:
        value = int(token)
    except ValueError:
        raise ParseError(line_no, f"{what} must be an integer, got {token!r}") from None
    if value < 1:
        raise ParseError(line_no, f"{what} must be positive, got {value}")
    return value


def _pose_from_record(numbers, line_no, record) -> Pose:
    q = Quaternion.from_array(numbers[:4])
    n = q.norm()
    if abs(n - 1.0) > 1e-6:
        raise NonUnitMeasurement(
            f"line {line_no}: {record} rotation norm {n} deviates beyond 1e-06"
        )
    q = q / n
    if canonical_sign(q) < 0:
        q = -q
    return Pose(q, tuple(numbers[4:7]))


def parse_graph(text: str) -> PoseGraph:
    """Parse the text format; see the module docstring for the grammar."""
    edges: list[Edge] = []
    initial: dict[int, Pose] = {}
    truth: dict[int, Pose] = {}
    max_id = 0
    for line_no, raw in enumerate(text.splitlines(), start=1):
        tokens = raw.split()
        if not tokens:
            continue
        if tokens[0].startswith("#"):
            if tokens[0] == "#" and len(tokens) > 1 and tokens[1] == "TRUTH":
                body = tokens[2:]
                if len(body) != 8:
                    raise ParseError(line_no, f"TRUTH needs 8 fields, got {len(body)}")
                vid = _parse_int(body[0], line_no, "vertex id")
                numbers = _parse_floats(body[1:], line_no)
                truth[vid] = _pose_from_record(numbers, line_no, "TRUTH")
                max_id = max(max_id, vid)
            continue
        kind = tokens[0]
        if kind == "VERTEX":
            if len(tokens) != 9:
                raise ParseError(line_no, f"VERTEX needs 9 tokens, got {len(tokens)}")
            vid = _parse_int(tokens[1], line_no, "vertex id")
            numbers = _parse_floats(tokens[2:], line_no)
            initial[vid] = _pose_from_record(numbers, line_no, "VERTEX")
            max_id = max(max_id, vid)
        elif kind == "EDGE":
            if len(tokens) != 10:
                raise ParseError(line_no, f"EDGE needs 10 tokens, got {len(tokens)}")
            i = _parse_int(tokens[1], line_no, "edge source")
            j = _parse_int(tokens[2], line_no, "edge target")
            if i == j:
                raise ParseError(line_no, f"self loop at vertex {i}")
            numbers = _parse_floats(tokens[3:], line_no)
            edges.append(Edge(i, j, _pose_from_record(numbers, line_no, "EDGE")))
            max_id = max(max_id, i, j)
        else:
            raise ParseError(line_no, f"unknown record type {kind!r}")
    if max_id == 0:
        raise ParseError(0, "no records found")
    return PoseGraph(max_id, tuple(edges), initial, truth)


def _format_pose(pose: Pose) -> str:
    q = pose.rotation
    parts = [q.w, q.x, q.y, q.z, *pose.translation]
    return " ".join(repr(v) for v in parts)


def serialize_graph(graph: PoseGraph) -> str:
    """Canonical text form; parse followed by serialize is byte-identical."""
    lines = []
    for vid in sorted(graph.initial):
        lines.append(f"VERTEX {vid} {_format_pose(graph.initial[vid])}")
    for e in graph.edges:
        lines.append(f"EDGE {e.i} {e.j} {_format_pose(e.pose)}")
    for vid in sorted(graph.ground_truth):
        lines.append(f"# TRUTH {vid} {_format_pose(graph.ground_truth[vid])}")
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
    relative rotation keeps a positive scalar part: sign canonicalization
    of measurements is then consistent with the stored truth, and the
    noiseless objective is exactly zero there.  Vertex 1 is the identity.
    Noise perturbs each measurement by a rotation of angle ~N(0, sigma_r^2)
    about a random axis plus translation noise ~N(0, sigma_t^2 I).
    """
    if n < 3:
        raise ValueError("need at least 3 vertices")
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed])))
    raw = []
    for k in range(n):
        angle = rng.uniform(0.05, 0.2)
        axis = rng.standard_normal(3)
        axis /= np.linalg.norm(axis)
        theta = 2.0 * math.pi * k / n
        position = (
            3.0 * math.cos(theta),
            3.0 * math.sin(theta),
            0.3 * math.sin(2.0 * theta),
        )
        raw.append(Pose(Quaternion.exp_axis_angle(angle, Quaternion(0.0, *axis)), position))
    base = raw[0].inverse()
    truth = {k + 1: base.compose(raw[k]) for k in range(n)}

    pairs = [(k, k + 1) for k in range(1, n)] + [(n, 1)]
    chords = [
        (i, j)
        for i in range(1, n + 1)
        for j in range(i + 2, n + 1)
        if not (i == 1 and j == n)
    ]
    if loop_closures > len(chords):
        raise ValueError(f"at most {len(chords)} chords are available")
    if loop_closures:
        picks = rng.choice(len(chords), size=loop_closures, replace=False)
        pairs.extend(chords[p] for p in sorted(picks))

    edges = []
    for i, j in pairs:
        rel = truth[i].inverse().compose(truth[j])
        if noise_rot > 0.0 or noise_trans > 0.0:
            bump = Quaternion.identity()
            if noise_rot > 0.0:
                axis = rng.standard_normal(3)
                axis /= np.linalg.norm(axis)
                bump = Quaternion.exp_axis_angle(
                    rng.normal(0.0, noise_rot), Quaternion(0.0, *axis)
                )
            t = np.asarray(rel.translation)
            if noise_trans > 0.0:
                t = t + rng.normal(0.0, noise_trans, 3)
            rel = Pose(bump * rel.rotation, tuple(t))
        q = rel.rotation
        if canonical_sign(q) < 0:
            q = -q
        edges.append(Edge(i, j, Pose(q, rel.translation)))

    initial = {k: Pose.identity() for k in range(1, n + 1)}
    return PoseGraph(n, tuple(edges), initial, truth)


def vertex_errors(graph: PoseGraph, poses: Sequence[UnitDualQuaternion]) -> list[dict]:
    """Per-vertex rotation/translation error against the stored truth."""
    from .errors import NoGroundTruth

    if len(poses) != graph.n:
        raise ValueError(f"expected {graph.n} poses, got {len(poses)}")
    missing = [v for v in range(1, graph.n + 1) if v not in graph.ground_truth]
    if missing:
        raise NoGroundTruth(f"no ground truth for vertices {missing}")
    out = []
    for v in range(1, graph.n + 1):
        t = graph.ground_truth[v]
        p = poses[v - 1]
        if not isinstance(p, UnitDualQuaternion):
            p = UnitDualQuaternion.of(p)
        e = Pose.from_udq(p)
        rot = rotation_angle_between(t.rotation, e.rotation)
        dt = np.asarray(t.translation) - np.asarray(e.translation)
        out.append(
            {
                "vertex": v,
                "rotation_error": rot,
                "translation_error": float(np.linalg.norm(dt)),
            }
        )
    return out
