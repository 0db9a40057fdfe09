import contextlib
import io
import json
import math
import re
import tracemalloc
from collections import deque

import numpy as np
import pytest

from dqopt import (
    DualQuaternion,
    DualQuaternionVector,
    PoseGraph,
    Quaternion,
    SolverConfig,
    UnitDualQuaternion,
    build_pgo,
    error_vector,
    generate_cycle_graph,
    generate_synthetic,
    gradient_check,
    kkt_analysis,
    pack,
    parse_graph,
    rotation_angle_between,
    serialize_graph,
    solve_eqdqo,
    spanning_tree_guess,
    unpack,
    vertex_errors,
)
from dqopt.errors import (
    DisconnectedGraph,
    InvalidPose,
    NoGroundTruth,
    NonUnitMeasurement,
    ParseError,
    TooFewMotions,
)
from dqopt.handeye import pose_errors, pose_inverse, pose_rows, pose_udqs, unit_rows
from dqopt import handeye, posegraph, solver
from dqopt.cli import main
from dqopt.posegraph import RelativePoseResidual, spanning_tree_rows
from helpers import ConcatenateSpy, inverse, pose_row, poses_close, product, timing_free, udqs

_IDENTITY = (1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)


def _truth(g):
    """The ground truth as ``{id: row}``, the stored rows checked and normalized."""
    return dict(zip(g.truth_ids.tolist(), unit_rows(g.truth_poses, "truth {}")))


def _truth_poses(g):
    truth = _truth(g)
    return list(udqs([truth[v] for v in range(1, g.n + 1)]))


def test_parse_single_edge_frozen():
    g = parse_graph("EDGE 1 2 1 0 0 0 1 0 0\n")
    assert g.n == 2 and g.m == 1
    std, dual = g.measurements()[0]
    assert Quaternion.from_array(std).approx_eq(Quaternion.identity(), tol=0.0)
    # dual part is translation * rotation / 2
    assert Quaternion.from_array(dual).approx_eq(Quaternion(0.0, 0.5, 0.0, 0.0), tol=0.0)


def test_parse_serialize_roundtrip_is_byte_stable():
    g0 = generate_cycle_graph(7, loop_closures=3, noise_rot=0.01, noise_trans=0.01, seed=23)
    s1 = serialize_graph(g0)
    g1 = parse_graph(s1)
    s2 = serialize_graph(g1)
    assert s1 == s2
    assert g1.n == g0.n and g1.m == g0.m
    o0, o1 = g0.edge_order(), g1.edge_order()
    assert np.array_equal(g0.edge_ids[o0], g1.edge_ids[o1])
    for p0, p1 in zip(unit_rows(g0.edge_poses[o0], "{}"), unit_rows(g1.edge_poses[o1], "{}")):
        assert poses_close(p0, p1, tol=0.0)
    truth0, truth1 = _truth(g0), _truth(g1)
    for v in truth0:
        assert poses_close(truth0[v], truth1[v], tol=0.0)


def test_parse_errors_carry_line_numbers():
    cases = [
        ("EDGE 1 2 1 0 0 0 1 0\n", "EDGE needs 10 tokens"),
        ("FOO 1 2\n", "unknown record type"),
        ("EDGE 2 2 1 0 0 0 0 0 0\n", "self loop"),
        ("VERTEX 0 1 0 0 0 0 0 0\n", "must be positive"),
        ("EDGE 1 2 oops 0 0 0 0 0 0\n", "not a number"),
        ("EDGE one 2 1 0 0 0 0 0 0\n", "must be an integer"),
        ("EDGE 1 99999999999999999999 1 0 0 0 0 0 0\n", "edge target must be an integer that fits"),
        ("VERTEX -99999999999999999999 1 0 0 0 0 0 0\n", "vertex id must be an integer that fits"),
        ("EDGE 1 2 nan 0 0 0 1 0 0\n", "not a finite number: 'nan'"),
        ("VERTEX 1 1 0 0 0 -inf 0 0\n", "not a finite number: '-inf'"),
    ]
    for text, fragment in cases:
        with pytest.raises(ParseError) as exc:
            parse_graph(text)
        assert "line 1" in str(exc.value)
        assert fragment in str(exc.value)
    with pytest.raises(ParseError) as exc:
        parse_graph("# just a comment\n")
    assert "no records found" in str(exc.value)


_VALID = (
    "VERTEX 1 1 0 0 0 0 0 0\n"
    "EDGE 1 2 1 0 0 0 1 0 0\n"
    "# TRUTH 2 1 0 0 0 1 0 0\n"
)


@pytest.mark.parametrize(
    "line, error, fragment",
    [
        ("EDGE 2 3 1 0 0 0 x 0 0", ParseError, "not a number: 'x'"),
        ("EDGE 2 3 1 0 0 0 inf 0 0", ParseError, "not a finite number"),
        ("EDGE 2 3 1 0 0 0 0 0", ParseError, "EDGE needs 10 tokens"),
        ("VERTEX 3 1 0 0 0 0 0 0 0", ParseError, "VERTEX needs 9 tokens"),
        ("# TRUTH 3 1 0 0 0 0 0", ParseError, "TRUTH needs 8 fields"),
        ("EDGE 2 3 0 0 0 0 0 0 0", NonUnitMeasurement, "EDGE rotation norm 0.0"),
        ("VERTEX 3 0.5 0 0 0 0 0 0", NonUnitMeasurement, "VERTEX rotation norm 0.5"),
        ("# TRUTH 3 2 0 0 0 0 0 0", NonUnitMeasurement, "TRUTH rotation norm 2.0"),
        ("EDGE 3 3 1 0 0 0 0 0 0", ParseError, "self loop at vertex 3"),
        ("VERTEX -3 1 0 0 0 0 0 0", ParseError, "vertex id must be positive"),
    ],
)
def test_batched_checks_name_the_line_after_valid_records(line, error, fragment):
    with pytest.raises(error) as exc:
        parse_graph(_VALID + line + "\n" + _VALID)
    assert str(exc.value).startswith("line 4: ")
    assert fragment in str(exc.value)


@pytest.mark.parametrize(
    "first, second",
    [
        ("EDGE 2 3 1 0 0 0 x 0 0", "EDGE 2 3 1 0 0 0 0 0"),
        ("EDGE 2 3 1 0 0 0 0 0", "EDGE 2 3 1 0 0 0 x 0 0"),
        ("VERTEX 3 2 0 0 0 0 0 0", "EDGE 2 3 1 0 0 0 x 0 0"),
        ("EDGE 2 3 1 0 0 0 x 0 0", "VERTEX 3 2 0 0 0 0 0 0"),
        ("# TRUTH 3 1 0 0 0 nan 0 0", "EDGE 2 x 1 0 0 0 0 0 0"),
        ("EDGE 2 x 1 0 0 0 0 0 0", "# TRUTH 3 1 0 0 0 nan 0 0"),
        ("EDGE 2 3 2 0 0 0 0 0 0", "FOO 1"),
    ],
)
def test_of_two_bad_lines_the_first_is_reported(first, second):
    text = _VALID + first + "\n" + _VALID + second + "\n"
    with pytest.raises((ParseError, NonUnitMeasurement)) as exc:
        parse_graph(text)
    assert str(exc.value).startswith("line 4: ")

# Faults for one record, one per check in the order the checks run (the id
# checks run per id, so they share one fault).  Each takes the record's
# tokens (keyword first, a truth record without its "#") and returns the
# corrupted tokens and the error message they must give.
_ID_NAMES = {"EDGE": ("edge source", "edge target"), "VERTEX": ("vertex id",),
             "TRUTH": ("vertex id",)}


def _fault_type(tokens, rng):
    return ["FOO"] + tokens[1:], "unknown record type 'FOO'"


def _fault_count(tokens, rng):
    bad = tokens[:-1] if rng.random() < 0.5 else tokens + ["0"]
    if tokens[0] == "TRUTH":
        return bad, f"TRUTH needs 8 fields, got {len(bad) - 1}"
    return bad, f"{tokens[0]} needs {len(tokens)} tokens, got {len(bad)}"


def _fault_id(tokens, rng):
    names = _ID_NAMES[tokens[0]]
    k = int(rng.integers(len(names)))
    token = str(rng.choice(["x", "3.0", "12345678901234567890", "0", "-4"]))
    bad = tokens[: 1 + k] + [token] + tokens[2 + k :]
    if token in ("0", "-4"):
        return bad, f"{names[k]} must be positive, got {token}"
    return bad, f"{names[k]} must be an integer that fits 64 bits, got {token!r}"


def _fault_loop(tokens, rng):
    return tokens[:2] + tokens[1:2] + tokens[3:], f"self loop at vertex {tokens[1]}"


def _replace_number(tokens, rng, choices):
    k = len(tokens) - 7 + int(rng.integers(7))
    token = str(rng.choice(choices))
    return tokens[:k] + [token] + tokens[k + 1 :], token


def _fault_number(tokens, rng):
    bad, token = _replace_number(tokens, rng, ["x", "1,0", "0x10", "--1"])
    return bad, f"not a number: {token!r}"


def _fault_finite(tokens, rng):
    bad, token = _replace_number(tokens, rng, ["inf", "-inf", "nan", "NaN", "infinity", "1e999"])
    return bad, f"not a finite number: {token!r}"


def _fault_norm(tokens, rng):
    scale = rng.uniform(0.5, 0.99) if rng.random() < 0.5 else rng.uniform(1.01, 2.0)
    q = [scale * float(t) for t in tokens[-7:-3]]
    norm = math.sqrt(q[0] * q[0] + q[1] * q[1] + q[2] * q[2] + q[3] * q[3])
    bad = tokens[:-7] + [repr(v) for v in q] + tokens[-3:]
    return bad, f"{tokens[0]} rotation norm {norm} deviates beyond 1e-06"


_FAULTS = [_fault_type, _fault_count, _fault_id, _fault_loop, _fault_number, _fault_finite,
           _fault_norm]


def test_the_first_corrupted_line_is_named_with_its_first_failing_check():
    rng = np.random.default_rng(23)
    for _ in range(300):
        n = int(rng.integers(3, 13))
        noise = float(rng.choice([0.0, 0.01]))
        graph = generate_cycle_graph(n, int(rng.integers(n * (n - 3) // 2 + 1)), noise, noise,
                                     seed=int(rng.integers(100)))
        lines = serialize_graph(graph).splitlines()
        expected = None
        for k in sorted(rng.choice(len(lines), size=int(rng.integers(1, 4)), replace=False)):
            tokens = lines[k].split()
            tokens = tokens[1:] if tokens[0] == "#" else tokens
            faults = [f for f in _FAULTS if f is not _fault_loop or tokens[0] == "EDGE"]
            chosen = sorted(rng.choice(len(faults), size=int(rng.integers(1, 3)), replace=False))
            # later checks' faults first, so the first failing check's edit is the last
            for f in reversed(chosen):
                tokens, message = faults[f](tokens, rng)
            lines[k] = ("# " if tokens[0] == "TRUTH" else "") + " ".join(tokens)
            if expected is None:
                error = NonUnitMeasurement if faults[chosen[0]] is _fault_norm else ParseError
                expected = error, f"line {k + 1}: {message}"
        with pytest.raises(expected[0]) as exc:
            parse_graph("\n".join(lines) + "\n")
        assert str(exc.value) == expected[1]


@pytest.mark.parametrize(
    "token, as_id, as_number",
    [
        ("1_0", True, True),
        ("infinity", False, False),
        ("NaN", False, False),
        ("0x10", False, False),
        ("1,0", False, False),
        ("12345678901234567890", False, True),
    ],
)
def test_both_passes_accept_the_same_tokens(token, as_id, as_number):
    for tokens, accepted in (
        (["EDGE", "1", token, "1", "0", "0", "0", "0", "0", "0"], as_id),
        (["EDGE", "1", "2", "1", "0", "0", "0", token, "0", "0"], as_number),
    ):
        assert (posegraph._converted(" ".join(tokens)) is not None) == accepted
        assert (posegraph._record_error(1, tokens) is None) == accepted


def test_valid_graphs_never_reach_the_per_record_pass(monkeypatch):
    def per_record(*args):
        raise AssertionError("a valid graph was read record by record")

    monkeypatch.setattr(posegraph, "_record_error", per_record)
    for n in (3, 4, 10, 50, 200):
        for noise in (0.0, 0.01):
            text = serialize_graph(generate_cycle_graph(n, min(n // 3, n - 3), noise, noise, n))
            assert serialize_graph(parse_graph(text)) == text


def test_parse_rejects_non_unit_rotation():
    with pytest.raises(NonUnitMeasurement):
        parse_graph("EDGE 1 2 2 0 0 0 0 0 0\n")


def test_measurements_fix_the_sign_that_parse_keeps():
    g = parse_graph("EDGE 1 2 -1 0 0 0 0 0 0\n")
    assert g.edge_poses[0, 0] == -1.0
    assert g.measurements()[0, 0, 0] == 1.0


def test_truth_records_survive_comments():
    text = (
        "# free-form comment\n"
        "EDGE 1 2 1 0 0 0 1 0 0\n"
        "# TRUTH 1 1 0 0 0 0 0 0\n"
        "# TRUTH 2 1 0 0 0 1 0 0\n"
    )
    g = parse_graph(text)
    assert set(_truth(g)) == {1, 2}
    assert _truth(g)[2][4:].tolist() == [1.0, 0.0, 0.0]


def test_of_several_records_for_one_id_the_last_counts():
    text = (
        "VERTEX 3 1 0 0 0 3 0 0\n"
        "VERTEX 2 1 0 0 0 1 0 0\n"
        "EDGE 1 2 1 0 0 0 1 0 0\n"
        "EDGE 2 3 1 0 0 0 1 0 0\n"
        "VERTEX 2 0 1 0 0 2 0 0\n"
        "# TRUTH 2 1 0 0 0 1 0 0\n"
        "# TRUTH 1 1 0 0 0 0 0 0\n"
        "# TRUTH 2 0 0 1 0 0 5 0\n"
    )
    g = parse_graph(text)
    assert g.vertex_ids.tolist() == [2, 3]
    assert g.vertex_poses.tolist() == [[0, 1, 0, 0, 2, 0, 0], [1, 0, 0, 0, 3, 0, 0]]
    assert g.truth_ids.tolist() == [1, 2]
    assert g.truth_poses.tolist() == [[1, 0, 0, 0, 0, 0, 0], [0, 0, 1, 0, 0, 5, 0]]
    # serializing drops the repeats, so only serialize -> parse -> serialize is stable
    once = serialize_graph(g)
    assert once.count("VERTEX 2 ") == 1 and serialize_graph(parse_graph(once)) == once
    rows = np.array([[1, 0, 0, 0, 1, 0, 0], [1, 0, 0, 0, 2, 0, 0], [0, 1, 0, 0, 3, 0, 0]], float)
    g = PoseGraph(3, [[1, 2], [2, 3]], rows[:2], vertices=([3, 1, 3], rows))
    assert g.vertex_ids.tolist() == [1, 3]
    assert g.vertex_poses.tolist() == rows[1:].tolist()


def test_disconnected_graph_raises():
    g = PoseGraph(4, [(1, 2)], [_IDENTITY])
    with pytest.raises(DisconnectedGraph):
        build_pgo(g)
    with pytest.raises(DisconnectedGraph):
        spanning_tree_guess(g)


def test_graph_validation():
    with pytest.raises(ValueError):
        PoseGraph(2, [(1, 3)], [_IDENTITY])
    with pytest.raises(ValueError):
        PoseGraph(2, [(1, 1)], [_IDENTITY])
    with pytest.raises(ValueError, match="graph needs at least one vertex"):
        PoseGraph(0, [], [])
    # a vertex or truth record outside 1..n
    for vertices, truth, vid in (
        (([3], [_IDENTITY]), ((), ()), 3),
        (((), ()), ([0], [_IDENTITY]), 0),
    ):
        with pytest.raises(ValueError, match=f"vertex id {vid} out of range 1..2"):
            PoseGraph(2, [(1, 2)], [_IDENTITY], vertices, truth)
    # the graph keeps copies: changing the arrays it was built from changes nothing
    ids, vertex, poses = np.array([[1, 2]]), np.array([2]), np.array([_IDENTITY])
    g = PoseGraph(2, ids, poses, (vertex, poses), (vertex, poses))
    ids[0, 1], vertex[0], poses[0, 4] = 5, 7, 9.0
    assert g.vertex_ids.tolist() == g.truth_ids.tolist() == [2]
    assert g.edge_ids.tolist() == [[1, 2]]
    for rows in (g.edge_poses, g.vertex_poses, g.truth_poses):
        assert rows.tolist() == [list(_IDENTITY)]
    with pytest.raises(ValueError):
        generate_cycle_graph(2)
    with pytest.raises(ValueError):
        generate_cycle_graph(4, loop_closures=99)


def _chords_from_every_pair(n, loop_closures, seed):
    """The generator's chords as it drew them from a list of every candidate pair, 1-based.

    The reference construction: the vertex attitudes draw first, then the
    chords' numbers among the pairs two or more apart but (1, n).
    """
    rng = handeye._seeded_rng(seed)
    for _ in range(n):
        handeye.rotation_about(rng, rng.uniform(0.05, 0.2))
    rows, cols = np.triu_indices(n, 2)
    chords = np.stack((rows, cols), axis=1)[(rows > 0) | (cols < n - 1)]
    if not loop_closures:
        return np.empty((0, 2), dtype=np.intp), len(chords)
    picks = rng.choice(len(chords), size=loop_closures, replace=False)
    return chords[np.sort(picks)] + 1, len(chords)


@pytest.mark.parametrize("n", [3, 4, 5, 7, 12, 31, 60])
def test_generator_draws_the_chords_of_a_list_of_every_pair(n):
    # the chords are numbered arithmetically, not listed, with the same draw
    top = (n - 1) * (n - 2) // 2 - 1
    for seed in (0, 7):
        for count in sorted({0, min(1, top), top // 2, top}):
            chords, listed = _chords_from_every_pair(n, count, seed)
            assert listed == top
            for noise in (0.0, 0.01):
                g = generate_cycle_graph(n, count, noise, noise, seed=seed)
                assert g.m == n + count
                assert np.array_equal(g.edge_ids[n:], chords), (n, seed, count)
    with pytest.raises(ValueError, match=f"loop_closures must be between 0 and {top}$"):
        generate_cycle_graph(n, top + 1)


def test_generator_memory_grows_with_the_vertices_not_the_pairs():
    # a list of every candidate chord took 257 MB at 3000 vertices
    tracemalloc.start()
    try:
        generate_cycle_graph(3000, 100, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16_000_000, f"peaked at {peak / 1e6:.1f} MB"


BAD_GRAPH_KWARGS = [
    ({"n": 6, "loop_closures": -1}, "loop_closures must be between 0 and 9"),
    ({"n": 6, "noise_rot": float("nan")}, "noise_rot must be finite and non-negative"),
    ({"n": 6, "noise_rot": float("inf")}, "noise_rot must be finite and non-negative"),
    ({"n": 6, "noise_trans": -0.1}, "noise_trans must be finite and non-negative"),
    ({"n": 6, "seed": -1}, "seed must be non-negative, got -1"),
]


@pytest.mark.parametrize("kwargs,message", BAD_GRAPH_KWARGS)
def test_generator_rejects_bad_input(kwargs, message):
    with pytest.raises(ValueError, match=message):
        generate_cycle_graph(**kwargs)


def test_generator_truth_is_consistent():
    g = generate_cycle_graph(8, loop_closures=3, seed=31)
    assert g.m == 8 + 3
    truth = _truth(g)
    assert poses_close(truth[1], _IDENTITY, tol=1e-12)
    for (i, j), row in zip(g.edge_ids.tolist(), unit_rows(g.edge_poses, "edge {}")):
        rel = product(inverse(truth[i]), truth[j])
        assert poses_close(row, rel, tol=1e-12)
    noisy = generate_cycle_graph(8, loop_closures=3, noise_rot=0.05, seed=31)
    truth = _truth(noisy)
    deviations = []
    for (i, j), row in zip(noisy.edge_ids.tolist(), unit_rows(noisy.edge_poses, "edge {}")):
        rel = product(inverse(truth[i]), truth[j])
        deviations.append(poses_close(row, rel, tol=1e-9))
    assert not all(deviations)


def test_spanning_tree_guess_zeroes_tree_edges():
    g = generate_cycle_graph(9, loop_closures=2, seed=37)
    guess = spanning_tree_guess(g)
    assert pack(guess).tobytes() == spanning_tree_rows(g).tobytes()
    assert guess[0].as_dual_quaternion().approx_eq(DualQuaternion.identity(), tol=0.0)
    errs = error_vector(g, guess)
    # noiseless: every measurement agrees with the propagated poses
    for e in errs:
        assert max(e.std.norm(), e.dual.norm()) <= 1e-12


def test_vertex_errors_at_truth():
    g = generate_cycle_graph(6, loop_closures=1, seed=41)
    poses = _truth_poses(g)
    for row in vertex_errors(g, poses):
        assert row["rotation_error"] <= 1e-12
        assert row["translation_error"] <= 1e-12
    with pytest.raises(NoGroundTruth):
        vertex_errors(PoseGraph(2, [(1, 2)], [_IDENTITY]), poses[:2])


def _edge_errors(n, ij, measurements, z):
    """``q_ij - conj(x_i) x_j`` per edge, in dual quaternion arithmetic."""
    values = unpack(z, n)
    q = unpack(measurements.reshape(-1), len(ij))
    return [q_ij - values[i].conjugate() * values[j] for (i, j), q_ij in zip(ij.tolist(), q)]


def test_edge_error_at_identity():
    # at the identity an edge's error is its measurement minus 1
    q = pack(udqs([[0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0]])).reshape(1, 2, 4)
    z = pack([DualQuaternion.identity()] * 2)
    r_std, r_dual, _, _ = RelativePoseResidual.stack_arrays(2, [0], [1], q)(z)
    (e,) = _edge_errors(2, np.array([[0, 1]]), q, z)
    assert r_std.tolist() == e.std.as_array().tolist() == [-1.0, 0.0, 0.0, 1.0]
    assert r_dual.tolist() == e.dual.as_array().tolist() == [0.0] * 4


def test_residual_rows_match_eval_and_first_order():
    g = generate_cycle_graph(7, loop_closures=3, seed=43)
    order = g.edge_order()
    ij = g.edge_ids[order] - 1
    measurements = g.measurements()[order]
    res = [
        RelativePoseResidual(g.n, i, j, q)
        for (i, j), q in zip(ij.tolist(), UnitDualQuaternion.from_rows(measurements))
    ]
    evaluate = RelativePoseResidual.stack_arrays(g.n, ij[:, 0], ij[:, 1], measurements)
    rng = np.random.default_rng(47)
    z = rng.standard_normal(8 * g.n)
    r_std, r_dual, pullback, _ = evaluate(z)
    w_std, w_dual = rng.standard_normal((2, 4 * len(res)))
    for k, (r, direct) in enumerate(zip(res, _edge_errors(g.n, ij, measurements, z))):
        rows = slice(4 * k, 4 * k + 4)
        assert np.allclose(r_std[rows], direct.std.as_array(), rtol=0, atol=1e-12)
        assert np.allclose(r_dual[rows], direct.dual.as_array(), rtol=0, atol=1e-12)
        # rows is the one-edge view of the stack, pullback included
        one_std, one_dual, one_pullback, _ = r.rows(z)
        assert np.array_equal(one_std, r_std[rows])
        assert np.array_equal(one_dual, r_dual[rows])
        mask = np.zeros(4 * len(res))
        mask[rows] = 1.0
        assert np.array_equal(
            one_pullback(w_std[rows], w_dual[rows]), pullback(w_std * mask, w_dual * mask)
        )
    # bilinear in two distinct variables: central differences of w . r are
    # exact up to rounding
    grad_std = pullback(w_std)
    grad_dual = pullback(np.zeros_like(w_std), w_dual)
    assert np.allclose(pullback(w_std, w_dual), grad_std + grad_dual, rtol=0, atol=1e-12)
    step = 1e-3
    for c in range(8 * g.n):
        dz = np.zeros(8 * g.n)
        dz[c] = step
        plus, minus = evaluate(z + dz), evaluate(z - dz)
        for part, w, grad in ((0, w_std, grad_std), (1, w_dual, grad_dual)):
            fd = w @ (plus[part] - minus[part]) / (2.0 * step)
            assert abs(fd - grad[c]) <= 1e-8


class _AlwaysAny(np.ndarray):
    """Weights whose ``any()`` is true, so that a pullback takes its full computation."""

    def any(self, *args, **kwargs):
        return True


@pytest.mark.parametrize("edges", [1, 3, 10])
def test_a_pullback_of_zero_weights_forms_no_block_and_returns_the_full_computations_bytes(
        edges, monkeypatch):
    # at an exact solution every row weight is ±0
    g = generate_cycle_graph(7, loop_closures=3, seed=43)
    order = g.edge_order()
    ij, q = (g.edge_ids[order] - 1)[:edges], g.measurements()[order][:edges]
    evaluate = RelativePoseResidual.stack_arrays(g.n, ij[:, 0], ij[:, 1], q)
    rng = np.random.default_rng(53)
    k = 4 * edges
    mixed = np.where(rng.random((2, k)) < 0.5, 0.0, -0.0)
    zeros = [(np.zeros(k), None), (np.full(k, -0.0), None), (mixed[0], None),
             (np.zeros(k), np.full(k, -0.0)), (np.full(k, -0.0), np.zeros(k)), tuple(mixed)]
    spy = ConcatenateSpy()
    for z in [*_unit_points(rng, g.n, 2), rng.standard_normal(8 * g.n)]:
        _, _, pullback, _ = evaluate(z)
        for w in zeros:
            full = pullback(*(a.view(_AlwaysAny) for a in w if a is not None))
            with monkeypatch.context() as m:
                m.setattr(posegraph, "np", spy)
                fast = pullback(*(a for a in w if a is not None))
            assert spy.shapes == []
            assert type(fast) is np.ndarray and fast.shape == full.shape == (8 * g.n,)
            assert fast.tobytes() == full.tobytes() == np.full(8 * g.n, -0.0).tobytes()
        # a NaN weight takes the full path, and its NaN reaches the gradient
        nan = np.zeros(k)
        nan[k // 2] = np.nan
        for w in ((nan,), (nan, np.zeros(k)), (np.zeros(k), nan), (np.full(k, -0.0), nan)):
            got = pullback(*w)
            assert np.isnan(got).any()
            assert got.tobytes() == pullback(*(a.view(_AlwaysAny) for a in w)).tobytes()


def test_relative_pose_residual_rejects_bad_indices():
    m = UnitDualQuaternion.identity()
    for i, j in [(1, 1), (-1, 0), (0, 3), (3, 0)]:
        with pytest.raises(ValueError, match="distinct indices"):
            RelativePoseResidual(3, i, j, m)


def test_objective_evaluation_calls_no_per_edge_method(monkeypatch):
    g = generate_cycle_graph(6, loop_closures=2, noise_rot=0.01, seed=45)
    objective = build_pgo(g).objective
    z = spanning_tree_rows(g).reshape(-1)

    def per_edge(*args):
        raise AssertionError("per-edge call on the evaluation path")

    monkeypatch.setattr(RelativePoseResidual, "rows", per_edge)
    objective.value_at(z)
    objective.gradient_at(z)
    objective.stage1_value_grad(z, 1e-3)
    objective.stage2_value_grad(z, 1e-3, objective.branch_flags(z))


def test_objective_calls_allocate_no_dense_jacobian():
    # A dense (4m, 8n) Jacobian of this graph takes 13.6 MB per part.
    g = generate_cycle_graph(200, loop_closures=66, seed=49)
    objective = build_pgo(g).objective
    z = spanning_tree_rows(g).reshape(-1)
    flags = objective.branch_flags(z)
    calls = {
        "value_at": lambda: objective.value_at(z),
        "branch_flags": lambda: objective.branch_flags(z),
        "stage1_value_grad": lambda: objective.stage1_value_grad(z, 1e-3),
        "stage2_value_grad": lambda: objective.stage2_value_grad(z, 1e-3, flags),
        "gradient_at": lambda: objective.gradient_at(z),
    }
    tracemalloc.start()
    try:
        for name, call in calls.items():
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            call()
            peak = tracemalloc.get_traced_memory()[1] - base
            assert peak < 2_000_000, f"{name} peaked at {peak / 1e6:.1f} MB"
    finally:
        tracemalloc.stop()


def _unit_points(rng, n, count):
    """``count`` points of ``n`` random unit dual quaternions each, flattened."""
    q = rng.standard_normal((count * n, 4))
    rows = np.concatenate((q / np.linalg.norm(q, axis=1, keepdims=True),
                           rng.uniform(-3.0, 3.0, (count * n, 3))), axis=1)
    return pose_udqs(rows).reshape(count, 8 * n)


def _edge_magnitudes(r_std, r_dual):
    """Each edge's magnitude ``(|r_s|, <r_s, r_d> / |r_s|)``, as a ``(2, m)`` array."""
    r_s, r_d = r_std.reshape(-1, 4), r_dual.reshape(-1, 4)
    norms = np.sqrt(np.sum(r_s * r_s, axis=1))
    return np.stack((norms, np.sum(r_s * r_d, axis=1) / norms))


def test_affine_and_bilinear_edge_rows_have_equal_magnitudes_at_unit_points():
    # x_i q - x_j = x_i (q - conj(x_i) x_j), and a unit x_i keeps magnitudes
    g = generate_cycle_graph(9, loop_closures=3, noise_rot=0.05, noise_trans=0.05, seed=51)
    ij, q = posegraph._sorted_edges(g)
    bilinear = RelativePoseResidual.stack_arrays(g.n, *ij.T, q)
    affine = build_pgo(g).stage1.rows_at
    rng = np.random.default_rng(53)
    points = _unit_points(rng, g.n, 10)
    for z in points:
        want = _edge_magnitudes(*bilinear(z)[:2])
        assert np.max(np.abs(_edge_magnitudes(*affine(z)[:2]) - want)) <= 1e-12
    # stacks evaluate bit for bit as single points
    stacked = affine(points)
    for k, z in enumerate(points):
        one = affine(z)
        assert stacked[0][k].tobytes() == one[0].tobytes()
        assert stacked[1][k].tobytes() == one[1].tobytes()


def test_the_affine_jacobian_is_constant_and_the_same_dense_or_csr(monkeypatch):
    g = generate_cycle_graph(9, loop_closures=3, noise_rot=0.05, noise_trans=0.05, seed=55)
    evaluate = build_pgo(g).stage1.rows_at
    z = _unit_points(np.random.default_rng(57), g.n, 2)
    # the caller picks the layout: whatever _DENSE_MAX is, each layout holds
    # the same entries, and every point and stack the same ones
    for dense_max in (solver._DENSE_MAX, -1):
        monkeypatch.setattr(solver, "_DENSE_MAX", dense_max)
        dense = evaluate(z)[3](False)
        assert isinstance(dense, np.ndarray) and dense.shape == (4 * g.m, 4 * g.n)
        for point in z:
            assert evaluate(point)[3](False).tobytes() == dense.tobytes()
            csr = evaluate(point)[3](True)
            assert solver._is_sparse(csr) and csr.toarray().tobytes() == dense.tobytes()


def test_the_stage1_objective_passes_the_gradient_check():
    g = generate_cycle_graph(6, loop_closures=2, noise_rot=0.05, noise_trans=0.05, seed=59)
    problem = build_pgo(g)
    assert problem.stage1 is not problem.objective
    rng = np.random.default_rng(61)
    for z in rng.standard_normal((5, 8 * g.n)):
        rep = gradient_check(problem.stage1, z)
        assert rep.passed, (rep.max_rel_error_std, rep.max_rel_error_dual)


@pytest.mark.parametrize("restarts", [1, 8])
def test_the_affine_stage1_gives_the_bilinear_answers(restarts):
    # the same stage-I problem: the answers agree with those of the problem
    # built without the affine rows, and stage I takes fewer steps
    cfg = SolverConfig(restarts=restarts, seed=0)
    for seed in range(10):
        g = generate_cycle_graph(20, loop_closures=6, noise_rot=0.01, noise_trans=0.01, seed=seed)
        problem = build_pgo(g)
        bilinear = solver.EqdqoProblem(problem.objective, problem.unit, problem.anchors,
                                       problem.start)
        affine, want = solve_eqdqo(problem, cfg), solve_eqdqo(bilinear, cfg)
        rot, trans = pose_errors(pose_rows(want.solution), pose_rows(affine.solution))
        assert max(rot) <= 1e-9 and max(trans) <= 1e-9, seed
        if restarts == 1:
            assert affine.iterations["stage1"] <= 4 < want.iterations["stage1"], seed


def test_too_few_edges_are_rejected_before_the_search(monkeypatch):
    # 10 vertices cannot be connected by one edge; the breadth-first search,
    # which allocates per vertex, must not start
    g = parse_graph("VERTEX 10 1 0 0 0 0 0 0\nEDGE 1 2 1 0 0 0 0 0 0\n")
    assert (g.n, g.m) == (10, 1)

    def spy(*args):
        raise AssertionError("the search ran")

    monkeypatch.setattr(posegraph, "_bfs_tree", spy)
    for make in (build_pgo, spanning_tree_rows, spanning_tree_guess):
        with pytest.raises(DisconnectedGraph, match="10 vertices and 1 edges is not connected"):
            make(g)
    monkeypatch.undo()
    # n - 1 edges reach the search, which decides
    build_pgo(PoseGraph(3, [(1, 2), (3, 2)], [_IDENTITY] * 2))
    g = PoseGraph(4, [(1, 2), (2, 1), (3, 4)], [_IDENTITY] * 3)
    for make in (build_pgo, spanning_tree_rows):
        with pytest.raises(DisconnectedGraph, match="only 2 of 4 vertices reachable from vertex 1"):
            make(g)


@pytest.mark.parametrize("noise", [0.0, 0.01])
def test_every_pose_graph_solve_starts_from_the_one_spanning_tree(noise, tmp_path, monkeypatch):
    path = tmp_path / "g.graph"
    path.write_text(serialize_graph(generate_cycle_graph(12, 4, noise, noise, seed=3)))
    g = parse_graph(path.read_text())
    searches, search = [], posegraph._bfs_tree
    monkeypatch.setattr(posegraph, "_bfs_tree", lambda *a: searches.append(a) or search(*a))
    problem = build_pgo(g)
    assert len(searches) == 1
    assert problem.start.tobytes() == spanning_tree_rows(g).tobytes()

    drawn, draw = [], solver._restart_start
    monkeypatch.setattr(solver, "_restart_start", lambda *a: drawn.append(a[-1]) or draw(*a))
    cfg = SolverConfig(restarts=8 if noise == 0.0 else 2, seed=0)
    report = solve_eqdqo(problem, cfg)
    # a clean graph's tree is at value 0, so restart 0 runs alone
    assert drawn == ([0] if noise == 0.0 else [0, 1])
    given = solve_eqdqo(problem, cfg, initial=spanning_tree_rows(g))
    data, data_given = (timing_free(r.to_json_dict()) for r in (report, given))
    assert data == data_given and report.trace == given.trace
    assert pack(list(report.solution)).tobytes() == pack(list(given.solution)).tobytes()

    out = tmp_path / "report.json"
    argv = ["solve-pgo", "--in", str(path), "--restarts", str(cfg.restarts), "--out", str(out)]
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0
    cli = timing_free(json.loads(out.read_text()))
    del cli["errors"]
    assert cli == json.loads(json.dumps(data))


def _with_rows(g, kind, rows):
    """``g`` rebuilt with its ``kind`` pose rows (edge, vertex or truth) replaced."""
    parts = {"edge": g.edge_poses, "vertex": g.vertex_poses, "truth": g.truth_poses, kind: rows}
    return PoseGraph(g.n, g.edge_ids, parts["edge"], (g.vertex_ids, parts["vertex"]),
                     (g.truth_ids, parts["truth"]))


@pytest.mark.parametrize(
    "kind, row, column, value, message",
    [
        ("edge", 2, 1, np.nan, "edge row 2 is not finite"),
        ("edge", 3, slice(0, 4), 3.0, "edge row 3: rotation norm 3.0000000000000004 is not 1"),
        ("edge", 1, 5, np.inf, "edge row 1 is not finite"),
        ("vertex", 4, 0, np.nan, "vertex row 4 is not finite"),
        ("truth", 0, slice(0, 4), 3.0, "truth row 0: rotation norm 3.0 is not 1"),
    ],
    ids=["edge-nan", "edge-norm-3", "edge-inf-translation", "vertex-nan", "truth-norm-3"],
)
def test_a_bad_pose_row_is_rejected_with_its_kind_and_index(kind, row, column, value, message):
    # before the check: an uncaught LinAlgError, a solve of the wrong
    # problem, or Infeasible, after work on a graph that was never valid
    g = generate_cycle_graph(6, loop_closures=2, noise_rot=0.01, noise_trans=0.01, seed=0)
    good = getattr(g, kind + "_poses")
    rows = good.copy()
    if isinstance(column, slice):
        rows[row, column] *= value
    else:
        rows[row, column] = value
    with pytest.raises(InvalidPose, match=re.escape(message)):
        _with_rows(g, kind, rows)
    # valid rows are stored as given, not normalized again
    assert getattr(_with_rows(g, kind, good), kind + "_poses").tobytes() == good.tobytes()


def test_pose_rows_must_match_their_ids_in_number():
    with pytest.raises(ValueError, match="2 edge ids but 1 pose rows"):
        PoseGraph(3, [(1, 2), (2, 3)], [_IDENTITY])
    with pytest.raises(ValueError, match="2 vertex ids but 1 pose rows"):
        PoseGraph(2, [(1, 2)], [_IDENTITY], ([1, 2], [_IDENTITY]))
    with pytest.raises(ValueError, match="1 truth ids but 2 pose rows"):
        PoseGraph(2, [(1, 2)], [_IDENTITY], truth=([1], [_IDENTITY] * 2))


def test_graph_without_edges_is_rejected():
    with pytest.raises(TooFewMotions, match="no edges"):
        build_pgo(PoseGraph(1, (), ()))


def test_gauge_invariance_of_error_vector():
    g = generate_cycle_graph(6, loop_closures=2, seed=53)
    rng = np.random.default_rng(59)
    poses = _truth_poses(g)
    base = error_vector(g, poses)
    for _ in range(10):
        w = rng.standard_normal(4)
        w /= np.linalg.norm(w)
        t = rng.standard_normal(3)
        gauge = udqs([pose_row(Quaternion.from_array(w), t)])[0]
        moved = [gauge * p for p in poses]
        shifted = error_vector(g, moved)
        for a, b in zip(base, shifted):
            d = a - b
            assert max(d.std.norm(), d.dual.norm()) <= 1e-12


def test_noiseless_solve_recovers_truth():
    g = generate_cycle_graph(6, loop_closures=2, seed=61)
    problem = build_pgo(g)
    report = solve_eqdqo(problem, SolverConfig(restarts=2, seed=0), initial=spanning_tree_rows(g))
    assert report.stage1_value <= 1e-8
    assert max(report.feasibility.values()) <= 1e-9
    for row in vertex_errors(g, list(report.solution)):
        assert row["rotation_error"] <= 1e-6
        assert row["translation_error"] <= 1e-6


# ---------------------------------------------------------------------------
# Invariance: the same graph written another way gives the same answer.


def _answer(g):
    """Pose rows of the one-restart solve from the spanning-tree guess."""
    cfg = SolverConfig(restarts=1, seed=0)
    report = solve_eqdqo(build_pgo(g), cfg, initial=spanning_tree_rows(g))
    return pose_rows(report.solution)


def _reverse_every_other_edge(g, seed):
    ids, poses = g.edge_ids.copy(), g.edge_poses.copy()
    ids[1::2] = ids[1::2, ::-1]
    poses[1::2] = pose_inverse(poses[1::2])
    return PoseGraph(g.n, ids, poses), lambda rows: rows


def _scale_translations(g, seed):
    poses = g.edge_poses.copy()
    poses[:, 4:] *= 10.0
    unscaled = np.array([1.0, 1.0, 1.0, 1.0, 0.1, 0.1, 0.1])
    return PoseGraph(g.n, g.edge_ids, poses), lambda rows: rows * unscaled


def _relabel_vertices(g, seed):
    # vertex 1 keeps its label: it is the one anchored to the identity
    label = np.concatenate(([1], 2 + np.random.default_rng(seed).permutation(g.n - 1)))
    return PoseGraph(g.n, label[g.edge_ids - 1], g.edge_poses), lambda rows: rows[label - 1]


def _negate_every_third_rotation(g, seed):
    poses = g.edge_poses.copy()
    poses[::3, :4] *= -1.0
    return PoseGraph(g.n, g.edge_ids, poses), lambda rows: rows


@pytest.mark.parametrize(
    "rewrite,tol",
    [(_reverse_every_other_edge, 1e-9), (_scale_translations, 1e-9), (_relabel_vertices, 1e-9),
     (_negate_every_third_rotation, 0.0)],
    ids=["reverse", "scale", "relabel", "negate"],
)
def test_a_rewritten_graph_gives_the_same_answer(rewrite, tol):
    for seed in range(10):
        g = generate_cycle_graph(20, 6, 0.01, 0.01, seed)
        other, back = rewrite(g, seed)
        assert not (np.array_equal(other.edge_ids, g.edge_ids)
                    and np.array_equal(other.edge_poses, g.edge_poses))
        a, b = _answer(g), back(_answer(other))
        if tol == 0.0:
            # a sign changes no measurement, so the answer keeps every bit
            assert a.tobytes() == b.tobytes(), seed
        for row_a, row_b in zip(a, b):
            assert poses_close(row_a, row_b, tol), seed


def test_pgo_objective_zero_at_truth():
    g = generate_cycle_graph(10, loop_closures=3, seed=67)
    problem = build_pgo(g)
    z = pack([u.as_dual_quaternion() for u in _truth_poses(g)])
    v = problem.objective.value_at(z)
    assert v.std <= 1e-12
    assert abs(v.dual) <= 1e-12


# ---------------------------------------------------------------------------
# The per-record object code the array path replaced, kept as the reference.


def _reference_parse(text):
    """Records by kind as ``(ids, pose row)``, converted one line at a time."""
    out = {"EDGE": [], "VERTEX": [], "TRUTH": []}
    for raw in text.splitlines():
        tokens = raw.split()
        if tokens[0] == "#":
            tokens = tokens[1:]
        width = 2 if tokens[0] == "EDGE" else 1
        ids = tuple(int(t) for t in tokens[1 : 1 + width])
        numbers = [float(t) for t in tokens[1 + width :]]
        q = Quaternion.from_array(numbers[:4])
        out[tokens[0]].append((ids, pose_row(q / q.norm(), numbers[4:])))
    return out


def _reference_guess(edges, n):
    """Per-edge products along the breadth-first tree from vertex 1."""
    adjacency = {v: [] for v in range(1, n + 1)}
    for (i, j), pose in sorted(edges, key=lambda e: e[0]):
        u = udqs([pose])[0]
        adjacency[i].append((j, u))
        adjacency[j].append((i, u.conjugate()))
    poses = {1: UnitDualQuaternion.identity()}
    queue = deque([1])
    while queue:
        v = queue.popleft()
        for w, q in adjacency[v]:
            if w not in poses:
                poses[w] = poses[v] * q
                queue.append(w)
    return [poses[v] for v in range(1, n + 1)]


def _reference_errors(truth, poses):
    out = []
    for v, p in enumerate(poses, start=1):
        est = pose_rows([p if isinstance(p, UnitDualQuaternion) else UnitDualQuaternion.of(p)])[0]
        rot = rotation_angle_between(Quaternion(*truth[v][:4]), Quaternion(*est[:4]))
        dt = truth[v][4:] - est[4:]
        out.append({"vertex": v, "rotation_error": rot, "translation_error": float(np.linalg.norm(dt))})
    return out


def _rows(records):
    return np.array([p for _, p in records])


def test_array_path_matches_the_object_code_bit_for_bit():
    generated = generate_cycle_graph(
        30, loop_closures=10, noise_rot=0.01, noise_trans=0.01, seed=71
    )
    text = serialize_graph(generated)
    g = parse_graph(text)
    ref = _reference_parse(text)
    assert g.edge_poses.tobytes() == _rows(ref["EDGE"]).tobytes()
    assert g.vertex_poses.tobytes() == _rows(ref["VERTEX"]).tobytes()
    assert g.truth_poses.tobytes() == _rows(ref["TRUTH"]).tobytes()
    measured = pack([u.canonicalized() for u in udqs(_rows(ref["EDGE"]))])
    assert g.measurements().tobytes() == measured.tobytes()
    # the generator stores rows that parse reproduces
    assert generated.measurements().tobytes() == measured.tobytes()

    rows = spanning_tree_rows(g)
    assert rows.tobytes() == pack(_reference_guess(ref["EDGE"], g.n)).tobytes()

    report = solve_eqdqo(build_pgo(g), SolverConfig(restarts=1), initial=rows)
    guess = UnitDualQuaternion.from_rows(rows)
    truth = {ids[0]: pose for ids, pose in ref["TRUTH"]}
    for poses in (list(report.solution), guess):
        assert vertex_errors(g, poses) == _reference_errors(truth, poses)


def _object_cycle_graph(n, loop_closures, noise_rot, noise_trans, seed):
    """``(pairs, measured, truth)`` rows of the generator's former code, one pose at a time."""
    import math

    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed])))
    raw = []
    for k in range(n):
        angle = rng.uniform(0.05, 0.2)
        axis = rng.standard_normal(3)
        axis /= np.linalg.norm(axis)
        theta = 2.0 * math.pi * k / n
        position = (3.0 * math.cos(theta), 3.0 * math.sin(theta), 0.3 * math.sin(2.0 * theta))
        raw.append(pose_row(Quaternion.exp_axis_angle(angle, Quaternion(0.0, *axis)), position))
    base = inverse(raw[0])
    truth = [product(base, pose) for pose in raw]
    pairs = [(k, k + 1) for k in range(1, n)] + [(n, 1)]
    chords = [(i, j) for i in range(1, n + 1) for j in range(i + 2, n + 1) if not (i == 1 and j == n)]
    if loop_closures:
        picks = rng.choice(len(chords), size=loop_closures, replace=False)
        pairs.extend(chords[p] for p in sorted(picks))
    measured = []
    for i, j in pairs:
        rel = product(inverse(truth[i - 1]), truth[j - 1])
        if noise_rot > 0.0 or noise_trans > 0.0:
            bump = Quaternion.identity()
            if noise_rot > 0.0:
                axis = rng.standard_normal(3)
                axis /= np.linalg.norm(axis)
                bump = Quaternion.exp_axis_angle(rng.normal(0.0, noise_rot), Quaternion(0.0, *axis))
            t = rel[4:]
            if noise_trans > 0.0:
                t = t + rng.normal(0.0, noise_trans, 3)
            rel = pose_row(bump * Quaternion(*rel[:4]), t)
        measured.append(pose_row(Quaternion(*rel[:4]), rel[4:]))
    return pairs, np.array(measured), np.array(truth)


@pytest.mark.parametrize("noise_rot,noise_trans", [(0.0, 0.0), (0.02, 0.0), (0.0, 0.02), (0.02, 0.02)])
def test_batched_cycle_graph_matches_the_per_pose_generator(noise_rot, noise_trans):
    for n, chords, seed in ((5, 1, 0), (12, 4, 1), (30, 10, 2)):
        g = generate_cycle_graph(n, chords, noise_rot, noise_trans, seed=seed)
        pairs, measured, truth = _object_cycle_graph(n, chords, noise_rot, noise_trans, seed)
        assert g.edge_ids.tolist() == [list(p) for p in pairs]
        assert g.edge_poses.tobytes() == measured.tobytes()
        assert g.truth_poses.tobytes() == truth.tobytes()


# Each id is the file and line of the check, as they were when the test was written.
@pytest.mark.parametrize("call, message", [
    pytest.param(lambda g, x: error_vector(g, x[1:]), "^expected 4 poses, got 3$", id="posegraph.py:231"),
    pytest.param(lambda g, x: error_vector(PoseGraph(4, (), ()), x), None, id="posegraph.py:233"),
    pytest.param(lambda g, x: vertex_errors(g, x + x[:1]), "^expected 4 poses, got 5$",
                 id="posegraph.py:626"),
])
def test_pose_lists_are_checked_against_the_graph(call, message):
    g = generate_cycle_graph(4, seed=1)
    poses = list(unpack(spanning_tree_rows(g).reshape(-1), g.n))
    if message is None:
        # a graph with no edges has no errors to stack
        assert len(call(g, poses)) == 0
        return
    with pytest.raises(ValueError, match=message):
        call(g, poses)


def test_an_edgeless_graph_has_the_empty_error_vector():
    g = PoseGraph(3, (), ())
    errors = error_vector(g, [UnitDualQuaternion.identity()] * 3)
    assert errors == DualQuaternionVector(())
    assert errors.rows.shape == (0, 8)


def _kkt_at_stage(stage):
    problem = build_pgo(generate_cycle_graph(4, seed=1))
    return kkt_analysis(problem, problem.start, stage=stage)


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda: generate_synthetic("axxb", 5, seed=True), "seed must be an integer, got True",
                 id="handeye-seed-bool"),
    pytest.param(lambda: generate_synthetic("axyb", 5.0), "n must be an integer, got 5.0",
                 id="handeye-n-float"),
    pytest.param(lambda: generate_cycle_graph(6, 1, seed=True), "seed must be an integer, got True",
                 id="cycle-seed-bool"),
    pytest.param(lambda: generate_cycle_graph(6.0, 1), "n must be an integer, got 6.0", id="cycle-n-float"),
    pytest.param(lambda: generate_cycle_graph(6, 1.0), "loop_closures must be an integer, got 1.0",
                 id="cycle-chords-float"),
    pytest.param(lambda: PoseGraph(2.9, (), ()), "n must be an integer, got 2.9", id="graph-n-float"),
    pytest.param(lambda: PoseGraph(True, (), ()), "n must be an integer, got True", id="graph-n-bool"),
    pytest.param(lambda: _kkt_at_stage(True), "stage must be an integer, got True", id="kkt-stage-bool"),
    pytest.param(lambda: _kkt_at_stage(1.0), "stage must be an integer, got 1.0", id="kkt-stage-float"),
])
def test_counts_are_integers_not_bools_or_floats(call, message):
    # a bool was read as 0 or 1 and a float truncated or compared as given
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


def test_the_generators_store_numpy_counts_as_python_ints():
    # a NumPy count reached meta, which json.dumps refused
    ds = generate_synthetic("axyb", np.int64(5), seed=np.int64(3))
    assert json.dumps(ds.to_json_dict()) == json.dumps(generate_synthetic("axyb", 5, seed=3).to_json_dict())
    assert [type(ds.meta[k]) for k in ("n", "seed")] == [int, int]
    g = generate_cycle_graph(np.int32(6), np.uint8(2), seed=np.int64(4))
    assert type(g.n) is int
    assert serialize_graph(g) == serialize_graph(generate_cycle_graph(6, 2, seed=4))
