import json

import numpy as np
import pytest

from dqopt import (
    MIN_AXIS_SPREAD,
    DualQuaternion,
    EqdqoProblem,
    HandEyeDataset,
    Quaternion,
    ResidualNormObjective,
    SolverConfig,
    UnitDualQuaternion,
    build_axxb,
    build_axyb,
    evaluate_solution,
    generate_synthetic,
    pack,
    random_unit_quaternion,
    relative_motions,
    rotation_angle_between,
    solve_eqdqo,
    spectral_start,
)
from dqopt import handeye, solver
from dqopt.algebra import canonical_sign, left_mult_matrix, right_mult_matrix
from dqopt.cli import main
from dqopt.errors import Infeasible, InvalidPose, NoGroundTruth, TooFewMotions, UnitValidationError
from dqopt.handeye import pose_compose, pose_inverse, pose_rows, unit_rows
from helpers import affine_jacobians, inverse, matrix, pose_row, poses_close, product, pulled_jacobians, udqs

IDENTITY = np.array([1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0])


def _rand_rows(rng, k):
    rows = []
    for _ in range(k):
        axis = rng.standard_normal(3)
        axis /= np.linalg.norm(axis)
        rot = Quaternion.exp_axis_angle(float(rng.uniform(-2.5, 2.5)), Quaternion(0, *axis))
        rows.append(pose_row(rot, rng.standard_normal(3)))
    return np.array(rows)


def test_pose_compose_matches_matrices():
    rows = _rand_rows(np.random.default_rng(131), 200)
    p1, p2 = rows[0::2], rows[1::2]
    for p, a, b in zip(pose_compose(p1, p2), p1, p2):
        assert np.allclose(matrix(p), matrix(a) @ matrix(b), atol=1e-12)


def test_pose_inverse_and_matrix_roundtrip():
    rows = _rand_rows(np.random.default_rng(137), 100)
    for p in pose_compose(rows, pose_inverse(rows)):
        assert np.allclose(matrix(p), np.eye(4), atol=1e-12)


def test_pose_rejects_bad_data():
    with pytest.raises(InvalidPose):
        unit_rows([2, 0, 0, 0, 0, 0, 0], "pose")
    with pytest.raises(InvalidPose):
        unit_rows([1, 0, 0, 0, 0, 0], "pose")
    with pytest.raises(InvalidPose, match="7 columns"):
        HandEyeDataset("axxb", np.zeros((7, 6)), np.zeros((7, 6)))


def test_to_udq_is_a_homomorphism():
    rows = _rand_rows(np.random.default_rng(139), 400)
    p1, p2 = rows[0::2], rows[1::2]
    for lhs, a, b in zip(udqs(pose_compose(p1, p2)), udqs(p1), udqs(p2)):
        rhs = a * b
        assert lhs.std.approx_eq(rhs.std, tol=1e-12)
        assert lhs.dual.approx_eq(rhs.dual, tol=1e-12)


def test_pose_udq_roundtrip():
    rows = _rand_rows(np.random.default_rng(149), 200)
    for p, q in zip(rows, pose_rows(udqs(rows))):
        assert poses_close(p, q, tol=1e-12)


def test_pose_rows_are_world_frame_and_from_pose_takes_t_before_the_rotation():
    # from_pose(q, t) is q + eps q t / 2 and pose rows are q + eps t q / 2, so
    # each reads the other's translation t as R(q) t or R(q)^T t
    rows = _rand_rows(np.random.default_rng(167), 50)
    x_turn = np.array([np.cos(0.4), np.sin(0.4), 0.0, 0.0, 1.0, 2.0, 3.0])
    for row in [x_turn, *rows]:
        q, t, rot = Quaternion(*row[:4]), row[4:], matrix(row)[:3, :3]
        made = UnitDualQuaternion.from_pose(q, Quaternion(0, *t))
        assert np.allclose(pose_rows([made])[0, 4:], rot @ t, rtol=0, atol=1e-12)
        (value,) = UnitDualQuaternion.from_rows(handeye.pose_udqs(row[None]))
        _, back = value.to_pose()
        assert back.w == 0 and np.allclose(back.as_array()[1:], rot.T @ t, rtol=0, atol=1e-12)
    # a 0.8 rad turn about x
    made = UnitDualQuaternion.from_pose(Quaternion(*x_turn[:4]), Quaternion(0, 1, 2, 3))
    assert np.allclose(pose_rows([made])[0, 4:], [1, -0.7587, 3.5248], rtol=0, atol=1e-4)


def test_generated_truth_satisfies_pose_identity_axxb():
    # relative motions conjugate by the sensor offset: a X = X b as 4x4s
    ds = generate_synthetic("axxb", 5, seed=151)
    x = matrix(ds.ground_truth_x)
    a, b = (pose_rows(UnitDualQuaternion.from_rows(m)) for m in relative_motions(ds))
    for pa, pb in zip(a, b):
        assert np.allclose(matrix(pa) @ x, x @ matrix(pb), atol=1e-10)


def test_generated_truth_satisfies_pose_identity_axyb():
    ds = generate_synthetic("axyb", 6, seed=157)
    x, y = map(matrix, (ds.ground_truth_x, ds.ground_truth_y))
    for pa, pb in zip(ds.poses_a, ds.poses_b):
        assert np.allclose(matrix(pa) @ x, y @ matrix(pb), atol=1e-10)


def test_objective_vanishes_at_truth():
    ds = generate_synthetic("axxb", 5, seed=163)
    problem = build_axxb(ds)
    z = handeye.pose_udqs(ds.ground_truth_x[None]).ravel()
    v = problem.objective.value_at(z)
    assert v.std <= 1e-12 and abs(v.dual) <= 1e-12

    ds2 = generate_synthetic("axyb", 6, seed=167)
    problem2 = build_axyb(ds2)
    z2 = handeye.pose_udqs(np.array([ds2.ground_truth_x, ds2.ground_truth_y])).ravel()
    v2 = problem2.objective.value_at(z2)
    assert v2.std <= 1e-12 and abs(v2.dual) <= 1e-12


def test_noiseless_recovery_axxb():
    ds = generate_synthetic("axxb", 5, seed=173)
    report = solve_eqdqo(build_axxb(ds), SolverConfig(restarts=6, seed=0))
    errs = evaluate_solution(ds, list(report.solution)[0])
    assert errs["rotation_error_x"] <= 1e-8
    assert errs["translation_error_x"] <= 1e-8


def test_noiseless_recovery_axyb():
    ds = generate_synthetic("axyb", 6, seed=179)
    report = solve_eqdqo(build_axyb(ds), SolverConfig(restarts=6, seed=0))
    sol = list(report.solution)
    errs = evaluate_solution(ds, sol[0], sol[1])
    assert errs["rotation_error_x"] <= 1e-8
    assert errs["translation_error_x"] <= 1e-8
    assert errs["rotation_error_y"] <= 1e-8
    assert errs["translation_error_y"] <= 1e-8


def test_noise_degrades_rotation_recovery():
    clean = []
    noisy = []
    for seed in range(4):
        ds0 = generate_synthetic("axxb", 5, noise_rot=0.0, seed=seed)
        r0 = solve_eqdqo(build_axxb(ds0), SolverConfig(restarts=4, seed=0))
        clean.append(evaluate_solution(ds0, list(r0.solution)[0])["rotation_error_x"])
        ds1 = generate_synthetic("axxb", 5, noise_rot=0.05, seed=seed)
        r1 = solve_eqdqo(build_axxb(ds1), SolverConfig(restarts=4, seed=0))
        noisy.append(evaluate_solution(ds1, list(r1.solution)[0])["rotation_error_x"])
    assert np.median(clean) <= np.median(noisy)


def _calibration(model, sigma, seed, n=10):
    ds = generate_synthetic(model, n, noise_rot=sigma, noise_trans=sigma, seed=seed)
    return ds, (build_axxb if model == "axxb" else build_axyb)(ds)


def _squared_start(ds, monkeypatch):
    """The spectral start without its reweighted passes: the squared residuals' minimizer."""
    with monkeypatch.context() as m:
        m.setattr(handeye, "_SPECTRAL_PASSES", 0)
        return spectral_start(ds)


@pytest.mark.parametrize("model", ["axxb", "axyb"])
def test_the_spectral_start_begins_at_the_squared_minimizer(model, monkeypatch):
    # with no reweighted pass it is the least eigenvector of J^T J for the
    # stacked standard residual matrix J
    for seed in range(5):
        ds, problem = _calibration(model, 0.01, seed)
        a, b = relative_motions(ds) if model == "axxb" else (
            handeye.canonicalized(handeye.pose_udqs(rows)) for rows in (ds.poses_a, ds.poses_b))
        la, rb = left_mult_matrix(a[:, 0]), right_mult_matrix(b[:, 0])
        jac = la - rb if model == "axxb" else np.concatenate((la, -rb), axis=-1)
        jac = jac.reshape(-1, jac.shape[-1])
        least = np.linalg.eigh(jac.T @ jac)[1][:, 0].reshape(-1, 4) * np.sqrt(len(problem.start))
        rows = spectral_start(ds)
        assert np.array_equal(rows, problem.start) and not rows[:, 4:].any()
        squared = _squared_start(ds, monkeypatch)
        assert min(abs(squared[:, :4] - least).max(), abs(squared[:, :4] + least).max()) <= 1e-9


@pytest.mark.parametrize("model", ["axxb", "axyb"])
def test_a_noiseless_spectral_start_is_the_squared_minimizer_bit_for_bit(model, monkeypatch):
    # every residual is within TOL_APPRECIABLE there, so no pass reweights
    for seed in range(20):
        ds, problem = _calibration(model, 0.0, seed)
        assert problem.start.tobytes() == _squared_start(ds, monkeypatch).tobytes()


def test_the_spectral_start_is_nearer_the_unsquared_minimum_than_the_squared_minimizer(monkeypatch):
    rows = {"reweighted": 0, "squared": 0}
    for model in ("axxb", "axyb"):
        for seed in range(20):
            ds, problem = _calibration(model, 0.01, seed)
            squared = _squared_start(ds, monkeypatch)
            # each reweighted pass lowers the sum of magnitudes, the stage-I value
            values = problem.stage1.value_at(np.stack([problem.start, squared]).reshape(2, -1))[0]
            assert values[0] <= values[1]
            for kind, start in (("reweighted", problem.start), ("squared", squared)):
                p = EqdqoProblem(problem.objective, problem.unit, problem.anchors, start)
                rows[kind] += solve_eqdqo(p, SolverConfig(restarts=1)).iterations["stage1"]
    assert rows["reweighted"] < rows["squared"]


@pytest.mark.parametrize("model", ["axxb", "axyb"])
def test_one_restart_from_the_spectral_start_recovers_noiseless_truth_exactly(model):
    for seed in range(10):
        ds, problem = _calibration(model, 0.0, seed)
        report = solve_eqdqo(problem, SolverConfig(restarts=1))
        assert max(evaluate_solution(ds, *report.solution).values()) <= 1e-12


@pytest.mark.parametrize("model", ["axxb", "axyb"])
@pytest.mark.parametrize("sigma", [0.0, 0.01])
def test_one_restart_from_the_spectral_start_reaches_eight_random_restarts_minimum(model, sigma):
    for seed in range(20):
        _, problem = _calibration(model, sigma, seed)
        start = solve_eqdqo(problem, SolverConfig(restarts=1)).stage1_value
        bare = EqdqoProblem(problem.objective, problem.unit, problem.anchors)
        # Solver seed s draws restart 0 from the stream that generate_synthetic(seed=s)
        # draws the truth from; seed 20 is outside the data seeds, so no start is the truth.
        random = solve_eqdqo(bare, SolverConfig(restarts=8, seed=20)).stage1_value
        assert abs(start - random) <= 1e-9 * random


@pytest.mark.parametrize("model", ["axxb", "axyb"])
@pytest.mark.parametrize("sigma", [0.0, 0.01])
def test_eight_restarts_report_restart_0s_solution_on_these_calibrations(model, sigma):
    # Restart 0 converges first from the spectral start and the random restarts
    # merge into it.  The least stage-I value still wins by exact comparison, so
    # this pins an outcome on this data, not a rule: a random restart that ends
    # a rounding below restart 0 would win and could flip the answer's sign.
    for seed in range(20):
        _, problem = _calibration(model, sigma, seed)
        one = solve_eqdqo(problem, SolverConfig(restarts=1))
        eight = solve_eqdqo(problem, SolverConfig(restarts=8))
        assert eight.restart_index == 0, seed
        assert pack(list(eight.solution)).tobytes() == pack(list(one.solution)).tobytes(), seed


def test_dataset_json_roundtrip():
    ds = generate_synthetic("axyb", 4, noise_rot=0.01, seed=181)
    data = ds.to_json_dict()
    back = HandEyeDataset.from_json_dict(json.loads(json.dumps(data)))
    assert back.model == ds.model
    for p, q in zip(back.poses_a, ds.poses_a):
        assert poses_close(p, q, tol=1e-12)
    assert back.ground_truth_x.tobytes() == ds.ground_truth_x.tobytes()
    assert back.meta == ds.meta


def test_rotation_angle_between():
    q = Quaternion.exp_axis_angle(0.7, Quaternion(0, 0, 0, 1))
    assert rotation_angle_between(Quaternion.identity(), q) == pytest.approx(0.7, abs=1e-12)
    # the double cover is folded: q and -q are the same rotation
    assert rotation_angle_between(q, -q) == pytest.approx(0.0, abs=1e-12)


def _parallel_axes_dataset():
    # every relative motion about the same axis leaves the problem degenerate
    rot = Quaternion.exp_axis_angle(0.5, Quaternion(0, 0, 0, 1))
    poses_a, poses_b = [IDENTITY], [IDENTITY]
    for k in range(4):
        poses_a.append(product(poses_a[-1], pose_row(rot, (0.1 * k, 0, 0))))
        poses_b.append(product(poses_b[-1], pose_row(rot, (0, 0.1 * k, 0))))
    return HandEyeDataset("axxb", poses_a, poses_b)


def test_parallel_axes_warn():
    with pytest.warns(RuntimeWarning):
        build_axxb(_parallel_axes_dataset())


def test_motions_with_under_two_rotation_axes_warn():
    # no rotation axis, or one, spans no angle at all
    half = Quaternion.exp_axis_angle(0.5, Quaternion(0, 0, 0, 1)).as_array()
    assert handeye._axis_spread(np.array([[1.0, 0.0, 0.0, 0.0], half])) == 0.0
    # pure translations have no rotation axis
    poses_a = [pose_row(Quaternion.identity(), (0.3 * k, k % 2, 0)) for k in range(4)]
    poses_b = [pose_row(Quaternion.identity(), (0, 0.3 * k, k % 2)) for k in range(4)]
    with pytest.warns(RuntimeWarning, match="nearly parallel"):
        build_axxb(HandEyeDataset("axxb", poses_a, poses_b))


def test_parallel_axes_solve_despite_a_singular_normal_matrix():
    # a whole circle of rotations fits exactly, so the stage-I normal matrix
    # is singular along it; the damped step must not raise
    with pytest.warns(RuntimeWarning):
        problem = build_axxb(_parallel_axes_dataset())
    report = solve_eqdqo(problem, SolverConfig())
    z = pack(list(report.solution))
    assert np.all(np.isfinite(z))
    assert abs(np.linalg.norm(z[:4]) - 1.0) <= 1e-12
    assert max(report.feasibility.values()) <= 1e-9
    assert report.stage1_value <= 1e-9


def test_an_exactly_singular_stage2_raises_infeasible_not_a_nan_answer(monkeypatch):
    # noiseless motions about one axis leave the translation along it free;
    # from the spectral start a stage-II normal matrix is exactly singular,
    # and a NaN answer must not pass as feasible
    x = pose_row(Quaternion.exp_axis_angle(0.6, Quaternion(0, 0, 1, 0)), (0.1, 0.2, 0.3))
    poses_a, poses_b = [], []
    for angle, t in ((0.5, (1, 0, 0)), (0.9, (0, 1, 0.5)), (1.3, (0.3, -1, 0.2))):
        a = pose_row(Quaternion.exp_axis_angle(angle, Quaternion(0, 0, 0, 1)), t)
        poses_a.append(a)
        poses_b.append(product(product(inverse(x), a), x))
    cfg = SolverConfig(restarts=2, seed=0)
    with pytest.warns(RuntimeWarning):
        # the constructor keeps the rows as the kernels formed them: normalizing
        # them again would move last bits and the system off exact singularity
        problem = build_axxb(HandEyeDataset("axxb", poses_a, poses_b))
    # Infeasible from the spectral start, at value 0 and so alone
    with pytest.raises(Infeasible, match=r"restarts \[0\] \(stage II left h_d"):
        solve_eqdqo(problem, cfg)
    # the first non-finite pass ends stage II instead of repeating to max_outer
    # (here the third: its system is exactly singular)
    _, _, outcome = solver._stage1_restarts(problem, cfg, None, solver._JacobianMemo())[0]
    stage2 = solver._stage2(problem, cfg, outcome.z, outcome.trace[-1], solver._JacobianMemo())
    finite = [np.isfinite(row.objective_dual) for row in stage2.trace]
    assert len(finite) == 3
    assert all(finite[:-1]) and not finite[-1]
    # From two random restarts, restart 0's systems are singular only to
    # rounding: its finite answer, with an undetermined translation, passes
    # as in test_parallel_axes_solve_despite_a_singular_normal_matrix
    # (ROADMAP item 4).
    bare = EqdqoProblem(problem.objective, problem.unit, problem.anchors)
    report = solve_eqdqo(bare, cfg)
    assert np.all(np.isfinite(pack(list(report.solution))))
    assert max(report.feasibility.values()) <= 1e-9
    # The solve an exactly singular system gives, NaN, forced on stage II's
    # passes (the calls without a damping shift), leaves no candidate.
    solve = solver._reduced_solve
    with monkeypatch.context() as m:
        m.setattr(solver, "_reduced_solve", lambda h, rhs, *shift: (
            solve(h, rhs, *shift) if shift else np.full_like(rhs, np.nan)))
        with pytest.raises(Infeasible, match=r"restarts \[0, 1\] \(stage II left h_d"):
            solve_eqdqo(bare, cfg)


def test_too_few_motions():
    p = IDENTITY
    with pytest.raises(TooFewMotions):
        build_axxb(HandEyeDataset("axxb", (p, p), (p, p)))
    with pytest.raises(TooFewMotions):
        generate_synthetic("axyb", 2)


def test_evaluate_without_truth_raises():
    p = IDENTITY
    ds = HandEyeDataset("axxb", (p, p, p), (p, p, p))
    with pytest.raises(NoGroundTruth):
        evaluate_solution(ds, UnitDualQuaternion.identity())
    ds2 = generate_synthetic("axxb", 3, seed=191)
    with pytest.raises(NoGroundTruth):
        evaluate_solution(ds2, UnitDualQuaternion.identity(), UnitDualQuaternion.identity())


def test_evaluate_solution_matches_the_per_pose_computation():
    ds = generate_synthetic("axyb", 6, noise_rot=0.01, noise_trans=0.01, seed=7)
    x, y = solve_eqdqo(build_axyb(ds), SolverConfig(restarts=2, seed=0)).solution
    errors = evaluate_solution(ds, x, y)
    for name, truth, est in (("x", ds.ground_truth_x, x), ("y", ds.ground_truth_y, y)):
        t, e = truth, pose_rows([UnitDualQuaternion.of(est)])[0]
        dt = t[4:] - e[4:]
        angle = rotation_angle_between(Quaternion(*t[:4]), Quaternion(*e[:4]))
        assert errors[f"rotation_error_{name}"] == angle
        assert errors[f"translation_error_{name}"] == float(np.linalg.norm(dt))


def test_axyb_parallel_axes_warn():
    # every relative motion a_{i+1}^{-1} a_i about the z axis
    rot = Quaternion.exp_axis_angle(0.4, Quaternion(0, 0, 0, 1))
    poses = [IDENTITY]
    for k in range(3):
        poses.append(product(poses[-1], pose_row(rot, (0.2 * k, 0.1, 0))))
    with pytest.warns(RuntimeWarning):
        build_axyb(HandEyeDataset("axyb", poses, poses))


# ---------------------------------------------------------------------------
# Invariance: the same measurements written another way give the same
# calibration, compared on pose rows over seeds 0-9.


_SCALE = np.array([1.0, 1.0, 1.0, 1.0, 10.0, 10.0, 10.0])
# a robot base frame G, turned and moved away from the identity
_BASE = pose_row(Quaternion.exp_axis_angle(1.1, Quaternion(0, 0.6, 0, 0.8)), (0.4, -1.3, 0.7))


def _he_answer(ds):
    problem = build_axxb(ds) if ds.model == "axxb" else build_axyb(ds)
    return pose_rows(solve_eqdqo(problem, SolverConfig(restarts=8, seed=0)).solution)


def _negate_rotations(ds, seed):
    # every third A row and a shifted third of the B rows: the same poses
    a, b = ds.poses_a.copy(), ds.poses_b.copy()
    a[0::3, :4] *= -1.0
    b[1::3, :4] *= -1.0
    return HandEyeDataset(ds.model, a, b), lambda rows: rows


def _scale_he_translations(ds, seed):
    other = HandEyeDataset(ds.model, ds.poses_a * _SCALE, ds.poses_b * _SCALE)
    return other, lambda rows: rows / _SCALE


def _reorder_pairs(ds, seed):
    order = np.random.default_rng(seed).permutation(len(ds.poses_a))
    return HandEyeDataset(ds.model, ds.poses_a[order], ds.poses_b[order]), lambda rows: rows


def _reverse_sequence(ds, seed):
    # relative motion i becomes the inverse of motion k - 1 - i on both sides
    return HandEyeDataset(ds.model, ds.poses_a[::-1], ds.poses_b[::-1]), lambda rows: rows


def _change_base_frame(ds, seed):
    # A_k <- G A_k turns every relative motion a into G a G^-1, so X becomes G X
    g = np.repeat(_BASE[None], len(ds.poses_a), axis=0)
    other = HandEyeDataset(ds.model, pose_compose(g, ds.poses_a), ds.poses_b)
    return other, lambda rows: pose_compose(pose_inverse(g[: len(rows)]), rows)


# Noisy reverse and base-frame AXXB answers differ in translation by up to
# 2e-3: stage II's least-squares tie-break weighs the residuals' dual parts,
# which multiplying them by a unit dual quaternion changes.  AXYB base-frame
# changes flip a pose's canonical sign on some seeds, so they wait for
# sign-consistent residuals.
HE_REWRITES = [
    ("axxb", _negate_rotations, 0.01),
    ("axyb", _negate_rotations, 0.01),
    ("axxb", _negate_rotations, 0.0),
    ("axyb", _negate_rotations, 0.0),
    ("axxb", _scale_he_translations, 0.01),
    ("axyb", _scale_he_translations, 0.01),
    ("axxb", _scale_he_translations, 0.0),
    ("axyb", _scale_he_translations, 0.0),
    ("axyb", _reorder_pairs, 0.01),
    ("axyb", _reorder_pairs, 0.0),
    ("axxb", _reverse_sequence, 0.0),
    ("axxb", _change_base_frame, 0.0),
]


@pytest.mark.parametrize(
    "model,rewrite,sigma", HE_REWRITES,
    ids=[f"{m}-{f.__name__.strip('_')}-{s}" for m, f, s in HE_REWRITES],
)
def test_a_rewritten_dataset_gives_the_same_calibration(model, rewrite, sigma):
    for seed in range(10):
        ds = generate_synthetic(model, 10, sigma, sigma, seed)
        other, back = rewrite(ds, seed)
        assert not np.array_equal(other.poses_a, ds.poses_a)
        for a, b in zip(_he_answer(ds), back(_he_answer(other))):
            assert poses_close(a, b, 1e-9), seed


# ---------------------------------------------------------------------------
# The per-pair object build that the batched builders replaced, kept as
# their reference: pose arithmetic in Quaternion objects, rounded as the
# row kernels round, the residual Jacobians as one 4x4 product per term,
# and one norm group per pair.


def _ref_pose(q, t):
    """The pose ``(q, t)`` with ``q`` normalized as :func:`unit_rows` does it."""
    return q / q.norm(), np.array([float(v) for v in t])


def _ref_rotate(q, v):
    """``q v conj(q)`` in Quaternion products, as the row kernels rotate translations."""
    r = q * Quaternion(0.0, *v) * q.conjugate()
    return np.array([r.x, r.y, r.z])


def _ref_compose(p, o):
    return _ref_pose(p[0] * o[0], _ref_rotate(p[0], o[1]) + p[1])


def _ref_inverse(p):
    qi = p[0].conjugate()
    return _ref_pose(qi, -_ref_rotate(qi, p[1]))


def _ref_canonical_udq(p):
    """The unit dual quaternion of ``p``, its first nonzero coefficient made positive."""
    q, t = p
    value = DualQuaternion(q, (Quaternion(0.0, *t) * q) * 0.5)
    first = next((c for c in (q.w, q.x, q.y, q.z) if c != 0.0), 1.0)
    return -value if first < 0.0 else value


def _ref_jacobians(arity, terms):
    """One residual's Jacobians ``(J_s, J_d)``, ``(4, 8n)`` each, one 4x4 product per term."""

    def lm(q):
        return left_mult_matrix(q.as_array())

    def rm(q):
        return right_mult_matrix(q.as_array())

    jac_std, jac_dual = np.zeros((4, 8 * arity)), np.zeros((4, 8 * arity))
    for left, v, right in terms:
        k_ss = lm(left.std) @ rm(right.std)
        k_mix = lm(left.dual) @ rm(right.std) + lm(left.std) @ rm(right.dual)
        s = 8 * v
        jac_std[:, s : s + 4] += k_ss
        jac_dual[:, s + 4 : s + 8] += k_ss
        jac_dual[:, s : s + 4] += k_mix
    return jac_std, jac_dual


def _ref_build(ds):
    """``(pairs, objective, jacobians)`` of the per-pair object build."""
    a, b = ([(Quaternion(*r[:4]), r[4:]) for r in rows] for rows in (ds.poses_a, ds.poses_b))
    if ds.model == "axxb":
        pairs = [
            (
                _ref_canonical_udq(_ref_compose(a[i + 1], _ref_inverse(a[i]))),
                _ref_canonical_udq(_ref_compose(_ref_inverse(b[i + 1]), b[i])),
            )
            for i in range(len(a) - 1)
        ]
        arity, other = 1, 0
    else:
        pairs = [(_ref_canonical_udq(p), _ref_canonical_udq(q)) for p, q in zip(a, b)]
        arity, other = 2, 1
    one = DualQuaternion.identity()
    terms = [[(p, 0, one), (-one, other, q)] for p, q in pairs]
    jacobians = [_ref_jacobians(arity, t) for t in terms]

    def matrices(term, at):
        # the term alone: its standard and dual matrices in its variable's standard slot
        jac_std, jac_dual = _ref_jacobians(arity, [term])
        return np.stack((jac_std[:, at : at + 4], jac_dual[:, at : at + 4]))

    first = np.array([matrices(t[0], 0) for t in terms])
    second = np.array([matrices(t[1], 8 * other) for t in terms])
    i = np.zeros(len(pairs), dtype=np.intp)
    stack = handeye.affine_rows(arity, i, i + other, first, second)
    return pairs, ResidualNormObjective(arity, stack, [1] * len(pairs)), jacobians


DRAWS = [
    (model, n, sigma, seed)
    for model in ("axxb", "axyb")
    for n in (10, 30)
    for sigma in (0.0, 0.01)
    for seed in range(3)
]


@pytest.mark.parametrize("model,n,sigma,seed", DRAWS)
def test_batched_build_matches_the_object_build(model, n, sigma, seed, monkeypatch):
    ds = generate_synthetic(model, n, noise_rot=sigma, noise_trans=sigma, seed=seed)
    stacked = []
    original = handeye.affine_rows

    def spy(*args):
        stacked.append(original(*args))
        return stacked[-1]

    monkeypatch.setattr(handeye, "affine_rows", spy)
    problem = (build_axxb if model == "axxb" else build_axyb)(ds)
    monkeypatch.undo()
    (evaluate,) = stacked
    r_std, _, pullback, _ = evaluate(np.zeros(8 * problem.arity))
    jac_std, jac_dual = pulled_jacobians(pullback, r_std.size)
    pairs, reference, jacobians = _ref_build(ds)

    # motions (axxb) or canonical poses (axyb), zero signs included
    if model == "axxb":
        a, b = relative_motions(ds)
    else:
        a, b = (handeye.canonicalized(handeye.pose_udqs(r)) for r in (ds.poses_a, ds.poses_b))
    expected = np.array([[(v.std.as_array(), v.dual.as_array()) for v in pair] for pair in pairs])
    assert np.stack((a, b), axis=1).tobytes() == expected.tobytes()
    assert jac_std.tobytes() == np.vstack([j[0] for j in jacobians]).tobytes()
    assert jac_dual.tobytes() == np.vstack([j[1] for j in jacobians]).tobytes()

    rng = np.random.default_rng(seed)
    for z in rng.standard_normal((3, 8 * problem.arity)):
        v, w = problem.objective.value_at(z), reference.value_at(z)
        assert np.array([v.std, v.dual]).tobytes() == np.array([w.std, w.dual]).tobytes()
        got, want = problem.objective.gradient_at(z), reference.gradient_at(z)
        assert np.concatenate(got).tobytes() == np.concatenate(want).tobytes()


def _ref_json(data):
    """``data`` read one pose at a time and written back, as the object path did.

    A rotation that is unit to 4 ulps is read as given, as ``from_json_dict``
    reads it; writing a pose normalizes its rotation.
    """

    def read(p):
        q = Quaternion(*p["q"])
        if abs(q.norm() - 1.0) > 4 * np.finfo(np.float64).eps:
            q = q / q.norm()
        return q, np.array([float(v) for v in p["t"]])

    def pose(q, t):
        return {"q": [q.w, q.x, q.y, q.z], "t": t.tolist()}

    return {
        "model": data["model"],
        "A": [pose(*read(p)) for p in data["A"]],
        "B": [pose(*read(p)) for p in data["B"]],
        "ground_truth": {k: pose(*read(p)) for k, p in data["ground_truth"].items()},
        "meta": data["meta"],
    }


@pytest.mark.parametrize("model", ["axxb", "axyb"])
def test_json_round_trip_writes_the_object_paths_bytes(model):
    for seed in range(4):
        ds = generate_synthetic(model, 8, noise_rot=0.01, noise_trans=0.01, seed=seed)
        data = json.loads(json.dumps(ds.to_json_dict()))
        read = HandEyeDataset.from_json_dict(data)
        assert json.dumps(read.to_json_dict()) == json.dumps(_ref_json(data))
        for rows in (read.poses_a, read.poses_b, read.ground_truth_x):
            assert not rows.flags.writeable


@pytest.mark.parametrize("model", ["axxb", "axyb"])
def test_a_written_dataset_reads_back_bit_for_bit(model):
    for seed in range(20):
        sigma = 0.01 * (seed % 2)
        ds = generate_synthetic(model, 10, noise_rot=sigma, noise_trans=sigma, seed=seed)
        data = json.loads(json.dumps(ds.to_json_dict()))
        read = HandEyeDataset.from_json_dict(data)
        assert read.poses_a.tobytes() == ds.poses_a.tobytes()
        assert read.poses_b.tobytes() == ds.poses_b.tobytes()
        assert read.to_json_dict() == data, seed


def test_a_file_rotation_off_unit_is_still_normalized():
    ds = generate_synthetic("axxb", 6, seed=3)
    data = json.loads(json.dumps(ds.to_json_dict()))
    data["A"][2]["q"] = [v * (1.0 + 1e-9) for v in data["A"][2]["q"]]
    read = HandEyeDataset.from_json_dict(data)
    expected = unit_rows([[*data["A"][2]["q"], *data["A"][2]["t"]]], "pose")[0]
    assert read.poses_a[2].tobytes() == expected.tobytes()
    assert np.delete(read.poses_a, 2, axis=0).tobytes() == np.delete(ds.poses_a, 2, axis=0).tobytes()


def _ref_generate(model, n, sr, st, seed):
    """The per-pose generator the batched one replaced, in the object arithmetic above."""
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed])))

    def random_pose():
        return _ref_pose(random_unit_quaternion(rng), rng.normal(0.0, 0.5, 3))

    def rotation_about(angle):
        axis = rng.standard_normal(3)
        axis /= np.linalg.norm(axis)
        return Quaternion.exp_axis_angle(angle, Quaternion(0.0, *axis))

    def noisy(p):
        if sr == 0.0 and st == 0.0:
            return p
        bump = rotation_about(rng.normal(0.0, sr)) if sr > 0 else Quaternion.identity()
        return _ref_pose(bump * p[0], p[1] + (rng.normal(0.0, st, 3) if st > 0 else 0.0))

    def rows(poses):
        return np.array([[*q.as_array(), *t] for q, t in poses])

    truth_x = random_pose()
    if model == "axxb":
        while True:
            rotations = [rotation_about(rng.uniform(0.5, 2.5)) for _ in range(n)]
            if handeye._axis_spread(np.array([q.as_array() for q in rotations])) >= MIN_AXIS_SPREAD:
                break
        poses_b = [random_pose()]
        for q in rotations:
            step = _ref_pose(q, rng.normal(0.0, 0.5, 3))
            poses_b.append(_ref_compose(poses_b[-1], _ref_inverse(step)))
        poses_a = [random_pose()]
        for i in range(n):
            b_rel = _ref_compose(_ref_inverse(poses_b[i + 1]), poses_b[i])
            a_rel = _ref_compose(_ref_compose(truth_x, b_rel), _ref_inverse(truth_x))
            poses_a.append(_ref_compose(a_rel, poses_a[i]))
        truths = [truth_x]
    else:
        truth_y = random_pose()
        target = canonical_sign(truth_x[0]) * canonical_sign(truth_y[0])
        while True:
            poses_a = []
            while len(poses_a) < n:
                a = random_pose()
                qb = truth_y[0].conjugate() * a[0] * truth_x[0]
                if abs(a[0].w) < 0.2 or abs(qb.w) < 0.2:
                    continue
                if canonical_sign(a[0]) * canonical_sign(qb) == target:
                    poses_a.append(a)
            rel = [_ref_compose(_ref_inverse(p), q) for p, q in zip(poses_a[1:], poses_a)]
            if handeye._axis_spread(rows(rel)[:, :4]) >= MIN_AXIS_SPREAD:
                break
        poses_b = [_ref_compose(_ref_compose(_ref_inverse(truth_y), a), truth_x) for a in poses_a]
        truths = [truth_x, truth_y]
    noisy_b = [noisy(p) for p in poses_b]
    truths = list(pose_rows([UnitDualQuaternion(_ref_canonical_udq(p)) for p in truths])) + [None]
    meta = {"seed": seed, "n": n, "noise_rot": sr, "noise_trans": st}
    return HandEyeDataset(model, rows(poses_a), rows(noisy_b), *truths[:2], meta)


NOISE = [(0.0, 0.0), (0.01, 0.0), (0.0, 0.01), (0.01, 0.01)]


@pytest.mark.parametrize("model", ["axxb", "axyb"])
@pytest.mark.parametrize("sr,st", NOISE)
def test_generator_writes_the_per_pose_generators_bytes(model, sr, st):
    for n in (3, 10):
        for seed in range(5):
            got = generate_synthetic(model, n, sr, st, seed).to_json_dict()
            want = _ref_generate(model, n, sr, st, seed).to_json_dict()
            assert json.dumps(got, indent=2) == json.dumps(want, indent=2), (n, seed)


BAD_NOISE = [
    (["--noise-trans", "nan"], {"noise_trans": float("nan")}, "noise_trans"),
    (["--noise-rot", "-0.1"], {"noise_rot": -0.1}, "noise_rot"),
    (["--noise-rot", "inf"], {"noise_rot": float("inf")}, "noise_rot"),
]


@pytest.mark.parametrize("flags,kwargs,name", BAD_NOISE)
def test_bad_noise_is_rejected(flags, kwargs, name, tmp_path, capsys):
    with pytest.raises(ValueError, match=f"{name} must be finite and non-negative"):
        generate_synthetic("axxb", 5, **kwargs)
    out = tmp_path / "ds.json"
    assert main(["gen-handeye", "--model", "axyb", "--motions", "5", *flags, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith(f"error: {name} must be")
    assert not out.exists()


def test_a_negative_seed_is_rejected():
    for model in ("axxb", "axyb"):
        with pytest.raises(ValueError, match="seed must be non-negative, got -1"):
            generate_synthetic(model, 5, seed=-1)


NON_FINITE = [("q", 1, float("nan")), ("t", 0, float("nan")), ("t", 2, float("inf"))]


@pytest.mark.parametrize("field,index,value", NON_FINITE)
def test_non_finite_pose_is_invalid(field, index, value, tmp_path, capsys):
    data = generate_synthetic("axxb", 6, seed=3).to_json_dict()
    data["B"][4][field][index] = value
    with pytest.raises(InvalidPose, match="B pose 4 is not finite"):
        HandEyeDataset.from_json_dict(data)
    rows = generate_synthetic("axyb", 4, seed=3).poses_a.copy()
    rows[2, 4 * (field == "t") + index] = value
    with pytest.raises(InvalidPose, match="A pose 2 is not finite"):
        HandEyeDataset("axyb", rows, rows)
    gt = generate_synthetic("axxb", 6, seed=3).to_json_dict()
    gt["ground_truth"]["X"][field][index] = value
    with pytest.raises(InvalidPose, match="ground truth X is not finite"):
        HandEyeDataset.from_json_dict(gt)
    for case in (data, gt):
        path = tmp_path / "data.json"
        path.write_text(json.dumps(case))
        assert main(["solve-handeye", "--in", str(path), "--out", str(tmp_path / "r.json")]) == 2
        err = capsys.readouterr().err
        assert "is not finite" in err and "Traceback" not in err


def test_affine_residual_jacobians_match_the_per_term_products():
    rng = np.random.default_rng(5)

    def draw():
        if rng.random() < 0.3:
            return DualQuaternion.identity() * float(rng.choice([-1.0, 1.0]))
        return DualQuaternion(Quaternion(*rng.standard_normal(4)), Quaternion(*rng.standard_normal(4)))

    for _ in range(50):
        terms = [(draw(), int(rng.integers(3)), draw()) for _ in range(3)]
        jac_std, jac_dual = _ref_jacobians(3, terms)
        got_std, got_dual = affine_jacobians(3, terms)
        assert got_std.tobytes() == jac_std.tobytes()
        assert got_dual.tobytes() == jac_dual.tobytes()


def _first(model, k):
    """A dataset of the first ``k`` pose pairs of a generated one."""
    ds = generate_synthetic(model, 3, seed=1)
    return HandEyeDataset(model, ds.poses_a[:k], ds.poses_b[:k])


# Each id is the file and line of the check, as they were when the test was written.
@pytest.mark.parametrize("call, error, message", [
    pytest.param(lambda: relative_motions(_first("axyb", 3)), ValueError,
                 "^relative motions apply to the axxb model$", id="handeye.py:229"),
    pytest.param(lambda: relative_motions(_first("axxb", 1)), TooFewMotions,
                 "^need at least 2 poses for relative motions$", id="handeye.py:232"),
    pytest.param(lambda: build_axyb(_first("axxb", 3)), ValueError,
                 "^build_axyb needs an axyb dataset$", id="handeye.py:271"),
    pytest.param(lambda: build_axyb(_first("axyb", 2)), TooFewMotions,
                 "^need at least 3 pose pairs, got 2$", id="handeye.py:330"),
    pytest.param(lambda: generate_synthetic("axzb", 3), ValueError,
                 "^unknown model 'axzb'$", id="handeye.py:401"),
    pytest.param(lambda: generate_synthetic("axxb", 1), TooFewMotions,
                 "^axxb needs n >= 2 relative motions$", id="handeye.py:403"),
    pytest.param(lambda: pose_rows([DualQuaternion(Quaternion(1.001, 0, 0, 0), Quaternion(0, 0, 0, 0))]),
                 UnitValidationError, "^unit deviation 0.00099", id="handeye.py:489"),
])
def test_hand_eye_input_checks_raise_naming_the_fault(call, error, message):
    with pytest.raises(error, match=message):
        call()
