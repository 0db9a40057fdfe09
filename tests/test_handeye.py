import json

import numpy as np
import pytest

from dqopt import (
    HandEyeDataset,
    Pose,
    Quaternion,
    SolverConfig,
    UnitDualQuaternion,
    build_axxb,
    build_axyb,
    evaluate_solution,
    generate_synthetic,
    pack,
    relative_motions,
    rotation_angle_between,
    solve_eqdqo,
)
from dqopt import solver
from dqopt.errors import Infeasible, InvalidPose, NoGroundTruth, TooFewMotions


def _rand_pose(rng):
    axis = rng.standard_normal(3)
    axis /= np.linalg.norm(axis)
    rot = Quaternion.exp_axis_angle(float(rng.uniform(-2.5, 2.5)), Quaternion(0, *axis))
    return Pose(rot, tuple(rng.standard_normal(3)))


def test_pose_compose_matches_matrices():
    rng = np.random.default_rng(131)
    for _ in range(100):
        p1 = _rand_pose(rng)
        p2 = _rand_pose(rng)
        assert np.allclose(p1.compose(p2).matrix(), p1.matrix() @ p2.matrix(), atol=1e-12)


def test_pose_inverse_and_matrix_roundtrip():
    rng = np.random.default_rng(137)
    for _ in range(100):
        p = _rand_pose(rng)
        assert np.allclose(p.compose(p.inverse()).matrix(), np.eye(4), atol=1e-12)
        q = Pose.from_matrix(p.matrix())
        assert p.approx_eq(q, tol=1e-10)


def test_pose_rejects_bad_data():
    with pytest.raises(InvalidPose):
        Pose(Quaternion(2, 0, 0, 0), (0, 0, 0))
    with pytest.raises(InvalidPose):
        Pose(Quaternion.identity(), (0, 0))


def test_to_udq_is_a_homomorphism():
    rng = np.random.default_rng(139)
    for _ in range(200):
        p1 = _rand_pose(rng)
        p2 = _rand_pose(rng)
        lhs = p1.compose(p2).to_udq()
        rhs = p1.to_udq() * p2.to_udq()
        assert lhs.std.approx_eq(rhs.std, tol=1e-12)
        assert lhs.dual.approx_eq(rhs.dual, tol=1e-12)


def test_pose_udq_roundtrip():
    rng = np.random.default_rng(149)
    for _ in range(200):
        p = _rand_pose(rng)
        q = Pose.from_udq(p.to_udq())
        assert p.approx_eq(q, tol=1e-12)


def test_generated_truth_satisfies_pose_identity_axxb():
    # relative motions conjugate by the sensor offset: a X = X b as 4x4s
    ds = generate_synthetic("axxb", 5, seed=151)
    x = Pose.from_udq(ds.ground_truth_x).matrix()
    for a, b in relative_motions(ds):
        am = Pose.from_udq(a).matrix()
        bm = Pose.from_udq(b).matrix()
        assert np.allclose(am @ x, x @ bm, atol=1e-10)


def test_generated_truth_satisfies_pose_identity_axyb():
    ds = generate_synthetic("axyb", 6, seed=157)
    x = Pose.from_udq(ds.ground_truth_x).matrix()
    y = Pose.from_udq(ds.ground_truth_y).matrix()
    for pa, pb in zip(ds.poses_a, ds.poses_b):
        assert np.allclose(pa.matrix() @ x, y @ pb.matrix(), atol=1e-10)


def test_objective_vanishes_at_truth():
    ds = generate_synthetic("axxb", 5, seed=163)
    problem = build_axxb(ds)
    z = pack([ds.ground_truth_x.as_dual_quaternion()])
    v = problem.objective.value_at(z)
    assert v.std <= 1e-12 and abs(v.dual) <= 1e-12

    ds2 = generate_synthetic("axyb", 6, seed=167)
    problem2 = build_axyb(ds2)
    z2 = pack(
        [
            ds2.ground_truth_x.as_dual_quaternion(),
            ds2.ground_truth_y.as_dual_quaternion(),
        ]
    )
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


def test_dataset_json_roundtrip():
    ds = generate_synthetic("axyb", 4, noise_rot=0.01, seed=181)
    data = ds.to_json_dict()
    back = HandEyeDataset.from_json_dict(json.loads(json.dumps(data)))
    assert back.model == ds.model
    for p, q in zip(back.poses_a, ds.poses_a):
        assert p.approx_eq(q, tol=1e-12)
    assert back.ground_truth_x.std.approx_eq(ds.ground_truth_x.std, tol=1e-12)
    assert back.meta == ds.meta


def test_rotation_angle_between():
    q = Quaternion.exp_axis_angle(0.7, Quaternion(0, 0, 0, 1))
    assert rotation_angle_between(Quaternion.identity(), q) == pytest.approx(0.7, abs=1e-12)
    # the double cover is folded: q and -q are the same rotation
    assert rotation_angle_between(q, -q) == pytest.approx(0.0, abs=1e-12)


def _parallel_axes_dataset():
    # every relative motion about the same axis leaves the problem degenerate
    rot = Quaternion.exp_axis_angle(0.5, Quaternion(0, 0, 0, 1))
    poses_a = [Pose(Quaternion.identity(), (0, 0, 0))]
    poses_b = [Pose(Quaternion.identity(), (0, 0, 0))]
    for k in range(4):
        poses_a.append(poses_a[-1].compose(Pose(rot, (0.1 * k, 0, 0))))
        poses_b.append(poses_b[-1].compose(Pose(rot, (0, 0.1 * k, 0))))
    return HandEyeDataset("axxb", poses_a, poses_b)


def test_parallel_axes_warn():
    with pytest.warns(RuntimeWarning):
        build_axxb(_parallel_axes_dataset())


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


def test_an_exactly_singular_stage2_raises_infeasible_not_a_nan_answer():
    # noiseless motions about one axis leave the translation along it free;
    # here the stage-II normal matrix is exactly singular, and a NaN answer
    # must not pass as feasible
    x = Pose(Quaternion.exp_axis_angle(0.6, Quaternion(0, 0, 1, 0)), (0.1, 0.2, 0.3))
    poses_a, poses_b = [], []
    for angle, t in ((0.5, (1, 0, 0)), (0.9, (0, 1, 0.5)), (1.3, (0.3, -1, 0.2))):
        a = Pose(Quaternion.exp_axis_angle(angle, Quaternion(0, 0, 0, 1)), t)
        poses_a.append(a)
        poses_b.append(x.inverse().compose(a).compose(x))
    cfg = SolverConfig(restarts=2, seed=0)
    with pytest.warns(RuntimeWarning):
        problem = build_axxb(HandEyeDataset("axxb", poses_a, poses_b))
        with pytest.raises(Infeasible):
            solve_eqdqo(problem, cfg)
    # the first non-finite pass ends stage II instead of repeating to max_outer
    # (here the first pass is finite, its system has condition number 1.7e16)
    _, _, outcome = solver._stage1_restarts(problem, cfg, None)[0]
    stage2 = solver._stage2(problem, cfg, outcome.z)
    finite = [np.isfinite(row.objective_dual) for row in stage2.trace]
    assert stage2.iterations == len(finite) == 2
    assert all(finite[:-1]) and not finite[-1]


def test_too_few_motions():
    p = Pose(Quaternion.identity(), (0, 0, 0))
    with pytest.raises(TooFewMotions):
        build_axxb(HandEyeDataset("axxb", (p, p), (p, p)))
    with pytest.raises(TooFewMotions):
        generate_synthetic("axyb", 2)


def test_evaluate_without_truth_raises():
    p = Pose(Quaternion.identity(), (0, 0, 0))
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
        t, e = Pose.from_udq(truth), Pose.from_udq(UnitDualQuaternion.of(est))
        dt = np.asarray(t.translation) - np.asarray(e.translation)
        assert errors[f"rotation_error_{name}"] == rotation_angle_between(t.rotation, e.rotation)
        assert errors[f"translation_error_{name}"] == float(np.linalg.norm(dt))
