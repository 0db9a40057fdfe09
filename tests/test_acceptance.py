"""End-to-end acceptance suite.

Each test covers one shipping criterion at its stated tolerance and time
budget and prints an ACCEPTANCE line on success so a log scrape can
confirm full coverage.
"""

import json
import time

import numpy as np

from dqopt import (
    DualNumber,
    DualQuaternion,
    Quaternion,
    SolverConfig,
    UnitDualQuaternion,
    build_axxb,
    build_axyb,
    build_pgo,
    error_vector,
    evaluate_solution,
    generate_cycle_graph,
    generate_synthetic,
    kkt_analysis,
    pack,
    solve_eqdqo,
    spanning_tree_rows,
    squared_distance_objective,
    vertex_errors,
)
from dqopt.cli import main
from dqopt.selftest import gradient_suite, standardness_suite
from dqopt.solver import EqdqoProblem

from helpers import (affine_objective, covering_radius, grid_min_stage1, super_fibonacci_grid,
                     timing_free_lines)


def _random_dq(rng) -> DualQuaternion:
    v = rng.standard_normal(8)
    return DualQuaternion(Quaternion.from_array(v[:4]), Quaternion.from_array(v[4:]))


def test_acceptance_1_algebra():
    t0 = time.monotonic()
    rng = np.random.default_rng(2024)
    for _ in range(1000):
        p = _random_dq(rng)
        q = _random_dq(rng)
        lhs = (p * q).conjugate()
        rhs = q.conjugate() * p.conjugate()
        diff = lhs - rhs
        assert max(diff.std.norm(), diff.dual.norm()) <= 1e-10
        if p.std.norm() > 0.1 and q.std.norm() > 0.1:
            mp = (p * q).magnitude()
            mq = p.magnitude() * q.magnitude()
            assert abs(mp.std - mq.std) <= 1e-10
            assert abs(mp.dual - mq.dual) <= 1e-10
    for _ in range(1000):
        a, b, c = (DualNumber(*rng.standard_normal(2)) for _ in range(3))
        assert a <= a
        assert a <= b or b <= a
        assert (a < b) + (a == b) + (b < a) == 1
        if a <= b and b <= c:
            assert a <= c
        if a <= b and b <= a:
            assert a == b
    elapsed = time.monotonic() - t0
    assert elapsed < 5.0
    print(f"ACCEPTANCE 1 algebra: PASS ({elapsed:.2f}s)")


def test_acceptance_2_standardness():
    t0 = time.monotonic()
    results = standardness_suite(seed=2024, n_trees=50, n_samples=100)
    failed = [r for r in results if not r.passed]
    assert not failed, failed
    names = {r.name for r in results}
    assert any("axxb" in n for n in names)
    assert any("axyb" in n for n in names)
    elapsed = time.monotonic() - t0
    assert elapsed < 30.0
    print(f"ACCEPTANCE 2 standardness: PASS ({len(results)} checks, {elapsed:.2f}s)")


def test_acceptance_3_gradients():
    t0 = time.monotonic()
    results = gradient_suite(seed=2024, n_points=10)
    failed = [r for r in results if not r.passed]
    assert not failed, failed
    elapsed = time.monotonic() - t0
    assert elapsed < 30.0
    print(f"ACCEPTANCE 3 gradients: PASS ({len(results)} checks, {elapsed:.2f}s)")


def test_acceptance_4_grid_oracle():
    t0 = time.monotonic()
    grid = super_fibonacci_grid(10_000)
    radius = covering_radius(grid)
    cases = []
    target = DualQuaternion.from_real(2.0)
    cases.append(
        (
            EqdqoProblem(squared_distance_objective(target), (0,)),
            2.0 * (1.0 + target.std.norm()),
            "squared distance to 2",
        )
    )
    rng = np.random.default_rng(77)
    other = _random_dq(rng)
    cases.append(
        (
            EqdqoProblem(squared_distance_objective(other), (0,)),
            2.0 * (1.0 + other.std.norm()),
            "squared distance to random target",
        )
    )
    ds = generate_synthetic("axxb", 4, seed=17)
    cases.append((build_axxb(ds), 2.0 * 4, "calibration residual sum"))
    for problem, lipschitz, label in cases:
        value = solve_eqdqo(problem, SolverConfig(restarts=6, seed=0)).stage1_value
        gmin = grid_min_stage1(problem.objective, grid)
        tol = lipschitz * radius
        assert value <= gmin + 1e-7, label
        assert value >= gmin - tol, (label, value, gmin, tol)
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0
    print(f"ACCEPTANCE 4 grid oracle: PASS ({len(cases)} problems, {elapsed:.2f}s)")


def test_acceptance_5_kkt():
    t0 = time.monotonic()
    toy = EqdqoProblem(
        squared_distance_objective(DualQuaternion.from_real(2.0)),
        (0,),
    )
    z = np.zeros(8)
    z[0] = 1.0
    info = kkt_analysis(toy, z, stage=1)
    assert abs(info.multipliers[0] - 1.0) <= 1e-6
    assert info.residual <= 1e-8

    ds = generate_synthetic("axxb", 5, seed=0)
    r1 = solve_eqdqo(build_axxb(ds), SolverConfig(restarts=8, seed=0))
    ds2 = generate_synthetic("axyb", 6, seed=0)
    r2 = solve_eqdqo(build_axyb(ds2), SolverConfig(restarts=8, seed=0))
    g = generate_cycle_graph(10, loop_closures=3, seed=0)
    r3 = solve_eqdqo(build_pgo(g), SolverConfig(restarts=2, seed=0), initial=spanning_tree_rows(g))
    for rep in (r1, r2, r3):
        assert rep.kkt_residual["stage1"] <= 1e-6
        assert rep.kkt_residual["stage2"] <= 1e-6
    elapsed = time.monotonic() - t0
    print(f"ACCEPTANCE 5 kkt: PASS ({elapsed:.2f}s)")


def test_acceptance_6_handeye_noiseless():
    t0 = time.monotonic()
    hits = {"axxb": 0, "axyb": 0}
    for seed in range(20):
        ds = generate_synthetic("axxb", 5, seed=seed)
        rep = solve_eqdqo(build_axxb(ds), SolverConfig(restarts=8, seed=0))
        e = evaluate_solution(ds, list(rep.solution)[0])
        if e["rotation_error_x"] <= 1e-6 and e["translation_error_x"] <= 1e-6:
            hits["axxb"] += 1
    for seed in range(20):
        ds = generate_synthetic("axyb", 6, seed=seed)
        rep = solve_eqdqo(build_axyb(ds), SolverConfig(restarts=8, seed=0))
        sol = list(rep.solution)
        e = evaluate_solution(ds, sol[0], sol[1])
        if all(v <= 1e-6 for v in e.values()):
            hits["axyb"] += 1
    elapsed = time.monotonic() - t0
    assert hits["axxb"] >= 19, hits
    assert hits["axyb"] >= 19, hits
    assert elapsed < 120.0
    print(
        f"ACCEPTANCE 6 hand-eye noiseless: PASS "
        f"(axxb {hits['axxb']}/20, axyb {hits['axyb']}/20, {elapsed:.1f}s)"
    )


def test_acceptance_7_noise_monotonicity():
    t0 = time.monotonic()
    medians = []
    for sigma in (0.0, 0.001, 0.01, 0.05):
        errs = []
        for seed in range(20):
            ds = generate_synthetic("axxb", 5, noise_rot=sigma, seed=seed)
            rep = solve_eqdqo(build_axxb(ds), SolverConfig(restarts=4, seed=0))
            errs.append(evaluate_solution(ds, list(rep.solution)[0])["rotation_error_x"])
        medians.append(float(np.median(errs)))
    elapsed = time.monotonic() - t0
    for lo, hi in zip(medians, medians[1:]):
        assert lo <= hi, medians
    assert elapsed < 300.0
    print(f"ACCEPTANCE 7 noise monotonicity: PASS (medians {medians}, {elapsed:.1f}s)")


def test_acceptance_8_pgo_noiseless_and_gauge():
    t0 = time.monotonic()
    g = generate_cycle_graph(10, loop_closures=3, seed=0)
    rep = solve_eqdqo(build_pgo(g), SolverConfig(restarts=2, seed=0), initial=spanning_tree_rows(g))
    assert rep.stage1_value <= 1e-8
    assert abs(rep.stage2_value) <= 1e-6
    for row in vertex_errors(g, list(rep.solution)):
        assert row["rotation_error"] <= 1e-5

    poses = [UnitDualQuaternion.of(q) for q in rep.solution]
    base = error_vector(g, poses).norm2()
    rng = np.random.default_rng(2024)
    for _ in range(20):
        v = rng.standard_normal(4)
        v /= np.linalg.norm(v)
        t = Quaternion(0.0, *rng.standard_normal(3))
        rot = Quaternion.from_array(v)
        gauge = UnitDualQuaternion.of(DualQuaternion(rot, (t * rot) * 0.5))
        moved = [gauge * p for p in poses]
        shifted = error_vector(g, moved).norm2()
        assert abs(shifted.std - base.std) <= 1e-10
        assert abs(shifted.dual - base.dual) <= 1e-10
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0
    print(f"ACCEPTANCE 8 pgo noiseless + gauge: PASS ({elapsed:.2f}s)")


def test_acceptance_9_squared_magnitude_pitfall():
    dual_only = DualQuaternion(Quaternion(0, 0, 0, 0), Quaternion(0, 3, 0, 4))
    squared = (dual_only * dual_only.conjugate()).as_dual_number()
    assert squared == DualNumber(0.0, 0.0)
    true_mag = dual_only.magnitude()
    assert true_mag > DualNumber(0.0, 0.0)
    assert true_mag == DualNumber(0.0, 5.0)

    objective = affine_objective(1, [[([], dual_only)]])
    z = pack([DualQuaternion.identity()])
    assert objective.value_at(z) > DualNumber(0.0, 0.0)
    print("ACCEPTANCE 9 squared-magnitude pitfall: PASS")


def test_acceptance_10_cli_determinism(tmp_path):
    t0 = time.monotonic()
    outputs = []
    for run in (1, 2):
        d = tmp_path / f"run{run}"
        d.mkdir()
        ds = d / "ds.json"
        rep = d / "report.json"
        csv = d / "trace.csv"
        graph = d / "graph.txt"
        grep = d / "graph_report.json"
        assert main(["gen-handeye", "--model", "axyb", "--motions", "5",
                     "--noise-rot", "0.01", "--seed", "42", "--out", str(ds)]) == 0
        assert main(["solve-handeye", "--in", str(ds), "--restarts", "4",
                     "--seed", "1", "--csv", str(csv), "--out", str(rep)]) == 0
        assert main(["gen-pgo", "--vertices", "8", "--loop-closures", "2",
                     "--noise-rot", "0.005", "--seed", "42", "--out", str(graph)]) == 0
        assert main(["solve-pgo", "--in", str(graph), "--restarts", "2",
                     "--seed", "1", "--out", str(grep)]) == 0
        outputs.append((ds.read_text(), timing_free_lines(rep.read_text()), csv.read_text(),
                        graph.read_text(), timing_free_lines(grep.read_text())))
        # wall time really is the only volatile field
        assert json.loads(rep.read_text())["wall_time_ms"] >= 0.0
    assert outputs[0] == outputs[1]
    elapsed = time.monotonic() - t0
    print(f"ACCEPTANCE 10 cli determinism: PASS ({elapsed:.2f}s)")
