"""Restarts that reach a minimum another restart converged to stop there, "merged".

A restart 0 that starts at stage-I value 0 is a certified minimum and runs alone.
"""

from dataclasses import replace

import numpy as np
import pytest

import dqopt.solver as solver
from dqopt import (
    SolverConfig,
    build_axxb,
    build_axyb,
    build_pgo,
    evaluate_solution,
    generate_cycle_graph,
    generate_synthetic,
    pack,
    solve_eqdqo,
    spanning_tree_rows,
    vertex_errors,
)
from dqopt.errors import Infeasible

SIGMA = 0.01
CFG = SolverConfig(restarts=8, seed=0)


def _handeye(model, sigma, seed, n=10):
    ds = generate_synthetic(model, n, noise_rot=sigma, noise_trans=sigma, seed=seed)
    return (build_axxb if model == "axxb" else build_axyb)(ds), None


def _graph(sigma, seed):
    g = generate_cycle_graph(20, loop_closures=6, noise_rot=sigma, noise_trans=sigma, seed=seed)
    return build_pgo(g), spanning_tree_rows(g)


def _noisy_cases():
    for model in ("axxb", "axyb"):
        for seed in range(10):
            yield _handeye(model, SIGMA, seed)
    for seed in range(3):
        yield _graph(SIGMA, seed)


def _solve(problem, initial, monkeypatch, merging=True):
    with monkeypatch.context() as m:
        if not merging:
            m.setattr(solver, "_MERGE_RADIUS", -1.0)
        return solve_eqdqo(problem, CFG, initial)


def _stage1(problem, initial):
    starts = np.stack([solver._restart_start(problem, CFG, initial, r) for r in range(CFG.restarts)])
    starts = problem.block.project(starts)
    return starts, solver._stage1(problem, CFG, starts)


def test_merging_moves_no_noisy_answer_beyond_1e_9(monkeypatch):
    merged = 0
    for problem, initial in _noisy_cases():
        on = pack(list(_solve(problem, initial, monkeypatch).solution))
        off = pack(list(_solve(problem, initial, monkeypatch, merging=False).solution))
        assert min(np.max(np.abs(on - off)), np.max(np.abs(on + off))) <= 1e-9
        merged += sum(o.stop == "merged" for o in _stage1(problem, initial)[1])
    assert merged > 0


def _bare(problem):
    """The problem without its ``start``, so restart 0 is random."""
    return solver.EqdqoProblem(problem.objective, problem.unit, problem.anchors)


def _drawn(problem, initial, cfg, monkeypatch):
    """The restarts whose starts a solve draws, and its report."""
    drawn, original = [], solver._restart_start

    def spy(problem, cfg, initial, r):
        drawn.append(r)
        return original(problem, cfg, initial, r)

    with monkeypatch.context() as m:
        m.setattr(solver, "_restart_start", spy)
        report = solve_eqdqo(problem, cfg, initial)
    return drawn, report


@pytest.mark.parametrize("case", ["axxb", "axyb", "pgo"])
def test_noiseless_solves_are_the_same_with_and_without_merging(case, monkeypatch):
    # restarts at value 0 are never merged into: stage II picks the best of them.
    # From a start at value 0 (the spectral start, the spanning tree) restart 0
    # runs alone, so these problems have none.  Hand-eye seeds start at 1:
    # generate_synthetic(seed=0) draws the AXXB truth from restart 0's stream.
    for seed in range(3):
        if case == "pgo":
            problem = _bare(build_pgo(generate_cycle_graph(20, 6, 0.0, 0.0, seed)))
        else:
            problem = _bare(_handeye(case, 0.0, seed + 1)[0])
        assert _drawn(problem, None, CFG, monkeypatch)[0] == list(range(CFG.restarts))
        on = _solve(problem, None, monkeypatch)
        off = _solve(problem, None, monkeypatch, merging=False)
        assert on.trace == off.trace
        assert pack(list(on.solution)).tobytes() == pack(list(off.solution)).tobytes()
        assert {o.stop for o in _stage1(problem, None)[1]} <= {"converged", "stalled"}


KINK_SEEDS = (10, 11, 15)


def test_restarts_at_kink_optima_converge_or_merge(monkeypatch):
    # at these AXYB optima one residual is exactly 0; the restarts pin it at its
    # kink and stop on the subdifferential, so they merge like smooth ones
    for seed in KINK_SEEDS:
        problem, _ = _handeye("axyb", SIGMA, seed)
        stops = [o.stop for o in _stage1(problem, None)[1]]
        assert "converged" in stops and set(stops) <= {"converged", "merged"}
        on = pack(list(_solve(problem, None, monkeypatch).solution))
        off = pack(list(_solve(problem, None, monkeypatch, merging=False).solution))
        assert min(np.max(np.abs(on - off)), np.max(np.abs(on + off))) <= 1e-9


def test_stalled_restarts_are_never_merged_into(monkeypatch):
    # a gradient tolerance no point reaches makes every restart stall where
    # the value stops falling, and restarts that stalled are never merged into
    cfg = SolverConfig(restarts=8, seed=0, tol_grad=1e-30)
    for seed in KINK_SEEDS:
        problem, _ = _handeye("axyb", SIGMA, seed)
        starts = problem.block.project(
            np.stack([solver._restart_start(problem, cfg, None, r) for r in range(8)]))
        assert {o.stop for o in solver._stage1(problem, cfg, starts)} == {"stalled"}
        with monkeypatch.context() as m:
            on = solve_eqdqo(problem, cfg)
            m.setattr(solver, "_MERGE_RADIUS", -1.0)
            off = solve_eqdqo(problem, cfg)
        assert on.trace == off.trace
        assert pack(list(on.solution)).tobytes() == pack(list(off.solution)).tobytes()


def test_a_restart_runs_alone_until_it_merges_into_an_earlier_minimum():
    kinds = set()
    for problem, initial in [_handeye("axxb", SIGMA, 3), _handeye("axyb", SIGMA, 0), _graph(SIGMA, 1)]:
        starts, batch = _stage1(problem, initial)
        std = solver._part_indices(problem.arity, 0)
        for k, outcome in enumerate(batch):
            (alone,) = solver._stage1(problem, CFG, starts[k : k + 1])
            kinds.add(outcome.stop)
            if outcome.stop != "merged":
                assert outcome.z.tobytes() == alone.z.tobytes()
                assert (outcome.trace, outcome.stop) == (alone.trace, alone.stop)
                continue
            assert outcome.trace == alone.trace[: len(outcome.trace)]
            assert len(outcome.trace) < len(alone.trace)
            into = [j for j, o in enumerate(batch) if o.stop == "converged" and o.value > 0
                    and len(o.trace) <= len(outcome.trace)
                    and solver._near(outcome.z[None, std], o.z[None, std])[0, 0]]
            assert into
    assert kinds == {"converged", "merged"}


def test_a_restart_merges_in_the_step_its_minimum_converges():
    # A running point within _MERGE_RADIUS of a minimum reached in this step
    # stops before it steps, at the point of its last row.  One that comes near
    # a minimum reached earlier stops at the top of the next step, one step on.
    # Either way its trace is the one the top-of-step rule alone gives.
    same_step = 0
    for model in ("axxb", "axyb"):
        for seed in range(10):
            problem, _ = _handeye(model, SIGMA, seed)
            starts, batch = _stage1(problem, None)
            std = solver._part_indices(problem.arity, 0)
            for k, outcome in enumerate(batch):
                if outcome.stop != "merged":
                    continue
                rows = len(outcome.trace)
                # the points of its last row and of the row after it, run alone
                last, next_ = (solver._stage1(problem, replace(CFG, max_outer=cap), starts[k : k + 1])[0].z
                               for cap in (rows - 1, rows))
                minima = [o for o in batch if o.stop == "converged" and o.value > 0
                          and len(o.trace) <= rows]
                assert solver._near(next_[None, std], np.stack([o.z[std] for o in minima])).any()
                if outcome.z.tobytes() == next_.tobytes():
                    continue
                assert outcome.z.tobytes() == last.tobytes()
                value = problem.stage1.value_at(outcome.z[None])[0][0]
                assert value == outcome.trace[-1].objective_std
                now = [o.z[std] for o in minima if len(o.trace) == rows]
                assert now and solver._near(last[None, std], np.stack(now)).any()
                same_step += 1
    assert same_step > 0


def _report_of(report):
    data = report.to_json_dict()
    del data["wall_time_ms"]
    return data, report.trace


def test_restarts_merge_into_the_one_that_converges_first():
    # From random starts alone, restarts 0-6 merge into restart 7.  From the
    # spectral start, restart 0 converges first and the others merge into it.
    problem, _ = _handeye("axxb", SIGMA, 1)
    for p, stops in ((_bare(problem), ["merged"] * 7 + ["converged"]),
                     (problem, ["converged"] + ["merged"] * 7)):
        assert [o.stop for o in _stage1(p, None)[1]] == stops


def _exact_cases():
    """Noiseless problems whose restart 0 starts at value 0, each with its worst-error function."""
    for model in ("axxb", "axyb"):
        for seed in range(10):
            ds = generate_synthetic(model, 10, seed=seed)
            yield (build_axxb if model == "axxb" else build_axyb)(ds), None, (
                lambda sol, ds=ds: max(evaluate_solution(ds, *sol).values()))
    for seed in range(3):
        g = generate_cycle_graph(20, 6, 0.0, 0.0, seed)
        yield build_pgo(g), spanning_tree_rows(g), lambda sol, g=g: max(
            max(e["rotation_error"], e["translation_error"]) for e in vertex_errors(g, sol))


def test_a_start_at_value_0_runs_alone_and_gives_the_one_restart_report(monkeypatch):
    for problem, initial, worst in _exact_cases():
        drawn, report = _drawn(problem, initial, SolverConfig(), monkeypatch)
        assert drawn == [0]
        alone = solve_eqdqo(problem, SolverConfig(restarts=1), initial)
        assert _report_of(report)[1] == _report_of(alone)[1]
        data, one = (_report_of(r)[0] for r in (report, alone))
        del data["config"], one["config"]
        assert data == one
        assert worst(list(report.solution)) <= 1e-12


def test_every_restart_runs_from_a_start_off_value_0(monkeypatch):
    every = list(range(CFG.restarts))
    cases = [(*_handeye(model, SIGMA, seed), (model, seed)) for model in ("axxb", "axyb")
             for seed in range(10)]
    cases += [(*_graph(SIGMA, seed), ("pgo", seed)) for seed in range(3)]
    # without a start restart 0 is random
    cases += [(_bare(_handeye(model, 0.0, seed)[0]), None, (model, seed))
              for model in ("axxb", "axyb") for seed in range(10)]
    cases += [(_bare(build_pgo(generate_cycle_graph(20, 6, 0.0, 0.0, seed))), None, ("pgo", seed))
              for seed in range(3)]
    for problem, initial, case in cases:
        drawn = _drawn(problem, initial, CFG, monkeypatch)[0]
        if initial is None and problem.start is None and case == ("axxb", 0):
            # generate_synthetic(seed=0) draws the truth from the stream of
            # restart 0 at solver seed 0: a random start at value 0 also runs alone
            assert drawn == [0]
        else:
            assert drawn == every, case


def test_restarts_within_rounding_of_the_least_value_keep_restart_order(monkeypatch):
    # stage-I values that differ by rounding at one minimum are a tie: stage
    # II runs for them in restart order, exact ties together, until one gives
    # a candidate; a value lower beyond rounding still wins
    problem, _ = _handeye("axyb", SIGMA, 15)
    stage1, stage2 = solver._stage1, solver._stage2
    scale = (1.0, 1.0 - 1e-14, 1.0 + 1e-13, 1.0 + 1e-9, 1.0 - 1e-14, 1.0, 1.0, 1.0)
    failing, tried = set(), []  # stage II calls, counted from 1, made infeasible

    def shifted(*args):
        outcomes = stage1(*args)
        v = outcomes[0].value
        return [replace(o, value=v * s) for o, s in zip(outcomes, scale)]

    def fails(*args):
        tried.append(stage2(*args))
        return replace(tried[-1], feasibility=(np.inf, np.inf)) if len(tried) in failing else tried[-1]

    monkeypatch.setattr(solver, "_MERGE_RADIUS", -1.0)
    monkeypatch.setattr(solver, "_stage1", shifted)
    monkeypatch.setattr(solver, "_stage2", fails)
    order = [r for _, r, _ in solver._stage1_restarts(problem, CFG, None)]
    assert order == [0, 1, 2, 4, 5, 6, 7, 3]
    # stage II runs for restart 0 and those at its value exactly, 5 to 7
    report = solve_eqdqo(problem, CFG)
    assert len(tried) == 4 and report.restart_index in (0, 5, 6, 7)
    # restart 0's group gives no candidate: restart 1's, 1 and 4, does, and
    # restart 2 is not tried
    failing.update((1, 2, 3, 4))
    tried.clear()
    report = solve_eqdqo(problem, CFG)
    assert len(tried) == 6 and report.restart_index in (1, 4)
    # no group in the band gives one: all seven are named, restart 3 not
    failing.update(range(5, 8))
    tried.clear()
    with pytest.raises(Infeasible, match=r"restarts \[0, 5, 6, 7, 1, 4, 2\] \(stage II"):
        solve_eqdqo(problem, CFG)
    failing.clear()
    scale = (1.0, 1.0 - 1e-11) + (1.0,) * 6
    assert solve_eqdqo(problem, CFG).restart_index == 1
