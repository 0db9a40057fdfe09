import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from dqopt import (DualQuaternion, DualQuaternionVector, PoseGraph, SolverConfig, build_pgo, cli,
                   generate_cycle_graph, parse_graph, posegraph, selftest, solve_eqdqo,
                   vertex_errors)
from dqopt.cli import _json_text, _pgo_report, _rows_block, _uniform_block, _write_trace_csv, main
from dqopt.selftest import run_all
from dqopt.solver import TraceRow
from helpers import ConcatenateSpy, timing_free, timing_free_lines


def _solve_args(infile, out, extra=()):
    return ["solve-handeye", "--in", str(infile), "--out", str(out), *extra]


def test_gen_and_solve_handeye_roundtrip(tmp_path, capsys):
    ds = tmp_path / "ds.json"
    rep = tmp_path / "report.json"
    assert main(["gen-handeye", "--model", "axxb", "--motions", "4",
                 "--seed", "11", "--out", str(ds)]) == 0
    assert f"wrote {ds}" in capsys.readouterr().out
    assert main(_solve_args(ds, rep, ["--restarts", "4"])) == 0
    data = json.loads(rep.read_text())
    assert data["stage1_value"] <= 1e-7
    assert data["errors"]["rotation_error_x"] <= 1e-6
    assert data["errors"]["translation_error_x"] <= 1e-6


def test_solve_axyb_reports_both_unknowns(tmp_path):
    ds = tmp_path / "ds.json"
    rep = tmp_path / "report.json"
    assert main(["gen-handeye", "--model", "axyb", "--motions", "5",
                 "--seed", "13", "--out", str(ds)]) == 0
    assert main(_solve_args(ds, rep, ["--restarts", "4"])) == 0
    errs = json.loads(rep.read_text())["errors"]
    assert set(errs) == {
        "rotation_error_x", "translation_error_x",
        "rotation_error_y", "translation_error_y",
    }
    assert errs["rotation_error_y"] <= 1e-6


def test_solve_axyb_with_only_x_recorded_reports_x_errors(tmp_path):
    # a file may record X's ground truth and not Y's: the report carries X's
    # errors, those of the same solve with both recorded, and no _y keys
    ds, rep = tmp_path / "ds.json", tmp_path / "report.json"
    assert main(["gen-handeye", "--model", "axyb", "--motions", "5",
                 "--seed", "13", "--out", str(ds)]) == 0
    assert main(_solve_args(ds, rep, ["--restarts", "4"])) == 0
    both = json.loads(rep.read_text())["errors"]
    data = json.loads(ds.read_text())
    del data["ground_truth"]["Y"]
    ds.write_text(json.dumps(data))
    assert main(_solve_args(ds, rep, ["--restarts", "4"])) == 0
    errs = json.loads(rep.read_text())["errors"]
    assert errs == {k: both[k] for k in ("rotation_error_x", "translation_error_x")}


@pytest.mark.parametrize("model", ["axxb", "axyb"])
def test_solve_handeye_on_a_generated_file_solves_the_generated_dataset(model, tmp_path):
    # the file's rows read back as generated, so the CLI and the library
    # solve the same numbers
    from dqopt import SolverConfig, build_axxb, build_axyb, generate_synthetic, solve_eqdqo

    for seed in range(3):
        ds_path, rep = tmp_path / f"{seed}.json", tmp_path / f"{seed}.report.json"
        assert main(["gen-handeye", "--model", model, "--motions", "10", "--noise-rot", "0.01",
                     "--noise-trans", "0.01", "--seed", str(seed), "--out", str(ds_path)]) == 0
        assert main(_solve_args(ds_path, rep, ["--seed", "0"])) == 0
        ds = generate_synthetic(model, 10, noise_rot=0.01, noise_trans=0.01, seed=seed)
        build = build_axxb if model == "axxb" else build_axyb
        library = solve_eqdqo(build(ds), SolverConfig(seed=0)).to_json_dict()
        assert timing_free(json.loads(rep.read_text())) == dict(
            timing_free(library), errors=json.loads(rep.read_text())["errors"])


def test_gen_and_solve_pgo(tmp_path):
    g = tmp_path / "graph.txt"
    rep = tmp_path / "report.json"
    assert main(["gen-pgo", "--vertices", "6", "--loop-closures", "2",
                 "--seed", "5", "--out", str(g)]) == 0
    text = g.read_text()
    assert text.startswith("VERTEX 1 ")
    assert "# TRUTH 1 " in text
    assert main(["solve-pgo", "--in", str(g), "--restarts", "2",
                 "--out", str(rep)]) == 0
    data = json.loads(rep.read_text())
    assert data["stage1_value"] <= 1e-8
    worst = max(row["rotation_error"] for row in data["errors"])
    assert worst <= 1e-6


def test_pgo_solve_runs_no_dense_least_squares(tmp_path, monkeypatch):
    # KKT multipliers come from per-variable 4x4 blocks; a dense lstsq over
    # all coordinates would cost more than the rest of a large solve
    g = tmp_path / "graph.txt"
    rep = tmp_path / "report.json"
    assert main(["gen-pgo", "--vertices", "200", "--loop-closures", "66",
                 "--seed", "5", "--out", str(g)]) == 0

    def forbidden(*args, **kwargs):
        raise AssertionError("np.linalg.lstsq called")

    monkeypatch.setattr(np.linalg, "lstsq", forbidden)
    assert main(["solve-pgo", "--in", str(g), "--restarts", "1", "--out", str(rep)]) == 0
    data = json.loads(rep.read_text())
    assert data["degenerate"] is False
    assert len(data["multipliers"]["lambda"]) == 199 + 4


def test_solve_pgo_builds_no_dual_quaternion_per_vertex(tmp_path, monkeypatch):
    # the report's solution, errors and JSON text come from the solution's rows
    g = tmp_path / "graph.txt"
    rep = tmp_path / "report.json"
    assert main(["gen-pgo", "--vertices", "200", "--loop-closures", "60",
                 "--seed", "5", "--out", str(g)]) == 0
    built = []
    init = DualQuaternion.__init__

    def spy(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(DualQuaternion, "__init__", spy)
    assert main(["solve-pgo", "--in", str(g), "--out", str(rep)]) == 0
    data = json.loads(rep.read_text())
    assert len(data["solution"]) == len(data["errors"]) == 200
    assert len(built) <= 1  # build_pgo's anchor, the identity


def test_reports_are_deterministic_modulo_wall_time(tmp_path):
    ds = tmp_path / "ds.json"
    assert main(["gen-handeye", "--model", "axxb", "--motions", "4",
                 "--noise-rot", "0.01", "--seed", "7", "--out", str(ds)]) == 0
    reports = []
    csvs = []
    for k in (1, 2):
        rep = tmp_path / f"r{k}.json"
        csv = tmp_path / f"t{k}.csv"
        assert main(_solve_args(ds, rep, ["--restarts", "3", "--csv", str(csv)])) == 0
        reports.append(json.loads(rep.read_text()))
        csvs.append(csv.read_text())
    assert timing_free(reports[0]) == timing_free(reports[1])
    assert csvs[0] == csvs[1]
    header = csvs[0].splitlines()[0]
    assert header == "iter,stage,objective_std,objective_dual,feasibility,kkt_residual"


def test_threads_do_not_change_the_answer(tmp_path, capsys):
    # the restarts advance as one batch, so --threads accepts only 1
    ds = tmp_path / "ds.json"
    assert main(["gen-handeye", "--model", "axxb", "--motions", "4",
                 "--noise-rot", "0.01", "--seed", "19", "--out", str(ds)]) == 0
    outputs = []
    for name, extra in (("plain", []), ("one", ["--threads", "1"])):
        rep, csv = tmp_path / f"{name}.json", tmp_path / f"{name}.csv"
        assert main(_solve_args(ds, rep, ["--restarts", "4", "--csv", str(csv), *extra])) == 0
        outputs.append((timing_free_lines(rep.read_text()), csv.read_text()))
    assert outputs[0] == outputs[1]
    capsys.readouterr()
    for threads in ("2", "0"):
        rep = tmp_path / f"{threads}.json"
        assert main(_solve_args(ds, rep, ["--restarts", "4", "--threads", threads])) == 2
        assert capsys.readouterr() == ("", f"error: threads must be 1, got {threads}\n")
        assert not rep.exists()


def test_the_seed_comes_from_the_flag_alone(tmp_path, monkeypatch):
    # DQOPT_SEED in the environment is no seed source
    base, other = tmp_path / "base.json", tmp_path / "other.json"
    args = ["gen-handeye", "--model", "axxb", "--motions", "3", "--seed", "3", "--out"]
    assert main([*args, str(base)]) == 0
    monkeypatch.setenv("DQOPT_SEED", "9")
    assert main([*args, str(other)]) == 0
    assert base.read_bytes() == other.read_bytes()


def test_usage_errors_exit_2(tmp_path, capsys):
    assert main([]) == 2
    assert main(["frobnicate"]) == 2
    assert main(["gen-handeye", "--model", "axxb", "--motions", "3"]) == 2
    assert main(["solve-handeye", "--in", "nope.json", "--unknown-flag"]) == 2
    capsys.readouterr()
    assert main(["--help"]) == 0
    assert "dual quaternion optimization" in capsys.readouterr().out


def test_main_builds_one_parser_and_build_parser_a_fresh_one(monkeypatch, capsys):
    import dqopt.cli as cli

    original, built = cli.build_parser, []

    def counted():
        built.append(original())
        return built[-1]

    monkeypatch.setattr(cli, "build_parser", counted)
    cli._parser.cache_clear()
    try:
        assert main([]) == 2 and main(["frobnicate"]) == 2 and main(["--help"]) == 0
    finally:
        cli._parser.cache_clear()
    assert len(built) == 1
    assert original() is not original()


def test_bad_inputs_exit_2(tmp_path, capsys):
    missing = tmp_path / "missing.json"
    assert main(["solve-handeye", "--in", str(missing)]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["solve-handeye", "--in", str(bad)]) == 2
    arr = tmp_path / "arr.json"
    arr.write_text("[1, 2]")
    assert main(["solve-handeye", "--in", str(arr)]) == 2
    shape = tmp_path / "shape.json"
    shape.write_text('{"model": "axxb"}')
    assert main(["solve-handeye", "--in", str(shape)]) == 2
    badgraph = tmp_path / "bad.txt"
    badgraph.write_text("EDGE 1 2 1 0 0 0 1 0\n")
    assert main(["solve-pgo", "--in", str(badgraph)]) == 2
    nangraph = tmp_path / "nan.txt"
    nangraph.write_text("EDGE 1 2 nan 0 0 0 1 0 0\n")
    assert main(["solve-pgo", "--in", str(nangraph)]) == 2
    assert "line 1: not a finite number: 'nan'" in capsys.readouterr().err
    ds = tmp_path / "ds.json"
    assert main(["gen-handeye", "--model", "axxb", "--motions", "3",
                 "--seed", "1", "--out", str(ds)]) == 0
    assert main(_solve_args(ds, tmp_path / "r.json", ["--restarts", "0"])) == 2
    err = capsys.readouterr().err
    assert "error:" in err


COMPONENTS = "A pose 1 needs 4 rotation and 3 translation components"
# (fault, edit of a generated AXXB dataset, message)
MALFORMED_DATASETS = [
    ("no-q", lambda d: d["A"][1].pop("q"), COMPONENTS),
    ("no-t", lambda d: d["A"][1].pop("t"), COMPONENTS),
    ("q-without-length", lambda d: d["A"][1].update(q=5), COMPONENTS),
    ("pose-not-an-object", lambda d: d["A"].__setitem__(1, 5), COMPONENTS),
    ("no-model", lambda d: d.pop("model"), "missing field 'model'"),
    ("no-A", lambda d: d.pop("A"), "missing field 'A'"),
    ("no-B", lambda d: d.pop("B"), "missing field 'B'"),
    ("unknown-model", lambda d: d.update(model="axzb"), "unknown model 'axzb'"),
    ("unequal-sides", lambda d: d["B"].pop(), "pose lists must have equal length"),
    ("A-not-an-array", lambda d: d.update(A=5), "field 'A' is not a JSON array"),
    ("q-of-strings", lambda d: d["A"][1].update(q=["a", "b", "c", "d"]),
     "A pose 1 has a component that is not a number"),
    ("t-of-lists", lambda d: d["B"][2].update(t=[[0.0], 1.0, 2.0]),
     "B pose 2 has a component that is not a number"),
    ("ground-truth-not-an-object", lambda d: d.update(ground_truth=5),
     "field 'ground_truth' is not a JSON object"),
    ("meta-not-an-object", lambda d: d.update(meta=[1, 2]), "field 'meta' is not a JSON object"),
]


@pytest.mark.parametrize("edit,message", [pytest.param(e, m, id=f) for f, e, m in MALFORMED_DATASETS])
def test_a_malformed_dataset_exits_2_naming_its_fault(edit, message, tmp_path, capsys):
    ds = tmp_path / "ds.json"
    assert main(["gen-handeye", "--model", "axxb", "--motions", "3", "--out", str(ds)]) == 0
    data = json.loads(ds.read_text())
    edit(data)
    ds.write_text(json.dumps(data))
    capsys.readouterr()
    assert main(["solve-handeye", "--in", str(ds)]) == 2
    assert capsys.readouterr() == ("", f"error: {ds}: invalid dataset ({message})\n")


def test_an_out_that_names_a_directory_exits_2(tmp_path, capsys):
    ds = tmp_path / "ds.json"
    assert main(["gen-handeye", "--model", "axxb", "--motions", "3", "--out", str(ds)]) == 0
    capsys.readouterr()
    assert main(_solve_args(ds, tmp_path, ["--restarts", "1"])) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(f"error: cannot write {tmp_path}: ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("flag", ["--tol-feas", "--tol-grad"])
def test_a_nan_tolerance_exits_2_without_a_report(flag, tmp_path, capsys):
    ds = tmp_path / "ds.json"
    assert main(["gen-handeye", "--model", "axxb", "--motions", "3", "--out", str(ds)]) == 0
    capsys.readouterr()
    report = tmp_path / "r.json"
    assert main(_solve_args(ds, report, [flag, "nan"])) == 2
    assert capsys.readouterr().err == "error: tolerances must be positive and finite\n"
    assert not report.exists()


BAD_GRAPH_ARGS = [
    (["--vertices", "2"], "need at least 3 vertices"),
    (["--vertices", "6", "--loop-closures", "99"], "loop_closures must be between 0 and 9"),
    (["--vertices", "6", "--loop-closures", "-1"], "loop_closures must be between 0 and 9"),
    (["--vertices", "6", "--noise-rot", "nan"], "noise_rot must be finite and non-negative"),
    (["--vertices", "6", "--noise-trans", "-0.1"], "noise_trans must be finite and non-negative"),
]


@pytest.mark.parametrize("flags,message", BAD_GRAPH_ARGS)
def test_bad_graph_generator_input_exits_2_without_a_file(flags, message, tmp_path, capsys):
    out = tmp_path / "graph.txt"
    assert main(["gen-pgo", *flags, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {message}") and err.count("\n") == 1
    assert not out.exists()


def _seeded_commands(tmp_path):
    """One command line per subcommand that takes a seed; outputs go to ``out.*``."""
    ds, graph = tmp_path / "ds.json", tmp_path / "graph.txt"
    assert main(["gen-handeye", "--model", "axxb", "--motions", "3", "--out", str(ds)]) == 0
    assert main(["gen-pgo", "--vertices", "5", "--out", str(graph)]) == 0
    return {
        "gen-handeye": ["gen-handeye", "--model", "axxb", "--motions", "3",
                        "--out", str(tmp_path / "out.json")],
        "gen-pgo": ["gen-pgo", "--vertices", "5", "--out", str(tmp_path / "out.txt")],
        "solve-handeye": _solve_args(ds, tmp_path / "out.json"),
        "solve-pgo": ["solve-pgo", "--in", str(graph), "--out", str(tmp_path / "out.json")],
        "selftest": ["selftest"],
    }


@pytest.mark.parametrize("source", ["flag"])  # the seed's one source
@pytest.mark.parametrize("command", ["gen-handeye", "gen-pgo", "solve-handeye", "solve-pgo", "selftest"])
def test_a_negative_seed_exits_2_naming_it(command, source, tmp_path, capsys):
    args = _seeded_commands(tmp_path)[command] + ["--seed", "-1"]
    capsys.readouterr()
    assert main(args) == 2
    assert capsys.readouterr() == ("", "error: seed must be non-negative, got -1\n")
    assert not list(tmp_path.glob("out.*"))


def test_selftest_rejects_a_negative_seed():
    with pytest.raises(ValueError, match="seed must be non-negative, got -1"):
        run_all(-1)


def test_selftest_takes_only_an_integer_seed():
    # a bool would run as seed 1, and a float reached NumPy's TypeError
    for seed in (True, 2.5):
        with pytest.raises(ValueError, match=f"^seed must be an integer, got {seed}$"):
            run_all(seed)


def test_an_id_beyond_64_bits_exits_2_naming_the_line(tmp_path, capsys):
    graph = tmp_path / "graph.txt"
    graph.write_text("EDGE 1 99999999999999999999 1 0 0 0 0 0 0\n")
    assert main(["solve-pgo", "--in", str(graph)]) == 2
    assert capsys.readouterr().err == (
        "error: line 1: edge target must be an integer that fits 64 bits, "
        "got '99999999999999999999'\n"
    )


def test_solve_pgo_without_edges_exits_2(tmp_path, capsys):
    lone = tmp_path / "lone.graph"
    lone.write_text("VERTEX 1 1 0 0 0 0 0 0\n")
    assert main(["solve-pgo", "--in", str(lone)]) == 2
    assert "no edges" in capsys.readouterr().err


def test_solver_failure_exits_1(tmp_path, capsys):
    ds = tmp_path / "ds.json"
    assert main(["gen-handeye", "--model", "axxb", "--motions", "4",
                 "--noise-rot", "0.05", "--seed", "3", "--out", str(ds)]) == 0
    # every stage-I iterate is feasible up to rounding, which leaves these
    # restarts' unit rows about 1e-16 away from zero: above a 1e-300 tolerance
    rc = main(_solve_args(ds, tmp_path / "r.json",
                          ["--restarts", "2", "--max-outer", "1", "--tol-feas", "1e-300"]))
    assert rc == 1
    assert "no feasible candidate" in capsys.readouterr().err


def test_selftest_passes(capsys):
    assert main(["selftest"]) == 0
    out = capsys.readouterr().out
    assert "algebra:" in out
    assert "checks passed" in out


def test_the_inverse_check_skips_a_draw_with_a_near_null_standard_part(monkeypatch):
    draws, draw = [], selftest._random_dq

    def near_null_first(rng):
        dq = draw(rng)
        draws.append(dq)
        return DualQuaternion(dq.std * 1e-4, dq.dual) if len(draws) == 1 else dq

    monkeypatch.setattr(selftest, "_random_dq", near_null_first)
    results = {r.name: r for r in selftest.algebra_suite(0, n_pairs=3)}
    assert len(draws) == 6
    inverse = results["algebra-two-sided-inverse"]
    assert inverse.passed and inverse.detail.endswith(" over 2 pairs")
    assert results["algebra-conjugate-antiautomorphism"].detail.endswith(" over 3 pairs")


def test_python_m_dqopt_cli_runs_the_cli():
    root = Path(__file__).resolve().parents[1]
    out = subprocess.run([sys.executable, "-m", "dqopt.cli", "--help"], capture_output=True,
                         text=True, env=dict(os.environ, PYTHONPATH=str(root / "src")))
    assert out.returncode == 0, out.stderr
    assert out.stdout.startswith("usage: ") and "selftest" in out.stdout


def test_a_failed_selftest_check_exits_1_naming_it(monkeypatch, capsys):
    checks = [selftest.CheckResult("sound", True, "ok"),
              selftest.CheckResult("broken", False, "off by 1")]
    monkeypatch.setattr(selftest, "run_all", lambda seed: {"suite": checks})
    assert main(["selftest"]) == 1
    assert capsys.readouterr().out == (
        "suite: 1/2 passed\n  FAIL broken: off by 1\n1 of 2 checks failed\n"
    )


def test_selftest_reaches_the_abstracts_functions(monkeypatch):
    # the 2-norm, the magnitude and the closure operations the paper proves
    # standard; each must run in the self-test, every operator of combine too
    called = set()

    def spy(owner, name, key=lambda *args: ""):
        original = getattr(owner, name)

        def wrapper(*args, **kwargs):
            called.add(name + key(*args))
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)

    spy(DualQuaternionVector, "norm2")
    spy(DualQuaternion, "magnitude")
    for name in ("map_power", "scalar_power", "compose_unit", "unit_log", "unit_exp"):
        spy(selftest, name)
    spy(selftest, "combine", lambda f, g, op: " " + op)
    run_all(0)
    wanted = {"norm2", "magnitude", "map_power", "scalar_power", "compose_unit", "unit_log",
              "unit_exp", "combine sum", "combine product", "combine min", "combine max"}
    assert wanted - called == set()


def test_the_json_writer_formats_as_json_dumps_with_an_indent():
    values = [
        {}, [], (), {"a": {}, "b": [], "c": [{}]}, [[[]]], 0, -7, 2**70, True, False, None,
        0.1, -0.0, 1e300, 5e-324, 1e16, float("nan"), float("inf"), -float("inf"),
        np.float64(0.1), np.float64("nan"), np.float64(-np.inf),
        "", "plain", 'quote " and \\ slash', "tab\tnew\nline\x00", "caf\u00e9 \U0001f600",
        {"nested": [1, 2.5, [3.0, float("nan")], {"k": None}], "t": (1.0, "x")},
        [{"vertex": 1, "rotation_error": 1e-17, "translation_error": 0.0}] * 3,
    ]
    for value in values + [values]:
        assert _json_text(value) == json.dumps(value, indent=2) + "\n", value
    # lists of like items go through one %-format; any other list, the loop
    rng = np.random.default_rng(83)
    rows = [{"std": rng.standard_normal(4).tolist(), "dual": rng.standard_normal(4).tolist()}
            for _ in range(200)]

    def edited(k, row):
        return rows[:k] + [row] + rows[k + 1:]

    fast = [
        rows,
        [{"vertex": v, "rotation_error": 1e-17 * v, "translation_error": 0.5 / v}
         for v in range(1, 201)],
        [{"std": [-0.0, 5e-324, 1e16, 1.0], "dual": [1e-300, -2.5, 0.0, 1e22]}] * 3,
        [{"info": 1.0, "inf nan": [2.0, 3.0], "100%r \n": 4}] * 2,
        rng.standard_normal(50).tolist(),
        [-0.0, 5e-324, 1e16],
    ]
    slow = [
        edited(17, {"std": rows[17]["std"][:3] + [float("nan")], "dual": rows[17]["dual"]}),
        edited(17, {"std": rows[17]["std"], "dual": [float("inf")] + rows[17]["dual"][1:]}),
        edited(17, {**rows[17], "extra": 1.0}),
        edited(17, {"dual": rows[17]["dual"], "std": rows[17]["std"]}),
        edited(17, {"std": rows[17]["std"][:3], "dual": rows[17]["dual"]}),
        edited(17, {"std": rows[17]["std"], "dual": rows[17]["dual"] + [0.5]}),
        [{"info": float("nan"), "inf nan": [2.0, 3.0]}] * 2,
        [0.1, float("-inf")],
        [0.1, 2],
        [{"vertex": 1, "rotation_error": 0.1}, {"vertex": True, "rotation_error": 0.1}],
    ] + [
        edited(17, {"std": [odd] + rows[17]["std"][1:], "dual": rows[17]["dual"]})
        for odd in (True, 1, np.float64(0.5))
    ] + [[0.5, odd] for odd in (True, 1, np.float64(0.5))]
    for value in fast + slow:
        assert _json_text(value) == json.dumps(value, indent=2) + "\n"
    # a list of finite floats is one %-format, and any other float list goes
    # item by item; a row block writes dicts laid out like the first one
    # from their leaves, at any depth
    for value in fast[4:]:
        assert _uniform_block("%r", value, len(value), "\n").text == json.dumps(value, indent=2)
    for value in fast[:4]:
        for pad in ("\n", "\n  ", "\n    "):
            assert _rows_block(value[0], _leaves(value), len(value), pad).text == (
                json.dumps(value, indent=2).replace("\n", pad))
    # a NaN or an infinity anywhere in either block takes the fallback
    for value in fast:
        args = _leaves(value) if type(value[0]) is dict else value
        for k in sorted({0, 1, len(args) // 2, len(args) - 1}):
            for odd in (float("nan"), float("inf"), -float("inf")):
                edited = args[:k] + [odd] + args[k + 1:]
                if type(value[0]) is dict:
                    assert _rows_block(value[0], edited, len(value), "\n  ") is None
                else:
                    assert _uniform_block("%r", edited, len(edited), "\n  ") is None
                    assert _json_text(edited) == json.dumps(edited, indent=2) + "\n"
    # json.dumps refuses these too: NumPy integers and booleans, and any object
    for value in (np.int64(1), np.bool_(True), object(), [1, {2.0}]):
        with pytest.raises(TypeError, match="not JSON serializable"):
            _json_text(value)
    # json.dumps writes int keys as strings, and so does the writer
    assert _json_text({"a": {1: 2}}) == json.dumps({"a": {1: 2}}, indent=2) + "\n"


def test_strings_that_pose_as_a_placeholder_are_written_as_json_dumps_writes_them(monkeypatch):
    # a block enters json.dumps as a placeholder string, a NUL and a token;
    # a string of the data that equals one makes the writer try a new token
    tokens = []
    monkeypatch.setattr(cli, "secrets", SimpleNamespace(
        token_hex=lambda n: tokens.append(["feed", "beef"][len(tokens) % 2]) or tokens[-1]))
    for odd in ("\0", "\0feed", "\0beef", "\0feed\0", "\0\0feed", "a\0feed", "\0fee"):
        plain = {"s": odd, odd: [odd, {odd: odd}], "t": (1.0, odd)}
        for block in (None, [0.5, -1.5]):
            data, want = dict(plain), dict(plain)
            if block is not None:
                data["b"], want["b"] = _uniform_block("%r", block, len(block), "\n  "), block
            tokens.clear()
            assert _json_text(data) == json.dumps(want, indent=2) + "\n", (odd, block)
            # only a string equal to the first placeholder costs a second try
            assert len(tokens) == (2 if odd == "\0feed" else 1)


def _leaves(items: list) -> list:
    """The leaves of a list of dicts with float, int or float-list values, in order."""
    return [x for item in items for leaf in item.values()
            for x in (leaf if type(leaf) is list else [leaf])]


def _expected_pgo_text(graph, report) -> str:
    """``solve-pgo``'s report of ``report`` on ``graph`` as ``json.dumps`` writes it."""
    data = report.to_json_dict()
    if len(graph.truth_ids) == graph.n:
        data["errors"] = vertex_errors(graph, report.solution)
    return json.dumps(data, indent=2) + "\n"


# (vertices, loop closures, noise, restarts): a noiseless 200-vertex graph,
# as the benchmark solves, and the CLI fingerprint's noisy 60-vertex one
_PGO_CASES = {"clean-200": ("200", "60", "0", "1"), "noisy-60": ("60", "20", "0.01", "2"),
              "noisy-60-no-truth": ("60", "20", "0.01", "2")}


@pytest.mark.parametrize("case", list(_PGO_CASES))
def test_solve_pgo_writes_its_report_as_json_dumps_from_the_solvers_rows(
        case, tmp_path, monkeypatch):
    vertices, chords, noise, restarts = _PGO_CASES[case]
    g, rep = tmp_path / "graph.txt", tmp_path / "report.json"
    assert main(["gen-pgo", "--vertices", vertices, "--loop-closures", chords, "--noise-rot",
                 noise, "--noise-trans", noise, "--seed", "5", "--out", str(g)]) == 0
    if case.endswith("no-truth"):
        g.write_text("".join(line for line in g.read_text().splitlines(True)
                             if not line.startswith("# TRUTH")))
    reports, blocks, datas = [], [], []
    solve, rows_block, pgo_report = cli.solve_eqdqo, cli._rows_block, cli._pgo_report
    monkeypatch.setattr(cli, "solve_eqdqo", lambda *a: reports.append(solve(*a)) or reports[-1])
    monkeypatch.setattr(cli, "_rows_block", lambda *a: blocks.append(rows_block(*a)) or blocks[-1])
    monkeypatch.setattr(cli, "_pgo_report", lambda *a: datas.append(pgo_report(*a)) or datas[-1])
    assert main(["solve-pgo", "--in", str(g), "--restarts", restarts, "--out", str(rep)]) == 0
    (report,), (data,) = reports, datas
    graph = parse_graph(g.read_text())
    assert rep.read_text() == _expected_pgo_text(graph, report)
    # the solution and error rows were each one block, not the owners' lists,
    # and so was each multiplier list
    assert len(blocks) == (1 if case.endswith("no-truth") else 2) and None not in blocks
    assert data["solution"] is blocks[0]
    assert [type(v) for v in data["multipliers"].values()] == [cli._Text] * 2


@pytest.mark.parametrize("case", ["axxb", "axyb", "axyb-no-y-truth"])
def test_solve_handeye_writes_its_report_as_json_dumps_from_the_solvers_rows(
        case, tmp_path, monkeypatch):
    from dqopt import HandEyeDataset, evaluate_solution

    ds_path, rep = tmp_path / "ds.json", tmp_path / "report.json"
    assert main(["gen-handeye", "--model", case[:4], "--motions", "6", "--noise-rot", "0.01",
                 "--noise-trans", "0.01", "--seed", "5", "--out", str(ds_path)]) == 0
    if case.endswith("no-y-truth"):
        raw = json.loads(ds_path.read_text())
        del raw["ground_truth"]["Y"]
        ds_path.write_text(json.dumps(raw))
    reports, datas = [], []
    solve, report_data = cli.solve_eqdqo, cli._report_data
    monkeypatch.setattr(cli, "solve_eqdqo", lambda *a: reports.append(solve(*a)) or reports[-1])
    monkeypatch.setattr(cli, "_report_data", lambda *a: datas.append(report_data(*a)) or datas[-1])
    assert main(_solve_args(ds_path, rep, ["--restarts", "2"])) == 0
    (report,), (data,) = reports, datas
    ds = HandEyeDataset.from_json_dict(json.loads(ds_path.read_text()))
    expected = report.to_json_dict()
    x, *y = report.solution
    expected["errors"] = evaluate_solution(ds, x, y[0] if case == "axyb" else None)
    assert rep.read_text() == json.dumps(expected, indent=2) + "\n"
    # the solution and each multiplier list were blocks, not the owners' lists
    assert [type(v) for v in (data["solution"], *data["multipliers"].values())] == [cli._Text] * 3


def test_a_nan_or_an_infinity_in_the_solution_writes_the_rows_item_by_item():
    graph = generate_cycle_graph(6, 2, seed=1)
    report = solve_eqdqo(build_pgo(graph), SolverConfig(restarts=1, seed=0))
    no_truth = PoseGraph(graph.n, graph.edge_ids, graph.edge_poses)
    for k, odd in ((0, float("nan")), (21, float("nan")), (47, float("nan")),
                   (13, float("inf")), (47, -float("inf"))):
        rows = report.solution.rows.copy()
        rows.flat[k] = odd
        edited = replace(report, solution=DualQuaternionVector.from_rows(rows))
        # an infinite coordinate has no pose, so only a graph without truth reports it
        for g in (no_truth,) if odd in (float("inf"), -float("inf")) else (graph, no_truth):
            data = _pgo_report(g, edited)
            assert type(data["solution"]) is list
            assert type(data.get("errors", [])) is list
            assert _json_text(data) == _expected_pgo_text(g, edited)
    # so does a NaN or an infinity in a multiplier list, and that list alone
    for stage in ("lambda", "mu"):
        for k, odd in ((0, float("nan")), (5, float("inf")), (-1, -float("inf"))):
            values = list(report.multipliers[stage])
            values[k] = odd
            edited = replace(report, multipliers={**report.multipliers, stage: values})
            data = _pgo_report(graph, edited)
            assert {s: type(v) for s, v in data["multipliers"].items()} == {
                s: list if s == stage else cli._Text for s in ("lambda", "mu")}
            assert _json_text(data) == _expected_pgo_text(graph, edited)


def test_a_noiseless_solve_pgo_forms_no_per_edge_block(tmp_path, monkeypatch):
    # at an exact solution every weight of the objective's gradient is 0, so
    # its pullbacks form none of the edges' 4x8 or 4x16 Jacobian blocks
    g = tmp_path / "graph.txt"
    assert main(["gen-pgo", "--vertices", "200", "--loop-closures", "60",
                 "--seed", "5", "--out", str(g)]) == 0
    spy = ConcatenateSpy()
    monkeypatch.setattr(posegraph, "np", spy)
    assert main(["solve-pgo", "--in", str(g), "--out", str(tmp_path / "report.json")]) == 0
    assert spy.shapes and [s for s in spy.shapes if s[1:] in ((4, 8), (4, 16))] == []


def test_report_prints_to_stdout_without_out(tmp_path, capsys):
    ds = tmp_path / "ds.json"
    assert main(["gen-handeye", "--model", "axxb", "--motions", "3",
                 "--seed", "2", "--out", str(ds)]) == 0
    capsys.readouterr()
    assert main(["solve-handeye", "--in", str(ds), "--restarts", "2"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert set(data) >= {"stage1_value", "stage2_value", "solution", "config"}


def test_the_cli_fingerprint_is_the_same_in_two_processes(tmp_path):
    # the fingerprint compares CLI outputs across checkouts, so it must not
    # move between two runs of one checkout
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    runs = []
    for k in range(2):
        out = subprocess.run(
            [sys.executable, str(root / "scripts" / "cli_fingerprint.py"),
             "--out", str(tmp_path / str(k))],
            env=env, capture_output=True, text=True,
        )
        assert out.returncode == 0, out.stderr
        # one "<sha256>  <file>" line per output file, then the output directory
        files = [line for line in out.stderr.splitlines() if not line.startswith("outputs in")]
        runs.append((out.stdout.strip(), files))
    assert runs[0] == runs[1]
    combined, files = runs[0]
    assert len(combined) == 64
    # three files per solve, two per capped solve of an input and per malformed graph
    assert len(files) == 4 * 3 + 3 * 3 + 2 * 2 + 2 * 13


def test_the_fingerprint_script_refuses_a_non_empty_out_as_a_usage_error(tmp_path):
    # exit 1 means the hash moved, so a rerun into a used directory must not exit 1
    root = Path(__file__).resolve().parents[1]
    (tmp_path / "old.txt").write_text("kept\n")
    out = subprocess.run(
        [sys.executable, str(root / "scripts" / "cli_fingerprint.py"), "--out", str(tmp_path),
         "--expect", "0" * 64],
        env=dict(os.environ, PYTHONPATH=str(root / "src")), capture_output=True, text=True,
    )
    assert out.returncode == 2
    assert out.stdout == ""
    assert out.stderr.endswith(f"error: {tmp_path} is not empty\n")
    # it stopped before any solve wrote there
    assert [p.name for p in tmp_path.iterdir()] == ["old.txt"]


def test_the_fingerprint_script_refuses_an_out_that_is_a_file_as_a_usage_error(tmp_path):
    root = Path(__file__).resolve().parents[1]
    (tmp_path / "out").write_text("kept\n")
    out = subprocess.run(
        [sys.executable, str(root / "scripts" / "cli_fingerprint.py"),
         "--out", str(tmp_path / "out"), "--expect", "0" * 64],
        env=dict(os.environ, PYTHONPATH=str(root / "src")), capture_output=True, text=True,
    )
    assert out.returncode == 2
    assert out.stdout == ""
    assert out.stderr.endswith(f"error: {tmp_path / 'out'} is not a directory\n")
    assert [p.name for p in tmp_path.iterdir()] == ["out"]
    assert (tmp_path / "out").read_text() == "kept\n"


def test_the_trace_csv_writes_each_field_as_the_f_string_did(tmp_path):
    rows = [
        TraceRow(0, 1, 1.5, 0.0, 2.5e-17, 0.1),
        TraceRow(12, 2, float("nan"), float("inf"), float("-inf"), -0.0),
        TraceRow(3, 1, -0.0, 1e300, 5e-324, float("nan")),
    ]
    path = tmp_path / "trace.csv"
    _write_trace_csv(str(path), rows)
    expected = ["iter,stage,objective_std,objective_dual,feasibility,kkt_residual"] + [
        f"{row.iteration},{row.stage},{row.objective_std!r},"
        f"{row.objective_dual!r},{row.feasibility!r},{row.kkt_residual!r}"
        for row in rows
    ]
    assert path.read_text(encoding="utf-8") == "\n".join(expected) + "\n"
    assert path.read_text(encoding="utf-8").splitlines()[2] == "12,2,nan,inf,-inf,-0.0"
