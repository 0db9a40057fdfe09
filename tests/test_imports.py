"""Every name a module of ``dqopt`` imports is used there or exported, and every export exists.

Fresh interpreters check what loads with what: importing the package,
hand-eye work, reading, writing or generating pose graphs, and building,
solving and evaluating a pose graph whose fiber is dense run on NumPy
alone.  SciPy loads with the first solve on a sparse fiber (a pose graph of
44 vertices or more) and in ``dqopt solve-pgo``, whatever the graph's size.
"""

import ast
import importlib
import importlib.util
import json
import os
import subprocess
import sys
import textwrap
import types
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
SOURCES = sorted((SRC / "dqopt").glob("*.py"))


def exported_names(tree: ast.Module) -> list[str]:
    """The ``__all__`` list a module's syntax tree assigns, empty when it has none."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    return []


def unused_imports(source: str) -> list[str]:
    """Names bound by import statements that no expression reads and ``__all__`` omits."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used.update(exported_names(tree))
    return sorted(imported - used)


def export_faults(module, names: list[str]) -> list[str]:
    """Each name ``names`` lists more than once, then each that ``module`` lacks."""
    twice = sorted({name for name in names if names.count(name) > 1})
    return [f"{name} listed twice" for name in twice] + [
        f"{name} missing" for name in names if not hasattr(module, name)
    ]


def test_the_scan_finds_an_unused_import():
    assert unused_imports("import math\nimport os\nos.getcwd()\n") == ["math"]
    assert unused_imports("from x import a, b as c\n__all__ = ['a']\nc()\n") == []
    assert unused_imports("from __future__ import annotations\n") == []


def test_the_export_check_finds_a_repeated_or_missing_name():
    module = types.SimpleNamespace(a=1, b=2)
    assert export_faults(module, ["a", "b"]) == []
    assert export_faults(module, ["a", "c", "a"]) == ["a listed twice", "c missing"]


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_every_import_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_every_exported_name_exists_once(path):
    names = exported_names(ast.parse(path.read_text(encoding="utf-8")))
    module = importlib.import_module("dqopt" if path.stem == "__init__" else f"dqopt.{path.stem}")
    assert export_faults(module, names) == []


def fresh(code: str, *args: str):
    """The JSON value on the last line ``code`` prints, run by a new interpreter with ``args``."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", textwrap.dedent(code), *args], env=env,
                         capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.splitlines()[-1])


def test_hand_eye_work_loads_no_scipy_and_no_thread_pool(tmp_path):
    loaded = fresh("""
        import json, sys
        import dqopt
        from dqopt import SolverConfig, build_axxb, build_axyb, cli, generate_synthetic, solve_eqdqo

        for model, build in (("axxb", build_axxb), ("axyb", build_axyb)):
            ds = generate_synthetic(model, 6, noise_rot=0.01, noise_trans=0.01, seed=1)
            solve_eqdqo(build(ds), SolverConfig(restarts=2, seed=0))
        data, out = sys.argv[1] + "/data.json", sys.argv[1] + "/report.json"
        assert cli.main(["gen-handeye", "--model", "axyb", "--motions", "6", "--out", data]) == 0
        assert cli.main(["solve-handeye", "--in", data, "--out", out, "--restarts", "2"]) == 0
        print(json.dumps(sorted(m for m in sys.modules
                                if m.split(".")[0] in ("scipy", "concurrent"))))
    """, str(tmp_path))
    assert loaded == []


def test_import_binds_every_public_name_and_loads_no_scipy():
    unbound, star, scipy_loaded = fresh("""
        import json, sys
        import dqopt

        names = {}
        exec("from dqopt import *", names)
        print(json.dumps([sorted(set(dqopt.__all__) - set(vars(dqopt))),
                          sorted(set(dqopt.__all__) - set(names)),
                          sorted(m for m in sys.modules if m.split(".")[0] == "scipy")]))
    """)
    assert unbound == [] and star == [] and scipy_loaded == []


def test_dense_pose_graph_work_loads_no_scipy(tmp_path):
    steps = fresh("""
        import json, sys
        from dqopt import (SolverConfig, build_pgo, cli, error_vector, generate_cycle_graph,
                           parse_graph, serialize_graph, solve_eqdqo, spanning_tree_guess,
                           spanning_tree_rows, vertex_errors)

        steps = []

        def step(name):
            steps.append([name, "scipy" in sys.modules])

        path = sys.argv[1] + "/graph.txt"
        assert cli.main(["gen-pgo", "--vertices", "20", "--loop-closures", "6",
                         "--noise-rot", "0.01", "--seed", "2", "--out", path]) == 0
        step("gen-pgo")
        graph = parse_graph(open(path).read())
        step("parse_graph")
        assert parse_graph(serialize_graph(generate_cycle_graph(8, 2, seed=1))).n == 8
        step("serialize_graph and generate_cycle_graph")
        spanning_tree_guess(graph)
        spanning_tree_rows(graph)
        step("spanning tree")
        problem = build_pgo(graph)
        step("build_pgo")
        report = solve_eqdqo(problem, SolverConfig(restarts=2, seed=0))
        step("solve_eqdqo")
        vertex_errors(graph, list(report.solution))
        error_vector(graph, list(report.solution))
        step("vertex_errors and error_vector")
        print(json.dumps(steps))
    """, str(tmp_path))
    assert steps == [[name, False] for name, _ in steps]


def test_a_sparse_fiber_pose_graph_solve_loads_scipy():
    before, after = fresh("""
        import json, sys
        from dqopt import SolverConfig, build_pgo, generate_cycle_graph, solve_eqdqo, solver

        problem = build_pgo(generate_cycle_graph(44, 4, noise_rot=0.01, seed=1))
        assert problem.block.var.size > solver._DENSE_MAX
        before = "scipy" in sys.modules
        solve_eqdqo(problem, SolverConfig(restarts=1, seed=0))
        print(json.dumps([before, "scipy.sparse.linalg" in sys.modules]))
    """)
    assert (before, after) == (False, True)


def test_solve_pgo_loads_scipy_before_it_reads_even_a_small_graph(tmp_path):
    loaded = fresh("""
        import json, sys
        from dqopt import cli

        path = sys.argv[1] + "/graph.txt"
        assert cli.main(["gen-pgo", "--vertices", "10", "--loop-closures", "3", "--out", path]) == 0
        loaded = []
        parse = cli.parse_graph

        def parse_graph(text):
            loaded.append("scipy.sparse.linalg" in sys.modules)
            return parse(text)

        cli.parse_graph = parse_graph
        assert cli.main(["solve-pgo", "--in", path, "--out", sys.argv[1] + "/report.json"]) == 0
        print(json.dumps(loaded))
    """, str(tmp_path))
    assert loaded == [True]


_GENERIC_SPARSE_SOLVE = """
    import json, sys
    from dqopt import (DualQuaternion, EqdqoProblem, Quaternion, SolverConfig,
                       UnitNormConstraint, build_pgo, generate_cycle_graph, solve_eqdqo, solver,
                       squared_distance_objective)

    if sys.argv[1] == "posegraph":
        # a clean graph on a sparse fiber: one stage-I evaluation loads SciPy
        solve_eqdqo(build_pgo(generate_cycle_graph(44, 4, seed=0)), SolverConfig(restarts=1))
    before = "scipy.sparse.linalg" in sys.modules
    n = 50
    center = DualQuaternion(Quaternion(0.5, 0.5, 0.5, 0.5), Quaternion(0.0, 0.1, -0.2, 0.3))
    problem = EqdqoProblem(squared_distance_objective(center, n, 3),
                           [UnitNormConstraint(n, i) for i in range(n)])
    assert 3 * n > solver._DENSE_MAX
    report = solve_eqdqo(problem, SolverConfig(restarts=2, seed=0))
    fields = report.to_json_dict()
    del fields["wall_time_ms"]
    # repr gives every float to the last bit
    print(json.dumps([repr((fields, report.trace)), before, "scipy.sparse.linalg" in sys.modules]))
"""


def test_a_sparse_fiber_solves_the_same_with_or_without_a_pose_graph_problem_first():
    # 50 unit variables have 150 fiber directions, past _DENSE_MAX, and the
    # objective's stage-II slope is the empty dense one of DualFunction
    alone, before, after = fresh(_GENERIC_SPARSE_SOLVE, "alone")
    assert not before and after
    with_graph, before, _ = fresh(_GENERIC_SPARSE_SOLVE, "posegraph")
    assert before
    assert alone == with_graph


def test_every_name_the_benchmark_traces_exists():
    # perfbench/spans.py, loaded unedited, wraps these names; without this
    # check a deleted one shows only as a KeyError inside the traced smoke run
    import dqopt

    path = SRC.parent / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = [f"{cls.__name__}.{attr}" for _, cls, attrs in spans._methods(dqopt)
               for attr in attrs if attr not in cls.__dict__]
    missing += [name for _, name in spans.FUNCTIONS if not hasattr(dqopt, name)]
    assert not missing, (
        f"perfbench/spans.py traces {missing}, which dqopt no longer defines; "
        "ROADMAP item 13's benchmark change must drop them from the benchmark first"
    )
