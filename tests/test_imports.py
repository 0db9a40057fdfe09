"""Every name a module of ``dqopt`` imports is used there or exported, and every export exists.

Fresh interpreters check what loads with what: importing the package,
hand-eye work, reading, writing or generating pose graphs, and building,
solving and evaluating a pose graph whose fiber is dense run on NumPy
alone.  SciPy loads at a solve's first sparse step, on a sparse fiber (a
pose graph of 44 vertices or more), in a library process and in ``dqopt
solve-pgo`` alike; a noiseless start steps nowhere and loads none of it.
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


def module_exports(name: str) -> list[str]:
    """The ``__all__`` of the ``dqopt`` module ``name``, read from its source."""
    return exported_names(ast.parse((SRC / "dqopt" / f"{name}.py").read_text(encoding="utf-8")))


def exported_names(tree: ast.Module, exports=module_exports) -> list[str]:
    """The ``__all__`` list a module's syntax tree assigns, empty when it has none.

    An entry ``*m.__all__`` expands to ``exports(m)``; any other entry that
    is not a string literal raises ``ValueError``.
    """
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            if not isinstance(node.value, ast.List):
                return ast.literal_eval(node.value)
            names = []
            for elt in node.value.elts:
                if (isinstance(elt, ast.Starred) and isinstance(elt.value, ast.Attribute)
                        and elt.value.attr == "__all__" and isinstance(elt.value.value, ast.Name)):
                    names += exports(elt.value.value.id)
                else:
                    names.append(ast.literal_eval(elt))
            return names
    return []


def unused_imports(source: str, exports=module_exports) -> list[str]:
    """Names bound by import statements that no expression reads and ``__all__`` omits.

    ``from .m import *`` binds the names ``exports(m)`` gives; a star import
    from any other place raises ``ValueError``.
    """
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, ast.ImportFrom) and node.names[0].name == "*":
            if node.level != 1 or node.module is None:
                raise ValueError(f"star import from {'.' * node.level}{node.module or ''}")
            imported.update(exports(node.module))
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used.update(exported_names(tree, exports))
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
    exports = {"m": ["a", "b"]}.__getitem__
    assert unused_imports("from .m import *\n__all__ = ['a']\n", exports) == ["b"]
    assert unused_imports("from . import m\nfrom .m import *\n__all__ = [*m.__all__]\n",
                          exports) == []
    with pytest.raises(ValueError):
        unused_imports("from os import *\n", exports)
    with pytest.raises(ValueError):
        unused_imports("from .m import *\n__all__ = [*m.names]\n", exports)


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


def test_the_package_exports_each_modules_list_once_in_layer_order():
    import dqopt
    from dqopt import algebra, errors, functions, handeye, posegraph, solver

    expected = ["__version__", *algebra.__all__, *errors.__all__, *functions.__all__,
                *solver.__all__, *handeye.__all__, *posegraph.__all__, "CheckResult", "run_all"]
    assert dqopt.__all__ == expected
    assert export_faults(dqopt, expected) == []


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


def test_pose_graph_work_without_scipy_loads_no_numpy_ma(tmp_path):
    # np.unique loaded numpy.ma before NumPy 2.4; posegraph._by_id calls it on
    # every parse. SciPy's sparse modules load numpy.ma, so a sparse step may.
    steps = fresh("""
        import json, sys
        from dqopt import SolverConfig, build_pgo, cli, parse_graph, solve_eqdqo

        steps = []

        def step(name):
            steps.append([name, "numpy.ma" in sys.modules, "scipy" in sys.modules])

        out = sys.argv[1] + "/report.json"
        for vertices, noise in (("20", "0.01"), ("200", "0")):  # a dense and a noiseless solve
            path = sys.argv[1] + f"/graph-{vertices}.txt"
            assert cli.main(["gen-pgo", "--vertices", vertices, "--loop-closures", "6",
                             "--noise-rot", noise, "--seed", "2", "--out", path]) == 0
            step("gen-pgo " + vertices)
            graph = parse_graph(open(path).read())
            step("parse_graph " + vertices)
            problem = build_pgo(graph)
            step("build_pgo " + vertices)
            solve_eqdqo(problem, SolverConfig(restarts=2, seed=0))
            step("solve_eqdqo " + vertices)
            assert cli.main(["solve-pgo", "--in", path, "--out", out]) == 0
            step("solve-pgo " + vertices)
        print(json.dumps(steps))
    """, str(tmp_path))
    assert len(steps) == 10 and steps == [[name, False, False] for name, *_ in steps]


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


_SOLVE_PGO = """
    import json, sys
    from dqopt import cli

    if sys.argv[2] == "preloaded":
        import dqopt._sparse
    graphs = (("10", "0.01"), ("200", "0"), ("60", "0.01"))  # vertices, rotation noise
    loaded, report = [], None
    for vertices, noise in graphs:
        path, out = sys.argv[1] + "/graph.txt", sys.argv[1] + "/report.json"
        assert cli.main(["gen-pgo", "--vertices", vertices, "--loop-closures", "6",
                         "--noise-rot", noise, "--seed", "3", "--out", path]) == 0
        assert cli.main(["solve-pgo", "--in", path, "--out", out, "--restarts", "1"]) == 0
        loaded.append("scipy" in sys.modules)
        with open(out) as f:
            report = json.load(f)
    del report["wall_time_ms"]
    print(json.dumps([loaded, report]))
"""


def test_solve_pgo_loads_scipy_only_at_a_sparse_step(tmp_path):
    # a noisy 10-vertex graph steps on a dense fiber, a noiseless 200-vertex one starts
    # at value 0, where stage I forms no Jacobian; a noisy 60-vertex one steps
    loaded, report = fresh(_SOLVE_PGO, str(tmp_path), "plain")
    assert loaded == [False, False, True]
    # SciPy loaded mid-solve, not up front, leaves the report as it was
    _, preloaded = fresh(_SOLVE_PGO, str(tmp_path), "preloaded")
    assert report == preloaded


_GENERIC_SPARSE_SOLVE = """
    import json, sys
    from dqopt import (DualQuaternion, EqdqoProblem, Quaternion, SolverConfig,
                       build_pgo, generate_cycle_graph, solve_eqdqo, solver,
                       squared_distance_objective)

    if sys.argv[1] == "posegraph":
        # a noisy graph on a sparse fiber: its first stage-I step loads SciPy
        solve_eqdqo(build_pgo(generate_cycle_graph(44, 4, noise_rot=0.01, seed=0)),
                    SolverConfig(restarts=1))
    before = "scipy.sparse.linalg" in sys.modules
    n = 50
    center = DualQuaternion(Quaternion(0.5, 0.5, 0.5, 0.5), Quaternion(0.0, 0.1, -0.2, 0.3))
    problem = EqdqoProblem(squared_distance_objective(center, n, 3), range(n))
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
