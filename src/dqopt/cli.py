"""Command-line surface: generate datasets, solve them, run the self-test.

The solve commands write the report as indented JSON to ``--out`` or
stdout, with the ground-truth errors when the input has them, and the
per-iteration trace as CSV to ``--csv``.  Exit codes: 0 on success, 1
when the solver fails (no restart ends at a feasible point), 2 on usage or
input errors.  All output files are byte-identical across runs with the
same inputs and seeds; the only nondeterministic report field is
``wall_time_ms``.  The environment variable ``DQOPT_SEED`` overrides
``--seed`` everywhere when set.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from json.encoder import encode_basestring_ascii

from . import selftest
from .errors import DqoptError, Infeasible
from .handeye import (
    HandEyeDataset,
    build_axxb,
    build_axyb,
    evaluate_solution,
    generate_synthetic,
)
from .posegraph import build_pgo, generate_cycle_graph, parse_graph, serialize_graph, vertex_errors
from .solver import SolverConfig, solve_eqdqo

__all__ = ["main", "build_parser"]


class _BadInput(Exception):
    """Input file or environment problem; maps to exit code 2."""


# ---------------------------------------------------------------------------
# Parser


def _add_solver_flags(p: argparse.ArgumentParser) -> None:
    default = SolverConfig()
    p.add_argument("--restarts", type=int, default=default.restarts,
                   help="restarts: the first from the closed form or spanning tree, the rest "
                   "random, run only when the first does not start at stage-I value 0")
    p.add_argument("--seed", type=int, default=default.seed, help="restart seed")
    p.add_argument("--tol-grad", type=float, default=default.tol_grad,
                   help="stage-I tangent gradient norm to stop at")
    p.add_argument("--tol-feas", type=float, default=default.tol_feas,
                   help="feasibility tolerance")
    p.add_argument("--max-outer", type=int, default=default.max_outer,
                   help="stage-I Gauss-Newton step and stage-II solve cap")
    p.add_argument("--threads", type=int, default=default.threads,
                   help="accepts only 1: the restarts advance in lockstep as one batch")
    p.add_argument("--csv", default=None, metavar="PATH", help="write per-iteration trace")
    p.add_argument("--out", default=None, metavar="PATH", help="report file (default: stdout)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dqopt",
        description="dual quaternion optimization: datasets, solvers, self-tests",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    g = sub.add_parser("gen-handeye", help="generate a synthetic calibration dataset")
    g.add_argument("--model", required=True, choices=("axxb", "axyb"))
    g.add_argument("--motions", type=int, required=True, help="relative motions or pose pairs")
    g.add_argument("--noise-rot", type=float, default=0.0, help="rotation noise (rad)")
    g.add_argument("--noise-trans", type=float, default=0.0, help="translation noise")
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out", required=True, metavar="PATH")
    g.set_defaults(func=_cmd_gen_handeye)

    s = sub.add_parser("solve-handeye", help="solve a calibration dataset")
    s.add_argument("--in", dest="infile", required=True, metavar="PATH")
    _add_solver_flags(s)
    s.set_defaults(func=_cmd_solve_handeye)

    g = sub.add_parser("gen-pgo", help="generate a synthetic pose graph")
    g.add_argument("--vertices", type=int, required=True)
    g.add_argument("--loop-closures", type=int, default=0, help="extra chord edges")
    g.add_argument("--noise-rot", type=float, default=0.0, help="rotation noise (rad)")
    g.add_argument("--noise-trans", type=float, default=0.0, help="translation noise")
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out", required=True, metavar="PATH")
    g.set_defaults(func=_cmd_gen_pgo)

    s = sub.add_parser("solve-pgo", help="solve a pose graph file")
    s.add_argument("--in", dest="infile", required=True, metavar="PATH")
    _add_solver_flags(s)
    s.set_defaults(func=_cmd_solve_pgo)

    t = sub.add_parser("selftest", help="run the built-in verification suites")
    t.add_argument("--seed", type=int, default=0)
    t.set_defaults(func=_cmd_selftest)
    return parser


# ---------------------------------------------------------------------------
# Shared plumbing


def _resolve_seed(args) -> int:
    env = os.environ.get("DQOPT_SEED")
    try:
        seed = args.seed if env is None else int(env)
    except ValueError:
        raise _BadInput(f"DQOPT_SEED must be an integer, got {env!r}")
    if seed < 0:
        raise _BadInput(f"seed must be non-negative, got {seed}")
    return seed


def _checked(make, *args, **kwargs):
    """``make(*args, **kwargs)``, a ``ValueError`` it raises for bad arguments as bad input."""
    try:
        return make(*args, **kwargs)
    except ValueError as e:
        raise _BadInput(str(e))


def _config_from_args(args) -> SolverConfig:
    return _checked(
        SolverConfig,
        restarts=args.restarts,
        seed=_resolve_seed(args),
        tol_grad=args.tol_grad,
        tol_feas=args.tol_feas,
        max_outer=args.max_outer,
        threads=args.threads,
    )


def _read_text(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as e:
        raise _BadInput(f"cannot read {path}: {e.strerror or e}")


def _read_json(path: str) -> dict:
    text = _read_text(path)
    try:
        data = json.loads(text)
    except json.JSONDecodeError as e:
        raise _BadInput(f"{path} is not valid JSON: {e}")
    if not isinstance(data, dict):
        raise _BadInput(f"{path}: expected a JSON object at top level")
    return data


def _write_text(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as e:
        raise _BadInput(f"cannot write {path}: {e.strerror or e}")


def _json_parts(value, out: list, pad: str) -> None:
    """Append the JSON text of ``value`` to ``out``; ``pad`` is a newline and its indent.

    Finite floats, most of a report's values, are written by their
    container's loop, without a call of their own.
    """
    if isinstance(value, float):
        out.append(float.__repr__(value) if -math.inf < value < math.inf
                   else "NaN" if value != value else "Infinity" if value > 0 else "-Infinity")
    elif isinstance(value, str):
        out.append(encode_basestring_ascii(value))
    elif value is None or isinstance(value, bool):
        out.append({None: "null", True: "true", False: "false"}[value])
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    elif isinstance(value, dict):
        inner, sep = pad + "  ", "{"
        for key, item in value.items():
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            head = f"{sep}{inner}{encode_basestring_ascii(key)}: "
            if type(item) is float and -math.inf < item < math.inf:
                out.append(head + float.__repr__(item))
            else:
                out.append(head)
                _json_parts(item, out, inner)
            sep = ","
        out.append(pad + "}" if value else "{}")
    elif isinstance(value, (list, tuple)):
        inner, sep = pad + "  ", "["
        for item in value:
            if type(item) is float and -math.inf < item < math.inf:
                out.append(sep + inner + float.__repr__(item))
            else:
                out.append(sep + inner)
                _json_parts(item, out, inner)
            sep = ","
        out.append(pad + "]" if value else "[]")
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _json_text(data) -> str:
    """``json.dumps(data, indent=2)`` plus a newline, byte for byte.

    ``json.dumps`` with an indent runs the standard library's pure-Python
    encoder; this writer does the same formatting in one pass: floats by
    ``float.__repr__`` (so NumPy floats print as plain numbers), NaN and
    infinities as ``NaN`` and ``Infinity``, strings ASCII-escaped.  Keys
    must be strings, and other types raise ``TypeError``.
    """
    out = []
    _json_parts(data, out, "\n")
    out.append("\n")
    return "".join(out)


def _emit(report, errors, args) -> None:
    """The report, with ``errors`` unless None, to ``--out`` or stdout; its trace to ``--csv``."""
    data = report.to_json_dict()
    if errors is not None:
        data["errors"] = errors
    text = _json_text(data)
    if args.out is None:
        sys.stdout.write(text)
    else:
        _write_text(args.out, text)
        print(f"wrote {args.out}")
    if args.csv:
        _write_trace_csv(args.csv, report.trace)


def _write_trace_csv(path: str, trace) -> None:
    lines = ["iter,stage,objective_std,objective_dual,feasibility,kkt_residual"]
    for row in trace:
        lines.append(
            f"{row.iteration},{row.stage},{row.objective_std!r},"
            f"{row.objective_dual!r},{row.feasibility!r},{row.kkt_residual!r}"
        )
    _write_text(path, "\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# Commands


def _cmd_gen_handeye(args) -> int:
    ds = _checked(
        generate_synthetic,
        args.model,
        args.motions,
        noise_rot=args.noise_rot,
        noise_trans=args.noise_trans,
        seed=_resolve_seed(args),
    )
    _write_text(args.out, _json_text(ds.to_json_dict()))
    print(f"wrote {args.out}")
    return 0


def _cmd_solve_handeye(args) -> int:
    raw = _read_json(args.infile)
    try:
        ds = HandEyeDataset.from_json_dict(raw)
    except (KeyError, TypeError, ValueError, DqoptError) as e:
        raise _BadInput(f"{args.infile}: invalid dataset ({e})")
    problem = build_axxb(ds) if ds.model == "axxb" else build_axyb(ds)
    report = solve_eqdqo(problem, _config_from_args(args))
    errors = None
    if ds.ground_truth_x is not None:
        # Y's errors only where its truth is recorded too
        x, *y = report.solution
        errors = evaluate_solution(ds, x, y[0] if y and ds.ground_truth_y is not None else None)
    _emit(report, errors, args)
    return 0


def _cmd_gen_pgo(args) -> int:
    graph = _checked(
        generate_cycle_graph,
        args.vertices,
        loop_closures=args.loop_closures,
        noise_rot=args.noise_rot,
        noise_trans=args.noise_trans,
        seed=_resolve_seed(args),
    )
    _write_text(args.out, serialize_graph(graph))
    print(f"wrote {args.out}")
    return 0


def _cmd_solve_pgo(args) -> int:
    # SciPy loads at the solve's first sparse step, inside ``wall_time_ms``, as
    # in a library process: a dense graph or a noiseless one never loads it.
    graph = parse_graph(_read_text(args.infile))
    report = solve_eqdqo(build_pgo(graph), _config_from_args(args))
    errors = vertex_errors(graph, list(report.solution)) if len(graph.truth_ids) == graph.n else None
    _emit(report, errors, args)
    return 0


def _cmd_selftest(args) -> int:
    suites = selftest.run_all(_resolve_seed(args))
    total = 0
    passed = 0
    for name, results in suites.items():
        ok = sum(r.passed for r in results)
        print(f"{name}: {ok}/{len(results)} passed")
        for r in results:
            if not r.passed:
                print(f"  FAIL {r.name}: {r.detail}")
        total += len(results)
        passed += ok
    if passed == total:
        print(f"all {total} checks passed")
        return 0
    print(f"{total - passed} of {total} checks failed")
    return 1


# ---------------------------------------------------------------------------


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser :func:`main` reads with, built on its first call and then kept."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as e:
        return 0 if e.code in (0, None) else 2
    try:
        return args.func(args)
    except Infeasible as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except (_BadInput, DqoptError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
