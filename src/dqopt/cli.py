"""Command-line surface: generate datasets, solve them, run the self-test.

The solve commands write the report, ``json.dumps(data, indent=2)``, to
``--out`` or stdout, with the ground-truth errors when the input has them,
and the per-iteration trace as CSV to ``--csv``.  Exit codes: 0 on success, 1
when the solver fails (no restart ends at a feasible point), 2 on usage or
input errors.  All output files are byte-identical across runs with the
same inputs and seeds; the only nondeterministic report field is
``wall_time_ms``.
"""

from __future__ import annotations

import argparse
import functools
import json
import secrets
import sys
from dataclasses import dataclass, fields, replace

from . import handeye, posegraph, selftest
from .algebra import DualQuaternionVector
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
    """Input file or argument problem; maps to exit code 2."""


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


def _checked(make, *args, **kwargs):
    """``make(*args, **kwargs)``, a ``ValueError`` it raises for bad arguments as bad input."""
    try:
        return make(*args, **kwargs)
    except ValueError as e:
        raise _BadInput(str(e))


def _config_from_args(args) -> SolverConfig:
    return _checked(SolverConfig, **{f.name: getattr(args, f.name) for f in fields(SolverConfig)})


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


@dataclass
class _Text:
    """JSON text that :func:`_json_text` writes where this value stands, as it is."""

    text: str


def _uniform_block(item: str, args, count: int, pad: str) -> _Text | None:
    """The JSON list at ``pad`` of ``count`` items, ``item`` ``%``-formatted over ``args``.

    ``args`` are floats and ints; None at a NaN or an infinity, which ``%r``
    writes with an ``n`` that the template lacks.
    """
    inner = pad + "  "
    template = "[" + inner + item + ("," + inner + item) * (count - 1) + pad + "]"
    text = template % tuple(args)
    return _Text(text) if text.count("n") == template.count("n") else None


@functools.cache
def _item_template(layout: tuple, pad: str) -> str:
    """The JSON text at ``pad`` of a dict with ``%r`` leaves: ``(key, list length or None)`` pairs."""
    mark = _Text("%r")
    item = {key.replace("%", "%%"): mark if n is None else [mark] * n for key, n in layout}
    return _json_text(item)[:-1].replace("\n", pad)


def _rows_block(first: dict, args: list, count: int, pad: str) -> _Text | None:
    """:func:`_uniform_block` of ``count`` dicts laid out like ``first``, their leaves ``args``.

    ``first`` is an item as the layout's owner builds it, with float, int
    or float-list leaves; written with ``%r`` leaves, it is the item format.
    """
    layout = tuple((key, len(leaf) if type(leaf) is list else None) for key, leaf in first.items())
    return _uniform_block(_item_template(layout, pad + "  "), args, count, pad)


def _json_text(data) -> str:
    """``json.dumps(data, indent=2)`` plus a newline, a :class:`_Text` value written as its text.

    Each :class:`_Text`, such as a solve report's solution and multiplier
    blocks (:func:`_report_data`), goes through ``json.dumps``'
    ``default`` hook as a placeholder string, a NUL and a random token,
    which its text then replaces.  A string of ``data`` that equals the
    placeholder shows as one placeholder too many, and the text is written
    again with a new token.
    """
    blocks, mark = [], "\0" + secrets.token_hex(8)

    def default(value):
        if type(value) is not _Text:
            raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
        blocks.append(value.text)
        return mark

    parts = json.dumps(data, indent=2, default=default).split(json.dumps(mark))
    if len(parts) != len(blocks) + 1:
        return _json_text(data)
    return "".join(part + text for part, text in zip(parts, blocks + ["\n"]))


def _emit(data: dict, trace, args) -> None:
    """The report's JSON ``data`` to ``--out`` or stdout, its ``trace`` to ``--csv``."""
    text = _json_text(data)
    if args.out is None:
        sys.stdout.write(text)
    else:
        _write_text(args.out, text)
        print(f"wrote {args.out}")
    if args.csv:
        _write_trace_csv(args.csv, trace)


def _write_trace_csv(path: str, trace) -> None:
    lines = ["iter,stage,objective_std,objective_dual,feasibility,kkt_residual"]
    lines += (",".join(repr(getattr(row, f.name)) for f in fields(row)) for row in trace)
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
        seed=args.seed,
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
    data = _report_data(report)
    if ds.ground_truth_x is not None:
        x, *y = report.solution
        y = y[0] if y and ds.ground_truth_y is not None else None  # Y's with its truth only
        data["errors"] = evaluate_solution(ds, x, y)
    _emit(data, report.trace, args)
    return 0


def _cmd_gen_pgo(args) -> int:
    graph = _checked(
        generate_cycle_graph,
        args.vertices,
        loop_closures=args.loop_closures,
        noise_rot=args.noise_rot,
        noise_trans=args.noise_trans,
        seed=args.seed,
    )
    _write_text(args.out, serialize_graph(graph))
    print(f"wrote {args.out}")
    return 0


def _cmd_solve_pgo(args) -> int:
    # SciPy loads at the solve's first sparse step, inside ``wall_time_ms``, as
    # in a library process: a dense graph or a noiseless one never loads it.
    graph = parse_graph(_read_text(args.infile))
    report = solve_eqdqo(build_pgo(graph), _config_from_args(args))
    _emit(_pgo_report(graph, report), report.trace, args)
    return 0


def _report_data(report) -> dict:
    """``report.to_json_dict()``, its solution rows and multiplier lists as :class:`_Text` blocks.

    The solution block is written from the rows' array (:func:`_rows_block`);
    each block is the plain list instead when a NaN or an infinity shows.
    """
    rows = report.solution.rows
    data = replace(report, solution=DualQuaternionVector()).to_json_dict()
    multipliers = data["multipliers"]  # never empty: both commands' problems have unit rows
    for stage, values in multipliers.items():
        multipliers[stage] = _uniform_block("%r", values, len(values), "\n    ") or values
    first = DualQuaternionVector.from_rows(rows[:1]).to_json_list()[0]
    data["solution"] = (_rows_block(first, rows.ravel().tolist(), len(rows), "\n  ")
                        or report.solution.to_json_list())
    return data


def _pgo_report(graph, report) -> dict:
    """:func:`_report_data`, with ``graph``'s ``vertex_errors`` as a block when it has every truth."""
    n, data = graph.n, _report_data(report)
    if len(graph.truth_ids) == n:
        rot, trans = handeye.pose_errors(graph.truth_poses, handeye.pose_rows(report.solution))
        cells = [1] * (3 * n)
        cells[::3], cells[1::3], cells[2::3] = range(1, n + 1), rot, trans
        data["errors"] = (_rows_block(dict(zip(posegraph._ERROR_KEYS, cells)), cells, n, "\n  ")
                          or vertex_errors(graph, report.solution))
    return data


def _cmd_selftest(args) -> int:
    suites = _checked(selftest.run_all, args.seed)
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
