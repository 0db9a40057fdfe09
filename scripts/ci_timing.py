"""Wall time, peak RSS and per-phase medians of ``dqopt solve-pgo``, printed one per line.

Usage, from the repository root::

    PYTHONPATH=src python scripts/ci_timing.py

It writes ``pgo-200.txt``, ``pgo-200.json`` and ``pgo-20000.txt`` in the
current directory and prints, in this order:

- a fresh ``solve-pgo`` process on a 200-vertex graph with 60 chords: wall
  time and peak RSS, SciPy's import included when the solve loads it;
- the per-solve cost in this process, each the median of 20 calls after a
  warm-up: ``dqopt.cli.main`` on that graph, then the phases it runs
  (``parse_graph``, ``build_pgo``, ``solve_eqdqo``, the report text, the
  file write), then two library solves (a 20-vertex noisy cycle graph and
  a 10-motion noisy AXXB calibration);
- in a new process, for its own peak RSS, a graph of ROADMAP item 25's
  size (20,000 vertices, 2000 chords): a fresh ``gen-pgo`` process, then
  ``parse_graph`` and ``build_pgo`` in that one, each the median of 5
  calls after a warm-up, then the MB that ``tracemalloc`` traces as held
  by one built problem: its residual data, and no solver product.

The numbers are informational, with no threshold.  The script uses the
standard library and ``dqopt`` only.
"""

from __future__ import annotations

import contextlib
import io
import resource
import statistics
import subprocess
import sys
import time
import tracemalloc

_LARGE = "graph-20000"


def _median_ms(call, runs: int) -> float:
    """The median wall time of ``runs`` calls of ``call`` after one warm-up call, in ms."""
    times = []
    for _ in range(runs + 1):
        start = time.perf_counter()
        call()
        times.append(time.perf_counter() - start)
    return statistics.median(times[1:]) * 1e3


def _fresh_process(args: list[str]) -> tuple[float, float]:
    """Wall seconds of a new ``dqopt.cli`` process, and this one's children's peak RSS in MB."""
    sys.stdout.flush()
    start = time.perf_counter()
    subprocess.run([sys.executable, "-m", "dqopt.cli", *args], check=True)
    wall = time.perf_counter() - start
    return wall, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024


def solve_pgo_200() -> None:
    import dqopt.cli

    def cli(argv):
        if dqopt.cli.main(argv) != 0:
            raise SystemExit(f"dqopt {argv[0]} failed")

    cli(["gen-pgo", "--vertices", "200", "--loop-closures", "60", "--out", "pgo-200.txt"])
    argv = ["solve-pgo", "--in", "pgo-200.txt", "--out", "pgo-200.json"]
    wall, rss = _fresh_process(argv)
    print(f"dqopt solve-pgo, 200 vertices, 60 chords: {wall:.3f} s wall, {rss:.1f} MB peak RSS")
    with contextlib.redirect_stdout(io.StringIO()):
        ms = _median_ms(lambda: cli(argv), 20)
    print(f"in-process dqopt.cli.main solve-pgo, median of 20 after a warm-up: {ms:.1f} ms")
    # the same solve split into the phases solve-pgo runs
    from dqopt import SolverConfig, build_axxb, build_pgo, generate_cycle_graph
    from dqopt import generate_synthetic, parse_graph, solve_eqdqo

    with open("pgo-200.txt", encoding="utf-8") as fh:
        text = fh.read()
    graph = parse_graph(text)
    problem = build_pgo(graph)
    report = solve_eqdqo(problem, SolverConfig())
    out = dqopt.cli._json_text(dqopt.cli._pgo_report(graph, report))
    phases = {
        "parse_graph": lambda: parse_graph(text),
        "build_pgo": lambda: build_pgo(graph),
        "solve_eqdqo": lambda: solve_eqdqo(problem, SolverConfig()),
        "report text": lambda: dqopt.cli._json_text(dqopt.cli._pgo_report(graph, report)),
        "file write": lambda: dqopt.cli._write_text("pgo-200.json", out),
    }
    for name, phase in phases.items():
        ms = _median_ms(phase, 20)
        print(f"solve-pgo phase {name}, median of 20 after a warm-up: {ms:.3f} ms")
    # the per-step solver cost, without parsing or reports: library solves
    for label, problem, restarts in (
        ("20-vertex noisy cycle graph, 1 restart",
         build_pgo(generate_cycle_graph(20, 6, 0.01, 0.01, seed=0)), 1),
        ("10-motion noisy AXXB, 8 restarts",
         build_axxb(generate_synthetic("axxb", 10, 0.01, 0.01, seed=0)), 8),
    ):
        cfg = SolverConfig(restarts=restarts)
        ms = _median_ms(lambda: solve_eqdqo(problem, cfg), 20)
        print(f"in-process solve_eqdqo, {label}, median of 20 after a warm-up: {ms:.2f} ms")


def graph_20000() -> None:
    wall, rss = _fresh_process(["gen-pgo", "--vertices", "20000", "--loop-closures", "2000",
                                "--out", "pgo-20000.txt"])
    print(f"dqopt gen-pgo, 20000 vertices, 2000 chords: {wall:.3f} s wall, {rss:.1f} MB peak RSS")
    from dqopt import build_pgo, parse_graph

    with open("pgo-20000.txt", encoding="utf-8") as fh:
        text = fh.read()
    graph = parse_graph(text)
    for name, phase in (("parse_graph", lambda: parse_graph(text)),
                        ("build_pgo", lambda: build_pgo(graph))):
        print(f"20000-vertex {name}, median of 5 after a warm-up: {_median_ms(phase, 5):.1f} ms")
    tracemalloc.start()
    problem = build_pgo(graph)
    held = tracemalloc.get_traced_memory()[0] / 2**20
    tracemalloc.stop()
    del problem
    print(f"20000-vertex build_pgo holds {held:.1f} MB (tracemalloc)")


def main(argv: list[str]) -> int:
    if argv == [_LARGE]:
        graph_20000()
        return 0
    solve_pgo_200()
    # a new process, so that its children's peak RSS is the large gen-pgo's alone
    sys.stdout.flush()
    subprocess.run([sys.executable, __file__, _LARGE], check=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
