#!/usr/bin/env python3
"""dqopt benchmark: closed-loop solves on one workload, answers checked.

Run from the root of a dqopt checkout:

    python3 perfbench/run.py --workload handeye-batch --seed 1 --seconds 20 --trace 0

dqopt is imported from the checkout's ``src`` directory and nothing else.
One client solves the workload's problems back to back with
``SolverConfig.threads=1`` and BLAS pinned to one thread.  ``--seconds``
picks how many rounds of the workload one run holds, from the round time in
reference seconds (see speed.py), so a run's work depends only on
``--seed`` and ``--seconds``, and its duration only approximates
``--seconds``.  Times are reported in reference seconds: each timed step
is scaled by a kernel timed just before and after it, which takes out the
drift of a shared machine's speed.  ``--trace 0`` prints the end-to-end
metrics; ``--trace 1``
solves half as many rounds untraced and then again with spans around
dqopt's public functions, and prints the per-layer metrics.
Human-readable lines come first; the last line of standard output is one
JSON object.  See perfbench/README.md.
"""

import os

# Before numpy loads: the benchmark measures single-threaded BLAS.
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_THREADS)

import argparse
import contextlib
import hashlib
import io
import json
import math
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

SETUP_SAMPLES = 3  # fresh processes; setup_s is their median
ERR_FLOOR = 1e-9  # accuracy metrics below this are float noise
SIGMA = 0.01
HANDEYE_RESTARTS = 8  # the CLI default
PGO_RESTARTS = 1  # one restart from the spanning-tree guess


@dataclass(frozen=True)
class Workload:
    kind: str  # "handeye", "pgo" (library calls) or "cli" (dqopt.cli.main)
    round_s: float  # reference seconds of timed solves per round
    cal_reps: int  # kernel passes per speed sample, 5% to 9% of a solve
    problems: tuple  # per round: (model, size, sigma); model is None for graphs
    tiny: tuple  # a minimal round for the smoke test


# Each round is built so that the median solve falls inside one class of
# problem: pose-graph rounds hold one size, and two thirds of a hand-eye
# round are AXXB calibrations (about 0.2 s; AXYB ones take 0.3 to 0.5 s).
WORKLOADS = {
    "handeye-batch": Workload(
        "handeye",
        4.7,
        1,
        tuple(
            (model, n, sigma)
            for model, noisy in (("axxb", 5), ("axyb", 2))
            for n in (10, 30)
            for sigma in (0.0,) + (SIGMA,) * noisy
        ),
        (("axxb", 4, 0.0), ("axxb", 4, SIGMA), ("axyb", 4, 0.0), ("axyb", 4, SIGMA)),
    ),
    "pgo-noisy": Workload("pgo", 2.9, 3, ((None, 20, SIGMA),) * 3, ((None, 6, SIGMA),)),
    "pgo-clean-cli": Workload("cli", 6.0, 6, ((None, 200, 0.0),) * 3, ((None, 8, 0.0),)),
}
WARMUP = {"handeye": ("axxb", 10, 0.0), "pgo": (None, 10, 0.0), "cli": (None, 10, 0.0)}


class Untraced:
    """Stands in for the tracer: same calls, records nothing."""

    @contextlib.contextmanager
    def span(self, name, solve_id):
        yield


def import_dqopt():
    sys.path.insert(0, SRC)
    import dqopt
    import dqopt.cli

    if not os.path.abspath(dqopt.__file__).startswith(SRC + os.sep):
        raise ImportError(f"dqopt resolved to {dqopt.__file__}, outside {SRC}")
    return dqopt


def plan(workload: Workload, seed: int, rounds: int, tiny: bool):
    """Problem specs with their generator keys, round by round."""
    per_round = workload.tiny if tiny else workload.problems
    return [(spec, (seed, r, k)) for r in range(rounds) for k, spec in enumerate(per_round)]


def generate(spec, key):
    """Inputs for one problem: (dataset dict or graph text, truths, sigma)."""
    # numpy and the modules using it load here, not at the top of the file,
    # so that setup_s includes the import cost that dqopt brings.
    import inputs

    model, size, sigma = spec
    rng = inputs.seeded_rng(*key)
    if model is None:
        text, truths = inputs.cycle_graph(size, sigma, rng)
        return text, truths, sigma
    data, truths = inputs.handeye_dataset(model, size, sigma, rng)
    return data, truths, sigma


def prepare(dq, kind, raw, workdir, tracer):
    """Hand the generated inputs to dqopt: everything before the solves."""
    problems = []
    with tracer.span("bench.prepare", -1):
        for i, (data, truths, sigma) in enumerate(raw):
            p = {"truths": truths, "sigma": sigma}
            if kind == "handeye":
                ds = dq.HandEyeDataset.from_json_dict(data)
                p["dataset"] = ds
                p["problem"] = dq.build_axxb(ds) if ds.model == "axxb" else dq.build_axyb(ds)
                p["initial"] = None
            elif kind == "pgo":
                graph = dq.parse_graph(data)
                p["graph"] = graph
                p["problem"] = dq.build_pgo(graph)
                p["initial"] = [
                    dq.DualQuaternion(u.std, u.dual) for u in dq.spanning_tree_guess(graph)
                ]
            else:
                os.makedirs(workdir, exist_ok=True)
                p["path"] = os.path.join(workdir, f"graph-{i}.txt")
                p["out"] = os.path.join(workdir, f"report-{i}.json")
                with open(p["path"], "w", encoding="utf-8") as fh:
                    fh.write(data)
            problems.append(p)
    return problems


def solve(dq, kind, p):
    """One timed solve: (seconds, report or None, error text or None)."""
    if kind == "cli":
        argv = ["solve-pgo", "--in", p["path"], "--out", p["out"],
                "--restarts", str(PGO_RESTARTS), "--threads", "1"]
        chatter = io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(chatter), contextlib.redirect_stderr(chatter):
                code = dq.cli.main(argv)
        except Exception as e:  # cli.main only catches DqoptError; any other raise fails
            return time.perf_counter() - t0, None, f"{type(e).__name__}: {e}"
        dt = time.perf_counter() - t0
        if code != 0:
            return dt, None, f"exit code {code}: {chatter.getvalue().strip()}"
        return dt, None, None
    restarts = HANDEYE_RESTARTS if kind == "handeye" else PGO_RESTARTS
    cfg = dq.SolverConfig(restarts=restarts, seed=0, threads=1)
    t0 = time.perf_counter()
    try:
        report = dq.solve_eqdqo(p["problem"], cfg, initial=p["initial"])
    except Exception as e:  # any raise is a failed solve, recorded with its reason
        return time.perf_counter() - t0, None, f"{type(e).__name__}: {e}"
    return time.perf_counter() - t0, report, None


def examine(dq, kind, p, report):
    """Solution arrays, the program's own errors, and winning iterations."""
    import numpy as np

    if kind == "cli":
        with open(p["out"], encoding="utf-8") as fh:
            data = json.load(fh)
        sol = [(np.array(e["std"]), np.array(e["dual"])) for e in data["solution"]]
        reported = [(e["rotation_error"], e["translation_error"]) for e in data["errors"]]
        return sol, reported, data["iterations"]
    sol = [(x.std.as_array(), x.dual.as_array()) for x in report.solution]
    values = list(report.solution)
    if kind == "handeye":
        if p["dataset"].model == "axyb":
            e = dq.evaluate_solution(p["dataset"], values[0], values[1])
            reported = [(e["rotation_error_x"], e["translation_error_x"]),
                        (e["rotation_error_y"], e["translation_error_y"])]
        else:
            e = dq.evaluate_solution(p["dataset"], values[0])
            reported = [(e["rotation_error_x"], e["translation_error_x"])]
    else:
        reported = [(e["rotation_error"], e["translation_error"])
                    for e in dq.vertex_errors(p["graph"], values)]
    return sol, reported, report.iterations


class Tally:
    """Times, accuracy, failures and digest of a sequence of checked solves."""

    def __init__(self, problems):
        self.times, self.rot, self.trans, self.failures = [], [], [], []
        self.ref = []  # the times in reference seconds
        self.outer1 = self.outer2 = 0
        self.digest = hashlib.sha256()
        # Accuracy metrics come from noisy solves; a workload without any
        # reports its noiseless recovery, which sits at the ERR_FLOOR.
        self.any_noisy = any(p["sigma"] > 0.0 for p in problems)

    def solve_and_check(self, dq, kind, sid, p, label, tracer, clock):
        import check

        with tracer.span("bench.solve", sid):
            dt, report, error = solve(dq, kind, p)
        self.times.append(dt)
        self.ref.append(clock.after_step(dt))
        with tracer.span("bench.check", sid):
            if error is None:
                try:
                    sol, reported, iters = examine(dq, kind, p, report)
                except Exception as e:  # an unreadable or unevaluable answer fails the solve
                    error = f"answer not readable: {type(e).__name__}: {e}"
            if error is None:
                rot, trans, error = check.check_solution(sol, p["truths"], p["sigma"], reported)
                self.outer1 += iters["stage1"]
                self.outer2 += iters["stage2"]
                check.digest_update(self.digest, sol)
                if error is None and (p["sigma"] > 0.0 or not self.any_noisy):
                    # The anchored vertex 1 of a pose graph is exact by construction.
                    skip = 0 if kind == "handeye" else 1
                    self.rot.extend(rot[skip:])
                    self.trans.extend(trans[skip:])
        if error is not None:
            self.failures.append(f"{label}: {error}")
            self.digest.update(b"failed")


@dataclass
class Prepared:
    """What set-up leaves for the timed solves."""

    dq: object
    workload: Workload
    raw: list
    problems: list
    labels: list
    rounds: int
    seconds: float  # set-up time


def setup(name: str, seed: int, seconds: int, tiny: bool, workdir: str, trace: bool) -> Prepared:
    """Import, generate, prepare and warm up."""
    t0 = time.perf_counter()
    dq = import_dqopt()
    wl = WORKLOADS[name]
    rounds = 1 if tiny else max(1, round(seconds / wl.round_s))
    if trace:
        rounds = math.ceil(rounds / 2)
    specs = plan(wl, seed, rounds, tiny)
    raw = [generate(spec, key) for spec, key in specs]
    problems = prepare(dq, wl.kind, raw, workdir, Untraced())
    warm = prepare(dq, wl.kind, [generate(WARMUP[wl.kind], (seed, 2**31))],
                   os.path.join(workdir, "warm-up"), Untraced())
    solve(dq, wl.kind, warm[0])
    elapsed = time.perf_counter() - t0
    labels = [f"round {key[1]} {spec[0] or 'graph'} n={spec[1]} sigma={spec[2]:g}"
              for spec, key in specs]
    return Prepared(dq, wl, raw, problems, labels, rounds, elapsed)


def fresh_setup_seconds(args, clock) -> float:
    """Set-up time of a new process running the same set-up, in reference seconds."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-only"]
    if args.tiny:
        cmd.append("--tiny")
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=170, check=True)
    return clock.after_step(float(out.stdout.strip().splitlines()[-1]))


def median_or_floor(values) -> float:
    return max(statistics.median(values), ERR_FLOOR) if values else ERR_FLOOR


def rms_or_floor(values) -> float:
    return max(math.sqrt(math.fsum(v * v for v in values) / len(values)), ERR_FLOOR) if values else ERR_FLOOR


def end_to_end(base: Tally, setups):
    return {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (math.fsum(base.ref), "s"),
        "solve_s.p50": (statistics.median(base.ref), "s"),
        # Rotation errors are gated at 10 sigma, so their root mean square
        # has no unbounded tail, and it repeats from seed to seed more
        # closely than their median, which falls between the hand-eye
        # classes (10 and 30 motions, AXXB and AXYB).  Translation errors
        # are not gated and have a heavy tail (ROADMAP item 4): the median.
        "rot_err.rms": (rms_or_floor(base.rot), "rad"),
        "trans_err.p50": (median_or_floor(base.trans), "1"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def per_layer(tracer, base: Tally, traced: Tally, rounds: int, factor: float):
    """Per-round layer metrics; span seconds are scaled by the run's speed factor."""
    self_s, calls = tracer.layer_totals()
    self_s = {layer: seconds * factor for layer, seconds in self_s.items()}
    out = {}
    for layer in ("posegraph.residual", "functions.objective", "functions.constraint"):
        out[f"{layer}.calls"] = (calls.get(layer, 0) / rounds, "count")
        out[f"{layer}.self_s"] = (self_s.get(layer, 0.0) / rounds, "s")
    out["solver.self_s"] = (self_s.get("solver", 0.0) / rounds, "s")
    out["solver.kkt_s"] = (self_s.get("solver.kkt", 0.0) / rounds, "s")
    out["solver.outer.stage1"] = (traced.outer1 / rounds, "count")
    out["solver.outer.stage2"] = (traced.outer2 / rounds, "count")
    for layer in ("handeye.build", "handeye.errors", "posegraph.parse", "posegraph.build",
                  "posegraph.guess", "posegraph.errors"):
        out[f"{layer}_s"] = (self_s.get(layer, 0.0) / rounds, "s")
    out["algebra.calls"] = (calls.get("algebra", 0) / rounds, "count")
    out["algebra.self_s"] = (self_s.get("algebra", 0.0) / rounds, "s")
    out["cli.self_s"] = (self_s.get("cli", 0.0) / rounds, "s")
    overhead = math.fsum(traced.ref) - math.fsum(base.ref)
    out["trace.overhead_s"] = (overhead / rounds, "s")
    return out


def run_traced(name: str, st: Prepared, workdir: str, base: Tally, clock):
    """Solve each problem untraced and traced, back to back.

    Both solves of a problem then see the same machine conditions, and the
    order alternates so that neither side gains from going second.
    """
    import spans

    dq, kind = st.dq, st.workload.kind
    tracer = spans.Tracer()
    traced = Tally(st.problems)
    with tracer.installed(dq):
        traced_problems = prepare(dq, kind, st.raw, workdir, tracer)
    for sid, (p, tp) in enumerate(zip(st.problems, traced_problems)):
        if sid % 2:
            base.solve_and_check(dq, kind, sid, p, st.labels[sid], Untraced(), clock)
        with tracer.installed(dq):
            traced.solve_and_check(dq, kind, sid, tp, st.labels[sid], tracer, clock)
        if not sid % 2:
            base.solve_and_check(dq, kind, sid, p, st.labels[sid], Untraced(), clock)
    if traced.digest.digest() != base.digest.digest():
        traced.failures.append("traced answers differ from untraced answers")
    factor = clock.factor()
    metrics = per_layer(tracer, base, traced, st.rounds, factor)
    path = os.path.join(OUT, f"spans-{name}.npz")
    tracer.save(path)
    print(f"spans: {len(tracer.start)} written to {os.path.relpath(path, ROOT)}")
    assembly = metrics["posegraph.residual.self_s"][0] + metrics["functions.objective.self_s"][0]
    share = assembly * st.rounds / (factor * math.fsum(traced.times))
    print(f"assembly (posegraph.residual + functions.objective self time): "
          f"{100 * share:.1f}% of traced solve time, "
          f"{'a majority' if share > 0.5 else 'not a majority'}")
    return metrics, traced


def run(args, workdir) -> dict:
    st = setup(args.workload, args.seed, args.seconds, args.tiny, workdir, bool(args.trace))
    print(f"workload {args.workload}  seed {args.seed}  rounds {st.rounds}  "
          f"solves {len(st.problems)}  trace {args.trace}")
    print("BLAS threads pinned: " + " ".join(f"{k}={v}" for k, v in BLAS_THREADS.items()))
    import speed

    clock = speed.Clock(st.workload.cal_reps)
    base = Tally(st.problems)
    tallies = [base]
    if args.trace:
        metrics, traced = run_traced(args.workload, st, workdir, base, clock)
        tallies.append(traced)
    else:
        # The fresh set-ups are spread evenly between the solves, so that
        # their median spans the run.
        setups = []
        for sid, p in enumerate(st.problems):
            if len(setups) < SETUP_SAMPLES and sid >= len(setups) * len(st.problems) / SETUP_SAMPLES:
                setups.append(fresh_setup_seconds(args, clock))
            base.solve_and_check(st.dq, st.workload.kind, sid, p, st.labels[sid], Untraced(), clock)
        while len(setups) < SETUP_SAMPLES:
            setups.append(fresh_setup_seconds(args, clock))
        print(f"set-up samples (reference s): {' '.join(f'{x:.4f}' for x in setups)}  "
              f"(this process: {st.seconds:.4f} s measured)")
        metrics = end_to_end(base, setups)
    print(f"machine speed: kernel {statistics.median(clock.samples) * 1e3:.2f} ms median "
          f"over {len(clock.samples)} samples (reference {speed.REF_S * 1e3:g} ms); "
          f"timed solves {math.fsum(base.times):.4f} s measured, "
          f"{math.fsum(base.ref):.4f} reference s")
    attempted = sum(len(t.times) for t in tallies)
    failures = [f for t in tallies for f in t.failures]
    for name, (value, unit) in metrics.items():
        note = ""
        if name == "solve_s.p50":
            note = f"  (n={len(base.times)})"
        elif name in ("rot_err.rms", "trans_err.p50"):
            note = f"  (n={len(base.rot)} estimates)"
        elif name == "setup_s":
            note = f"  (median of {SETUP_SAMPLES} fresh-process set-ups)"
        print(f"  {name:<30} {value:.6g} {unit}{note}")
    if base.rot:
        print(f"  worst estimate: rotation {max(base.rot):.3g} rad, "
              f"translation {max(base.trans):.3g}")
    print(f"  {'fail_ratio':<30} {len(failures) / attempted:.6g} 1  "
          f"({len(failures)} of {attempted} failed)")
    for f in failures:
        print(f"  FAILED {f}")
    print(f"solutions digest sha256:{base.digest.hexdigest()}")
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="one minimal round (smoke test)")
    ap.add_argument("--setup-only", action="store_true",
                    help="time one set-up, print its seconds and exit (setup_s samples)")
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")
    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="work-", dir=OUT)
    try:
        if args.setup_only:
            print(setup(args.workload, args.seed, args.seconds, args.tiny, workdir, False).seconds)
            return 0
        result = run(args, workdir)
    except ImportError as e:
        print(f"error: cannot import dqopt from {SRC}: {e}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
