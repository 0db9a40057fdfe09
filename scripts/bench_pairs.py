"""Alternating parent/change runs of ``perfbench/run.py``, written to one ``BENCH_<label>.json``.

Usage::

    python3 scripts/bench_pairs.py --parent REV_OR_DIR --change REV_OR_DIR \\
        --label NAME --workload handeye-batch [--workload ...] \\
        --seeds 101 307 --pairs 5 [--seconds 22] [--trace 0] [--tiny] \\
        [--out PATH] [--what TEXT] [--machine TEXT] [--not-included TEXT]

Each side is a directory holding a checkout (``perfbench/run.py`` and
``src/``), or a git revision of this repository, which is exported with
``git archive`` into a temporary directory, so only committed files run.
For every workload and seed the script runs ``--pairs`` pairs; the first
pair runs the parent first, and each later pair swaps the order, so a
drift of the machine's speed does not favour one side.  Every run is the
checkout's own ``perfbench/run.py``, unmodified, in a fresh process with
the checkout as its working directory.

The output (``BENCH_<label>.json`` in the current directory by default)
holds every run with the ``solutions digest`` it printed and its final JSON
line, and a summary per workload, seed, trace and metric: the median and
quartiles (``statistics.quantiles``, ``n=4``) of each side, rounded to 6
digits, and the number of pairs in which the change is lower or higher.
With more than one seed, each workload also gets a summary over all of
them, with ``"seed": "all"``.  The script exits 1 when a run fails or
prints no result, after writing what it has.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tarfile
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _checkout(spec: str, into: str) -> tuple[str, str | None]:
    """``(directory, commit)`` of a side: the directory itself, or a revision exported there."""
    if os.path.isdir(spec):
        return os.path.abspath(spec), None
    commit = subprocess.run(["git", "rev-parse", "--verify", spec + "^{commit}"], cwd=ROOT,
                            capture_output=True, text=True, check=True).stdout.strip()
    archive = os.path.join(into, commit + ".tar")
    subprocess.run(["git", "archive", "--format=tar", "-o", archive, commit], cwd=ROOT, check=True)
    target = os.path.join(into, commit)
    with tarfile.open(archive) as tar:
        tar.extractall(target, filter="data")
    os.remove(archive)
    return target, commit


def _run(checkout: str, workload: str, seed: int, seconds: int, trace: int, tiny: bool) -> dict:
    """One ``perfbench/run.py`` run: its digest and final JSON line, or its failure."""
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    if tiny:
        cmd.append("--tiny")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    out = subprocess.run(cmd, cwd=checkout, env=env, capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    digest = next((line.split("sha256:", 1)[1] for line in lines
                   if line.startswith("solutions digest sha256:")), None)
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = None
    if out.returncode or result is None:
        return {"solutions_digest": digest, "result": None,
                "error": f"exit {out.returncode}: {out.stderr.strip()[-500:]}"}
    return {"solutions_digest": digest, "result": result}


def _quartiles(values: list[float]) -> list[float]:
    """``[median, q1, q3]`` rounded to 6 digits; one value stands for all three."""
    if len(values) == 1:
        return [round(values[0], 6)] * 3
    q1, _, q3 = statistics.quantiles(values, n=4)
    return [round(statistics.median(values), 6), round(q1, 6), round(q3, 6)]


def summarize(runs: list[dict]) -> list[dict]:
    """Per workload, seed, trace and metric: both sides' quartiles and the change's wins."""
    seeds: dict[str, set] = {}
    for run in runs:
        seeds.setdefault(run["workload"], set()).add(run["seed"])
    groups: dict[tuple, dict[tuple, dict[str, dict]]] = {}
    for run in runs:
        if run["result"] is None:
            continue
        keys = [(run["workload"], run["seed"], run["trace"])]
        if len(seeds[run["workload"]]) > 1:
            keys.append((run["workload"], "all", run["trace"]))
        for key in keys:
            pair = (run["seed"], run["pair"])
            groups.setdefault(key, {}).setdefault(pair, {})[run["side"]] = run["result"]["metrics"]
    summary = []
    for (workload, seed, trace), pairs in groups.items():
        complete = [p for p in pairs.values() if set(p) == {"parent", "change"}]
        if not complete:
            continue
        for metric, first in complete[0]["parent"].items():
            parent = [p["parent"][metric]["value"] for p in complete]
            change = [p["change"][metric]["value"] for p in complete]
            summary.append({
                "workload": workload, "seed": seed, "trace": trace, "metric": metric,
                "unit": first["unit"], "pairs": len(complete),
                "parent_median_q1_q3": _quartiles(parent),
                "change_median_q1_q3": _quartiles(change),
                "change_lower_in_pairs": sum(c < p for p, c in zip(parent, change)),
                "change_higher_in_pairs": sum(c > p for p, c in zip(parent, change)),
            })
    return summary


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="checkout directory or git revision")
    ap.add_argument("--change", required=True, help="checkout directory or git revision")
    ap.add_argument("--label", required=True, help="names the output BENCH_<label>.json")
    ap.add_argument("--workload", action="append", required=True)
    ap.add_argument("--seeds", type=int, nargs="+", required=True)
    ap.add_argument("--pairs", type=int, required=True, help="pairs per workload and seed")
    ap.add_argument("--seconds", type=int, default=22)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="one minimal round per run (smoke test)")
    ap.add_argument("--out", default=None, help="output path (default BENCH_<label>.json)")
    ap.add_argument("--what", default="", help="what the runs compare")
    ap.add_argument("--machine", default="", help="the machine and software the runs used")
    ap.add_argument("--not-included", default="", help="runs made but left out, and why")
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")
    out_path = args.out or f"BENCH_{args.label}.json"

    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
        sides = {side: _checkout(getattr(args, side), tmp) for side in ("parent", "change")}
        command = ("python3 perfbench/run.py --workload <workload> --seed <seed> "
                   f"--seconds {args.seconds} --trace {args.trace}" + (" --tiny" if args.tiny else ""))
        runs, failed = [], 0
        for workload in args.workload:
            for seed in args.seeds:
                for pair in range(args.pairs):
                    order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
                    for position, side in enumerate(order):
                        run = _run(sides[side][0], workload, seed, args.seconds, args.trace,
                                   args.tiny)
                        failed += run["result"] is None or run["result"]["failed"] > 0
                        runs.append({"workload": workload, "seed": seed, "trace": args.trace,
                                     "pair": pair, "side": side, "order_in_pair": position, **run})
                        print(f"{workload} seed {seed} pair {pair} {side}: "
                              f"{run.get('error') or run['result']['metrics']}", flush=True)
        report = {
            "what": args.what,
            "command": command,
            "parent_commit": sides["parent"][1],
            "change_commit": sides["change"][1],
            "machine": args.machine,
            "not_included": args.not_included,
            "summary": summarize(runs),
            "runs": runs,
        }
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")
    print(f"wrote {out_path}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
