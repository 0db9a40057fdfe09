"""One SHA-256 over the outputs of a fixed set of ``dqopt`` CLI solves.

Usage::

    PYTHONPATH=src python3 scripts/cli_fingerprint.py [--out DIR] [--expect HASH]

The solves are ``solve-handeye`` on AXXB and AXYB data at noise 0 and
0.01, and ``solve-pgo`` on a noisy 20-vertex, a clean 60-vertex and a
noisy 60-vertex cycle graph, each with ``--csv``.  The noisy 60-vertex
graph has 177 tangent directions, so its stage-I steps and stage-II solve
run on sparse matrices.  The noisy AXYB input and the noisy 20-vertex
graph are solved again with ``--max-outer 3``, which stops stage I at its
step cap.
The generated inputs, the JSON reports with
``wall_time_ms`` removed (the only field that changes between reruns) and
the CSV traces are written to ``DIR`` (a new temporary directory by
default).  ``solve-pgo`` also runs on malformed graphs, one per parse
check plus a structure error after a value error and two bad lines; each
graph and a ``.stderr`` file with the exit code and the error message go
to ``DIR`` too.  The hash covers every file there, by name and content.  Two
checkouts give the same hash exactly when their CLI outputs are
byte-identical apart from the timing field.  Each file's own SHA-256 is
printed to stderr in ``sha256sum`` format, so when the combined hash of two
checkouts differs, diffing those lines shows which solve moved.  With
``--expect HASH`` the script exits 1, naming both hashes on stderr, when the
combined hash is not ``HASH``; stdout is the same either way.  A
non-empty ``DIR``, or one that exists as a file, is a usage error: the
script exits 2 before any solve and prints no hash.  The script imports
whichever ``dqopt`` is first on ``PYTHONPATH`` and uses only the standard
library besides.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile

# One BLAS thread, as the benchmark runs, set before NumPy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

from dqopt.cli import main  # noqa: E402

HANDEYE = [
    ("axxb", 8, 0.0),
    ("axxb", 8, 0.01),
    ("axyb", 8, 0.0),
    ("axyb", 8, 0.01),
]
# (name, vertices, loop closures, noise, restarts)
GRAPHS = [
    ("pgo-noisy-20", 20, 6, 0.01, 2),
    ("pgo-clean-60", 60, 20, 0.0, 1),
    ("pgo-noisy-60", 60, 20, 0.01, 2),
]
# Solves of generated inputs with stage I capped at 3 steps:
# (input name, input suffix, command, restarts)
CAPPED = [
    ("axyb-0.01", ".data.json", "solve-handeye", 8),
    ("pgo-noisy-20", ".graph", "solve-pgo", 2),
]

# A valid 3-vertex graph in two halves.  A malformed graph puts its first
# bad line between them and its second, if any, at the end.
BASE = (
    "VERTEX 1 1.0 0.0 0.0 0.0 0.0 0.0 0.0\n"
    "EDGE 1 2 1.0 0.0 0.0 0.0 1.0 0.0 0.0\n",
    "EDGE 2 3 1.0 0.0 0.0 0.0 0.0 1.0 0.0\n"
    "# TRUTH 2 1.0 0.0 0.0 0.0 1.0 0.0 0.0\n",
)
# (name, bad line, ...)
BAD_GRAPHS = [
    ("record-type", "FOO 1 2"),
    ("edge-tokens", "EDGE 1 3 1 0 0 0 0 0"),
    ("vertex-tokens", "VERTEX 3 1 0 0 0 0 0 0 0"),
    ("truth-fields", "# TRUTH 3 1 0 0 0 0 0"),
    ("id-integer", "EDGE 1 3.0 1 0 0 0 0 0 0"),
    ("id-64-bit", "VERTEX 12345678901234567890 1 0 0 0 0 0 0"),
    ("id-positive", "EDGE 0 3 1 0 0 0 0 0 0"),
    ("self-loop", "EDGE 3 3 1 0 0 0 0 0 0"),
    ("not-a-number", "EDGE 1 3 1 0 0 0 1,5 0 0"),
    ("not-finite", "# TRUTH 3 1 0 0 0 nan 0 0"),
    ("rotation-norm", "EDGE 1 3 0.5 0.5 0.5 0.6 0 0 0"),
    ("structure-after-value", "VERTEX 3 1 0 0 0 inf 0 0", "EDGE 1 3 1 0 0 0"),
    ("two-bad-lines", "VERTEX 3 2 0 0 0 0 0 0", "EDGE 3 0 1 0 0 0 0 0 0"),
]


def _run(argv: list[str]) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    if code != 0:
        raise SystemExit(f"dqopt {' '.join(argv)} exited with {code}")


def _strip_timing(path: str) -> None:
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    del data["wall_time_ms"]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(data, indent=2) + "\n")


def run_all(out: str) -> None:
    """Generate the inputs and run every solve, writing into ``out``."""
    for model, motions, noise in HANDEYE:
        name = os.path.join(out, f"{model}-{noise:g}")
        _run(["gen-handeye", "--model", model, "--motions", str(motions),
              "--noise-rot", str(noise), "--noise-trans", str(noise),
              "--seed", "3", "--out", name + ".data.json"])
        _run(["solve-handeye", "--in", name + ".data.json", "--restarts", "8",
              "--out", name + ".report.json", "--csv", name + ".trace.csv"])
        _strip_timing(name + ".report.json")
    for label, vertices, chords, noise, restarts in GRAPHS:
        name = os.path.join(out, label)
        _run(["gen-pgo", "--vertices", str(vertices), "--loop-closures", str(chords),
              "--noise-rot", str(noise), "--noise-trans", str(noise),
              "--seed", "5", "--out", name + ".graph"])
        _run(["solve-pgo", "--in", name + ".graph", "--restarts", str(restarts),
              "--out", name + ".report.json", "--csv", name + ".trace.csv"])
        _strip_timing(name + ".report.json")
    for label, suffix, command, restarts in CAPPED:
        name = os.path.join(out, label)
        _run([command, "--in", name + suffix, "--restarts", str(restarts), "--max-outer", "3",
              "--out", name + "-capped.report.json", "--csv", name + "-capped.trace.csv"])
        _strip_timing(name + "-capped.report.json")


def run_malformed(out: str) -> None:
    """Run ``solve-pgo`` on every malformed graph, writing each one's exit code and stderr."""
    for label, *bad in BAD_GRAPHS:
        name = os.path.join(out, f"bad-{label}")
        with open(name + ".graph", "w", encoding="utf-8") as fh:
            fh.write(BASE[0] + bad[0] + "\n" + BASE[1] + "".join(b + "\n" for b in bad[1:]))
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(["solve-pgo", "--in", name + ".graph", "--restarts", "1"])
        with open(name + ".stderr", "w", encoding="utf-8") as fh:
            fh.write(f"exit {code}\n{err.getvalue()}")


def digest(out: str) -> str:
    """One SHA-256 over every file in ``out``; each file's own goes to stderr."""
    h = hashlib.sha256()
    for fname in sorted(os.listdir(out)):
        with open(os.path.join(out, fname), "rb") as fh:
            content = fh.read()
        print(f"{hashlib.sha256(content).hexdigest()}  {fname}", file=sys.stderr)
        h.update(fname.encode() + b"\0" + str(len(content)).encode() + b"\0" + content)
    return h.hexdigest()


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--out", default=None, metavar="DIR",
                   help="empty or new directory for the outputs (default: a temporary one)")
    p.add_argument("--expect", default=None, metavar="HASH",
                   help="exit 1 unless the combined hash equals HASH")
    args = p.parse_args(argv)
    if args.out and os.path.exists(args.out):
        if not os.path.isdir(args.out):
            p.error(f"{args.out} is not a directory")
        if os.listdir(args.out):
            p.error(f"{args.out} is not empty")
    return args


if __name__ == "__main__":
    args = parse_args()
    out = args.out or tempfile.mkdtemp(prefix="cli_fingerprint_")
    os.makedirs(out, exist_ok=True)
    run_all(out)
    run_malformed(out)
    print(f"outputs in {out}", file=sys.stderr)
    combined = digest(out)
    print(combined)
    if args.expect is not None and combined != args.expect:
        raise SystemExit(f"fingerprint mismatch: got {combined}, expected {args.expect}")
