"""Spans around dqopt's public functions and methods, installed from outside.

Inside ``with tracer.installed(dq):`` each traced function or method is
replaced by a wrapper that records one span per call: name, start, end,
parent span and solve id.  Leaving the block restores the originals, so
untraced solves execute dqopt unchanged.  Spans are kept in flat arrays
while the run lasts and turned into per-layer self times and call counts
afterwards.
"""

from __future__ import annotations

import sys
import time
from array import array
from contextlib import contextmanager

import numpy as np

# Functions by the top-level ``dqopt`` name they are exported under; the
# wrapper replaces every module-level reference inside the package, so calls
# through ``from .x import y`` imports are traced too.
FUNCTIONS = (
    ("solver", "solve_eqdqo"),
    ("solver.kkt", "kkt_analysis"),
    ("handeye.build", "build_axxb"),
    ("handeye.build", "build_axyb"),
    ("handeye.errors", "evaluate_solution"),
    ("posegraph.parse", "parse_graph"),
    ("posegraph.build", "build_pgo"),
    ("posegraph.guess", "spanning_tree_guess"),
    ("posegraph.errors", "vertex_errors"),
)


def _methods(dq):
    anchor = type(dq.anchor_constraints(1, 0, dq.DualQuaternion.identity())[0])
    return (
        ("algebra", dq.Quaternion, ("__mul__", "__rmul__", "conjugate")),
        ("algebra", dq.DualQuaternion, ("__mul__", "__rmul__", "conjugate")),
        ("algebra", dq.UnitDualQuaternion, ("__mul__", "conjugate", "inverse", "canonicalized")),
        (
            "functions.objective",
            dq.ResidualNormObjective,
            ("stage1_value_grad", "stage2_value_grad", "value_at", "gradient_at", "branch_flags"),
        ),
        ("functions.constraint", dq.UnitNormConstraint, ("fast_rows", "gradient_at")),
        ("functions.constraint", anchor, ("fast_rows", "gradient_at")),
        ("posegraph.residual", dq.RelativePoseResidual, ("rows",)),
    )


class Tracer:
    """Records spans while installed; ``span`` also marks the benchmark's own steps."""

    def __init__(self):
        self.names: list[str] = []
        self.layers: list[str] = []
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("i")
        self.solve = array("i")
        self.stack = [-1]
        self.solve_id = -1
        self._ids: dict[tuple[str, str], int] = {}
        self._restore: list[tuple[object, str, object]] = []

    def _intern(self, name: str, layer: str) -> int:
        key = (name, layer)
        if key not in self._ids:
            self._ids[key] = len(self.names)
            self.names.append(name)
            self.layers.append(layer)
        return self._ids[key]

    def _wrap(self, fn, name: str, layer: str):
        nid = self._intern(name, layer)
        start, end, names, parent, solve, stack = (
            self.start, self.end, self.name, self.parent, self.solve, self.stack
        )
        clock = time.perf_counter
        tracer = self

        # The bookkeeping is inlined, not shared with ``span``: this runs on
        # every traced call, up to a million times per run.
        def traced(*args, **kwargs):
            idx = len(start)
            parent.append(stack[-1])
            names.append(nid)
            solve.append(tracer.solve_id)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()

        return traced

    @contextmanager
    def span(self, name: str, solve_id: int):
        """A benchmark step as a root span; its dqopt calls become children."""
        self.solve_id = solve_id
        idx = len(self.start)
        self.parent.append(self.stack[-1])
        self.name.append(self._intern(name, "bench"))
        self.solve.append(solve_id)
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(time.perf_counter())
        try:
            yield
        finally:
            self.end[idx] = time.perf_counter()
            self.stack.pop()

    @contextmanager
    def installed(self, dq):
        """Wrappers in place for the duration of the block."""
        self.install(dq)
        try:
            yield
        finally:
            self.uninstall()

    def install(self, dq) -> None:
        modules = [m for k, m in sys.modules.items() if k == "dqopt" or k.startswith("dqopt.")]
        targets = [(layer, getattr(dq, name), name) for layer, name in FUNCTIONS]
        targets.append(("cli", dq.cli.main, "cli.main"))
        for layer, fn, name in targets:
            wrapped = self._wrap(fn, name, layer)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        self._restore.append((mod, attr, value))
                        setattr(mod, attr, wrapped)
        for layer, cls, attrs in _methods(dq):
            for attr in attrs:
                fn = cls.__dict__[attr]
                self._restore.append((cls, attr, fn))
                setattr(cls, attr, self._wrap(fn, f"{cls.__name__}.{attr}", layer))

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    def arrays(self) -> dict:
        return {
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
            "name": np.frombuffer(self.name, dtype=np.int32),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "solve": np.frombuffer(self.solve, dtype=np.int32),
        }

    def layer_totals(self) -> tuple[dict, dict]:
        """Self seconds and entry counts per layer.

        A span's self time is its duration minus its children's; a call
        counts when it enters the layer from a different layer, so a
        method calling another of the same layer counts once.
        """
        a = self.arrays()
        layer_names = sorted(set(self.layers))
        layer_of_name = np.array([layer_names.index(l) for l in self.layers], dtype=np.intp)
        dur = a["end"] - a["start"]
        parent = a["parent"]
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
        layer = layer_of_name[a["name"]]
        self_s = np.bincount(layer, weights=dur - child, minlength=len(layer_names))
        entry = ~has_parent
        entry[has_parent] = layer[parent[has_parent]] != layer[has_parent]
        calls = np.bincount(layer[entry], minlength=len(layer_names))
        return (
            {l: float(v) for l, v in zip(layer_names, self_s)},
            {l: int(v) for l, v in zip(layer_names, calls)},
        )

    def save(self, path: str) -> None:
        np.savez_compressed(
            path, names=np.array(self.names), layers=np.array(self.layers), **self.arrays()
        )
