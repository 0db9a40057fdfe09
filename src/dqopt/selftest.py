"""Seeded verification suites behind the ``selftest`` command.

Four suites probe the properties the rest of the package leans on:
conjugation and magnitude identities of the algebra, the axioms of the
total order on dual numbers, standardness of randomly composed function
trees and of the application objectives, and analytic gradients against
central differences.  Every suite is deterministic for a given seed and
returns a list of named check results.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import DualNumber, DualQuaternion, DualQuaternionVector, Quaternion, UnitDualQuaternion
from .functions import (
    AffineResidual,
    DualFunction,
    ResidualNormObjective,
    UnitNormConstraint,
    check_standardness,
    combine,
    compose_unit,
    gradient_check,
    map_power,
    normalize_map,
    scalar_power,
    squared_distance_objective,
    unit_exp,
    unit_log,
    variable_map,
)
from .handeye import build_axxb, build_axyb, generate_synthetic
from .posegraph import build_pgo, generate_cycle_graph

__all__ = [
    "CheckResult",
    "algebra_suite",
    "order_suite",
    "standardness_suite",
    "gradient_suite",
    "run_all",
]


@dataclass(frozen=True)
class CheckResult:
    """One named check with a human-readable detail line."""

    name: str
    passed: bool
    detail: str


def _random_dq(rng: np.random.Generator) -> DualQuaternion:
    c = rng.standard_normal(8)
    return DualQuaternion(Quaternion(*c[:4]), Quaternion(*c[4:]))


def _dq_gap(a: DualQuaternion, b: DualQuaternion) -> float:
    return float(
        max(
            np.max(np.abs(a.std.as_array() - b.std.as_array())),
            np.max(np.abs(a.dual.as_array() - b.dual.as_array())),
        )
    )


# ---------------------------------------------------------------------------
# Algebra identities


def algebra_suite(seed: int = 0, n_pairs: int = 1000) -> list[CheckResult]:
    """Product identities on random dual quaternion pairs.

    Checks, over ``n_pairs`` draws with standard normal coefficients:
    the conjugation anti-automorphism, multiplicativity of the magnitude,
    two-sided inverses, closure of the unit set under multiplication, and
    the exp/log round trip on unit elements.
    """
    rng = np.random.default_rng(seed)
    tol = 1e-10
    worst_conj = 0.0
    worst_mag = 0.0
    worst_inv = 0.0
    worst_unit = 0.0
    worst_exp = 0.0
    skipped_inv = 0
    for _ in range(n_pairs):
        p = _random_dq(rng)
        q = _random_dq(rng)

        lhs = (p * q).conjugate()
        rhs = q.conjugate() * p.conjugate()
        worst_conj = max(worst_conj, _dq_gap(lhs, rhs))

        mp = p.magnitude()
        mq = q.magnitude()
        mpq = (p * q).magnitude()
        prod = mp * mq
        worst_mag = max(worst_mag, abs(mpq.std - prod.std), abs(mpq.dual - prod.dual))

        # A nearly null standard part makes the inverse ill conditioned and
        # the 1e-10 budget meaningless; such draws are vanishingly rare.
        if p.std.norm() > 1e-3:
            worst_inv = max(
                worst_inv, _dq_gap(p * p.inverse(), DualQuaternion.identity())
            )
        else:
            skipped_inv += 1

        u1 = _random_unit(rng)
        u2 = _random_unit(rng)
        raw = DualQuaternion(u1.std, u1.dual) * DualQuaternion(u2.std, u2.dual)
        worst_unit = max(worst_unit, raw.unit_deviation())

        v = unit_exp(unit_log(u1))
        worst_exp = max(
            worst_exp,
            _dq_gap(DualQuaternion(v.std, v.dual), DualQuaternion(u1.std, u1.dual)),
        )
    return [
        CheckResult(
            "algebra-conjugate-antiautomorphism",
            worst_conj <= tol,
            f"worst gap {worst_conj:.3e} over {n_pairs} pairs",
        ),
        CheckResult(
            "algebra-magnitude-multiplicative",
            worst_mag <= tol,
            f"worst gap {worst_mag:.3e} over {n_pairs} pairs",
        ),
        CheckResult(
            "algebra-two-sided-inverse",
            worst_inv <= tol,
            f"worst gap {worst_inv:.3e} over {n_pairs - skipped_inv} pairs",
        ),
        CheckResult(
            "algebra-unit-product-closure",
            worst_unit <= tol,
            f"worst unit deviation {worst_unit:.3e} over {n_pairs} products",
        ),
        CheckResult(
            "algebra-exp-log-roundtrip",
            worst_exp <= tol,
            f"worst gap {worst_exp:.3e} over {n_pairs} units",
        ),
    ]


def _random_unit(rng: np.random.Generator) -> UnitDualQuaternion:
    # Rotation angle bounded away from 0 and 2 pi keeps the screw
    # logarithm well conditioned for the round-trip check.
    axis = rng.standard_normal(3)
    axis = axis / np.linalg.norm(axis)
    half = rng.uniform(0.1, 1.4)
    rot = Quaternion(float(np.cos(half)), *(float(np.sin(half)) * axis))
    t = Quaternion(0.0, *rng.standard_normal(3))
    return UnitDualQuaternion.from_pose(rot, t)


# ---------------------------------------------------------------------------
# Order axioms


def _lattice_dn(rng: np.random.Generator) -> DualNumber:
    return DualNumber(float(rng.integers(-2, 3)), float(rng.integers(-2, 3)))


def _continuous_dn(rng: np.random.Generator) -> DualNumber:
    return DualNumber(float(rng.standard_normal()), float(rng.standard_normal()))


def order_suite(seed: int = 0, n_triples: int = 1000) -> list[CheckResult]:
    """Total-order axioms on random dual number triples.

    Half the triples are drawn from a small integer lattice so that equal
    standard parts, exact ties, and exact sums actually occur.  Comparison
    axioms run on every triple; the arithmetic compatibility laws
    (translation and positive scaling) run on the lattice triples only,
    where float rounding cannot collapse a strict gap.
    """
    rng = np.random.default_rng(seed)
    ok_total = True
    ok_antisym = True
    ok_trans = True
    ok_shift = True
    ok_scale = True
    n_exact = 0
    for _ in range(n_triples):
        exact = rng.random() < 0.5
        draw = _lattice_dn if exact else _continuous_dn
        a, b, c = draw(rng), draw(rng), draw(rng)

        for u, v in ((a, b), (b, c), (a, c), (a, a)):
            s = u.compare(v)
            ok_total &= s in (-1, 0, 1)
            ok_total &= v.compare(u) == -s
            ok_total &= (u < v) == (s < 0) and (u <= v) == (s <= 0)
        ok_antisym &= not (a <= b and b <= a) or a.compare(b) == 0
        if a <= b and b <= c:
            ok_trans &= a <= c
        if a < b and b <= c:
            ok_trans &= a < c

        if exact:
            n_exact += 1
            if a < b:
                ok_shift &= a + c < b + c
            w = DualNumber(float(rng.integers(1, 3)), float(rng.integers(-2, 3)))
            if a < b:
                ok_scale &= a * w < b * w
    return [
        CheckResult(
            "order-totality",
            ok_total,
            f"comparison signs consistent over {n_triples} triples",
        ),
        CheckResult(
            "order-antisymmetry",
            ok_antisym,
            f"mutual <= implies equality over {n_triples} triples",
        ),
        CheckResult(
            "order-transitivity",
            ok_trans,
            f"chained comparisons over {n_triples} triples",
        ),
        CheckResult(
            "order-translation-invariance",
            ok_shift,
            f"strict order preserved under addition on {n_exact} exact triples",
        ),
        CheckResult(
            "order-positive-scaling",
            ok_scale,
            f"strict order preserved under appreciable positive factors"
            f" on {n_exact} exact triples",
        ),
    ]


# ---------------------------------------------------------------------------
# Standardness of composed functions


def _random_leaf(rng: np.random.Generator, arity: int) -> DualFunction:
    kind = int(rng.integers(0, 4))
    i = int(rng.integers(0, arity))
    if kind == 0:
        return variable_map(arity, i).magnitude()
    if kind == 1:
        return map_power(variable_map(arity, i), int(rng.integers(2, 4))).magnitude()
    if kind == 2:
        return compose_unit(
            lambda u: unit_log(u).magnitude(),
            normalize_map(variable_map(arity, i)),
            validate=False,
            declared_standard=True,
        )
    picks = sorted(rng.permutation(arity)[: int(rng.integers(1, arity + 1))].tolist())
    one = np.array([[[1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0]]])
    jac = np.concatenate([AffineResidual.jacobians(arity, 1, [(one, j, one)]) for j in picks], 1)
    stack = AffineResidual.stack_arrays(jac[0], jac[1], np.zeros((len(picks), 2, 4)))
    return ResidualNormObjective(arity, stack, [len(picks)])


def _random_tree(rng: np.random.Generator, arity: int, depth: int) -> DualFunction:
    if depth <= 0 or rng.random() < 0.35:
        return _random_leaf(rng, arity)
    if rng.random() < 0.2:
        return scalar_power(_random_tree(rng, arity, depth - 1), int(rng.integers(2, 4)))
    op = ("sum", "product", "min", "max")[int(rng.integers(0, 4))]
    return combine(
        _random_tree(rng, arity, depth - 1), _random_tree(rng, arity, depth - 1), op
    )


def standardness_suite(
    seed: int = 0, n_trees: int = 50, n_samples: int = 100
) -> list[CheckResult]:
    """Dual-part independence of the standard value.

    Builds ``n_trees`` random compositions of magnitudes, normalized
    logarithms, residual norms, powers, and pointwise combiners, then
    probes each with re-randomized dual coordinates.  The two hand-eye
    objectives, the pose-graph objective and the 2-norm of a vector of
    three dual quaternions get the same probe.
    """
    rng = np.random.default_rng(seed)
    results = []
    for k in range(n_trees):
        arity = int(rng.integers(1, 4))
        fn = _random_tree(rng, arity, depth=3)
        rep = check_standardness(
            fn, n_samples=n_samples, seed=int(rng.integers(2**31)), tol=1e-12
        )
        results.append(
            CheckResult(
                f"standardness-tree-{k:02d}",
                rep.passed,
                f"arity {arity}, max std delta {rep.max_std_delta:.3e}",
            )
        )

    apps = [
        ("standardness-axxb-objective", build_axxb(generate_synthetic("axxb", 5, seed=101)).objective, None),
        ("standardness-axyb-objective", build_axyb(generate_synthetic("axyb", 6, seed=202)).objective, None),
        ("standardness-pgo-objective", build_pgo(generate_cycle_graph(6, loop_closures=2, seed=303)).objective, None),
        ("standardness-norm2", lambda v: DualQuaternionVector(v).norm2(), 3),
    ]
    for name, fn, arity in apps:
        rep = check_standardness(
            fn, arity, n_samples=n_samples, seed=int(rng.integers(2**31)), tol=1e-12
        )
        results.append(
            CheckResult(name, rep.passed, f"max std delta {rep.max_std_delta:.3e}")
        )
    return results


# ---------------------------------------------------------------------------
# Gradients


def _worst_gradient_error(fn: DualFunction, points, step: float = 1e-5) -> float:
    worst = 0.0
    for z in points:
        rep = gradient_check(fn, z, step=step, tol=np.inf)
        worst = max(worst, rep.max_rel_error_std, rep.max_rel_error_dual)
    return worst


def gradient_suite(seed: int = 0, n_points: int = 10) -> list[CheckResult]:
    """Analytic gradients against central differences.

    Smooth toys, a unit constraint and both application objectives (a
    hand-eye and a pose-graph one) check their exact gradients.
    """
    rng = np.random.default_rng(seed)
    tol = 1e-5
    results = []

    center = _random_dq(rng)
    quad = squared_distance_objective(center)
    pts1 = [rng.standard_normal(8) for _ in range(n_points)]
    results.append(_grad_result("gradient-squared-distance", quad, pts1, tol))

    tree = combine(
        squared_distance_objective(_random_dq(rng), arity=2, index=0),
        scalar_power(squared_distance_objective(_random_dq(rng), arity=2, index=1), 2),
        "product",
    )
    pts2 = [rng.standard_normal(16) for _ in range(n_points)]
    results.append(_grad_result("gradient-combined-tree", tree, pts2, tol))

    unit = UnitNormConstraint(2, 1)
    results.append(_grad_result("gradient-unit-constraint", unit, pts2, tol))

    he = build_axxb(generate_synthetic("axxb", 5, seed=404)).objective
    pts_he = [rng.standard_normal(8) for _ in range(n_points)]
    pg = build_pgo(generate_cycle_graph(5, loop_closures=1, seed=505)).objective
    pts_pg = [rng.standard_normal(8 * pg.arity) for _ in range(n_points)]
    for name, obj, pts in (("handeye", he, pts_he), ("pgo", pg, pts_pg)):
        results.append(_grad_result(f"gradient-{name}-exact", obj, pts, tol))
    return results


def _grad_result(name: str, fn: DualFunction, points, tol: float) -> CheckResult:
    worst = _worst_gradient_error(fn, points)
    return CheckResult(
        name, worst <= tol, f"worst rel err {worst:.3e} over {len(points)} points"
    )


# ---------------------------------------------------------------------------


def run_all(seed: int = 0) -> dict[str, list[CheckResult]]:
    """All four suites keyed by name, in a fixed order; ``ValueError`` for a negative seed."""
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    return {
        "algebra": algebra_suite(seed),
        "order": order_suite(seed),
        "standardness": standardness_suite(seed),
        "gradient": gradient_suite(seed),
    }
