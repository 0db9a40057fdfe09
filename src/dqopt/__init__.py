"""Dual quaternion optimization toolkit.

Layered API: ``algebra`` (dual numbers, quaternions, dual quaternions and
their total order), ``functions`` (dual-number-valued objectives with the
standardness probe and gradient checks), ``solver`` (the two-stage
equality-constrained minimizer), and the applications ``handeye`` and
``posegraph``.  The ``cli`` module exposes the same pipeline as the
``dqopt`` command.  The ``posegraph`` and ``selftest`` names load their
modules, and with them SciPy, on first use; the rest need NumPy alone.
"""

import importlib

from .algebra import (
    NORMALIZE_TOL,
    TOL_APPRECIABLE,
    TOL_UNIT,
    DualNumber,
    DualQuaternion,
    DualQuaternionVector,
    Quaternion,
    UnitDualQuaternion,
    dual_max,
    dual_min,
    random_unit_quaternion,
)
from .errors import (
    ArityMismatch,
    DisconnectedGraph,
    DqoptError,
    Infeasible,
    InfinitesimalSqrt,
    InvalidPose,
    NegativeStandardPart,
    NoGroundTruth,
    NonImaginaryTranslation,
    NonStandardProblem,
    NonUnitAxis,
    NonUnitMeasurement,
    NonUnitRotation,
    NonUnitValue,
    NotAppreciable,
    ParseError,
    TooFewMotions,
    UnitValidationError,
)
from .functions import (
    AffineResidual,
    ConstraintBlock,
    DualFunction,
    DualQuaternionMap,
    GradientReport,
    ResidualNormObjective,
    StandardnessReport,
    UnitNormConstraint,
    anchor_constraints,
    check_standardness,
    combine,
    compose_unit,
    fd_gradient,
    gradient_check,
    map_power,
    normalize_map,
    pack,
    scalar_power,
    squared_distance_objective,
    unit_exp,
    unit_log,
    unpack,
    variable_map,
)
from .solver import (
    EqdqoProblem,
    KktInfo,
    SolveReport,
    SolverConfig,
    TraceRow,
    kkt_analysis,
    solve_eqdqo,
)
from .handeye import (
    MIN_AXIS_SPREAD,
    HandEyeDataset,
    build_axxb,
    build_axyb,
    evaluate_solution,
    generate_synthetic,
    relative_motions,
    rotation_angle_between,
    spectral_start,
)
__version__ = "0.1.0"

__all__ = [
    "__version__",
    # algebra
    "TOL_APPRECIABLE",
    "TOL_UNIT",
    "NORMALIZE_TOL",
    "DualNumber",
    "Quaternion",
    "DualQuaternion",
    "UnitDualQuaternion",
    "DualQuaternionVector",
    "dual_min",
    "dual_max",
    "random_unit_quaternion",
    # errors
    "DqoptError",
    "NegativeStandardPart",
    "InfinitesimalSqrt",
    "NotAppreciable",
    "UnitValidationError",
    "NonUnitAxis",
    "NonUnitRotation",
    "NonImaginaryTranslation",
    "NonUnitValue",
    "ArityMismatch",
    "NonStandardProblem",
    "Infeasible",
    "InvalidPose",
    "TooFewMotions",
    "NoGroundTruth",
    "DisconnectedGraph",
    "NonUnitMeasurement",
    "ParseError",
    # functions
    "pack",
    "unpack",
    "DualFunction",
    "combine",
    "scalar_power",
    "DualQuaternionMap",
    "variable_map",
    "normalize_map",
    "map_power",
    "compose_unit",
    "unit_log",
    "unit_exp",
    "AffineResidual",
    "ResidualNormObjective",
    "UnitNormConstraint",
    "anchor_constraints",
    "ConstraintBlock",
    "squared_distance_objective",
    "StandardnessReport",
    "check_standardness",
    "GradientReport",
    "fd_gradient",
    "gradient_check",
    # solver
    "SolverConfig",
    "EqdqoProblem",
    "SolveReport",
    "TraceRow",
    "KktInfo",
    "solve_eqdqo",
    "kkt_analysis",
    # handeye
    "HandEyeDataset",
    "relative_motions",
    "build_axxb",
    "build_axyb",
    "spectral_start",
    "generate_synthetic",
    "evaluate_solution",
    "rotation_angle_between",
    "MIN_AXIS_SPREAD",
    # posegraph
    "PoseGraph",
    "edge_error",
    "error_vector",
    "RelativePoseResidual",
    "build_pgo",
    "spanning_tree_guess",
    "spanning_tree_rows",
    "parse_graph",
    "serialize_graph",
    "generate_cycle_graph",
    "vertex_errors",
    # selftest
    "CheckResult",
    "run_all",
]


#: Names served on first use by :func:`__getattr__`, with their module.
#: ``posegraph`` loads SciPy, and ``selftest`` loads ``posegraph``.
_LAZY = {
    name: module
    for module, names in (
        ("posegraph", ("posegraph", "PoseGraph", "RelativePoseResidual", "build_pgo",
                       "edge_error", "error_vector", "generate_cycle_graph", "parse_graph",
                       "serialize_graph", "spanning_tree_guess", "spanning_tree_rows",
                       "vertex_errors")),
        ("selftest", ("selftest", "CheckResult", "run_all")),
    )
    for name in names
}


def __getattr__(name: str):
    """A name of ``_LAZY``, imported from its module on first use (PEP 562)."""
    home = _LAZY.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f"{__name__}.{home}")  # binds the module's own name
    if name == home:
        return module
    value = globals()[name] = getattr(module, name)
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_LAZY))
