"""Dual quaternion optimization toolkit.

Layered API: ``algebra`` (dual numbers, quaternions, dual quaternions and
their total order), ``functions`` (dual-number-valued objectives with the
standardness probe and gradient checks), ``solver`` (the two-stage
equality-constrained minimizer), and the applications ``handeye`` and
``posegraph``.  The ``cli`` module exposes the same pipeline as the
``dqopt`` command.  Importing the package, and building, solving and
evaluating every problem whose fiber is dense, need NumPy alone: SciPy
loads where a solve past 128 fiber directions (44 or more pose-graph
vertices) first forms a sparse matrix; an exact, noiseless start forms none.

Each public name is declared once, in its module's ``__all__``; the
package's ``__all__`` joins those lists in layer order.
"""

from . import algebra, errors, functions, solver, handeye, posegraph
from .algebra import *
from .errors import *
from .functions import *
from .solver import *
from .handeye import *
from .posegraph import *
from .selftest import CheckResult, run_all

__version__ = "0.1.0"

__all__ = [
    "__version__",
    *algebra.__all__,
    *errors.__all__,
    *functions.__all__,
    *solver.__all__,
    *handeye.__all__,
    *posegraph.__all__,
    "CheckResult",
    "run_all",
]
