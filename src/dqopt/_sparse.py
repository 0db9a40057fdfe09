"""The package's only SciPy imports: sparse matrices and their LU solve.

Nothing imports this module when the package loads, and no dense solve
does.  The solver imports it inside its sparse branches, past
``_DENSE_MAX`` fiber directions, and the pose-graph edge evaluators when
they form a CSR Jacobian for a single point on such a fiber.
``dqopt solve-pgo`` imports it before reading the graph, so the solve's
``wall_time_ms`` leaves it out.  ``spsolve`` loads here too, so a problem's
first sparse solve does not pay again for loading ``scipy.sparse.linalg``.
"""

from scipy import sparse
from scipy.sparse.linalg import spsolve

__all__ = ["sparse", "spsolve"]
