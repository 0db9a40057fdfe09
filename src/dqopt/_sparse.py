"""The package's only SciPy imports: sparse matrices and their LU solve.

Nothing imports this module when the package loads, and no dense solve
does.  The solver imports it inside its sparse branches, past
``_DENSE_MAX`` fiber directions, and the pose-graph edge evaluators when
the solver asks their ``jacobian(sparse)`` for a CSR matrix there.
Stage I forms no Jacobian at a point whose rows all weigh 0, so a
noiseless start loads none of it.  ``dqopt solve-pgo`` loads it as a
library process does, at the solve's first sparse step, so that step's
``wall_time_ms`` counts it.  ``spsolve`` loads here too, so a problem's
first sparse solve does not pay again for loading ``scipy.sparse.linalg``.
"""

from scipy import sparse
from scipy.sparse.linalg import spsolve

__all__ = ["sparse", "spsolve"]
