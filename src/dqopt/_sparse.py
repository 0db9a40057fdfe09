"""The package's only SciPy imports: sparse matrices and their LU solve.

Nothing imports this module when the package loads.  The pose-graph
residual stack, which can return a CSR Jacobian, imports it when it is
built, and the solver inside its sparse branches, past ``_DENSE_MAX``
fiber directions.  Hand-eye work and pose-graph files run on NumPy alone.
``spsolve`` loads here too, so a pose-graph problem's first sparse solve
does not pay for loading ``scipy.sparse.linalg``.
"""

from scipy import sparse
from scipy.sparse.linalg import spsolve

__all__ = ["sparse", "spsolve"]
