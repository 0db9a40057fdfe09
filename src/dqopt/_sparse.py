"""The package's only SciPy imports: sparse matrices and their LU solve.

Only large problems reach them: the pose-graph layer, which builds CSR
Jacobians, imports this module when it loads, and the solver imports it
inside its sparse branches, taken past ``_DENSE_MAX`` fiber directions.
Hand-eye calibration and every other dense solve run on NumPy alone.
``spsolve`` loads here too, with the pose-graph layer, so that the first
sparse solve does not pay for loading ``scipy.sparse.linalg``.
"""

from scipy import sparse
from scipy.sparse.linalg import spsolve

__all__ = ["sparse", "spsolve"]
