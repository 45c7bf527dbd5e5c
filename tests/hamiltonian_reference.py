"""H(x, p) = |p|^2 - V(x), the Hamiltonian dual to the package's running cost
L = |v|^2/4 + V, for the tests that need H itself."""

import numpy as np


def hamiltonian(spec, x, p):
    """H at points x, p of shape (..., d), or scalars when d = 1; broadcasts.
    V is periodic, so x need not lie in [0, 1)^d."""
    p = np.atleast_1d(np.asarray(p, dtype=float))
    val = np.sum(p * p, axis=-1) - spec.potential(x)
    return val if val.shape else float(val)
