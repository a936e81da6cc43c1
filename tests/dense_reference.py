"""Dense single-electron Hamiltonian, the reference the secular-equation oracle is checked against.

Building the full ``(2N + 3)``-square matrix and diagonalising it with numpy
is O(N^3) and needs O(N^2) memory, so it lives here, in the tests, for small
chains only.
"""

import numpy as np

from chaincp.lattice import ChainParams, SymmetricSystem, _check_separation


def dense_hamiltonian(chain: ChainParams, eps1: float, eps2: float,
                      lambda0: float, lambda_r: float, R: int) -> np.ndarray:
    """The ring plus two side-coupled impurities, as a dense symmetric matrix.

    Impurity 1 has level ``eps1`` and couples with ``lambda0`` to site 0;
    impurity 2 has level ``eps2`` and couples with ``lambda_r`` to site
    ``R``, ``1 <= R <= N``.  Basis order is ``(imp1, imp2, site -N, ...,
    site N)``.
    """
    _check_separation(R, chain.N)
    n_sites = chain.num_sites
    h = np.zeros((n_sites + 2, n_sites + 2))
    h[0, 0] = eps1
    h[1, 1] = eps2

    ring = np.arange(2, n_sites + 2)  # chain site j sits at row 2 + (j + N)
    h[ring, ring] = chain.omega
    right = np.roll(ring, -1)  # includes the periodic bond between sites N and -N
    h[ring, right] = -chain.J
    h[right, ring] = -chain.J

    site0 = 2 + chain.N
    h[0, site0] = h[site0, 0] = lambda0
    h[1, site0 + R] = h[site0 + R, 1] = lambda_r
    return h


def symmetric_hamiltonian(sys: SymmetricSystem, R: int) -> np.ndarray:
    """:func:`dense_hamiltonian` for identical impurities ``R`` sites apart."""
    return dense_hamiltonian(sys.chain, sys.eps0, sys.eps0, sys.lam, sys.lam, R)


def dense_ground_energy(sys: SymmetricSystem, R: int) -> float:
    """Lowest eigenvalue of :func:`symmetric_hamiltonian`."""
    return float(np.linalg.eigvalsh(symmetric_hamiltonian(sys, R))[0])
