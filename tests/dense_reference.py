"""Dense single-electron Hamiltonian, the reference the secular-equation oracle is checked against.

Building the full ``(2N + 3)``-square matrix and diagonalising it with numpy
is O(N^3) and needs O(N^2) memory, so it lives here, in the tests, for small
chains only.  A bisection of the secular equation summed over the ring
modes, in momentum space, lives here too, and so does the band as numpy
arrays: the modes, the offsets from ``eps0``, the shifted levels and their
Boltzmann weights, each one vectorised expression, for the package's
one-mode-at-a-time band to be held to bit for bit.
"""

import math

import numpy as np

from chaincp._ring import _doublet_halves
from chaincp.lattice import SymmetricSystem, _separation


def dense_hamiltonian(ring: SymmetricSystem, eps1: float, eps2: float,
                      lambda0: float, lambda_r: float, R: int) -> np.ndarray:
    """The ring plus two side-coupled impurities, as a dense symmetric matrix.

    Only the ring of ``ring`` (``omega``, ``J``, ``N``) enters.  Impurity 1 has level ``eps1`` and couples with ``lambda0`` to site 0;
    impurity 2 has level ``eps2`` and couples with ``lambda_r`` to site
    ``R``, ``1 <= R <= N``.  Basis order is ``(imp1, imp2, site -N, ...,
    site N)``.
    """
    _separation(R, upper=ring.N)
    n_sites = ring.num_sites
    h = np.zeros((n_sites + 2, n_sites + 2))
    h[0, 0] = eps1
    h[1, 1] = eps2

    sites = np.arange(2, n_sites + 2)  # chain site j sits at row 2 + (j + N)
    h[sites, sites] = ring.omega
    right = np.roll(sites, -1)  # includes the periodic bond between sites N and -N
    h[sites, right] = -ring.J
    h[right, sites] = -ring.J

    site0 = 2 + ring.N
    h[0, site0] = h[site0, 0] = lambda0
    h[1, site0 + R] = h[site0 + R, 1] = lambda_r
    return h


def symmetric_hamiltonian(sys: SymmetricSystem, R: int) -> np.ndarray:
    """:func:`dense_hamiltonian` for identical impurities ``R`` sites apart."""
    return dense_hamiltonian(sys, sys.eps0, sys.eps0, sys.lam, sys.lam, R)


def dense_ground_energy(sys: SymmetricSystem, R: int) -> float:
    """Lowest eigenvalue of :func:`symmetric_hamiltonian`."""
    return float(np.linalg.eigvalsh(symmetric_hamiltonian(sys, R))[0])


def ring_modes(sys: SymmetricSystem) -> np.ndarray:
    """Allowed momenta ``2 pi n / (2N + 1)`` for ``n = -N .. N``."""
    return 2.0 * np.pi * np.arange(-sys.N, sys.N + 1) / sys.num_sites


def ring_dispersion(sys: SymmetricSystem, modes: np.ndarray) -> np.ndarray:
    """Band energies ``omega - 2 J cos k``."""
    return sys.omega - 2.0 * sys.J * np.cos(modes)


def band_offsets(sys: SymmetricSystem, modes: np.ndarray) -> np.ndarray:
    """Band energies from the impurity level, ``Omega_k - eps0 = -(delta + 2 J cos k)``."""
    return -(sys.delta + 2.0 * sys.J * np.cos(modes))


def shifted_band(sys: SymmetricSystem) -> np.ndarray:
    """Shifted band levels ``Omega_k - eps0 + 2 g^2 / (Omega_k - eps0)``, in mode order."""
    offsets = band_offsets(sys, ring_modes(sys))
    return offsets + 2.0 * (sys.lam ** 2 / sys.num_sites) / offsets


def ensemble(sys: SymmetricSystem, T: float, R: int) -> tuple[np.ndarray, np.ndarray]:
    """``(energies, weights)`` of the doublet and :func:`shifted_band` at ``T > 0``."""
    _separation(R, upper=sys.N)
    m, (h,) = _doublet_halves(sys, range(R, R + 1))
    energies = np.concatenate(((m - h, m + h), shifted_band(sys)))
    shifted = np.exp(-(1.0 / T) * (energies - energies.min()))
    return energies, shifted / math.fsum(shifted.tolist())


def scalar_ground_energy(sys: SymmetricSystem, R: int) -> float:
    """The secular root at one separation, as the offset ``x = E0 - eps0``,
    by a scalar bisection.

    The secular function sums over the ``2N + 1`` ring modes, a momentum
    space route to the level the oracle finds in real space.  Its root lies
    in ``[-2|lam|, 0]``; bisection runs down to adjacent floats and returns
    the end with the smaller residual.
    """
    modes = ring_modes(sys)
    band = band_offsets(sys, modes)
    weights = sys.lam ** 2 * (1.0 + np.cos(R * modes)) / sys.num_sites

    def secular(x: float) -> float:
        return x - float(np.sum(weights / (x - band)))

    lo, hi = -2.0 * abs(sys.lam), 0.0
    f_lo, f_hi = secular(lo), secular(hi)
    if not f_lo <= 0.0 <= f_hi:
        raise ValueError(f"secular equation does not change sign at R={R}, N={sys.N}")
    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        f_mid = secular(mid)
        if f_mid <= 0.0:
            lo, f_lo = mid, f_mid
        else:
            hi, f_hi = mid, f_mid
    return lo if -f_lo <= f_hi else hi
