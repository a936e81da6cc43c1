"""Second-order doublet and band energies for two identical impurities.

Integrating out the band to second order in the tunnelling leaves an
effective two-level problem for the impurities.  With
``g = lam / sqrt(2N + 1)``, each level is shifted by
``sum_k g^2 / (eps0 - Omega_k)`` and the band mediates a hopping
``t_12 = sum_k g^2 e^{-ikR} / (eps0 - Omega_k)`` between them, which is real
because the modes come in ``+-k`` pairs.  Each band mode picks up the
back-action shift ``2 g^2 / (Omega_k - eps0)``.

The effective doublet diagonalises to ``E_pm = eps0 + shift +- t_12``, and
the momentum sums collapse, in the large-``N`` limit, to closed forms in
the band parameter ``a = 2J/delta``:

.. math::

    E_\\pm = \\epsilon_0 + \\frac{\\lambda^2}{\\delta}
             \\frac{1}{\\sqrt{1 - a^2}} \\left(1 \\pm q^R\\right),
    \\qquad
    q = \\frac{\\sqrt{1 - a^2} - 1}{a} \\in [0, 1).

All finite sums run over the ``2N + 1`` ring modes and are accumulated
with exact summation (`math.fsum`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .lattice import SymmetricSystem, _check_separation, brillouin_modes, dispersion

__all__ = [
    "SymmetricSpectrum",
    "band_energies",
    "symmetric_spectrum_ksum",
    "symmetric_spectrum_closed",
]


@dataclass(frozen=True)
class SymmetricSpectrum:
    """Second-order spectrum of the symmetric two-impurity problem.

    ``band`` is a ``(2N + 1, 2)`` array; column 0 holds the mode momentum,
    column 1 the shifted band energy.
    """

    e_plus: float
    e_minus: float
    band: np.ndarray


def band_energies(sys: SymmetricSystem) -> np.ndarray:
    """Shifted band energies ``Omega_k + 2 g^2 / (Omega_k - eps0)``.

    Returns a ``(2N + 1, 2)`` array of (momentum, energy) rows.
    """
    modes = brillouin_modes(sys.chain)
    energies = dispersion(sys.chain, modes)
    gsq = sys.lam ** 2 / sys.chain.num_sites
    shifted = energies + 2.0 * gsq / (energies - sys.eps0)
    return np.column_stack((modes, shifted))


def symmetric_spectrum_ksum(sys: SymmetricSystem, R: int) -> SymmetricSpectrum:
    """Doublet and band energies at separation ``R``, ``1 <= R <= N``, as mode sums.

    The doublet follows from diagonalising the effective two-level problem;
    since the levels are identical the eigenvectors are the even and odd
    combinations and the splitting is twice the mediated hopping.  This is
    the finite-``N`` reference that the closed forms approximate.
    """
    _check_separation(R, sys.chain.N)
    modes = brillouin_modes(sys.chain)
    energies = dispersion(sys.chain, modes)
    gsq = sys.lam ** 2 / sys.chain.num_sites
    inv = 1.0 / (sys.eps0 - energies)

    # The odd-in-k part of exp(-ikR) sums to zero because the modes come in
    # +-k pairs, so only the cosine survives.
    common = gsq * inv
    cos_r = np.cos(modes * R)
    e_plus = sys.eps0 + math.fsum(common * (1.0 + cos_r))
    e_minus = sys.eps0 + math.fsum(common * (1.0 - cos_r))

    return SymmetricSpectrum(e_plus=e_plus, e_minus=e_minus, band=band_energies(sys))


def symmetric_spectrum_closed(sys: SymmetricSystem, R: int) -> tuple[float, float]:
    """Closed-form doublet energies ``(E_plus, E_minus)`` in the large-``N`` limit.

    Evaluated at separation ``R``, ``1 <= R <= N``.  ``E_plus`` (even
    combination) is the lower level for ``delta < 0``.
    At ``a = 0`` the band is flat, ``q = 0``, and the doublet is degenerate
    at ``eps0 + lam**2 / delta``.
    """
    _check_separation(R, sys.chain.N)
    a = sys.a
    root = math.sqrt(1.0 - a * a)
    base = sys.lam ** 2 / (sys.delta * root)
    q_r = sys.q ** R
    return (sys.eps0 + base * (1.0 + q_r), sys.eps0 + base * (1.0 - q_r))
