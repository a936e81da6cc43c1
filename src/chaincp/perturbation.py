"""Second-order effective couplings and the two-impurity spectrum.

Integrating out the band to second order in the tunnelling leaves an
effective two-level problem for the impurities: each level is shifted by

.. math:: \\sum_k \\frac{g_i^2}{\\epsilon_i - \\Omega_k},

and the band mediates a hopping between them,

.. math::

    t_{12} = \\sum_k \\frac{g_1 g_2\\, e^{-i k R}}{2}
             \\Big(\\frac{1}{\\epsilon_1 - \\Omega_k}
                 + \\frac{1}{\\epsilon_2 - \\Omega_k}\\Big),

with ``g_i = lambda_i / sqrt(2N + 1)``.  Each band mode picks up the
back-action shift ``g_1^2/(Omega_k - eps1) + g_2^2/(Omega_k - eps2)``.

For identical impurities the effective doublet diagonalises to
``E_pm = eps0 + shift +- |t_12|`` and the momentum sums collapse, in the
large-``N`` limit, to closed forms in the band parameter ``a = 2J/delta``:

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

from .lattice import (
    ChainParams,
    ImpurityConfig,
    SymmetricSystem,
    _check_separation,
    brillouin_modes,
    dispersion,
    require_valid_regime,
)

__all__ = [
    "EffectiveCoefficients",
    "SymmetricSpectrum",
    "effective_coefficients",
    "band_energies",
    "symmetric_spectrum_ksum",
    "symmetric_spectrum_closed",
]


@dataclass(frozen=True)
class EffectiveCoefficients:
    """Coefficients of the effective Hamiltonian after the band is traced out.

    Attributes
    ----------
    shift1, shift2 : float
        Second-order corrections to the impurity levels.
    hop12 : complex
        Band-mediated hopping from impurity 2 to impurity 1.
    band_shift : numpy.ndarray
        Per-mode back-action on the band energies, aligned with
        :func:`~chaincp.lattice.brillouin_modes`.
    """

    shift1: float
    shift2: float
    hop12: complex
    band_shift: np.ndarray


@dataclass(frozen=True)
class SymmetricSpectrum:
    """Second-order spectrum of the symmetric two-impurity problem.

    ``band`` is a ``(2N + 1, 2)`` array; column 0 holds the mode momentum,
    column 1 the shifted band energy.
    """

    e_plus: float
    e_minus: float
    band: np.ndarray


def effective_coefficients(
    chain: ChainParams, imps: ImpurityConfig, R: int
) -> EffectiveCoefficients:
    """Level shifts, mediated hopping, and band back-action for two impurities.

    Parameters
    ----------
    chain : ChainParams
    imps : ImpurityConfig
        Levels may differ; the configuration must pass
        :func:`~chaincp.lattice.require_valid_regime`.
    R : int
        Separation between the attachment sites, ``R >= 1``.

    Returns
    -------
    EffectiveCoefficients

    Raises
    ------
    RegimeViolation
        If a level is not below the band or the coupling is too strong.
    """
    _check_separation(R)
    require_valid_regime(chain, imps)
    modes = brillouin_modes(chain)
    energies = dispersion(chain, modes)
    ns = chain.num_sites

    g1sq = imps.lambda0 ** 2 / ns
    g2sq = imps.lambda_r ** 2 / ns
    inv1 = 1.0 / (imps.eps1 - energies)
    inv2 = 1.0 / (imps.eps2 - energies)

    shift1 = math.fsum(g1sq * inv1)
    shift2 = math.fsum(g2sq * inv2)

    g12 = imps.lambda0 * imps.lambda_r / ns
    mixed = 0.5 * g12 * (inv1 + inv2)
    phase = modes * R
    hop12 = complex(
        math.fsum(mixed * np.cos(phase)),
        math.fsum(-(mixed * np.sin(phase))),
    )

    band_shift = -(g1sq * inv1 + g2sq * inv2)
    return EffectiveCoefficients(
        shift1=shift1, shift2=shift2, hop12=hop12, band_shift=band_shift,
    )


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

    band = np.column_stack((modes, energies + 2.0 * gsq / (energies - sys.eps0)))
    return SymmetricSpectrum(e_plus=e_plus, e_minus=e_minus, band=band)


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
