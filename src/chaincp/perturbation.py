"""Second-order doublet and band energies for two identical impurities.

Integrating out the band to second order in the tunnelling leaves an
effective two-level problem for the impurities.  With
``g = lam / sqrt(2N + 1)``, each level is shifted by
``sum_k g^2 / (eps0 - Omega_k)`` and the band mediates a hopping
``t_12 = sum_k g^2 e^{-ikR} / (eps0 - Omega_k)`` between them, which is real
because the modes come in ``+-k`` pairs.  Each band mode picks up the
back-action shift ``2 g^2 / (Omega_k - eps0)``.

The effective doublet diagonalises to ``E_pm - eps0 = shift +- t_12``, and
the momentum sums collapse, in the large-``N`` limit, to closed forms in
the band parameter ``a = 2J/delta``:

.. math::

    E_\\pm - \\epsilon_0 = \\frac{\\lambda^2}{\\delta}
             \\frac{1}{\\sqrt{1 - a^2}} \\left(1 \\pm q^R\\right),
    \\qquad
    q = \\frac{\\sqrt{1 - a^2} - 1}{a} \\in [0, 1).

Every function returns levels measured from ``eps0``.  On the finite ring
the shift and the hopping are ``lam^2 G_00`` and ``lam^2 G_0R``, the ring's
Green's function at ``eps0``; the band back-action is one term per mode.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

from .lattice import SymmetricSystem, _band_offsets, _ring_column, _separations, brillouin_modes

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "band_energies",
    "symmetric_spectrum_ksum",
    "symmetric_spectrum_closed",
]


def band_energies(sys: SymmetricSystem) -> np.ndarray:
    """Shifted band levels ``Omega_k - eps0 + 2 g^2 / (Omega_k - eps0)``, one per ring mode."""
    offsets = _band_offsets(sys, brillouin_modes(sys))
    return offsets + 2.0 * (sys.lam ** 2 / sys.num_sites) / offsets


def symmetric_spectrum_ksum(sys: SymmetricSystem, R: int) -> tuple[float, float]:
    """Doublet levels ``(E_plus, E_minus)`` from ``eps0`` on the finite ring, at ``1 <= R <= N``.

    The doublet follows from diagonalising the effective two-level problem;
    since the levels are identical the eigenvectors are the even and odd
    combinations and the splitting is twice the mediated hopping.  The mode
    sums for the shift and the hopping are ``lam^2 G_00`` and ``lam^2 G_0R``,
    read off one column ``g_n = -G_0n`` of the ring's Green's function
    (``lattice._ring_column``), to full relative precision at every ``R``.
    This is the finite-``N`` reference that the closed forms approximate;
    the band it shifts is :func:`band_energies`.
    """
    _separations(R, upper=sys.N)
    g = _ring_column(sys, 0.0)
    lam_sq = sys.lam ** 2
    return -lam_sq * (g[0] + g[R]), -lam_sq * (g[0] - g[R])


def symmetric_spectrum_closed(sys: SymmetricSystem, R: int) -> tuple[float, float]:
    """Closed-form doublet levels ``(E_plus, E_minus)`` from ``eps0``, large-``N`` limit.

    Evaluated at separation ``R``, ``1 <= R <= N``.  ``E_plus`` (even
    combination) is the lower level for ``delta < 0``.
    At ``a = 0`` the band is flat, ``q = 0``, and the doublet is degenerate
    at ``lam**2 / delta``.
    """
    _separations(R, upper=sys.N)
    a = sys.a
    root = math.sqrt(1.0 - a * a)
    base = sys.lam ** 2 / (sys.delta * root)
    q_r = sys.q ** R
    return base * (1.0 + q_r), base * (1.0 - q_r)
