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
the shift and the hopping are ``lam^2 G_00`` and ``lam^2 G_0R`` at ``eps0``,
ring image included; the band back-action is one term per mode.  Each
doublet function takes one separation and returns one pair.  The band has
one rule, ``_half_ring``, which :func:`band_energies` and the thermal
kernel both read.
"""

from __future__ import annotations

import math

from .lattice import SymmetricSystem, _edge_safe_root, _ring_column, _ring_entry, _separations

__all__ = [
    "band_energies",
    "symmetric_spectrum_ksum",
    "symmetric_spectrum_closed",
]


def _half_ring(sys: SymmetricSystem, m: float):
    """``(multiplicity, b_n - m)`` for the band modes ``n = 0 .. N``, one at a time.

    ``b_n = Omega_n - eps0 + 2 g^2 / (Omega_n - eps0)`` is the shifted level
    of the mode ``k_n = 2 pi n / (2N + 1)``, from the offset ``Omega_n - eps0
    = -(delta + 2 J cos k_n)``.  The mode ``n`` and its partner ``-n`` share
    it, so each ``n >= 1`` counts twice.
    """
    delta, width, ns = sys.delta, 2.0 * sys.J, sys.num_sites
    shift, turn, cos = 2.0 * (sys.lam ** 2 / ns), 2.0 * math.pi, math.cos
    multiplicity = 1.0
    for n in range(sys.N + 1):
        offset = -(delta + width * cos(turn * n / ns))
        yield multiplicity, offset + shift / offset - m
        multiplicity = 2.0


def band_energies(sys: SymmetricSystem) -> tuple[float, ...]:
    """Shifted band levels ``Omega_k - eps0 + 2 g^2 / (Omega_k - eps0)``, one per ring mode.

    Modes run ``n = -N .. N``; each ``-n`` takes the level of ``n``.
    """
    half = [level for _, level in _half_ring(sys, 0.0)]
    return (*reversed(half[1:]), *half)


def symmetric_spectrum_ksum(sys: SymmetricSystem, R: int) -> tuple[float, float]:
    """Doublet levels ``(E_plus, E_minus)`` from ``eps0`` on the finite ring, at ``1 <= R <= N``.

    The doublet follows from diagonalising the effective two-level problem;
    since the levels are identical the eigenvectors are the even and odd
    combinations and the splitting is twice the mediated hopping.  The mode
    sums for the shift and the hopping are ``lam^2 G_00`` and ``lam^2 G_0R``,
    read off one column ``g_n = -G_0n`` of the ring's Green's function
    (``lattice._ring_column``), to full relative precision at every ``R``, as
    the thermal kernel's ``m -+ h_R`` (:func:`_doublet_halves`).  This is the
    finite-``N`` reference that the closed forms approximate; the band it
    shifts is :func:`band_energies`.
    """
    m, (h,) = _doublet_halves(sys, _separations(R, upper=sys.N))
    return m - h, m + h


def _doublet_halves(sys: SymmetricSystem, seps: range) -> tuple[float, list[float]]:
    """Doublet mean ``m = -lam^2 g_0`` and half-splittings ``h_R = lam^2 g_R``, ``R`` in ``seps``.

    The doublet at ``R`` is ``(m - h_R, m + h_R)``, the levels of
    :func:`symmetric_spectrum_ksum`; the mean and the half-splitting are
    kept apart, so that a difference of two ``h`` never cancels against
    ``m``.  The column is cut one site past the last separation.
    """
    column, lam_sq = _ring_column(sys, 0.0, stop=seps[-1] + 1), sys.lam ** 2
    return -lam_sq * column[0], [lam_sq * _ring_entry(column, r) for r in seps]


def symmetric_spectrum_closed(sys: SymmetricSystem, R: int) -> tuple[float, float]:
    """Closed-form doublet levels ``(E_plus, E_minus)`` from ``eps0``, large-``N`` limit.

    Evaluated at separation ``R``, ``1 <= R <= N``.  ``E_plus`` (even
    combination) is the lower level for ``delta < 0``.  The odd level's ``1 -
    q^R`` is ``-expm1(R log1p(-(1 - q)))`` on the edge-safe ``1 - q``, which
    keeps its digits as ``q -> 1``, or exactly 1.0 once ``1 - q`` rounds to 1.
    At ``a = 0`` the band is flat, ``q = 0``, and the doublet is degenerate
    at ``lam**2 / delta``.
    """
    _separations(R, upper=sys.N)
    root, one_minus_q = _edge_safe_root(sys)
    base = sys.lam ** 2 / (sys.delta * root)
    odd = -math.expm1(R * math.log1p(-one_minus_q)) if one_minus_q < 1.0 else 1.0
    return base * (1.0 + sys.q ** R), base * odd
