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
ring image included, from ``_ring``; the band back-action is one term per
mode.  Each doublet function takes one separation and returns one pair.
The band has one rule, ``_band_runs``, which yields its levels in runs of
consecutive modes; :func:`band_energies` and the thermal kernel both read
it.
"""

from __future__ import annotations

import math

from ._ring import _doublet_halves
from .lattice import SymmetricSystem, _decay_power, _edge_safe_root, _log_q, _separation


#: Modes per run of :func:`_band_runs`: long enough that a run's sums cost
#: little per mode, short enough that its lists stay a few tens of KB.
_RUN = 512


def _band_runs(sys: SymmetricSystem, m: float):
    """``(multiplicity, [b_n - m, ..])`` for the band modes ``n = 0 .. N``, in runs.

    ``b_n = Omega_n - eps0 + 2 g^2 / (Omega_n - eps0)`` is the shifted level
    of the mode ``k_n = 2 pi n / (2N + 1)``, from the offset ``Omega_n - eps0
    = -(delta + 2 J cos k_n)``.  The mode ``n`` and its partner ``-n`` share
    it, so mode 0 comes first, alone, counted once, and then every ``n >= 1``
    counts twice, in runs of :data:`_RUN` consecutive modes.
    """
    delta, width, ns = sys.delta, 2.0 * sys.J, sys.num_sites
    shift, turn, cos = 2.0 * (sys.lam ** 2 / ns), 2.0 * math.pi, math.cos

    def levels(modes: range) -> list[float]:
        return [(offset := -(delta + width * cos(turn * n / ns))) + shift / offset - m
                for n in modes]

    yield 1.0, levels(range(1))
    for start in range(1, sys.N + 1, _RUN):
        yield 2.0, levels(range(start, min(start + _RUN, sys.N + 1)))


def band_energies(sys: SymmetricSystem) -> tuple[float, ...]:
    """Shifted band levels ``Omega_k - eps0 + 2 g^2 / (Omega_k - eps0)``, one per ring mode.

    Modes run ``n = -N .. N``; each ``-n`` takes the level of ``n``.
    """
    half = [level for _, run in _band_runs(sys, 0.0) for level in run]
    return (*reversed(half[1:]), *half)


def symmetric_spectrum_ksum(sys: SymmetricSystem, R: int) -> tuple[float, float]:
    """Doublet levels ``(E_plus, E_minus)`` from ``eps0`` on the finite ring, at ``1 <= R <= N``.

    The doublet follows from diagonalising the effective two-level problem;
    since the levels are identical the eigenvectors are the even and odd
    combinations and the splitting is twice the mediated hopping.  The mode
    sums for the shift and the hopping are ``lam^2 G_00`` and ``lam^2 G_0R``,
    read off one column ``g_n = -G_0n`` of the ring's Green's function
    (``_ring._ring_column``), to full relative precision at every ``R``, as
    the thermal kernel's ``m -+ h_R`` (``_ring._doublet_halves``).  This is
    the finite-``N`` reference that the closed forms approximate; the band it
    shifts is :func:`band_energies`.
    """
    _separation(R, upper=sys.N)
    m, (h,) = _doublet_halves(sys, range(R, R + 1))
    return m - h, m + h


def symmetric_spectrum_closed(sys: SymmetricSystem, R: int) -> tuple[float, float]:
    """Closed-form doublet levels ``(E_plus, E_minus)`` from ``eps0``, large-``N`` limit.

    Evaluated at separation ``R``, ``1 <= R <= N``.  ``E_plus`` (even
    combination) is the lower level for ``delta < 0``.  The odd level's ``1 -
    q^R`` is ``-expm1(R ln q)``, with ``ln q`` from ``lattice._log_q``, so it
    keeps its digits as ``q -> 1``.  At ``a = 0`` the band is flat, ``ln q =
    -inf`` makes it exactly 1.0, and the doublet is degenerate at ``lam**2 /
    delta``.  The even level's ``q^R`` is ``lattice._decay_power``.
    """
    _separation(R, upper=sys.N)
    base = sys.lam ** 2 / (sys.delta * _edge_safe_root(sys)[0])
    return base * (1.0 + _decay_power(sys, R)), base * -math.expm1(R * _log_q(sys))
