"""Thermal averages over the single-electron spectrum.

One electron is shared between the doublet and the band, so the ensemble is
a straight Boltzmann average over the ``2N + 3`` single-electron levels:

.. math::

    E_T = \\frac{1}{Z} \\sum_n E_n e^{-E_n / T},
    \\qquad Z = \\sum_n e^{-E_n / T},

with the doublet ``-lam^2 (g_0 +- g_R)`` from the ring's Green's-function
column and the band from the same ring's shifted modes, so the temperature
dependence is exactly the competition between the split doublet and the band
states.  Every level is measured from ``eps0``, so the thermal force, the same
discrete difference used at zero temperature, differences offsets of order
``lam^2 / |delta|`` at ``T = 0`` rather than ``eps0``-sized energies,

.. math:: f_T(R) = -\\big(E_T(R + 1) - E_T(R)\\big).

Raising ``T`` moves weight from the even doublet state first onto its odd
partner and then into the band, and the band states' lack of ``R``
dependence makes the infinite-temperature force vanish.  ``|f_T(R)|``
falls with temperature once ``T`` exceeds the doublet splitting at ``R``.
Below that it can rise: the doublet at ``R + 1`` is split less, so its odd
level fills first and ``E_T(R + 1)`` climbs away from ``E_T(R)``.  fig5 at
``N = 100`` gives ``|f_T(1)|`` = 0.002778, 0.002938, 0.003078 and 0.001450
at ``T`` = 0, 0.001, 0.003 and 0.01.

Every energy and force comes from one table, :func:`thermal_table`, which
builds the levels once per system; :func:`thermal_energy`, :func:`thermal_force`
and the CLI's ``thermal-sweep`` all go through it or its one-ensemble kernel.

Weights are always computed from energies shifted by the spectrum minimum,
so they are safe at any temperature.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, NamedTuple

from .lattice import SymmetricSystem, _separations
from .perturbation import band_energies, symmetric_spectrum_ksum

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "ThermalEnsemble",
    "ThermalRow",
    "thermal_ensemble",
    "thermal_table",
    "thermal_energy",
    "thermal_force",
]

#: How far rounding can move a difference of two floats, in units of the
#: larger: a few ulp in each of the two terms.  It bounds the cancellation in
#: the force ``E_T(R) - E_T(R + 1)`` and the CLI's omega/delta agreement.
CANCEL_EPS = 4 * math.ulp(1.0)


class ThermalEnsemble(NamedTuple):
    """Boltzmann weights over the single-electron spectrum at one temperature.

    Attributes
    ----------
    energies : numpy.ndarray
        All ``2N + 3`` levels, measured from ``eps0``: the finite-ring
        ``e_plus`` and ``e_minus``, then the ``2N + 1`` shifted band modes.
    weights : numpy.ndarray
        Normalised populations aligned with :attr:`energies`.
    """

    energies: np.ndarray
    weights: np.ndarray


class ThermalRow(NamedTuple):
    """One row of :func:`thermal_table`: ``E_T(R)`` and ``f_T(R)``."""

    T: float
    R: int
    energy: float
    force: float


def _boltzmann(energies: np.ndarray, T: float) -> np.ndarray:
    """Normalised weights over ``energies`` at ``T``."""
    import numpy as np

    # ``not T >= 0`` so that NaN is refused too; ``math.inf`` stays legal
    if not T >= 0:
        raise ValueError(f"temperature must be non-negative, got T={T}")
    e_min = float(energies.min())
    if T == 0 or 1.0 / T == math.inf:
        # Limit distribution: all weight on the ground level, split evenly
        # across an exact degeneracy (the flat-band case).  A subnormal T
        # below ~5.6e-309 has beta = inf and takes it too, since
        # inf * 0 at the ground level would be NaN.
        ground = energies == e_min
        return ground / ground.sum()
    beta = 1.0 / T
    shifted = np.exp(-beta * (energies - e_min))
    return shifted / math.fsum(shifted.tolist())


def _ensemble(doublet: tuple[float, float], band: np.ndarray, T: float) -> ThermalEnsemble:
    """The ``doublet`` at one separation and the shifted ``band`` levels, weighted at ``T``."""
    import numpy as np

    energies = np.concatenate((doublet, band))
    return ThermalEnsemble(energies=energies, weights=_boltzmann(energies, T))


def _ensemble_energy(doublet: tuple[float, float], band: np.ndarray, T: float) -> float:
    """``E_T(R)``, the Boltzmann average over :func:`_ensemble`."""
    ens = _ensemble(doublet, band, T)
    return math.fsum((ens.weights * ens.energies).tolist())


def thermal_ensemble(sys: SymmetricSystem, T: float, R: int) -> ThermalEnsemble:
    """Populations of the doublet and band levels at temperature ``T``.

    Parameters
    ----------
    sys : SymmetricSystem
    T : float
        Temperature in the same units as the energies, ``T >= 0``
        (``math.inf`` is allowed and gives uniform weights).
    R : int
        Separation to evaluate at, ``1 <= R <= N``.
    """
    return _ensemble(symmetric_spectrum_ksum(sys, R), band_energies(sys), T)


def thermal_table(sys: SymmetricSystem, temperatures, R: range) -> tuple[ThermalRow, ...]:
    """Thermal energy and force for every temperature and every separation in ``R``.

    The band and the doublets, out to one site past the last separation,
    are built once; each ``(T, R)`` ensemble is built once and serves as the
    energy of row ``R`` and as the far end of the force of row ``R - 1``.
    Rows run over ``R`` within each temperature, in the order given.

    Parameters
    ----------
    sys : SymmetricSystem
    temperatures : sequence of float
        Each ``T >= 0``; ``math.inf`` is allowed.
    R : range
        Separations, a non-empty range with step 1, each
        ``1 <= R <= N - 1`` (the force at ``R`` needs ``R + 1``).
    """
    temps = [float(t) for t in temperatures]
    seps = _separations(R, upper=sys.N - 1)

    band = band_energies(sys)
    separations = range(seps[0], seps[-1] + 2)
    doublets = symmetric_spectrum_ksum(sys, separations)
    rows = []
    for t in temps:
        energies = [_ensemble_energy(doublet, band, t) for doublet in doublets]
        rows.extend(ThermalRow(T=t, R=r, energy=e, force=-(e_next - e))
                    for r, e, e_next in zip(separations, energies, energies[1:]))
    return tuple(rows)


def thermal_energy(sys: SymmetricSystem, T: float, R: int) -> float:
    """Ensemble average level from ``eps0`` at ``R``; exactly ``e_plus`` at ``T = 0``."""
    return _ensemble_energy(symmetric_spectrum_ksum(sys, R), band_energies(sys), T)


def thermal_force(sys: SymmetricSystem, T: float, R: int) -> float:
    """Thermal force ``-(E_T(R + 1) - E_T(R))``.

    Needs room for the difference: ``1 <= R`` and ``R + 1 <= N``.
    """
    return thermal_table(sys, (T,), _separations(R))[0].force


def _growth_violations(rows) -> tuple[str, ...]:
    """Adjacent rows of an ascending-``T`` sweep at one ``R`` where ``|f_T|`` grew.

    Growth within :data:`CANCEL_EPS` times the largest energy that either
    force is a difference of (``E_T(R)``, and ``E_T(R + 1) = E_T(R) - f_T(R)``)
    counts as numerical noise: the cancellation alone can move a force that far.
    """
    def noise(row):
        return CANCEL_EPS * max(abs(row.energy), abs(row.energy - row.force))

    return tuple(
        f"|f_T| grew from {abs(prev.force):.6g} at T={prev.T:g} "
        f"to {abs(cur.force):.6g} at T={cur.T:g}"
        for prev, cur in zip(rows, rows[1:])
        if abs(cur.force) > abs(prev.force) + max(noise(prev), noise(cur))
    )
