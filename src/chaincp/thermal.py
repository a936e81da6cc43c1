"""Thermal averages over the single-electron spectrum.

One electron is shared between the doublet and the band, so the ensemble is
a straight Boltzmann average over the ``2N + 3`` single-electron levels:

.. math::

    E_T = \\frac{1}{Z} \\sum_n E_n e^{-E_n / T},
    \\qquad Z = \\sum_n e^{-E_n / T},

with the doublet taken from the closed forms and the band from the shifted
ring modes, so the temperature dependence is exactly the competition between
the split doublet and the ``2N + 1`` band states.  The thermal force is the
same discrete difference used at zero temperature,

.. math:: f_T(R) = -\\big(E_T(R + 1) - E_T(R)\\big).

Raising ``T`` moves weight from the even doublet state first onto its odd
partner (killing the splitting the force lives on) and then into the band,
so ``|f_T|`` falls with temperature and the band states' lack of ``R``
dependence makes the infinite-temperature force vanish.

Weights are always computed from energies shifted by the spectrum minimum,
so they are safe at any temperature; only the literal partition function
``z`` can under- or overflow, and it is stored for inspection rather than
used internally.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .lattice import SymmetricSystem
from .perturbation import SymmetricSpectrum, band_energies, symmetric_spectrum_closed

__all__ = [
    "ThermalEnsemble",
    "TemperatureForce",
    "TemperatureSweep",
    "thermal_ensemble",
    "thermal_energy",
    "thermal_force",
    "force_vs_temperature",
]


@dataclass(frozen=True)
class ThermalEnsemble:
    """Boltzmann weights over the single-electron spectrum at one temperature.

    Attributes
    ----------
    beta : float
        Inverse temperature; ``inf`` at ``T = 0`` and ``0.0`` at ``T = inf``.
    spectrum : SymmetricSpectrum
        Doublet (closed form) plus the ``2N + 1`` shifted band modes.
    z : float
        Literal partition sum.  May underflow to ``0.0`` (tiny ``T``) or
        overflow; the normalised ``weights`` do not suffer from this.
    weights : numpy.ndarray
        Normalised populations aligned with :attr:`energies`.
    """

    beta: float
    spectrum: SymmetricSpectrum
    z: float
    weights: np.ndarray

    @property
    def energies(self) -> np.ndarray:
        """All ``2N + 3`` levels: ``e_plus``, ``e_minus``, then the band."""
        return np.concatenate(
            ([self.spectrum.e_plus, self.spectrum.e_minus], self.spectrum.band[:, 1])
        )


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
    if T < 0:
        raise ValueError(f"temperature must be non-negative, got T={T}")

    e_plus, e_minus = symmetric_spectrum_closed(sys, R)
    spectrum = SymmetricSpectrum(e_plus=e_plus, e_minus=e_minus, band=band_energies(sys))
    energies = np.concatenate(([e_plus, e_minus], spectrum.band[:, 1]))
    e_min = float(energies.min())

    if T == 0:
        # Limit distribution: all weight on the ground level, split evenly
        # across an exact degeneracy (the flat-band case).
        ground = energies == e_min
        weights = ground / ground.sum()
        beta = math.inf
        z = 0.0 if e_min > 0 else (math.inf if e_min < 0 else float(ground.sum()))
    else:
        beta = 1.0 / T
        shifted = np.exp(-beta * (energies - e_min))
        norm = math.fsum(shifted)
        weights = shifted / norm
        z = float(np.exp(np.float64(-beta * e_min))) * norm

    return ThermalEnsemble(beta=beta, spectrum=spectrum, z=z, weights=weights)


def thermal_energy(sys: SymmetricSystem, T: float, R: int) -> float:
    """Ensemble average energy at separation ``R``; exactly ``e_plus`` at ``T = 0``."""
    ens = thermal_ensemble(sys, T, R)
    return math.fsum(ens.weights * ens.energies)


def thermal_force(sys: SymmetricSystem, T: float, R: int) -> float:
    """Thermal force ``-(E_T(R + 1) - E_T(R))``.

    Needs room for the difference: ``1 <= R`` and ``R + 1 <= N``.
    """
    return -(thermal_energy(sys, T, R + 1) - thermal_energy(sys, T, R))


class TemperatureForce(NamedTuple):
    T: float
    force: float


@dataclass(frozen=True)
class TemperatureSweep:
    """Thermal force over a temperature grid, with monotonicity findings.

    ``violations`` lists every adjacent pair where ``|f_T|`` grew with
    temperature beyond numerical noise.  Expected to be empty in the valid
    regime; it is returned rather than asserted so a caller can decide what
    to do about a surprise.
    """

    system: SymmetricSystem
    R: int
    records: tuple[TemperatureForce, ...]
    violations: tuple[str, ...]


def _growth_violations(records) -> tuple[str, ...]:
    """Adjacent records of an ascending-``T`` sweep where ``|f_T|`` grew.

    Growth within ``1e-15`` absolute counts as numerical noise.
    """
    return tuple(
        f"|f_T| grew from {abs(prev.force):.6g} at T={prev.T:g} "
        f"to {abs(cur.force):.6g} at T={cur.T:g}"
        for prev, cur in zip(records, records[1:])
        if abs(cur.force) > abs(prev.force) + 1e-15
    )


def force_vs_temperature(sys: SymmetricSystem, R: int, temperatures) -> TemperatureSweep:
    """Sweep the thermal force over an ascending temperature grid.

    Parameters
    ----------
    sys : SymmetricSystem
    R : int
        Separation, with ``R + 1`` on the chain.
    temperatures : sequence of float
        Non-negative, sorted ascending.
    """
    temps = [float(t) for t in temperatures]
    if any(t < 0 for t in temps):
        raise ValueError("temperatures must be non-negative")
    if temps != sorted(temps):
        raise ValueError("temperatures must be sorted ascending")

    records = tuple(TemperatureForce(T=t, force=thermal_force(sys, t, R)) for t in temps)
    return TemperatureSweep(system=sys, R=R, records=records,
                            violations=_growth_violations(records))
