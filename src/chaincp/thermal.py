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

Every energy and force comes from one table, :func:`thermal_table`.  The
band does not depend on ``R``, so the table builds it once per system, then
one ensemble per ``(T, R)`` for ``R = rmin .. rmax + 1``, and reads each
force off two neighbouring energies.  :func:`thermal_energy`,
:func:`thermal_force`, :func:`force_vs_temperature` and the CLI's
``thermal-sweep`` all go through it or through its one-ensemble kernel.

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

from .lattice import SymmetricSystem, _check_separation
from .perturbation import SymmetricSpectrum, band_energies, symmetric_spectrum_closed

__all__ = [
    "ThermalEnsemble",
    "ThermalRow",
    "TemperatureForce",
    "TemperatureSweep",
    "thermal_ensemble",
    "thermal_table",
    "thermal_energy",
    "thermal_force",
    "force_vs_temperature",
]

#: How far the cancellation in ``E_T(R) - E_T(R + 1)`` can move a force, in
#: units of the larger energy: a few ulp in each of the two terms.
CANCEL_EPS = 4 * math.ulp(1.0)


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


class ThermalRow(NamedTuple):
    """One row of :func:`thermal_table`: ``E_T(R)`` and ``f_T(R)``."""

    T: float
    R: int
    energy: float
    force: float


def _boltzmann(energies: np.ndarray, T: float) -> tuple[np.ndarray, float]:
    """Normalised weights over ``energies`` at ``T``, and the literal partition sum."""
    # ``not T >= 0`` so that NaN is refused too; ``math.inf`` stays legal
    if not T >= 0:
        raise ValueError(f"temperature must be non-negative, got T={T}")
    e_min = float(energies.min())
    if T == 0:
        # Limit distribution: all weight on the ground level, split evenly
        # across an exact degeneracy (the flat-band case).
        ground = energies == e_min
        weights = ground / ground.sum()
        z = 0.0 if e_min > 0 else (math.inf if e_min < 0 else float(ground.sum()))
    else:
        beta = 1.0 / T
        shifted = np.exp(-beta * (energies - e_min))
        norm = math.fsum(shifted.tolist())
        weights = shifted / norm
        z = float(np.exp(np.float64(-beta * e_min))) * norm
    return weights, z


def _ensemble_energy(sys: SymmetricSystem, band: np.ndarray, T: float, R: int) -> float:
    """``E_T(R)`` over the closed-form doublet at ``R`` and the shifted ``band`` levels."""
    energies = np.concatenate((symmetric_spectrum_closed(sys, R), band))
    weights, _ = _boltzmann(energies, T)
    return math.fsum((weights * energies).tolist())


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
    e_plus, e_minus = symmetric_spectrum_closed(sys, R)
    spectrum = SymmetricSpectrum(e_plus=e_plus, e_minus=e_minus, band=band_energies(sys))
    weights, z = _boltzmann(np.concatenate(((e_plus, e_minus), spectrum.band[:, 1])), T)
    beta = math.inf if T == 0 else 1.0 / T
    return ThermalEnsemble(beta=beta, spectrum=spectrum, z=z, weights=weights)


def thermal_table(sys: SymmetricSystem, temperatures, rmin: int, rmax: int
                  ) -> tuple[ThermalRow, ...]:
    """Thermal energy and force for every temperature and ``R = rmin .. rmax``.

    The band is built once; each ``(T, R)`` ensemble for ``R = rmin ..
    rmax + 1`` is built once and serves as the energy of row ``R`` and as
    the far end of the force of row ``R - 1``.  Rows run over ``R`` within
    each temperature, in the order the temperatures are given.

    Parameters
    ----------
    sys : SymmetricSystem
    temperatures : sequence of float
        Each ``T >= 0``; ``math.inf`` is allowed.
    rmin, rmax : int
        Separations, ``1 <= rmin <= rmax`` and ``rmax + 1 <= N``.
    """
    temps = [float(t) for t in temperatures]
    _check_separation(rmin)
    if rmax < rmin:
        raise ValueError(f"rmax={rmax} is below rmin={rmin}")
    _check_separation(rmax + 1, sys.chain.N)

    band = band_energies(sys)[:, 1]
    separations = range(rmin, rmax + 2)
    rows = []
    for t in temps:
        energies = [_ensemble_energy(sys, band, t, r) for r in separations]
        rows.extend(ThermalRow(T=t, R=r, energy=e, force=-(e_next - e))
                    for r, e, e_next in zip(separations, energies, energies[1:]))
    return tuple(rows)


def thermal_energy(sys: SymmetricSystem, T: float, R: int) -> float:
    """Ensemble average energy at separation ``R``; exactly ``e_plus`` at ``T = 0``."""
    return _ensemble_energy(sys, band_energies(sys)[:, 1], T, R)


def thermal_force(sys: SymmetricSystem, T: float, R: int) -> float:
    """Thermal force ``-(E_T(R + 1) - E_T(R))``.

    Needs room for the difference: ``1 <= R`` and ``R + 1 <= N``.
    """
    return thermal_table(sys, (T,), R, R)[0].force


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
    if temps != sorted(temps):
        raise ValueError("temperatures must be sorted ascending")

    rows = thermal_table(sys, temps, R, R)
    records = tuple(TemperatureForce(T=row.T, force=row.force) for row in rows)
    return TemperatureSweep(system=sys, R=R, records=records,
                            violations=_growth_violations(rows))
