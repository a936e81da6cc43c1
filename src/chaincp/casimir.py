"""Casimir-Polder energy and force between two impurities below the band.

The separation-dependent part of the ground-state energy of the symmetric
two-impurity problem is

.. math::

    E_{cp}(R) = \\frac{\\lambda^2}{\\delta}\\,
                \\frac{q^R}{\\sqrt{1 - a^2}},
    \\qquad a = \\frac{2J}{\\delta},
    \\qquad q = \\frac{\\sqrt{1 - a^2} - 1}{a},

negative for ``delta < 0``: the even combination of the impurity levels is
pushed down, so the interaction is attractive.  On a lattice the force is
the discrete difference

.. math:: f(R) = -\\big(E_{cp}(R + 1) - E_{cp}(R)\\big) < 0,

pointing towards smaller separations.  Since ``q`` in ``[0, 1)``, both decay
exponentially with rate ``Gamma = ln(1/q)`` per site.

Near the band edge (``a -> -1``) the lattice scale drops out: ``Gamma``
tends to the continuum decay constant

.. math:: b = \\sqrt{\\frac{-(\\delta + 2J)}{J}},

and the two agree while the edge distance ``gap / (4J)``, with the gap
``-(delta + 2J)`` from the level up to the band bottom, stays small.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .errors import InvalidRegime
from .lattice import SymmetricSystem, _separations

__all__ = [
    "ForceRecord",
    "DecayProfile",
    "cp_energy",
    "ecp_force",
    "force_curve",
    "decay_profile",
    "continuum_decay_constant",
]


class ForceRecord(NamedTuple):
    """One row of :func:`force_curve`: ``E_cp(R)`` and ``f(R)``."""

    R: int
    energy: float
    force: float


class DecayProfile(NamedTuple):
    """Exponential decay law ``f(R) = amplitude * exp(-gamma * R)``.

    Attributes
    ----------
    gamma : float
        Decay rate per lattice site, ``ln(1/q)``; infinite at ``a = 0``.
    rc : float
        Characteristic range ``1 / gamma``; zero at ``a = 0``.
    amplitude : float
        Prefactor ``-(lam**2 / delta) (q - 1) / sqrt(1 - a**2)``, the
        magnitude scale of the force at ``R = 0``.
    """

    gamma: float
    rc: float
    amplitude: float


def cp_energy(sys: SymmetricSystem, R: int) -> float:
    """Separation-dependent ground-state energy at separation ``R``.

    Parameters
    ----------
    sys : SymmetricSystem
        Only the couplings and detuning enter; the chain length does not.
    R : int
        Separation to evaluate at, ``R >= 1``.

    Returns
    -------
    float
        ``(lam**2 / delta) * q**R / sqrt(1 - a**2)``; exactly ``0.0`` for a
        flat band (``J = 0``).
    """
    _separations(R)
    a = sys.a
    return (sys.lam ** 2 / sys.delta) * sys.q ** R / math.sqrt(1.0 - a * a)


def ecp_force(sys: SymmetricSystem, R: int) -> float:
    """Discrete force ``-(E_cp(R + 1) - E_cp(R))``, negative (attractive)."""
    return -(cp_energy(sys, R + 1) - cp_energy(sys, R))


def force_curve(sys: SymmetricSystem, R: range) -> tuple[ForceRecord, ...]:
    """Energy and force rows for every separation in ``R``.

    ``R`` is a non-empty range with step 1.  The force at its last
    separation uses the energy one site further, so every ``R`` must satisfy
    ``1 <= R <= N - 1``.
    """
    return tuple(
        ForceRecord(R=r, energy=cp_energy(sys, r), force=ecp_force(sys, r))
        for r in _separations(R, upper=sys.N - 1)
    )


def decay_profile(sys: SymmetricSystem) -> DecayProfile:
    """Decay rate, range, and amplitude of the force law.

    For ``a = 0`` the interaction vanishes identically; this limit is
    reported as ``gamma = inf`` and ``rc = 0`` with the amplitude kept
    finite, so ``amplitude * exp(-gamma * R)`` is still ``0.0`` for every
    ``R >= 1``.
    """
    a, q = sys.a, sys.q
    if q == 0.0:
        gamma, rc = math.inf, 0.0
    else:
        gamma = -math.log(q)
        rc = 1.0 / gamma
    amplitude = -(sys.lam ** 2 / sys.delta) * (q - 1.0) / math.sqrt(1.0 - a * a)
    return DecayProfile(gamma=gamma, rc=rc, amplitude=amplitude)


def continuum_decay_constant(sys: SymmetricSystem) -> float:
    """Decay constant ``b = sqrt(gap / J)`` of the continuum law, ``gap = -(delta + 2J)``.

    Raises
    ------
    InvalidRegime
        For a flat band (``J = 0``); there is no continuum limit to speak of.
    """
    if sys.J == 0.0:
        raise InvalidRegime("continuum approximation needs J > 0")
    return math.sqrt(sys.gap / sys.J)
