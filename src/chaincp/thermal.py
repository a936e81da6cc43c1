"""Thermal averages over the single-electron spectrum.

One electron is shared between the doublet and the band, so the ensemble is
a straight Boltzmann average over the ``2N + 3`` single-electron levels.  The
doublet is ``m -+ h_R``, with the mean ``m = -lam^2 g_0`` and the
half-splitting ``h_R = lam^2 g_R`` read off one column of the ring's Green's
function (``_ring._doublet_halves``), and the band is the same ring's ``2N +
1`` shifted modes ``b_k``.  Measured from ``m``, the band enters a
temperature only through two sums,

.. math::

    Z = \\sum_k e^{-\\beta (b_k - m)},
    \\qquad S = \\sum_k (b_k - m) e^{-\\beta (b_k - m)},

and with the doublet's two terms added, every row is closed in ``h_R``:

.. math::

    E_T(R) = m + \\frac{S}{Z + 2} + G(h_R),
    \\qquad
    G(h) = -\\frac{2 h \\sinh(\\beta h) (Z + 2) + 4 S \\sinh^2(\\beta h / 2)}
                 {(Z + 2 \\cosh \\beta h) (Z + 2)}.

``G(h) = F(h) - F(0)``, where ``F(h) = E_T - m`` for a doublet split by
``2h``: the share of the energy that the splitting moves.  The thermal force,
the same discrete difference used at zero temperature,

.. math:: f_T(R) = -\\big(E_T(R + 1) - E_T(R)\\big) = G(h_R) - G(h_{R + 1}),

is taken as the difference of the two ``G``, never of two energies: ``G``
carries its ``h^2`` explicitly and is a ratio of sums of positive terms, and
``h_{R + 1} / h_R`` is about ``q``, so the difference keeps its digits at
every ``R``.  Differencing two energies of size ``lam^2 / |delta|`` would
lose them: at fig5's parameters and ``N = 200`` that ``T = 0`` force is
1.4e-2 off at ``R = 30``.  ``G`` is evaluated with numerator and denominator
scaled by ``e^{-beta h}``, so no ``exp`` overflows as ``T -> 0``.  ``T = 0``,
and a ``T`` so small that ``1 / T`` overflows, take the exact limit: all
weight on the even level, ``E = m - h_R`` and ``f = h_{R + 1} - h_R``.

Each sum is one ``math.fsum`` over the band rule of
:mod:`~chaincp.perturbation`, a generator that walks the modes ``n = 0 ..
N``, counting each ``n >= 1`` twice for its partner ``-n``: no list of the
band is ever built, so a temperature costs O(N) time and O(1) memory, and
each ``(T, R)`` row O(1).  ``thermal-sweep`` refuses a band of more than
:data:`~chaincp.cli.MAX_MODES` modes.

Raising ``T`` moves weight from the even doublet state first onto its odd
partner and then into the band, and the band states' lack of ``R``
dependence makes the infinite-temperature force vanish.  ``|f_T(R)|``
falls with temperature once ``T`` exceeds the doublet splitting at ``R``.
Below that it can rise: the doublet at ``R + 1`` is split less, so its odd
level fills first and ``E_T(R + 1)`` climbs away from ``E_T(R)``.  fig5 at
``N = 100`` gives ``|f_T(1)|`` = 0.002778, 0.002938, 0.003078 and 0.001450
at ``T`` = 0, 0.001, 0.003 and 0.01.

Every energy and force comes from one kernel: :func:`thermal_table`,
:func:`thermal_energy`, :func:`thermal_force` and the CLI's ``thermal-sweep``
all go through it.  :func:`thermal_ensemble` is the explicit-levels
reference: it builds the ``2N + 3`` levels, the same doublet ``m -+ h_R``
and band, and their weights as tuples, from energies shifted by the
spectrum minimum.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from . import perturbation
from ._ring import _doublet_halves
from .lattice import SymmetricSystem, _separation, _separations
from .perturbation import band_energies

__all__ = [
    "ThermalEnsemble",
    "ThermalRow",
    "thermal_ensemble",
    "thermal_table",
    "thermal_energy",
    "thermal_force",
]

#: Relative accuracy of a thermal force: tests hold every force to it against
#: a 60-digit Boltzmann average of the same levels.  Growth of ``|f_T|`` within
#: it is noise.
FORCE_RTOL = 1e-12


class ThermalEnsemble(NamedTuple):
    """Boltzmann weights over the single-electron spectrum at one temperature.

    Attributes
    ----------
    energies : tuple of float
        All ``2N + 3`` levels, measured from ``eps0``: the finite-ring
        doublet ``m - h_R`` and ``m + h_R``, then the ``2N + 1`` shifted band
        modes.
    weights : tuple of float
        Normalised populations aligned with :attr:`energies`.
    """

    energies: tuple[float, ...]
    weights: tuple[float, ...]


class ThermalRow(NamedTuple):
    """One row of :func:`thermal_table`: ``E_T(R)`` and ``f_T(R)``."""

    T: float
    R: int
    energy: float
    force: float


def _beta(T: float) -> float:
    """``1 / T``, or ``inf`` at ``T = 0`` and wherever ``1 / T`` overflows."""
    # ``not T >= 0`` so that NaN is refused too; ``math.inf`` stays legal
    if not T >= 0:
        raise ValueError(f"temperature must be non-negative, got T={T}")
    # a subnormal T below ~5.6e-309 has 1 / T = inf: the T = 0 limit
    return math.inf if T == 0 else 1.0 / T


def thermal_ensemble(sys: SymmetricSystem, T: float, R: int) -> ThermalEnsemble:
    """Populations of the doublet and band levels at temperature ``T``.

    The explicit-levels reference for the thermal kernel: every level and its
    weight, as tuples, with the kernel's doublet rule
    (:func:`~chaincp._ring._doublet_halves`).

    Parameters
    ----------
    sys : SymmetricSystem
    T : float
        Temperature in the same units as the energies, ``T >= 0``
        (``math.inf`` is allowed and gives uniform weights).
    R : int
        Separation to evaluate at, ``1 <= R <= N``.
    """
    beta = _beta(T)
    _separation(R, upper=sys.N)
    m, (h,) = _doublet_halves(sys, range(R, R + 1))
    energies = (m - h, m + h, *band_energies(sys))
    e_min = min(energies)
    if beta == math.inf:
        # Limit distribution: all weight on the ground level, split evenly
        # across an exact degeneracy (the flat-band case), since inf * 0 at
        # the ground level would be NaN.
        shifted = [float(e == e_min) for e in energies]
    else:
        shifted = [math.exp(-beta * (e - e_min)) for e in energies]
    total = math.fsum(shifted)
    return ThermalEnsemble(energies=energies, weights=tuple(w / total for w in shifted))


def _band_sums(sys: SymmetricSystem, m: float, beta: float) -> tuple[float, float]:
    """``(Z, S)``, the band's Boltzmann sum and its energy-weighted sum, from ``m``.

    Every band level lies above ``m``, so no weight exceeds 1.  ``beta`` is
    finite: at ``T = 0`` the kernel needs no band.
    """
    exp, half_ring = math.exp, perturbation._half_ring
    z = math.fsum(k * exp(-beta * x) for k, x in half_ring(sys, m))
    s = math.fsum(k * x * exp(-beta * x) for k, x in half_ring(sys, m))
    return z, s


def _pair_share(h: float, beta: float, z: float, s: float) -> float:
    """``G(h)``, the energy share of the doublet's half-splitting ``h >= 0``, at finite ``beta``.

    Numerator and denominator are scaled by ``e^{-beta h}``: ``sinh(beta h)``
    becomes ``-expm1(-2 beta h) / 2``, ``cosh(beta h)`` becomes ``(1 + e^{-2
    beta h}) / 2`` and ``sinh^2(beta h / 2)`` becomes ``expm1(-beta h)^2 /
    4``, so every term is positive and nothing overflows.
    """
    t = beta * h
    decay, rise = math.exp(-t), math.expm1(-t)
    num = h * -math.expm1(-2.0 * t) * (z + 2.0) + s * rise * rise
    return -num / ((z * decay + 1.0 + decay * decay) * (z + 2.0))


def _kernel(sys: SymmetricSystem, temperatures, seps: range):
    """Per temperature, ``(T, E_T - G, [G(h_R) for R in seps])``, from the band's two sums.

    ``m`` and every ``h_R`` come from one ring column, read once.  At ``T = 0``
    all weight is on the even level: ``G = -h_R``, and no band, so ``Z = S = 0``
    (``m + 0.0`` keeps the sign of a zero ``m`` as ``m + S / (Z + 2)`` does).
    """
    m, halves = _doublet_halves(sys, seps)
    for t in temperatures:
        beta = _beta(t)
        if beta == math.inf:
            yield t, m + 0.0, [-h for h in halves]
            continue
        z, s = _band_sums(sys, m, beta)
        yield t, m + s / (z + 2.0), [_pair_share(h, beta, z, s) for h in halves]


def thermal_table(sys: SymmetricSystem, temperatures, R: range) -> tuple[ThermalRow, ...]:
    """Thermal energy and force for every temperature and every separation in ``R``.

    One ring column gives the doublets, out to one site past the last
    separation; per temperature, each of the band's two sums walks it once,
    and every row is then O(1).  Rows run over ``R`` within each
    temperature, in the order given.

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
    rows = []
    for t, base, shares in _kernel(sys, temps, range(seps[0], seps[-1] + 2)):
        rows.extend(ThermalRow(T=t, R=r, energy=base + g, force=g - g_next)
                    for r, g, g_next in zip(seps, shares, shares[1:]))
    return tuple(rows)


def thermal_energy(sys: SymmetricSystem, T: float, R: int) -> float:
    """Ensemble average level from ``eps0`` at ``1 <= R <= N``; the even level at ``T = 0``."""
    _separation(R, upper=sys.N)
    _, base, (share,) = next(_kernel(sys, (float(T),), range(R, R + 1)))
    return base + share


def thermal_force(sys: SymmetricSystem, T: float, R: int) -> float:
    """Thermal force ``-(E_T(R + 1) - E_T(R))``.

    Needs room for the difference: ``1 <= R`` and ``R + 1 <= N``.
    """
    _separation(R)
    return thermal_table(sys, (T,), range(R, R + 1))[0].force


def _growth_violations(rows) -> tuple[str, ...]:
    """Where ``|f_T|`` grew from one temperature to the next at one ``R``, as notes.

    Rows come in any order: grouped by ``R`` and each group ordered by ``T``,
    each note starting ``R=<r>: ``.  Growth within :data:`FORCE_RTOL` of the
    larger of the two forces counts as numerical noise; any larger growth is
    reported, however small the forces are.
    """
    ordered = sorted(rows, key=lambda row: (row.R, row.T))
    return tuple(
        f"R={cur.R}: |f_T| grew from {abs(prev.force):.6g} at T={prev.T:g} "
        f"to {abs(cur.force):.6g} at T={cur.T:g}"
        for prev, cur in zip(ordered, ordered[1:])
        if prev.R == cur.R and abs(cur.force) - abs(prev.force) > FORCE_RTOL * abs(cur.force)
    )
