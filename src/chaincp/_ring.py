"""The finite ring's Green's function in real space, and the secular equations solved on it.

A ring column is the list :func:`_ring_column` returns: ``g_n = -G_0n(eps0 +
x)`` for ``n = 0 ..`` up to where it underflows, read as ``0.0`` past that
cut (:func:`_ring_entry`) and shortened further by ``stop``.  This module is
the only one that builds, indexes or solves on that list; the others ask it
for levels and shifts:

* :func:`_doublet_halves`, the second-order doublet's mean and
  half-splittings at ``eps0``, for :mod:`~chaincp.perturbation` and the
  thermal kernel;
* :func:`_impurity_level` and :func:`_even_shift`, the exact single-impurity
  level and the even level's shift from it, for
  :func:`~chaincp.oracle.cp_energy_ed`;
* :func:`_decay_ratio`, the ring's decay ratio ``g_1 / g_0`` at an offset,
  which sizes the ED's systematic error.
"""

from __future__ import annotations

import math
import operator
from collections import deque
from itertools import accumulate, chain, islice, repeat

from .errors import ConvergenceError
from .lattice import SymmetricSystem

#: ``log`` of half the smallest subnormal float: below it a float rounds to
#: 0.0, and the ring column stops.
_LOG_ZERO = math.log(math.ulp(0.0)) - math.log(2.0)

#: Fixed-point steps per ED level; more raise :class:`~chaincp.errors.ConvergenceError`.
MAX_STEPS = 200


def _ring_column(sys: SymmetricSystem, x: float, stop: float = math.inf) -> list[float]:
    """``g_n = -G_0n(eps0 + x)``, the ring's Green's function, for ``n = 0 .. N`` or up to its cut.

    Below the band ``d = -(x + delta) > 2 J``, ``d g_n - J (g_{n-1} + g_{n+1})
    = [n = 0]`` and, by mirror symmetry, ``g_{N+1} = g_N``.  Eliminating from
    there gives the minimal solution (Gautschi, SIAM Rev. 9:24, 1967): ratios
    ``c_n = g_n / g_{n-1}`` with ``c_N = J / (d - J)``, ``c_n = J / (d - J
    c_{n+1})``, and ``g_0 = 1 / (d - 2 J c_1)``.  Every ``c_n`` is in ``[0,
    1)``; they fall towards the bulk decay ratio ``c_1``, and once one repeats
    every lower one equals it, so elimination stops there.

    Near the band edge ``c_n -> 1``, where ``d - 2 J c_1`` cancels and the
    recursion amplifies rounding by about ``1 / (1 - c^2)``.  So a ratio from
    1/2 up is carried as ``u_n = 1 - c_n``, with ``e = d - 2 J = gap - x``:
    ``u_N = e / (e + J)``, ``u_n = (e + J u_{n+1}) / (e + J + J u_{n+1})`` and
    ``g_0 = 1 / (e + 2 J u_1)``, sums of positive terms only.  Below 1/2 the
    ratio is carried as itself, since ``1 - u`` would lose its relative digits
    as ``c -> 0``.  The ratios fall, so the switch happens at most once.

    This is the package's only evaluation of the finite ring.  The column
    stops at the first ``g_n`` below half the smallest subnormal, whose
    correctly rounded value is ``0.0``; :func:`_ring_entry` reads ``g_n`` past
    the cut as that ``0.0``.  Above ``c = 1/2`` the site-by-site product would
    instead stick at the smallest subnormals, since ``5e-324 c`` rounds back
    up.  The cut reads ``log g_n = log g_0 + sum log c_i``: ``n log c_1``
    where the ratio has repeated, and a running sum of logs past that, only
    when ``g_0 c_1^n``, which bounds ``g_n`` from below since ``c_1`` is the
    smallest ratio, stays above the floor there.  A caller that
    reads only the first entries ends the column sooner, at ``n < stop``, and
    keeps only the ratios those entries need: near the band edge no ratio
    repeats, and holding all ``N`` of them would make a short column cost
    O(N) memory.

    Each ``g_n`` is a running product of ``n + 1`` rounded factors, and near
    the edge the ratios settle over about ``1 / (1 - q)`` sites, so while
    ``g_n`` is a normal float its relative error stays below ``(n + 1 / (1 -
    q))`` units of 2^-52: at most 0.64 of that against 60-digit columns at
    ``x = 0``, ``N = 20000`` and ``a`` from -0.1 to -0.9999999.  ``g_R`` was
    3 units off at ``a = -0.6``, ``R = 100``; 636 at ``a = -0.9``, ``R =
    1000``; 305 at ``a = -0.99``, ``R = 3000``; and 5617 (1.2e-12) at ``a =
    -0.99999``, ``R = 20000``.
    """
    d, e, J = -(x + sys.delta), sys.gap - x, sys.J
    e_J = e + J
    # c_N, c_{N-1}, .. until a ratio repeats; the last one then fills c_1 upwards.
    # The mirror's u_{N+1} = 1 - c_{N+1} = 0 starts both recursions.
    tail = deque(maxlen=None if stop == math.inf else max(int(stop) - 1, 1))
    # found: how many ratios were computed, c_N down to c_{N - found + 1}
    found, u, c, edge = 0, 0.0, 1.0, True
    while found < sys.N:
        if edge and (v := (e + J * u) / (e_J + J * u)) <= 0.5:
            if v == u:
                break
            u, ratio = v, 1.0 - v
        else:
            edge = False
            ratio = J / (d - J * c)
            if ratio == c:
                break
        tail.append(ratio)
        found, c = found + 1, ratio
    g_0 = 1.0 / (e + 2.0 * J * u) if edge else 1.0 / (d - 2.0 * J * c)
    size, bulk, sites = min(sys.N + 1, stop), tail[-1], sys.N - found
    # log(g_n / g_0) below floor: g_n rounds to 0.0, and the column ends before it
    floor = _LOG_ZERO - math.log(g_0)
    # g_n >= g_0 c_1^n, with equality while the ratio repeats; a ratio of 0.0
    # counts as 5e-324
    decay = math.log(max(bulk, math.ulp(0.0)))
    first = int(floor / decay) + 1
    if sites < first < size:
        above = map(max, reversed(tail), repeat(math.ulp(0.0)))
        logs = accumulate(map(math.log, above), initial=sites * decay)
        first = next((n for n, log_g in enumerate(logs, sites) if log_g < floor), size)
    size = min(size, first)
    ratios = chain((g_0,), repeat(bulk, sites), reversed(tail))
    return list(islice(accumulate(ratios, operator.mul), size))


def _ring_entry(column: list[float], n: int) -> float:
    """``g_n`` from a :func:`_ring_column`, exactly ``0.0`` past its cut."""
    return column[n] if n < len(column) else 0.0


def _decay_ratio(sys: SymmetricSystem, x: float) -> float:
    """The ring's decay ratio ``g_1 / g_0`` at ``x``, from the full column's first two entries."""
    g = _ring_column(sys, x, stop=2)
    return _ring_entry(g, 1) / g[0]


def _doublet_halves(sys: SymmetricSystem, seps: range) -> tuple[float, list[float]]:
    """Doublet mean ``m = -lam^2 g_0`` and half-splittings ``h_R = lam^2 g_R``, ``R`` in ``seps``.

    The doublet at ``R`` is ``(m - h_R, m + h_R)``, the levels of
    :func:`~chaincp.perturbation.symmetric_spectrum_ksum`; the mean and the
    half-splitting are kept apart, so that a difference of two ``h`` never
    cancels against ``m``.  The column is cut one site past the last
    separation.
    """
    column, lam_sq = _ring_column(sys, 0.0, stop=seps[-1] + 1), sys.lam ** 2
    return -lam_sq * column[0], [lam_sq * _ring_entry(column, r) for r in seps]


def _fixed_point(update, x: float, where: str) -> float:
    """Iterate ``x = update(x)`` while the step strictly shrinks.

    Returns once a step is zero or no smaller than the last: a contraction's
    steps shrink until rounding, where iterates settle or alternate between
    two floats.  A non-finite iterate, or :data:`MAX_STEPS` steps, raise
    :class:`~chaincp.errors.ConvergenceError`.
    """
    last = math.inf
    for _ in range(MAX_STEPS):
        new = update(x)
        if not math.isfinite(new):
            raise ConvergenceError(f"ED fixed point reached {new!r} at {where}")
        step = abs(new - x)
        x = new
        if step == 0.0 or step >= last:
            return x
        last = step
    raise ConvergenceError(f"ED fixed point did not settle in {MAX_STEPS} steps at {where}")


def _impurity_level(sys: SymmetricSystem) -> tuple[float, list[float]]:
    """One impurity's level ``x1 = -lam^2 g_0(x1)``, with the ring column at ``x1``."""
    lam_sq = sys.lam ** 2
    x1 = _fixed_point(lambda x: -lam_sq * _ring_column(sys, x, stop=1)[0], 0.0,
                      f"the single-impurity level, N={sys.N}")
    return x1, _ring_column(sys, x1)


def _even_shift(sys: SymmetricSystem, x1: float, column: list[float], R: int) -> float:
    """Shift ``D = x(R) - x1`` of the even level at separation ``1 <= R <= N``.

    ``column`` is the ring column at ``x1``.  Subtracting ``x1`` from the
    secular equation, by the resolvent identity, leaves ``D (1 + lam^2 S) =
    -lam^2 g_R(x1 + D)`` with ``S = g_0 g_0' + 2 sum_{n >= 1} g_n g_n'``,
    unprimed factors at ``x1`` and primed ones at ``x1 + D``: only positive
    terms, so nothing cancels.  ``S`` runs over the entries both columns
    keep, since every product past either cut underflows to ``0.0``.  The
    fixed point starts at ``-lam^2 g_R(x1)``.
    """
    lam_sq = sys.lam ** 2

    def update(shift: float) -> float:
        moved = _ring_column(sys, x1 + shift)
        s = 2.0 * sum(map(operator.mul, column, moved)) - column[0] * moved[0]
        return -lam_sq * _ring_entry(moved, R) / (1.0 + lam_sq * s)

    return _fixed_point(update, -lam_sq * _ring_entry(column, R), f"R={R}, N={sys.N}")
