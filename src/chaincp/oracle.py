"""Independent checks: the finite ring's resolvent in real space, and mpmath quadrature.

Nothing here shares algebra with the closed forms, which work through
``q``: the ED works in real space, the quadrature in momentum space.  The
error budgets are unrelated, so agreement is evidence rather than tautology.
Each takes a ``range`` of separations and returns one float per separation,
sharing one single-impurity level (the ED) or one grid (the quadrature).

* :func:`cp_energy_ed` takes the exact ground energy of the single-electron
  Hamiltonian on the ring of ``M = 2N + 1`` sites.  The impurities touch the
  ring at only two sites, so eliminating the ring from ``(E - H) psi = 0``
  leaves, for the even impurity combination, the secular equation

  .. math::

      x = -\\lambda^2 \\left(g_0(x) + g_R(x)\\right)

  for the offset ``x = E - eps0``, with ``g_n(x) = -G_0n(eps0 + x)`` the
  ring's Green's function (``_ring._ring_column``): exact in the coupling
  and in ``N``, with no dense matrix and no mode sum.  Every ``g_n > 0``, so
  the odd level (``g_0 - g_R``) lies above this one.  The interaction is the
  shift ``D = x(R) - x1`` from the single-impurity level ``x1``, solved for
  directly, so it keeps its digits however small it is.
* :func:`cp_energy_quadrature` evaluates the ``N -> inf`` momentum integral

  .. math::

      E_{cp}(R) = \\frac{\\lambda^2}{2\\pi}
                  \\int_{-\\pi}^{\\pi}
                  \\frac{\\cos kR}{\\delta + 2 J \\cos k}\\, dk

  by the periodic trapezoid rule, which converges geometrically for this
  analytic integrand.  The integrand is even in ``k``, so the grid is folded
  onto ``[0, pi]``: the nodes 0 and ``pi`` weigh 1 and every other node 2.
  The denominator does not depend on ``R``, so one grid serves a whole range
  of separations: each node pays for ``cos k`` and one division.  On the
  grid ``k_n = 2 pi n / M`` every ``R k_n`` is again a grid angle, so each
  phase ``cos kR`` is read from the table of node cosines, with no further
  trig call: each is a correctly rounded cosine, and the table costs O(M)
  memory.  The integral is a difference of quantities nine or more orders
  apart at large ``R``, far below the float64 noise floor, so the
  accumulation runs in arbitrary precision (mpmath), with enough digits for
  the ``-R log10 q`` that cancel, up to those that resolve the smallest
  subnormal, and only the final values are rounded.
"""

from __future__ import annotations

import math
import warnings

from ._ring import _decay_ratio, _even_shift, _impurity_level
from .errors import ConvergenceError, RegimeViolation
from .lattice import SymmetricSystem, _separations

__all__ = [
    "cp_energy_ed",
    "cp_energy_quadrature",
]

#: oracle-check tolerances: quadrature must match the closed form to float
#: accuracy, the real-space ED carries percent-level fourth-order systematics.
QUAD_TOL = 1e-9
ED_TOL = 1e-2

#: Relative agreement between successive quadrature refinements.
REFINEMENT_TOL = 1e-13

#: Quadrature point budget; refining past it raises
#: :class:`~chaincp.errors.ConvergenceError`.
MAX_POINTS = 2 ** 22

def cp_energy_ed(sys: SymmetricSystem, R: range) -> tuple[float, ...]:
    """Interaction energy at each separation in ``R`` from the exact ground energy.

    The ground energy is the even root ``x(R)`` of the secular equation on
    the finite ring (see the module docstring), exact in the coupling.  The
    estimate is its shift ``x(R) - x1`` from one impurity's level on the same
    ring, solved for as such, not as a difference of two levels: an
    interaction far below an ulp of the level keeps its digits.

    It differs from the second-order closed form by the fourth-order
    coupling ``(lam / gap)^2``, the ring image ``(q^(M - 2R) + q^M) / (1 -
    q^M)`` on ``M = 2N + 1`` sites (hence ``R <= N // 4``) and the rate shift
    ``R ln(q(0) / q(x1))``, as the ring's decay ratio ``q(x) = g_1 / g_0``
    moves with the level.  A ``UserWarning`` fires when their sum exceeds
    :data:`ED_TOL`, the tolerance oracle-check holds the ED to.

    Parameters
    ----------
    sys : SymmetricSystem
    R : range
        Separations, a non-empty range with step 1, each ``1 <= R <= N // 4``.

    Returns
    -------
    tuple of float
        One value per separation, in the order of ``R``.
    """
    seps = _separations(R, upper=sys.N // 4)
    x1, column = _impurity_level(sys)
    # the ring's decay ratio g_1 / g_0 at the bare level and at x1
    q0, q1 = _decay_ratio(sys, 0.0), _decay_ratio(sys, x1)
    # a flat band, or a ratio that underflows, has no decay rate to shift
    rate = math.log(q0 / q1) if q1 else 0.0

    m_sites = sys.num_sites
    values = []
    for r in seps:
        image = (q0 ** (m_sites - 2 * r) + q0 ** m_sites) / (1.0 - q0 ** m_sites)
        systematic = (sys.lam / sys.gap) ** 2 + image + r * rate
        if systematic > ED_TOL:
            warnings.warn(
                f"ED estimate carries ~{systematic:.1%} systematic error "
                f"(fourth-order coupling, ring image and rate shift) at R={r}, N={sys.N}",
                stacklevel=2,
            )
        values.append(_even_shift(sys, x1, column, r))
    return tuple(values)


def cp_energy_quadrature(sys: SymmetricSystem, R: range) -> tuple[float, ...]:
    """Interaction energy at each separation in ``R`` from the momentum integral.

    One periodic trapezoid grid serves every separation asked for.  The
    integrand is even, so the grid ``k_n = 2 pi n / M`` is walked on ``[0,
    pi]`` only, ``n = 0 .. M/2``: the nodes 0 and ``pi`` weigh 1, every other
    node and every refinement midpoint 2.  Each node costs one ``mp.cos`` and
    one division by ``delta + 2 J cos k``.  Its phases come from the same
    cosines: with ``j = R n mod M``, ``cos(R k_n)`` is the node cosine at
    ``min(j, M - j)``, so each is a correctly rounded cosine, and each
    separation keeps its own running sum.  The number of points doubles
    from 64, adding only the new midpoints, until every separation has two
    successive estimates that agree to :data:`REFINEMENT_TOL`, the coarser
    on more than ``4R + 4`` points, or that both round to zero; a
    separation's value is the first estimate that does, so a sweep returns
    the same floats as one call per one-point range.  Past :data:`MAX_POINTS`
    points it raises :class:`~chaincp.errors.ConvergenceError`, naming the
    separations still unconverged.

    The cosine table holds the ``M/2 + 1`` nodes of the current grid, so
    memory is O(M): about 240 bytes a node at 40 digits, 16 KB at 128
    points and 0.5 GB at :data:`MAX_POINTS`.

    The answer at ``R`` is of order ``q**R`` while the integrand is of order
    one, so the sum cancels about ``-R log10 q`` digits; but no float64
    answer needs more than the ``log10(lam^2 / gap / 5e-324)`` between the
    integrand's scale and the smallest subnormal, below which it rounds to
    zero.  The accumulation runs at 40 digits plus the lesser of the two at
    ``rmax``, less the five that 40 digits absorb: a tiny hopping (``q`` of
    1e-5 at ``J = 1e-5``) gets the digits its smallest answer needs, and
    ``J = 1e-300`` gets about 355, not 30000.  Neither sets the value,
    which comes from the integral alone.

    Parameters
    ----------
    sys : SymmetricSystem
        Requires a dispersive band, ``a`` in ``(-1, 0)``.
    R : range
        Separations, a non-empty range with step 1, each ``R >= 1``.

    Returns
    -------
    tuple of float
        The integral times ``lam**2`` at each separation, in the order of
        ``R``, each rounded once at the end.
    """
    # the one mpmath user; imported here so that `import chaincp` never loads it
    from mpmath import mp

    if sys.a == 0.0:
        raise RegimeViolation("quadrature needs a dispersive band (J > 0); "
                              "for J = 0 the interaction is identically zero")
    seps = _separations(R)
    # digits cancelled at the last separation (q underflows to 0.0 only below the
    # smallest subnormal), capped at those between lam^2 / gap and that subnormal
    tiny = math.ulp(0.0)
    lost = min(-seps[-1] * math.log10(max(sys.q, tiny)),
               2.0 * math.log10(max(abs(sys.lam), tiny)) - math.log10(sys.gap) - math.log10(tiny))

    with mp.workdps(40 + max(0, math.ceil(lost) - 5)):
        delta = mp.mpf(sys.delta)
        two_j = mp.mpf(2.0 * sys.J)
        lam_sq = mp.mpf(sys.lam) ** 2

        acc = [mp.mpf(0)] * len(seps)
        prev: list = [None] * len(seps)
        values: list = [None] * len(seps)
        # k and -k carry the same summand, so only the nodes k_n = 2 pi n / M,
        # n = 0 .. M/2, are walked: 0 and pi weigh 1, every other node 2.
        # cosines[n] = cos k_n; the nodes not yet in the sums are `nodes`
        m_points = 64
        step = 2 * mp.pi / m_points
        nodes = range(m_points // 2 + 1)
        cosines = [mp.cos(n * step) for n in nodes]
        while True:
            for n in nodes:
                inv_den = (1 if n == 0 or 2 * n == m_points else 2) / (delta + two_j * cosines[n])
                for i, r in enumerate(seps):
                    # R k_n is the grid angle of node R n mod M, folded into [0, pi]
                    j = r * n % m_points
                    acc[i] += cosines[min(j, m_points - j)] * inv_den
            for i, r in enumerate(seps):
                if values[i] is not None:
                    continue
                value = lam_sq * acc[i] / m_points
                # an M-point rule sees mode R as modes R + nM: below 4R + 4
                # points two grids can agree on an alias of R
                if (prev[i] is not None and m_points // 2 > 4 * r + 4
                        and abs(value - prev[i]) <= REFINEMENT_TOL * abs(value)):
                    values[i] = float(value)
                # every alias adds to E_cp(R), of the sign of lam^2 / delta, so two
                # estimates that round to zero settle it; their own signs are noise
                elif prev[i] is not None and float(value) == float(prev[i]) == 0.0:
                    values[i] = math.copysign(0.0, sys.delta)
                prev[i] = value
            if None not in values:
                return tuple(values)
            if 2 * m_points > MAX_POINTS:
                break
            # doubling the grid adds one node halfway between each pair of current ones
            midpoints = [mp.cos(step / 2 + j * step) for j in range(m_points // 2)]
            m_points *= 2
            step = 2 * mp.pi / m_points
            nodes = range(1, m_points // 2, 2)
            cosines, old = [None] * (m_points // 2 + 1), cosines
            cosines[::2], cosines[1::2] = old, midpoints

    missing = ", ".join(str(r) for r, value in zip(seps, values) if value is None)
    raise ConvergenceError(
        f"trapezoid refinement reached {MAX_POINTS} points at R={missing} without "
        f"two estimates agreeing to {REFINEMENT_TOL}"
    )
