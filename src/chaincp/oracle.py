"""Independent checks: the finite ring's resolvent in real space, and mpmath quadrature.

Nothing here shares algebra with the closed forms, which work through
``q``: the ED works in real space, the quadrature in momentum space.  The
error budgets are unrelated, so agreement is evidence rather than tautology.

* :func:`cp_energy_ed` takes the exact ground energy of the single-electron
  Hamiltonian on the ring of ``M = 2N + 1`` sites.  The impurities touch the
  ring at only two sites, so eliminating the ring from ``(E - H) psi = 0``
  leaves, for the even impurity combination, the secular equation

  .. math::

      x = -\\lambda^2 \\left(g_0(x) + g_R(x)\\right)

  for the offset ``x = E - eps0``, with ``g_n(x) = -G_0n(eps0 + x)`` the
  ring's Green's function (``lattice._ring_column``): exact in the coupling
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
  of separations: each node pays for ``cos k`` and one division, and the
  phases ``cos kR`` follow from the Chebyshev recurrence
  ``c_{R+1} = 2 cos k c_R - c_{R-1}``, checked once per refinement against a
  direct ``cos(rmax k)``.  The integral is a difference of quantities nine
  or more orders apart at large ``R``, far below the float64 noise floor, so
  the accumulation runs in arbitrary precision (mpmath), with enough digits
  for the ``-R log10 q`` that cancel, and only the final values are rounded.
"""

from __future__ import annotations

import math
import operator
import warnings

from .errors import ConvergenceError, InvalidRegime, NonConvergence
from .lattice import SymmetricSystem, _ring_column, _ring_ratios, _separations

__all__ = [
    "cp_energy_ed",
    "cp_energy_quadrature",
]

#: Relative agreement between successive quadrature refinements.
REFINEMENT_TOL = 1e-13

#: Quadrature point budget; refining past it raises
#: :class:`~chaincp.errors.NonConvergence`.
MAX_POINTS = 2 ** 22

#: Fixed-point steps per ED level; more raise :class:`~chaincp.errors.ConvergenceError`.
MAX_STEPS = 200


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
    x1 = _fixed_point(lambda x: -lam_sq * _ring_ratios(sys, x)[0], 0.0,
                      f"the single-impurity level, N={sys.N}")
    return x1, _ring_column(sys, x1)


def _even_shift(sys: SymmetricSystem, x1: float, column: list[float], R: int) -> float:
    """Shift ``D = x(R) - x1`` of the even level at separation ``1 <= R <= N``.

    ``column`` is the ring column at ``x1``.  Subtracting ``x1`` from the
    secular equation, by the resolvent identity, leaves ``D (1 + lam^2 S) =
    -lam^2 g_R(x1 + D)`` with ``S = g_0 g_0' + 2 sum_{n >= 1} g_n g_n'``,
    unprimed factors at ``x1`` and primed ones at ``x1 + D``: only positive
    terms, so nothing cancels.  The fixed point starts at ``-lam^2 g_R(x1)``.
    """
    lam_sq = sys.lam ** 2

    def update(shift: float) -> float:
        moved = _ring_column(sys, x1 + shift)
        s = 2.0 * sum(map(operator.mul, column, moved)) - column[0] * moved[0]
        return -lam_sq * moved[R] / (1.0 + lam_sq * s)

    return _fixed_point(update, -lam_sq * column[R], f"R={R}, N={sys.N}")


def cp_energy_ed(sys: SymmetricSystem, R: int | range) -> float | tuple[float, ...]:
    """Interaction energy at separation ``R`` from the exact ground energy.

    The ground energy is the even root ``x(R)`` of the secular equation on
    the finite ring (see the module docstring), exact in the coupling.  The
    estimate is its shift ``x(R) - x1`` from one impurity's level on the same
    ring, solved for as such, not as a difference of two levels: an
    interaction far below an ulp of the level keeps its digits.

    It differs from the second-order closed form by the fourth-order
    coupling ``(lam / gap)^2``, the ring image ``q^(2N + 1 - 2R)`` (hence
    ``R <= N // 4``) and the rate shift ``R ln(q(0) / q(x1))``, as the ring's
    decay ratio ``q(x) = g_1 / g_0`` moves with the level.  A ``UserWarning``
    fires when their sum exceeds 5%.

    Parameters
    ----------
    sys : SymmetricSystem
    R : int or range
        Separation ``1 <= R <= N // 4``, or a non-empty range of them with
        step 1.

    Returns
    -------
    float or tuple of float
        A tuple in the order of ``R`` when ``R`` is a range.
    """
    n_half = sys.N
    seps = _separations(R, upper=n_half // 4)
    x1, column = _impurity_level(sys)
    # the ring's decay ratio c_1 at the bare level and at x1
    q0, q1 = (_ring_ratios(sys, x)[1] for x in (0.0, x1))
    # a flat band, or a ratio that underflows, has no decay rate to shift
    rate = math.log(q0 / q1) if q1 else 0.0

    values = []
    for r in seps:
        systematic = (sys.lam / sys.gap) ** 2 + q0 ** (2 * n_half + 1 - 2 * r) + r * rate
        if systematic > 0.05:
            warnings.warn(
                f"ED estimate carries ~{systematic:.1%} systematic error "
                f"(fourth-order coupling, ring image and rate shift) at R={r}, N={n_half}",
                stacklevel=2,
            )
        values.append(_even_shift(sys, x1, column, r))
    return tuple(values) if isinstance(R, range) else values[0]


def cp_energy_quadrature(sys: SymmetricSystem, R: int | range) -> float | tuple[float, ...]:
    """Interaction energy from the momentum integral, in arbitrary precision.

    One periodic trapezoid grid serves every separation asked for.  The
    integrand is even, so the grid is walked on ``[0, pi]`` only: the nodes 0
    and ``pi`` weigh 1, every other node and every refinement midpoint 2.
    Each node costs one division by ``delta + 2 J cos k`` and the trig calls
    for ``cos k`` and, when ``rmin > 1``, the seeds ``cos(rmin k)`` and
    ``cos((rmin - 1) k)``; the phases ``cos kR`` for ``R = rmin .. rmax``
    follow from the Chebyshev recurrence ``c_{R+1} = 2 cos k c_R - c_{R-1}``,
    and each separation keeps its own running sum.  The number of points
    doubles from 64, adding only the new midpoints, until every separation
    has two successive estimates that agree to :data:`REFINEMENT_TOL`, the
    coarser on more than ``4R + 4`` points; a separation's value is the
    first estimate that does, so a sweep returns the same floats as one call
    per separation.  Past :data:`MAX_POINTS`
    points it raises :class:`~chaincp.errors.NonConvergence`, naming the
    separations still unconverged.  Once per refinement level the recurred
    summand at ``rmax`` is compared with a direct ``cos(rmax k)`` at that
    level's last node; if the gap times the point count exceeds 1e-12 of
    that separation's running sum, it raises
    :class:`~chaincp.errors.ConvergenceError`.

    The answer at ``R`` is of order ``q**R`` while the integrand is of order
    one, so the sum cancels about ``-R log10 q`` digits.  The accumulation
    runs at ``40 + max(0, ceil(-rmax log10 q) - 5)`` digits: 40 digits
    absorb the first five lost, and a tiny hopping (``q`` of
    1e-5 at ``J = 1e-5``) gets the digits its smallest answer needs
    instead of refining forever.  ``q`` sets the precision only; the value
    comes from the integral alone.

    Parameters
    ----------
    sys : SymmetricSystem
        Requires a dispersive band, ``a`` in ``(-1, 0)``.
    R : int or range
        Separation ``R >= 0`` (``R = 0`` gives the single-level shift
        scale), or a non-empty range of them with step 1.

    Returns
    -------
    float or tuple of float
        The integral times ``lam**2``, rounded once at the end; a tuple in
        the order of ``R`` when ``R`` is a range.
    """
    # the one mpmath user; imported here so that `import chaincp` never loads it
    from mpmath import mp

    if sys.a == 0.0:
        raise InvalidRegime("quadrature needs a dispersive band (J > 0); "
                            "for J = 0 the interaction is identically zero")
    seps = _separations(R, lower=0)
    rmin, rmax = seps[0], seps[-1]
    # q underflows to 0.0 only below the smallest subnormal
    lost = math.ceil(-rmax * math.log10(max(sys.q, math.ulp(0.0))))

    with mp.workdps(40 + max(0, lost - 5)):
        delta = mp.mpf(sys.delta)
        two_j = mp.mpf(2.0 * sys.J)
        lam_sq = mp.mpf(sys.lam) ** 2

        n_seps = len(seps)
        acc = [mp.mpf(0)] * n_seps
        prev: list = [None] * n_seps
        values: list = [None] * n_seps
        m_points = 64
        # k and -k carry the same summand, so only the grid's nodes in [0, pi]
        # are walked: 0 and pi weigh 1, every other node 2.  The nodes not yet
        # in the sums are first + j * step, j < count; the j in ends weigh 1
        step = 2 * mp.pi / m_points
        first, count, ends = mp.mpf(0), m_points // 2 + 1, (0, m_points // 2)
        while m_points <= MAX_POINTS:
            for j in range(count):
                k = first + j * step
                cos_k = mp.cos(k)
                # the recurrence is linear, so it can carry the weighted
                # summands cos(Rk) / den themselves
                inv_den = (1 if j in ends else 2) / (delta + two_j * cos_k)
                if rmin == 0:
                    c, c_prev = inv_den, cos_k * inv_den
                elif rmin == 1:
                    c, c_prev = cos_k * inv_den, inv_den
                else:
                    c = mp.cos(k * rmin) * inv_den
                    if n_seps > 1:
                        c_prev = mp.cos(k * (rmin - 1)) * inv_den
                two_cos = 2 * cos_k
                for i in range(n_seps):
                    acc[i] += c
                    if i + 1 < n_seps:
                        c, c_prev = two_cos * c - c_prev, c
            # c is the level's last summand at rmax, recurred from the seeds
            drift = abs(c - mp.cos(k * rmax) * inv_den)
            if drift * m_points > 1e-12 * abs(acc[-1]):
                raise ConvergenceError(
                    f"cosine recurrence drifted at R={rmax}: {mp.nstr(drift, 6)} "
                    f"at k={mp.nstr(k, 6)} with {m_points} points"
                )
            for i in range(n_seps):
                if values[i] is not None:
                    continue
                value = lam_sq * acc[i] / m_points
                # an M-point rule sees mode R as modes R + nM: below 4R + 4
                # points two grids can agree on an alias of R
                if (prev[i] is not None and m_points // 2 > 4 * seps[i] + 4
                        and abs(value - prev[i]) <= REFINEMENT_TOL * abs(value)):
                    values[i] = float(value)
                prev[i] = value
            if None not in values:
                return tuple(values) if isinstance(R, range) else values[0]
            # doubling the grid adds one node halfway between each pair of current ones
            step = 2 * mp.pi / m_points
            first, count, ends = step / 2, m_points // 2, ()
            m_points *= 2

    missing = ", ".join(str(r) for r, value in zip(seps, values) if value is None)
    raise NonConvergence(
        f"trapezoid refinement reached {MAX_POINTS} points at R={missing} without "
        f"two estimates agreeing to {REFINEMENT_TOL}"
    )
