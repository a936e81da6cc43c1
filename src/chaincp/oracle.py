"""Independent checks: a secular equation on the finite ring, and mpmath quadrature.

Nothing here reuses the closed forms but the ED oracle's reference constant
``E_cp(N // 2)`` (see :func:`cp_energy_ed`): the two estimates' error budgets
are unrelated, so their agreement is evidence rather than tautology.

* :func:`cp_energy_ed` takes the exact ground energy of the single-electron
  Hamiltonian on the ring of ``M = 2N + 1`` sites.  The impurities touch the
  ring at only two sites, so eliminating the ring from ``(E - H) psi = 0``
  leaves, for the even impurity combination, the secular equation

  .. math::

      f(x) = x - \\frac{\\lambda^2}{M}
             \\sum_k \\frac{1 + \\cos kR}{x + \\delta + 2 J \\cos k} = 0

  over the ``M`` ring modes: a finite sum, exact in the coupling and in
  ``N``, with no dense matrix.  It is solved for the offset ``x = E - eps0``
  from the bare level, and the band enters as the offsets
  ``Omega_k - eps0 = -(delta + 2 J cos k)``, so no digit of the root depends
  on where zero is.  The roots of one call are bisected together.  Its
  systematic errors are fourth order in the coupling plus a ring-image
  term, both of which it knows how to estimate.
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
import warnings

from .casimir import cp_energy
from .errors import ConvergenceError, InvalidRegime, NonConvergence
from .lattice import SymmetricSystem, _band_offsets, _separations, brillouin_modes

__all__ = [
    "cp_energy_ed",
    "cp_energy_quadrature",
]

#: Relative agreement between successive quadrature refinements.
REFINEMENT_TOL = 1e-13

#: Quadrature point budget; refining past it raises
#: :class:`~chaincp.errors.NonConvergence`.
MAX_POINTS = 2 ** 22

#: Separations times ring modes the ED bisects in one block (8 MB a buffer).
BLOCK_ELEMENTS = 2 ** 20


def _ground_energies(sys: SymmetricSystem, seps: list[int] | range) -> list[float]:
    """Lowest eigenvalue of the ring plus both impurities, at each separation
    of ``seps``, as its offset ``x = E0 - eps0`` from the bare level.

    Each is the root of the even-channel secular equation ``f`` (see the
    module docstring).  Below the band every term of the mode sum is
    negative, so ``f`` rises strictly there, and it has exactly one root
    below the band; the odd channel's root lies above it, because the ring
    propagator between sites 0 and ``R`` is negative below the band.  The
    root lies in ``[-2|lam|, 0]``: ``f(0) >= 0`` term by term, and the weights
    ``(1 + cos kR) / M`` sum to 1, so at ``-2|lam|`` the sum term is at most
    ``|lam| / 2``.  Bisection runs down to adjacent floats and returns the end
    with the smaller residual.

    One row per separation, all bisected together; each row follows the
    scalar rule step for step, and a contiguous row sum is the pairwise sum
    of a 1-D ``np.sum``, so each root has a scalar bisection's bits.

    Raises
    ------
    ConvergenceError
        If ``f`` does not change sign across that bracket.
    """
    import numpy as np

    modes = brillouin_modes(sys)
    band = _band_offsets(sys, modes)
    rows = max(1, BLOCK_ELEMENTS // len(modes))
    roots: list[float] = []
    for start in range(0, len(seps), rows):
        # lam^2 (1 + cos(R k)) / M in place, rounded as the scalar form is
        weights = np.multiply.outer(np.array(seps[start:start + rows], dtype=float), modes)
        np.cos(weights, out=weights)
        weights += 1.0
        weights *= sys.lam ** 2
        weights /= sys.num_sites
        buf = np.empty_like(weights)
        n_rows = len(weights)
        sums = np.empty(n_rows)

        def secular(x):
            np.subtract(x[:, None], band, out=buf)
            np.divide(weights, buf, out=buf)
            np.sum(buf, axis=1, out=sums)
            return x - sums

        lo = np.full(n_rows, -2.0 * abs(sys.lam))
        hi = np.zeros(n_rows)
        f_lo, f_hi = secular(lo), secular(hi)
        bad = ~((f_lo <= 0.0) & (0.0 <= f_hi))
        if bad.any():
            i = int(np.argmax(bad))
            raise ConvergenceError(
                f"secular equation does not change sign on [{lo[i].item()!r}, "
                f"{hi[i].item()!r}] (f = {f_lo[i].item()!r}, {f_hi[i].item()!r}) "
                f"at R={seps[start + i]}, N={sys.N}"
            )
        mid = np.empty(n_rows)
        while True:
            np.add(lo, hi, out=mid)
            mid *= 0.5
            active = (lo < mid) & (mid < hi)
            if not active.any():
                break
            f_mid = secular(mid)
            down = f_mid <= 0.0
            move_lo, move_hi = active & down, active & ~down
            np.copyto(lo, mid, where=move_lo)
            np.copyto(f_lo, f_mid, where=move_lo)
            np.copyto(hi, mid, where=move_hi)
            np.copyto(f_hi, f_mid, where=move_hi)
        roots += np.where(-f_lo <= f_hi, lo, hi).tolist()
    return roots


def cp_energy_ed(sys: SymmetricSystem, R: int | range) -> float | tuple[float, ...]:
    """Interaction energy at separation ``R`` from the exact ground energy.

    The ground energy is the root of the secular equation on the finite ring
    (see the module docstring), exact in the coupling, solved as its offset
    ``x = E0 - eps0`` from the bare level.  The offset still contains the
    separation-independent single-impurity shift, so the estimate is the
    difference against a far-apart reference where the interaction has died
    off:

    ``x(R) - x(r_ref) + E_cp(r_ref)``

    with ``r_ref = N // 2``.  The closed-form remainder ``E_cp(r_ref)`` is
    4.7e-100 at ``N = 400`` but -3.6e-14 at ``N = 40``, 1.7e-5 of
    ``E_cp(10)``, so on short rings the estimate still leans on the closed
    form (ROADMAP item 2).  Cancelling the reference this way also removes
    the separation-independent fourth-order shift.  Every ``x(R)`` and
    ``x(r_ref)`` are bisected together, once per call, bit for bit as alone.

    Residual systematics are fourth order in ``lam / gap`` plus the ring
    image at separation ``2N + 1 - 2R``; a ``UserWarning`` fires when their
    estimate exceeds 5%.  The image bound is why ``R`` is capped at ``N // 4``.

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
    r_ref = n_half // 2

    for r in seps:
        systematic = (sys.lam / sys.gap) ** 2 + sys.q ** (2 * n_half + 1 - 2 * r)
        if systematic > 0.05:
            warnings.warn(
                f"ED estimate carries ~{systematic:.1%} systematic error "
                f"(fourth-order coupling and ring image) at R={r}, N={n_half}",
                stacklevel=2,
            )

    *energies, reference = _ground_energies(sys, [*seps, r_ref])
    remainder = cp_energy(sys, r_ref)
    values = tuple(x - reference + remainder for x in energies)
    return values if isinstance(R, range) else values[0]


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
