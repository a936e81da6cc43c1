"""Independent checks: a secular equation on the finite ring, and mpmath quadrature.

Nothing here reuses the closed forms, except the ED oracle's additive
reference constant ``E_cp(N // 2)``: 4.7e-100 at ``N = 400``, but -3.6e-14 at
``N = 40``, 1.7e-5 of ``E_cp(10)`` in the golden ``oracle-check`` table
(ROADMAP item 3 removes it).  The point is to have two estimates of the same
interaction energy whose error budgets are unrelated, so agreement is
evidence rather than tautology.

* :func:`cp_energy_ed` takes the exact ground energy of the single-electron
  Hamiltonian on the ring of ``M = 2N + 1`` sites.  The impurities touch the
  ring at only two sites, so eliminating the ring from ``(E - H) psi = 0``
  leaves, for the even impurity combination, the secular equation

  .. math::

      f(E) = E - \\epsilon_0 - \\frac{\\lambda^2}{M}
             \\sum_k \\frac{1 + \\cos kR}{E - \\Omega_k} = 0

  over the ``M`` ring modes: a finite sum, exact in the coupling and in
  ``N``, with no dense matrix.  Its systematic errors are fourth order in the
  coupling plus a ring-image term, both of which it knows how to estimate.
* :func:`cp_energy_quadrature` evaluates the ``N -> inf`` momentum integral

  .. math::

      E_{cp}(R) = \\frac{\\lambda^2}{2\\pi}
                  \\int_{-\\pi}^{\\pi}
                  \\frac{e^{-i k R}}{\\delta + 2 J \\cos k}\\, dk

  by the periodic trapezoid rule, which converges geometrically for this
  analytic integrand.  The denominator does not depend on ``R``, so one grid
  serves a whole range of separations: each node pays for ``cos k``,
  ``sin k`` and one division, and the phases ``cos kR``, ``sin kR`` follow
  from the Chebyshev recurrence ``x_{R+1} = 2 cos k x_R - x_{R-1}``.  The
  integral is a difference of quantities nine or more orders apart at large
  ``R``, far below the float64 noise floor, so the accumulation runs in
  arbitrary precision (mpmath), with enough digits for the ``-R log10 q``
  that cancel, and only the final values are rounded.
"""

from __future__ import annotations

import math
import warnings

import numpy as np

from .casimir import cp_energy
from .errors import ConvergenceError, InvalidRegime, NonConvergence
from .lattice import SymmetricSystem, _check_separation, brillouin_modes, dispersion

__all__ = [
    "cp_energy_ed",
    "cp_energy_quadrature",
]


def _separations(R: int | range, lower: int, upper: int | None = None) -> range:
    """``R`` as a range of separations, each in ``lower .. upper``.

    ``R`` is one separation or a non-empty range of them with step 1.
    """
    if not isinstance(R, range):
        _check_separation(R, upper, lower)
        return range(R, R + 1)
    if R.step != 1 or not R:
        raise ValueError(f"separations must be a non-empty range with step 1, got {R!r}")
    _check_separation(R[0], upper, lower)
    _check_separation(R[-1], upper, lower)
    return R


def _ground_energy(sys: SymmetricSystem, R: int) -> float:
    """Lowest eigenvalue of the ring plus both impurities, ``R`` sites apart.

    This is the root of the even-channel secular equation ``f`` (see the
    module docstring).  Below the band every term of the mode sum is
    negative, so ``f`` rises strictly there, and it has exactly one root
    below ``band_bottom``; the odd channel's root lies above it, because the
    ring propagator between sites 0 and ``R`` is negative below the band.
    The root lies in ``[eps0 - 2|lam|, eps0]``: ``f(eps0) >= 0`` term by term,
    and the weights ``(1 + cos kR) / M`` sum to 1, so at ``eps0 - 2|lam|`` the
    sum term is at most ``|lam| / 2``.  Bisection runs down to adjacent floats
    and returns the end with the smaller residual.

    Raises
    ------
    ConvergenceError
        If ``f`` does not change sign across that bracket.
    """
    modes = brillouin_modes(sys.chain)
    band = dispersion(sys.chain, modes)
    weights = sys.lam ** 2 * (1.0 + np.cos(R * modes)) / sys.chain.num_sites

    def secular(e: float) -> float:
        return e - sys.eps0 - float(np.sum(weights / (e - band)))

    lo, hi = sys.eps0 - 2.0 * abs(sys.lam), sys.eps0
    f_lo, f_hi = secular(lo), secular(hi)
    if not f_lo <= 0.0 <= f_hi:
        raise ConvergenceError(
            f"secular equation does not change sign on [{lo!r}, {hi!r}] "
            f"(f = {f_lo!r}, {f_hi!r}) at R={R}, N={sys.chain.N}"
        )
    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        f_mid = secular(mid)
        if f_mid <= 0.0:
            lo, f_lo = mid, f_mid
        else:
            hi, f_hi = mid, f_mid
    return lo if -f_lo <= f_hi else hi


def cp_energy_ed(sys: SymmetricSystem, R: int | range) -> float | tuple[float, ...]:
    """Interaction energy at separation ``R`` from the exact ground energy.

    The ground energy is the root of the secular equation on the finite ring
    (see the module docstring), exact in the coupling.  It contains large
    separation-independent pieces (the bare level and the single-impurity
    shift), so the estimate is the difference against a far-apart reference
    where the interaction has died off:

    ``E0(R) - E0(r_ref) + E_cp(r_ref)``

    with ``r_ref = N // 2``.  The closed-form remainder ``E_cp(r_ref)`` is
    4.7e-100 at ``N = 400`` but -3.6e-14 at ``N = 40``, 1.7e-5 of
    ``E_cp(10)``, so on short rings the estimate still leans on the closed
    form (ROADMAP item 3).  Cancelling the reference this way also removes
    the separation-independent fourth-order shift.  ``E0(r_ref)`` is solved
    once per call, so a range of separations shares it.

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
    n_half = sys.chain.N
    seps = _separations(R, 1, n_half // 4)
    r_ref = n_half // 2

    gap = sys.chain.band_bottom - sys.eps0
    for r in seps:
        systematic = (sys.lam / gap) ** 2 + sys.q ** (2 * n_half + 1 - 2 * r)
        if systematic > 0.05:
            warnings.warn(
                f"ED estimate carries ~{systematic:.1%} systematic error "
                f"(fourth-order coupling and ring image) at R={r}, N={n_half}",
                stacklevel=2,
            )

    reference = _ground_energy(sys, r_ref)
    values = tuple(_ground_energy(sys, r) - reference + cp_energy(sys, r_ref) for r in seps)
    return values if isinstance(R, range) else values[0]


def cp_energy_quadrature(
    sys: SymmetricSystem,
    R: int | range,
    rel_tol: float = 1e-13,
    max_points: int = 2 ** 22,
) -> float | tuple[float, ...]:
    """Interaction energy from the momentum integral, in arbitrary precision.

    One periodic trapezoid grid serves every separation asked for.  Each
    node costs one division by ``delta + 2 J cos k`` and the trig calls for
    ``cos k``, ``sin k`` and, when ``rmin > 1``, the phase ``rmin k``; the
    phases ``cos kR`` and ``sin kR`` for ``R = rmin .. rmax`` follow from
    the Chebyshev recurrence ``x_{R+1} = 2 cos k x_R - x_{R-1}``, and each
    separation keeps its own real and imaginary running sums.  The number of points doubles from 64,
    adding only the new midpoints, until every separation has two successive
    estimates that agree to ``rel_tol``; a separation's value is the first
    estimate that does, so a sweep returns the same floats as one call per
    separation.  The imaginary part must cancel by the k -> -k symmetry of
    the grid; a residual above 1e-12 of the value at any separation raises
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
    rel_tol : float
        Relative agreement between successive refinements.
    max_points : int
        Point budget; exceeding it raises
        :class:`~chaincp.errors.NonConvergence`, naming the separations
        still unconverged.

    Returns
    -------
    float or tuple of float
        The integral times ``lam**2``, rounded once at the end; a tuple in
        the order of ``R`` when ``R`` is a range.
    """
    # imported on first use: nothing else needs mpmath, ~30 ms of `import chaincp`
    from mpmath import mp

    if sys.a == 0.0:
        raise InvalidRegime("quadrature needs a dispersive band (J > 0); "
                            "for J = 0 the interaction is identically zero")
    seps = _separations(R, 0)
    rmin, rmax = seps[0], seps[-1]
    # q underflows to 0.0 only below the smallest subnormal
    lost = math.ceil(-rmax * math.log10(max(sys.q, math.ulp(0.0))))

    with mp.workdps(40 + max(0, lost - 5)):
        delta = mp.mpf(sys.delta)
        two_j = mp.mpf(2.0 * sys.chain.J)
        lam_sq = mp.mpf(sys.lam) ** 2

        n_seps = len(seps)
        acc_re = [mp.mpf(0)] * n_seps
        acc_im = [mp.mpf(0)] * n_seps
        prev: list = [None] * n_seps
        values: list = [None] * n_seps
        m_points = 64
        # the nodes not yet in the sums are first + j * step, j < count
        step = 2 * mp.pi / m_points
        first, count = -mp.pi, m_points
        while m_points <= max_points:
            for j in range(count):
                k = first + j * step
                cos_k = mp.cos(k)
                inv_den = 1 / (delta + two_j * cos_k)
                if rmin == 0:
                    c, s = mp.mpf(1), mp.mpf(0)
                elif rmin == 1:
                    c, s = cos_k, mp.sin(k)
                else:
                    c, s = mp.cos(k * rmin), mp.sin(k * rmin)
                if n_seps > 1:
                    sin_k = s if rmin == 1 else mp.sin(k)
                    # the phase one step back, (rmin - 1) k, seeds the recurrence
                    c_prev = (c * cos_k + s * sin_k) * inv_den
                    s_prev = (s * cos_k - c * sin_k) * inv_den
                    two_cos = 2 * cos_k
                # the recurrence is linear, so it can carry the summands
                # cos(Rk) / den and sin(Rk) / den themselves
                c, s = c * inv_den, s * inv_den
                for i in range(n_seps):
                    acc_re[i] += c
                    acc_im[i] -= s
                    if i + 1 < n_seps:
                        c, c_prev = two_cos * c - c_prev, c
                        s, s_prev = two_cos * s - s_prev, s
            for i, r in enumerate(seps):
                if values[i] is not None:
                    continue
                value = lam_sq * acc_re[i] / m_points
                if prev[i] is not None and abs(value - prev[i]) <= rel_tol * abs(value):
                    imag = lam_sq * acc_im[i] / m_points
                    if abs(imag) > 1e-12 * abs(value):
                        raise ConvergenceError(
                            f"odd part failed to cancel at R={r}: {mp.nstr(imag, 6)} "
                            f"with {m_points} points"
                        )
                    values[i] = float(value)
                prev[i] = value
            if None not in values:
                return tuple(values) if isinstance(R, range) else values[0]
            # doubling the grid adds one node halfway between each pair of current ones
            step = 2 * mp.pi / m_points
            first, count = -mp.pi + step / 2, m_points
            m_points *= 2

    missing = ", ".join(str(r) for r, value in zip(seps, values) if value is None)
    raise NonConvergence(
        f"trapezoid refinement reached {max_points} points at R={missing} without "
        f"two estimates agreeing to {rel_tol}"
    )
