"""Chain geometry, dispersion, and parameter validation.

The conduction band is a tight-binding ring of ``2N + 1`` sites with site
energy ``omega`` and nearest-neighbour hopping ``J``, so the single-particle
dispersion is ``omega - 2 J cos(k)`` on the modes ``k_n = 2 pi n / (2N + 1)``.
Every level is measured from the impurity level ``eps0``, through ``gap``
and the band offsets ``Omega_k - eps0 = -(delta + 2 J cos k)`` of
:func:`~chaincp.perturbation.band_energies`; only ``dispersion``, ``omega``
and the band edges are absolute.  The lattice constant is 1, so impurity
separations are positive integers.  Modes and levels are plain floats and
tuples of them, computed with ``math``.
"""

from __future__ import annotations

import math
import operator
from collections import deque
from itertools import accumulate, chain, islice, repeat
from typing import NamedTuple

from .errors import RegimeViolation

__all__ = [
    "SymmetricSystem",
    "RegimeReport",
    "dispersion",
    "brillouin_modes",
    "validate_regime",
]

#: Coupling-to-gap ratio above which second-order results start to drift
#: at the percent level; ``validate_regime`` records a warning.
WEAK_COUPLING_WARN = 0.1

#: Ratio above which the perturbative treatment is not trustworthy at all;
#: ``validate_regime`` reports failure.
WEAK_COUPLING_FAIL = 0.5

#: ``log`` of the smallest subnormal float, 5e-324, where the ring column stops.
_LOG_TINY = math.log(math.ulp(0.0))


class SymmetricSystem:
    """Identical impurities (``eps0``, ``lam``) side-coupled to one ring.

    The ring has ``2 N + 1`` sites with site energy ``omega`` and hopping
    ``J``.  The system keeps the detuning ``delta`` exactly as given and
    derives the rest once, on construction:

    * ``omega = eps0 - delta``, the band centre,
    * ``a = 2 J / delta``, the band parameter, and
    * ``q = (sqrt(1 - a^2) - 1) / a``, the decay ratio per site, evaluated as
      ``-a / (sqrt(1 - a^2) + 1)`` with the root of :func:`_edge_safe_root`,
      so that neither ``a -> 0`` nor the band edge ``a -> -1`` loses
      precision to cancellation; the flat-band value is exactly ``0.0``.

    The closed forms read only ``delta``, ``J`` and ``lam``, never ``eps0``.
    Both impurity levels must sit strictly below the band, which for this
    configuration means ``gap > 0`` and ``a`` in ``(-1, 0]``; anything
    else raises :class:`~chaincp.errors.RegimeViolation`.  Every parameter,
    ``omega`` and both band edges must be finite.  The separation is not part
    of the system: every function that needs one takes it as an argument.

    Parameters
    ----------
    delta : float
        Detuning ``eps0 - omega`` of the impurity level from the band centre.
    J : float
        Nearest-neighbour hopping amplitude, ``J >= 0``.
    lam : float
        Common tunnelling amplitude.
    N : int
        Half-length; ring sites carry indices ``-N .. N``.
    eps0 : float
        Common impurity level.

    A system is an immutable value: assigning or deleting a field raises
    ``AttributeError``, and two systems are equal, and hash alike, when all
    eight fields are.
    """

    __slots__ = ("delta", "J", "lam", "N", "eps0", "omega", "a", "q")

    delta: float
    J: float
    lam: float
    N: int
    eps0: float
    omega: float
    a: float
    q: float

    def __init__(self, delta: float, J: float, lam: float, N: int, eps0: float = 1.0) -> None:
        for name, value in zip(self.__slots__, (delta, J, lam, N, eps0)):
            object.__setattr__(self, name, value)
        self.__post_init__()

    def __post_init__(self) -> None:
        """Check the given fields and derive ``omega``, ``a`` and ``q``."""
        if not isinstance(self.N, int):
            raise TypeError(f"N must be an integer, got {self.N!r}")
        if self.N < 1:
            raise ValueError(f"chain needs N >= 1, got N={self.N}")
        if self.J < 0:
            # a caller that sweeps the band parameter recognises its own a here
            note = f" (a = 2 J / delta = {2.0 * self.J / self.delta})" if self.delta else ""
            raise ValueError(f"hopping must be non-negative, got J={self.J}{note}")
        object.__setattr__(self, "omega", self.eps0 - self.delta)
        for name in ("eps0", "delta", "J", "lam", "omega", "band_bottom", "band_top"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        # A level a few ulp below the band bottom can still round |a| up to 1.
        a = 2.0 * self.J / self.delta if self.gap > 0.0 else -math.inf
        if not -1.0 < a:
            raise RegimeViolation(
                f"impurity level eps0={self.eps0} is not below the band bottom "
                f"{self.band_bottom}; closed forms require delta < 0 and |a| < 1"
            )
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "q", -a / (_edge_safe_root(self)[0] + 1.0))

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # rebuild through __init__, so a copy or an unpickled system is checked again
        return type(self), self._values()[:5]

    @property
    def num_sites(self) -> int:
        return 2 * self.N + 1

    @property
    def band_bottom(self) -> float:
        return self.omega - 2.0 * self.J

    @property
    def band_top(self) -> float:
        return self.omega + 2.0 * self.J

    @property
    def gap(self) -> float:
        """Offset ``-(delta + 2 J)`` of the band bottom from the impurity level."""
        return -(self.delta + 2.0 * self.J)


def _edge_safe_root(sys: SymmetricSystem) -> tuple[float, float]:
    """``(sqrt(1 - a^2), 1 - q)``, the closed forms' one root and their decay step.

    Both are built from ``1 + a = -gap / delta``: near the band edge the sum
    ``delta + 2 J`` inside ``gap`` is exact (Sterbenz), so ``1 + a`` keeps
    every digit that ``1 + 2 J / delta`` would lose.  The root is ``sqrt((1 -
    a) (1 + a))`` and, with ``q = -a / (root + 1)``, ``1 - q = (root + 1 + a)
    / (root + 1)``: sums of positive terms only, so neither cancels as ``q ->
    1``.  This is the package's only evaluation of the root.
    """
    one_plus_a = -sys.gap / sys.delta
    root = math.sqrt((1.0 - sys.a) * one_plus_a)
    return root, (root + one_plus_a) / (root + 1.0)


def _separations(R: int | range, upper: int | None = None) -> range:
    """``R`` as a checked range of separations, each in ``1 .. upper``.

    ``R`` is one integer separation or a non-empty range of them with step 1;
    a single separation comes back as ``range(R, R + 1)``.  This is the
    package's one separation rule, and 1 its one floor.  A window with
    ``upper < 1`` (a chain too short for any separation) is refused whatever
    ``R`` is.  An empty window is named by its ends, a stride by its ``repr``.
    """
    if not isinstance(R, range):
        if not isinstance(R, int):
            raise TypeError(f"separation must be an integer, got {R!r}")
        R = range(R, R + 1)
    if upper is not None and upper < 1:
        raise ValueError(f"no separation fits: the upper bound {upper} is below the lower bound 1")
    if R.step != 1 or not R:
        got = repr(R) if R.step != 1 else f"R from {R.start} to {R.stop - 1}"
        raise ValueError(f"separations must be a non-empty range with step 1, got {got}")
    if R[0] < 1:
        raise ValueError(f"separation must be >= 1, got R={R[0]}")
    if upper is not None and R[-1] > upper:
        raise ValueError(f"separation must satisfy 1 <= R <= {upper}, got R={R[-1]}")
    return R


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

    This is the package's only evaluation of the finite ring.  ``c_N`` is the
    largest ratio, so ``g_n <= g_0 c_N^n``: the column stops at ``n = log(5e-324
    / g_0) / log(c_N) + 2``, past which that bound is below the smallest
    subnormal.  :func:`_ring_entry` reads ``g_n`` past the cut as ``0.0``.
    Above ``c = 1/2`` the site-by-site product would instead stick at the
    smallest subnormals, since ``5e-324 c`` rounds back up.  A caller that
    reads only the first entries ends the column sooner, at ``n < stop``, and
    keeps only the ratios those entries need: near the band edge no ratio
    repeats, and holding all ``N`` of them would make a short column cost
    O(N) memory.
    """
    d, e, J = -(x + sys.delta), sys.gap - x, sys.J
    e_J, top = e + J, J / (d - J)
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
    cut = (_LOG_TINY - math.log(g_0)) / math.log(max(top, math.ulp(0.0))) + 2
    ratios = chain((g_0,), repeat(tail[-1], sys.N - found), reversed(tail))
    return list(islice(accumulate(ratios, operator.mul), min(int(cut), stop)))


def _ring_entry(column: list[float], n: int) -> float:
    """``g_n`` from a :func:`_ring_column`, exactly ``0.0`` past its cut."""
    return column[n] if n < len(column) else 0.0


def dispersion(sys: SymmetricSystem, k: float) -> float:
    """Band energy ``omega - 2 J cos(k)`` of the mode ``k``."""
    return sys.omega - 2.0 * sys.J * math.cos(k)


def brillouin_modes(sys: SymmetricSystem) -> tuple[float, ...]:
    """Allowed momenta ``2 pi n / (2N + 1)`` for ``n = -N .. N``, in order."""
    turn, sites = 2.0 * math.pi, sys.num_sites
    return tuple(turn * n / sites for n in range(-sys.N, sys.N + 1))


def _digits(ratio: float, threshold: float) -> str:
    """``ratio`` to three digits, or all of them where three would read as ``threshold``."""
    return repr(ratio) if f"{ratio:.3g}" == f"{threshold:.3g}" else f"{ratio:.3g}"


class RegimeReport(NamedTuple):
    """Outcome of :func:`validate_regime`.

    Attributes
    ----------
    coupling_ratio : float
        ``|lam|`` over the gap ``-(delta + 2 J)``, the same at any ``eps0``.
    weak_coupling : bool
        The ratio stays at or below the hard threshold.
    warnings : tuple of str
        Soft findings (ratio above the warning threshold, for instance).
    """

    coupling_ratio: float
    weak_coupling: bool
    warnings: tuple[str, ...]


def validate_regime(sys: SymmetricSystem) -> RegimeReport:
    """Check that the second-order treatment applies to this system.

    The expansion parameter is the coupling over the distance from the
    impurity level to the band bottom, which the system guarantees is
    positive.  Errors enter at second order in that ratio, so 0.1 keeps
    them near the percent level; beyond 0.5 the expansion has no business
    converging.
    """
    ratio = abs(sys.lam) / sys.gap
    warnings: list[str] = []
    if WEAK_COUPLING_WARN < ratio <= WEAK_COUPLING_FAIL:
        warnings.append(
            f"coupling ratio {_digits(ratio, WEAK_COUPLING_WARN)} exceeds {WEAK_COUPLING_WARN}; "
            "second-order results may drift beyond the percent level"
        )
    return RegimeReport(coupling_ratio=ratio, weak_coupling=ratio <= WEAK_COUPLING_FAIL,
                        warnings=tuple(warnings))


def require_valid_regime(sys: SymmetricSystem) -> RegimeReport:
    """Raise :class:`RegimeViolation` unless :func:`validate_regime` finds the coupling weak.

    This is the package's one regime gate.  The returned report still
    carries the soft warnings for the caller to show.
    """
    report = validate_regime(sys)
    if not report.weak_coupling:
        raise RegimeViolation(
            "configuration outside the validity regime: coupling too strong"
            f" (coupling ratio {_digits(report.coupling_ratio, WEAK_COUPLING_FAIL)})"
        )
    return report
