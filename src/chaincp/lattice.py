"""Chain geometry, dispersion, and parameter validation.

The conduction band is a tight-binding ring of ``2N + 1`` sites with site
energy ``omega`` and nearest-neighbour hopping ``J``, so the single-particle
dispersion is ``omega - 2 J cos(k)`` on the modes ``k_n = 2 pi n / (2N + 1)``.
Every level is measured from the impurity level ``eps0``, through this
module's band offsets ``Omega_k - eps0 = -(delta + 2 J cos k)`` and ``gap``;
only ``dispersion``, ``omega`` and the band edges are absolute.  The lattice
constant is 1, so impurity separations are positive integers.
"""

from __future__ import annotations

import math
import operator
from itertools import accumulate
from typing import TYPE_CHECKING, NamedTuple

from .errors import BandEdgeError, RegimeViolation

if TYPE_CHECKING:
    import numpy as np

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


class SymmetricSystem:
    """Identical impurities (``eps0``, ``lam``) side-coupled to one ring.

    The ring has ``2 N + 1`` sites with site energy ``omega`` and hopping
    ``J``.  The system keeps the detuning ``delta`` exactly as given and
    derives the rest once, on construction:

    * ``omega = eps0 - delta``, the band centre,
    * ``a = 2 J / delta``, the band parameter, and
    * ``q = (sqrt(1 - a^2) - 1) / a``, the decay ratio per site, evaluated as
      ``-a / (sqrt(1 - a^2) + 1)`` so that ``a -> 0`` loses no precision to
      cancellation; the flat-band value is exactly ``0.0``.

    The closed forms read only ``delta``, ``J`` and ``lam``, never ``eps0``.
    Both impurity levels must sit strictly below the band, which for this
    configuration means ``gap > 0`` and ``a`` in ``(-1, 0]``; anything
    else raises :class:`~chaincp.errors.BandEdgeError`.  Every parameter,
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
            raise ValueError(f"hopping must be non-negative, got J={self.J}")
        object.__setattr__(self, "omega", self.eps0 - self.delta)
        for name in ("eps0", "delta", "J", "lam", "omega", "band_bottom", "band_top"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        # A level a few ulp below the band bottom can still round |a| up to 1.
        a = 2.0 * self.J / self.delta if self.gap > 0.0 else -math.inf
        if not -1.0 < a:
            raise BandEdgeError(
                f"impurity level eps0={self.eps0} is not below the band bottom "
                f"{self.band_bottom}; closed forms require delta < 0 and |a| < 1"
            )
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "q", -a / (math.sqrt(1.0 - a * a) + 1.0))

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


def _separations(R: int | range, lower: int = 1, upper: int | None = None) -> range:
    """``R`` as a checked range of separations, each in ``lower .. upper``.

    ``R`` is one integer separation or a non-empty range of them with step 1;
    a single separation comes back as ``range(R, R + 1)``.  This is the
    package's one separation rule.  A window with ``upper < lower`` (a
    chain too short for any separation) is refused whatever ``R`` is.
    """
    if not isinstance(R, range):
        if not isinstance(R, int):
            raise TypeError(f"separation must be an integer, got {R!r}")
        R = range(R, R + 1)
    if upper is not None and upper < lower:
        raise ValueError(
            f"no separation fits: the upper bound {upper} is below the lower bound {lower}")
    if R.step != 1 or not R:
        raise ValueError(f"separations must be a non-empty range with step 1, got {R!r}")
    if R[0] < lower:
        raise ValueError(f"separation must be >= {lower}, got R={R[0]}")
    if upper is not None and R[-1] > upper:
        raise ValueError(f"separation must satisfy {lower} <= R <= {upper}, got R={R[-1]}")
    return R


def _ring_ratios(sys: SymmetricSystem, x: float) -> list[float]:
    """``[g_0, c_1, .., c_N]`` of the ring's Green's function ``g_n = -G_0n(eps0 + x)``.

    Below the band ``d = -(x + delta) > 2 J``, ``d g_n - J (g_{n-1} + g_{n+1})
    = [n = 0]`` and, by mirror symmetry, ``g_{N+1} = g_N``.  Eliminating from
    there gives the minimal solution (Gautschi, SIAM Rev. 9:24, 1967): ratios
    ``c_n = g_n / g_{n-1}`` with ``c_N = J / (d - J)``, ``c_n = J / (d - J
    c_{n+1})``, and ``g_0 = 1 / (d - 2 J c_1)``.  Every ``c_n`` is in ``[0,
    1)``, so no step cancels; they fall towards the bulk decay ratio ``c_1``,
    and once one repeats every lower one equals it.
    """
    d = -(x + sys.delta)
    J = sys.J
    ratios = [0.0] * (sys.N + 1)
    c = ratios[sys.N] = J / (d - J)
    for n in range(sys.N - 1, 0, -1):
        nxt = J / (d - J * c)
        if nxt == c:
            ratios[1:n + 1] = [c] * n
            break
        c = ratios[n] = nxt
    ratios[0] = 1.0 / (d - 2.0 * J * ratios[1])
    return ratios


def _ring_column(sys: SymmetricSystem, x: float) -> list[float]:
    """``g_n = c_n g_{n-1}`` for ``n = 0 .. N``, from :func:`_ring_ratios`; the two
    are the package's only evaluation of the ring's Green's function."""
    return list(accumulate(_ring_ratios(sys, x), operator.mul))


def dispersion(sys: SymmetricSystem, k) -> np.ndarray | float:
    """Band energy ``omega - 2 J cos(k)`` for a mode or an array of modes."""
    import numpy as np

    return sys.omega - 2.0 * sys.J * np.cos(k)


def _band_offsets(sys: SymmetricSystem, modes) -> np.ndarray:
    """Band energies from the impurity level, ``Omega_k - eps0 = -(delta + 2 J cos k)``."""
    import numpy as np

    return -(sys.delta + 2.0 * sys.J * np.cos(modes))


def brillouin_modes(sys: SymmetricSystem) -> np.ndarray:
    """Allowed momenta ``2 pi n / (2N + 1)`` for ``n = -N .. N``, in order."""
    import numpy as np

    n = np.arange(-sys.N, sys.N + 1)
    return 2.0 * np.pi * n / sys.num_sites


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
            f"coupling ratio {ratio:.3g} exceeds {WEAK_COUPLING_WARN}; "
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
            f" (coupling ratio {report.coupling_ratio:.3g})"
        )
    return report
