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
from typing import NamedTuple

from .errors import RegimeViolation


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


def _log_q(sys: SymmetricSystem) -> float:
    """``ln q``: ``log1p(-(1 - q))`` on the edge-safe ``1 - q`` above ``q = 1/2``, else ``log q``.

    Near the band edge ``log q`` would carry the rounding of ``q`` into ``Gamma
    = -ln q``.  ``-inf`` at ``q = 0``.  This is the package's only ``ln q``.
    """
    if sys.q > 0.5:
        return math.log1p(-_edge_safe_root(sys)[1])
    return math.log(sys.q) if sys.q else -math.inf


def _decay_power(sys: SymmetricSystem, R: int) -> float:
    """``q^R``, above ``q = 1/2`` as ``exp(R ln q)`` from :func:`_log_q`.

    ``q ** R`` amplifies the rounding of ``q`` R times, to 9.5e-13 at ``R =
    20000`` near the band edge; this carries ``Gamma R`` ulp, ``Gamma = -ln q``.
    """
    if sys.q <= 0.5:
        return sys.q ** R
    return math.exp(R * _log_q(sys))


def _separation(R: int, upper: int | None = None) -> int:
    """``R`` as one checked separation in ``1 .. upper``: the point rule.

    Anything but an integer, a ``range`` included, is a ``TypeError``; the
    bounds are :func:`_separations`' on the one-point window, so both shapes
    give the same messages.
    """
    if not isinstance(R, int):
        raise TypeError(f"separation must be an integer, got {R!r}")
    return _separations(range(R, R + 1), upper)[0]


def _separations(R: range, upper: int | None = None) -> range:
    """``R`` as a checked window of separations, each in ``1 .. upper``: the window rule.

    ``R`` is a non-empty range with step 1; anything else, an integer
    included, is a ``TypeError``.  This is the package's one bounds rule, and
    1 its one floor.  A window with ``upper < 1`` (a chain too short for any
    separation) is refused whatever ``R`` is.  An empty window is named by
    its ends, a stride by its ``repr``.
    """
    if not isinstance(R, range):
        raise TypeError(f"separations must be a range, got {R!r}")
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
