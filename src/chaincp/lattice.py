"""Chain geometry, dispersion, and parameter validation.

The conduction band is a tight-binding ring of ``2N + 1`` sites with site
energy ``omega`` and nearest-neighbour hopping ``J``, so the single-particle
dispersion is ``omega - 2 J cos(k)`` on the modes ``k_n = 2 pi n / (2N + 1)``.
Energies are measured in units of the impurity level and the lattice constant
is 1, so impurity separations are positive integers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import BandEdgeError, RegimeViolation

__all__ = [
    "ChainParams",
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


@dataclass(frozen=True)
class ChainParams:
    """Periodic tight-binding chain with ``2 N + 1`` sites.

    Parameters
    ----------
    omega : float
        On-site energy of every chain site.
    J : float
        Nearest-neighbour hopping amplitude, ``J >= 0``.
    N : int
        Half-length; sites carry indices ``-N .. N``.
    """

    omega: float
    J: float
    N: int

    def __post_init__(self) -> None:
        if not isinstance(self.N, int):
            raise TypeError(f"N must be an integer, got {self.N!r}")
        if self.N < 1:
            raise ValueError(f"chain needs N >= 1, got N={self.N}")
        if self.J < 0:
            raise ValueError(f"hopping must be non-negative, got J={self.J}")

    @property
    def num_sites(self) -> int:
        return 2 * self.N + 1

    @property
    def band_bottom(self) -> float:
        return self.omega - 2.0 * self.J

    @property
    def band_top(self) -> float:
        return self.omega + 2.0 * self.J


@dataclass(frozen=True)
class SymmetricSystem:
    """Identical impurities (``eps0``, ``lam``) side-coupled to one chain.

    The closed-form results below the band are controlled by three derived
    quantities, computed on construction:

    * ``delta = eps0 - omega``, the detuning from the band centre,
    * ``a = 2 J / delta``, the band parameter, and
    * ``q = (sqrt(1 - a^2) - 1) / a``, the decay ratio per site, evaluated as
      ``-a / (sqrt(1 - a^2) + 1)`` so that ``a -> 0`` loses no precision to
      cancellation; the flat-band value is exactly ``0.0``.

    Both impurity levels must sit strictly below the band, which for this
    configuration means ``delta < 0`` and ``a`` in ``(-1, 0]``; anything
    else raises :class:`~chaincp.errors.BandEdgeError`.  The separation is
    not part of the system: every function that needs one takes it as an
    argument.

    Parameters
    ----------
    chain : ChainParams
    eps0 : float
        Common impurity level.
    lam : float
        Common tunnelling amplitude.
    """

    chain: ChainParams
    eps0: float
    lam: float
    delta: float = field(init=False)
    a: float = field(init=False)
    q: float = field(init=False)

    def __post_init__(self) -> None:
        delta = self.eps0 - self.chain.omega
        # A level a few ulp below the band bottom can still round |a| up to 1.
        a = 2.0 * self.chain.J / delta if self.eps0 < self.chain.band_bottom else -math.inf
        if not -1.0 < a:
            raise BandEdgeError(
                f"impurity level eps0={self.eps0} is not below the band bottom "
                f"{self.chain.band_bottom}; closed forms require delta < 0 and |a| < 1"
            )
        object.__setattr__(self, "delta", delta)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "q", -a / (math.sqrt(1.0 - a * a) + 1.0))

    @classmethod
    def from_detuning(
        cls,
        delta: float,
        J: float,
        lam: float,
        N: int,
        eps0: float = 1.0,
    ) -> "SymmetricSystem":
        """Build a system from the detuning instead of the band centre."""
        chain = ChainParams(omega=eps0 - delta, J=J, N=N)
        return cls(chain=chain, eps0=eps0, lam=lam)


def _check_separation(R: int, upper: int | None = None, lower: int = 1) -> None:
    """Raise unless the separation ``R`` is an integer in ``lower .. upper``."""
    if not isinstance(R, int):
        raise TypeError(f"separation must be an integer, got {R!r}")
    if R < lower:
        raise ValueError(f"separation must be >= {lower}, got R={R}")
    if upper is not None and R > upper:
        raise ValueError(f"separation must satisfy {lower} <= R <= {upper}, got R={R}")


def dispersion(chain: ChainParams, k) -> np.ndarray | float:
    """Band energy ``omega - 2 J cos(k)`` for a mode or an array of modes."""
    return chain.omega - 2.0 * chain.J * np.cos(k)


def brillouin_modes(chain: ChainParams) -> np.ndarray:
    """Allowed momenta ``2 pi n / (2N + 1)`` for ``n = -N .. N``, in order."""
    n = np.arange(-chain.N, chain.N + 1)
    return 2.0 * np.pi * n / chain.num_sites


@dataclass(frozen=True)
class RegimeReport:
    """Outcome of :func:`validate_regime`.

    Attributes
    ----------
    coupling_ratio : float
        ``|lam|`` over the gap ``band_bottom - eps0``.
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
    ratio = abs(sys.lam) / (sys.chain.band_bottom - sys.eps0)
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
