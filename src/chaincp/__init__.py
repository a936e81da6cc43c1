"""Casimir-Polder interactions between two impurities on a tight-binding chain.

Two atoms side-coupled below the band of a 1D wire exchange virtual band
electrons; to second order in the tunnelling this splits the impurity
doublet and produces an attractive, exponentially decaying force between
the attachment sites.  The package evaluates the closed forms for this
interaction, checks them against the exact ground energy of the finite
ring (from its Green's function in real space) and an arbitrary-precision
momentum integral, and extends them to finite temperature.

numpy and mpmath load on the first call that needs them, never on
``import chaincp``.  The closed forms use neither and both oracles no
numpy, so ``thermal-sweep`` and ``dispersion-dump`` are the CLI modes that load it.
"""

from . import casimir, errors, lattice, oracle, perturbation, thermal
from ._version import __version__
from .casimir import *  # noqa: F403
from .errors import *  # noqa: F403
from .lattice import *  # noqa: F403
from .oracle import *  # noqa: F403
from .perturbation import *  # noqa: F403
from .thermal import *  # noqa: F403

__all__ = [
    "__version__",
    *lattice.__all__,
    *perturbation.__all__,
    *casimir.__all__,
    *oracle.__all__,
    *thermal.__all__,
    *errors.__all__,
]
