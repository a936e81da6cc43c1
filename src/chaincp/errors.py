"""Exception types shared across the package."""


class RegimeViolation(ValueError):
    """Parameters leave the below-band, weak-coupling regime.

    The perturbative results assume both impurity levels sit strictly
    below the conduction band and couple weakly to it.  Constructors and
    validators raise this (or a subclass) when that assumption fails.
    """


class BandEdgeError(RegimeViolation):
    """An impurity level touches or enters the band; closed forms diverge."""


class InvalidRegime(RegimeViolation):
    """The requested quantity is undefined for these parameters."""


class ConvergenceError(RuntimeError):
    """A numerical routine failed to reach its target accuracy."""


class NonConvergence(ConvergenceError):
    """Adaptive refinement hit its point budget before converging."""
