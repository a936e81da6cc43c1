"""Exception types shared across the package, one per CLI exit code: 3 and 4."""


class RegimeViolation(ValueError):
    """Parameters leave the below-band, weak-coupling regime.

    The perturbative results assume both impurity levels sit strictly
    below the conduction band and couple weakly to it.  Constructors and
    validators raise this when that assumption fails, as do the functions
    whose quantity is undefined for the parameters given.
    """


class ConvergenceError(RuntimeError):
    """A numerical routine failed to reach its target accuracy."""
