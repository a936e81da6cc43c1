"""Casimir-Polder interactions between two impurities on a tight-binding chain.

Two atoms side-coupled below the band of a 1D wire exchange virtual band
electrons; to second order in the tunnelling this splits the impurity
doublet and produces an attractive, exponentially decaying force between
the attachment sites.  The package evaluates the closed forms for this
interaction, checks them against the exact ground energy of the finite
ring (a secular-equation root) and an arbitrary-precision momentum
integral, and extends them to finite temperature.
"""

from ._version import __version__
from .casimir import (
    DecayProfile,
    ForceCurve,
    ForceRecord,
    continuum_decay_constant,
    cp_energy,
    cp_energy_continuum,
    decay_profile,
    ecp_force,
    force_curve,
)
from .errors import (
    BandEdgeError,
    ConvergenceError,
    InvalidRegime,
    NonConvergence,
    RegimeViolation,
)
from .lattice import (
    ChainParams,
    ImpurityConfig,
    RegimeReport,
    SymmetricSystem,
    brillouin_modes,
    dispersion,
    validate_regime,
)
from .oracle import cp_energy_ed, cp_energy_quadrature
from .perturbation import (
    EffectiveCoefficients,
    SymmetricSpectrum,
    band_energies,
    effective_coefficients,
    symmetric_spectrum_closed,
    symmetric_spectrum_ksum,
)
from .thermal import (
    TemperatureForce,
    TemperatureSweep,
    ThermalEnsemble,
    ThermalRow,
    force_vs_temperature,
    thermal_energy,
    thermal_ensemble,
    thermal_force,
    thermal_table,
)

__all__ = [
    "__version__",
    # lattice
    "ChainParams", "ImpurityConfig", "SymmetricSystem", "RegimeReport",
    "dispersion", "brillouin_modes", "validate_regime",
    # perturbation
    "EffectiveCoefficients", "SymmetricSpectrum", "effective_coefficients",
    "band_energies", "symmetric_spectrum_ksum", "symmetric_spectrum_closed",
    # casimir
    "ForceRecord", "ForceCurve", "DecayProfile", "cp_energy", "ecp_force",
    "force_curve", "decay_profile", "continuum_decay_constant",
    "cp_energy_continuum",
    # oracle
    "cp_energy_ed", "cp_energy_quadrature",
    # thermal
    "ThermalEnsemble", "ThermalRow", "TemperatureForce", "TemperatureSweep",
    "thermal_ensemble", "thermal_table", "thermal_energy", "thermal_force",
    "force_vs_temperature",
    # errors
    "RegimeViolation", "BandEdgeError", "InvalidRegime",
    "ConvergenceError", "NonConvergence",
]
