"""Casimir-Polder interactions between two impurities on a tight-binding chain.

Two atoms side-coupled below the band of a 1D wire exchange virtual band
electrons; to second order in the tunnelling this splits the impurity
doublet and produces an attractive, exponentially decaying force between
the attachment sites.  The package evaluates the closed forms for this
interaction, checks them against the exact ground energy of the finite
ring (from its Green's function in real space) and an arbitrary-precision
momentum integral, and extends them to finite temperature.

What loads when: ``import chaincp`` runs only this file, the version's one
home, which ``pyproject.toml`` reads as a literal without importing it.  Each
public name, and each submodule name, imports its home module on first access
(PEP 562), so ``chaincp.cp_energy`` loads ``lattice``, ``casimir`` and
``errors`` and never the oracles or the thermal layer.  Names are looked up in
the home module on every access, never cached here, so a patched home module
is seen through the package.  It never imports numpy: modes and levels are
floats and tuples computed with ``math``.  mpmath, its one dependency, loads
on the first quadrature.
"""

from importlib import import_module

__version__ = "0.1.0"

#: Each home submodule and its public names, in ``__all__`` order.
_HOMES = {
    "lattice": "SymmetricSystem RegimeReport dispersion brillouin_modes validate_regime",
    "perturbation": "band_energies symmetric_spectrum_ksum symmetric_spectrum_closed",
    "casimir": "ForceRecord DecayProfile cp_energy ecp_force force_curve decay_profile "
               "continuum_decay_constant",
    "oracle": "cp_energy_ed cp_energy_quadrature",
    "thermal": "ThermalEnsemble ThermalRow thermal_ensemble thermal_table thermal_energy "
               "thermal_force",
    "errors": "RegimeViolation ConvergenceError",
}
#: Every public name's home submodule.
_HOME_OF = {name: module for module, names in _HOMES.items() for name in names.split()}

__all__ = ["__version__", *_HOME_OF]


def __getattr__(name: str):
    if name in _HOMES:
        return import_module(f"{__name__}.{name}")
    if name not in _HOME_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f"{__name__}.{_HOME_OF[name]}"), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_HOMES})
