"""The package's lazy namespace: each public name and the submodule it lives in.

``chaincp/__init__.py`` holds only the version, the submodules' names and
two PEP 562 hooks.  Its ``__getattr__`` imports a submodule itself and hands
every other name here, and its ``__dir__`` hands ``dir(chaincp)`` here, so
that neither a bare ``import chaincp`` nor the import of a submodule (the
CLI's, or ``from chaincp import cli``) compiles the table.
"""

from importlib import import_module

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

#: The package's ``__all__``.
PUBLIC = ["__version__", *_HOME_OF]


def attribute(name: str):
    """``chaincp.<name>``, looked up in its home module on every access, never cached."""
    if name == "__all__":
        return PUBLIC
    if name not in _HOME_OF:
        raise AttributeError(f"module {__package__!r} has no attribute {name!r}")
    return getattr(import_module(f"{__package__}.{_HOME_OF[name]}"), name)


def names() -> list[str]:
    """``dir(chaincp)``: what the package holds, ``__all__``, every public name and submodule."""
    package = import_module(__package__)
    return sorted({*vars(package), "__all__", *PUBLIC, *package._SUBMODULES})
