"""Casimir-Polder interactions between two impurities on a tight-binding chain.

Two atoms side-coupled below the band of a 1D wire exchange virtual band
electrons; to second order in the tunnelling this splits the impurity
doublet and produces an attractive, exponentially decaying force between
the attachment sites.  The package evaluates the closed forms for this
interaction, checks them against the exact ground energy of the finite
ring (from its Green's function in real space) and an arbitrary-precision
momentum integral, and extends them to finite temperature.

What loads when: ``import chaincp`` runs only this file, which holds the
version (``pyproject.toml`` reads the literal without importing it), the
names of the submodules and two PEP 562 hooks.  A submodule name imports that
submodule on first access, so ``from chaincp import cli`` and ``from . import
perturbation`` load what they name and nothing else.  The first public
``chaincp.<name>``, ``dir(chaincp)`` or ``from chaincp import *`` also loads
``chaincp._namespace``, the table of each public name's home module, and each
name then imports its home on first access, so ``chaincp.cp_energy`` loads
``lattice``, ``casimir`` and ``errors`` and never the oracles or the thermal
layer.  Names are looked up in the home module on every access, never cached
here, so a patched home module is seen through the package.  The CLI never
loads the table.  The package never imports numpy: modes and levels are floats
and tuples computed with ``math``.  mpmath, its one dependency, loads on the
first quadrature.
"""

from importlib import import_module

__version__ = "0.1.0"

#: Every submodule; each imports on its first ``chaincp.<name>``, without the name table.
_SUBMODULES = ("_namespace", "_ring", "casimir", "cli", "errors", "lattice", "oracle",
               "perturbation", "thermal")


def __getattr__(name: str):
    if name in _SUBMODULES:
        return import_module(f"{__name__}.{name}")
    return import_module(f"{__name__}._namespace").attribute(name)


def __dir__() -> list[str]:
    return import_module(f"{__name__}._namespace").names()
