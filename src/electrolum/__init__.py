"""Electroluminescence of an electrically open, ultrastrongly coupled cavity.

A three-level electronic site (empty/ground/excited) exchanges electrons
with biased reservoirs while coupled to one photon mode beyond the
rotating-wave approximation.  The package diagonalizes the coupled
Hamiltonian, derives dressed-state Lindblad channels for the three
baths, solves the master equation for the steady state and the emission
spectrum, and cross-validates against a five-level rate model and
closed-form intensities.

Units: hbar = 1, omega_c = 1.

The numerical names below load their module, and numpy with it, on
first access, so that importing the package, or validating a
configuration with ``electrolum.cli``, loads no numpy (and, since the
records are ``typing.NamedTuple``s, no ``inspect``).
"""

import importlib

__version__ = "0.1.0"

from .hilbert import ModelSpace, SystemParams

# exported name -> defining module, imported on first access (PEP 562)
_LAZY = {
    **dict.fromkeys(("DressedSystem", "build_system", "resolve_mu"), "pipeline"),
    **dict.fromkeys(("DressedBasis", "dressed_basis", "hamiltonian"), "rabi"),
    **dict.fromkeys(("Spectrum", "emission_spectrum", "integrate_peak"), "spectrum"),
}

__all__ = ["ModelSpace", "SystemParams", *_LAZY, "__version__"]


def __getattr__(name):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_LAZY[name]}", __name__), name)
    globals()[name] = value  # later lookups, and rebindings, bypass this hook
    return value
