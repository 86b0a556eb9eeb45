"""Electroluminescence of an electrically open, ultrastrongly coupled cavity.

A three-level electronic site (empty/ground/excited) exchanges electrons
with biased reservoirs while coupled to one photon mode beyond the
rotating-wave approximation.  The package diagonalizes the coupled
Hamiltonian, derives dressed-state Lindblad channels for the three
baths, solves the master equation for the steady state and the emission
spectrum, and cross-validates against a five-level rate model and
closed-form intensities.

Conventions, used everywhere in the package:

* hbar = 1 and omega_c = 1: every energy, frequency, and rate is a
  dimensionless multiple of the cavity frequency.
* Electronic labels: ``s`` empty site, ``g`` electron in the lower
  orbital, ``e`` electron in the upper orbital.  Double occupancy is
  excluded (Coulomb blockade), so one label is the whole electronic
  space.
* The package works over the 3 (n_max + 1) dressed levels and lays out
  no bare basis; the flat bare index that the dense test oracle uses is
  defined there (``tests/dense_oracle.py``).

Importing the package loads no numpy: ``build_system`` imports
``pipeline`` when it is called.  The numerical names live in their
modules (``pipeline``, ``rabi``, ``spectrum``, ...).

Importing the package also registers ``gc.freeze`` to run at exit, so a
process that used it exits without a full collection over numpy's heap.
A reference cycle still alive at exit is then not finalized;
``atexit.unregister(gc.freeze)`` restores the collection.
"""

import atexit
import gc

__version__ = "0.1.0"

from .settings import ModelSpace, SystemParams

__all__ = ["ModelSpace", "SystemParams", "LinalgError", "build_system", "__version__"]

atexit.register(gc.freeze)


class LinalgError(ValueError):
    """A numerical contract violation (see ``linalg``); the CLI exits 2 on it."""


def build_system(*args, **kwargs):
    """``pipeline.build_system``, imported (with numpy) on the first call."""
    from . import pipeline
    return pipeline.build_system(*args, **kwargs)
