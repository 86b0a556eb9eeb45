"""Size of the space {|s>, |g>, |e>} x Fock(n_max), and the system parameters.

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

This module imports no numpy, and its records are ``typing.NamedTuple``
subclasses, so nothing beyond ``math``, ``operator`` and ``typing``: the
command line validates a configuration with ``SystemParams`` alone, so
that checking a configuration, ``--help`` and a configuration error load
neither numpy nor ``inspect``.  Both records check their fields in
``__new__``, which unpickling passes through too; ``SystemParams``
routes ``_replace`` through it, so a replaced copy is checked again.
"""

from __future__ import annotations

import math
import operator
from typing import NamedTuple


class _ModelSpaceFields(NamedTuple):
    n_max: int


class ModelSpace(_ModelSpaceFields):
    """Size of the truncated photon ladder over three electronic states."""

    __slots__ = ()

    def __new__(cls, n_max: int):
        if operator.index(n_max) < 1:  # TypeError for a non-integer; numpy integers pass
            raise ValueError(
                "n_max must be at least 1: the satellite emission channels "
                "involve the one-photon states"
            )
        return super().__new__(cls, n_max)

    @property
    def n_photon(self) -> int:
        return self.n_max + 1

    @property
    def dim(self) -> int:
        return 3 * (self.n_max + 1)


class _SystemParamsFields(NamedTuple):
    eta: float  # normalised light-matter coupling Omega_R / omega_c
    omega_e: float = 1.0  # g -> e transition frequency
    gamma_in: float = 0.5e-6  # bare electron injection rate
    gamma_out: float = 0.5e-6  # bare electron extraction rate
    gamma_cav: float = 7e-4  # bare cavity decay rate
    mu: float = 0.0  # injecting-reservoir chemical potential


class SystemParams(_SystemParamsFields):
    """Physical constants of the open system, in units of the cavity frequency.

    ``mu`` is the chemical potential of the injecting reservoir and may be
    negative (the dressed ground-state energy is negative at finite
    coupling); every other field is a frequency or a rate and must be >= 0,
    ``gamma_cav`` > 0 (the closed forms divide by it; without it no photon leaves).
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        for name, value in zip(self._fields, self):
            in_range = name == "mu" or (value > 0 if name == "gamma_cav" else value >= 0)
            if not (math.isfinite(value) and in_range):
                rule = {"mu": "finite", "gamma_cav": "finite and > 0"}.get(name, "finite and >= 0")
                raise ValueError(f"{name} must be {rule}, got {value}")
        return self

    def _replace(self, **changes) -> SystemParams:
        # the inherited _replace skips __new__, and with it the checks
        return type(self)(**{**self._asdict(), **changes})
