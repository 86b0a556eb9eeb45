"""Composite Hilbert space {|s>, |g>, |e>} x Fock(n_max) and the system parameters.

Conventions, used everywhere in the package:

* hbar = 1 and omega_c = 1: every energy, frequency, and rate is a
  dimensionless multiple of the cavity frequency.
* Electronic labels: ``s`` empty site, ``g`` electron in the lower
  orbital, ``e`` electron in the upper orbital.  Double occupancy is
  excluded (Coulomb blockade), so one label is the whole electronic
  space.
* Flat basis index = electronic_index * (n_max + 1) + n with the
  electronic order (s, g, e).

This module imports no numpy, and its records are ``typing.NamedTuple``
subclasses, so nothing beyond ``math`` and ``typing`` either: the
command line validates a configuration with ``SystemParams`` alone, so
that checking a configuration, ``--help`` and a configuration error load
neither numpy nor ``inspect``.  Both records check their fields in
``__new__``, which unpickling passes through too; ``SystemParams``
routes ``_replace`` through it, so a replaced copy is checked again.
"""

from __future__ import annotations

import math
from typing import NamedTuple

ELECTRONIC_LABELS = ("s", "g", "e")


class _ModelSpaceFields(NamedTuple):
    n_max: int


class ModelSpace(_ModelSpaceFields):
    """Basis bookkeeping for the truncated photon ladder over three electronic states."""

    __slots__ = ()

    def __new__(cls, n_max: int):
        if n_max < 1:
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

    def index(self, label: str, n: int) -> int:
        """Flat basis index of |label, n>."""
        if label not in ELECTRONIC_LABELS:
            raise ValueError(f"unknown electronic label {label!r}")
        if not 0 <= n <= self.n_max:
            raise ValueError(f"photon number {n} outside [0, {self.n_max}]")
        return ELECTRONIC_LABELS.index(label) * self.n_photon + n

    def chain_sites(self, parity: int) -> list[int]:
        """Flat indices of the sites of excitation-parity chain ``parity``.

        Site k holds k photons, on |g> when k + parity is even and on |e>
        otherwise: |g,0>, |e,1>, |g,2>, ... for parity 0 and |e,0>,
        |g,1>, |e,2>, ... for parity 1.
        """
        labels = ("g", "e") if parity % 2 == 0 else ("e", "g")
        return [self.index(labels[k % 2], k) for k in range(self.n_photon)]


class _SystemParamsFields(NamedTuple):
    eta: float  # normalised light-matter coupling Omega_R / omega_c
    omega_e: float = 1.0  # g -> e transition frequency
    omega_s: float = 0.0  # s -> g offset; cancels from every gated rate
    gamma_in: float = 0.5e-6  # bare electron injection rate
    gamma_out: float = 0.5e-6  # bare electron extraction rate
    gamma_cav: float = 7e-4  # bare cavity decay rate
    mu: float = 0.0  # injecting-reservoir chemical potential


class SystemParams(_SystemParamsFields):
    """Physical constants of the open system, in units of the cavity frequency.

    ``mu`` is the chemical potential of the injecting reservoir and may be
    negative (the dressed ground-state energy is negative at finite
    coupling); everything else is a frequency or a rate and must be >= 0.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        for name in ("eta", "omega_e", "omega_s", "gamma_in", "gamma_out", "gamma_cav"):
            value = getattr(self, name)
            if not math.isfinite(value) or value < 0:
                raise ValueError(f"{name} must be finite and >= 0, got {value}")
        if not math.isfinite(self.mu):
            raise ValueError(f"mu must be finite, got {self.mu}")
        return self

    def _replace(self, **changes) -> SystemParams:
        # the inherited _replace skips __new__, and with it the checks
        return type(self)(**{**self._asdict(), **changes})
