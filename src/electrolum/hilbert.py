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

This module imports no numpy: the command line validates a
configuration with ``SystemParams`` alone, so that checking a
configuration, ``--help`` and a configuration error skip numpy's import.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

ELECTRONIC_LABELS = ("s", "g", "e")


@dataclass(frozen=True)
class ModelSpace:
    """Basis bookkeeping for the truncated photon ladder over three electronic states."""

    n_max: int

    def __post_init__(self):
        if self.n_max < 1:
            raise ValueError(
                "n_max must be at least 1: the satellite emission channels "
                "involve the one-photon states"
            )

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

    def unindex(self, k: int):
        """Inverse of :meth:`index`: flat index -> (label, n)."""
        if not 0 <= k < self.dim:
            raise ValueError(f"flat index {k} outside [0, {self.dim})")
        return ELECTRONIC_LABELS[k // self.n_photon], k % self.n_photon

    def chain_sites(self, parity: int) -> list[int]:
        """Flat indices of the sites of excitation-parity chain ``parity``.

        Site k holds k photons, on |g> when k + parity is even and on |e>
        otherwise: |g,0>, |e,1>, |g,2>, ... for parity 0 and |e,0>,
        |g,1>, |e,2>, ... for parity 1.
        """
        labels = ("g", "e") if parity % 2 == 0 else ("e", "g")
        return [self.index(labels[k % 2], k) for k in range(self.n_photon)]


def build_space(n_max: int) -> ModelSpace:
    return ModelSpace(n_max=n_max)


@dataclass(frozen=True)
class SystemParams:
    """Physical constants of the open system, in units of the cavity frequency.

    ``mu`` is the chemical potential of the injecting reservoir and may be
    negative (the dressed ground-state energy is negative at finite
    coupling); everything else is a frequency or a rate and must be >= 0.
    """

    rabi: float  # light-matter coupling Omega_R
    omega_e: float = 1.0  # g -> e transition frequency
    omega_s: float = 0.0  # s -> g offset; cancels from every gated rate
    gamma_in: float = 0.5e-6  # bare electron injection rate
    gamma_out: float = 0.5e-6  # bare electron extraction rate
    gamma_cav: float = 7e-4  # bare cavity decay rate
    mu: float = 0.0  # injecting-reservoir chemical potential

    def __post_init__(self):
        for name in ("rabi", "omega_e", "omega_s", "gamma_in", "gamma_out", "gamma_cav"):
            value = getattr(self, name)
            if not math.isfinite(value) or value < 0:
                raise ValueError(f"{name} must be finite and >= 0, got {value}")
        if not math.isfinite(self.mu):
            raise ValueError(f"mu must be finite, got {self.mu}")

    @property
    def eta(self) -> float:
        """Normalised coupling Omega_R / omega_c: rabi itself, since omega_c = 1."""
        return self.rabi

    @property
    def is_resonant(self) -> bool:
        return abs(self.omega_e - 1.0) <= 1e-12

    @classmethod
    def from_eta(cls, eta: float, **kwargs) -> "SystemParams":
        """Parameter set with coupling eta = Omega_R / omega_c; other fields as given."""
        return cls(rabi=eta, **kwargs)
