"""End-to-end assembly: parameters -> dressed system -> steady state -> fluxes.

Also owns the bias-point bookkeeping.  The chemical potential can be
given as an absolute number or symbolically relative to the dressed
levels, which must be resolved *after* diagonalization because the
dressed energies depend on the coupling:

* ``absolute``: use ``params.mu`` as is.
* ``omega_G``: the low-bias operating point.  Injection reaches only the
  dressed ground level from |s,0>, so no direct polariton injection is
  possible, but the bias is raised just enough (by omega_plus - omega_c,
  which vanishes as eta -> 0) that injection from the one-photon state
  reaches both polaritons.  At the literal mu = omega_G the upper
  polariton channel |s,1> -> |+> is shut by the zero-temperature gate at
  any finite coupling, which would suppress the upper satellite that
  this operating point is defined to produce; see the README note.
* ``omega_G_plus_omega_plus``: the high-bias point where direct
  polariton injection opens and conventional electroluminescence
  dominates.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from . import dissipators, ratemodel, spectrum as spectrum_mod
from .hilbert import ModelSpace, SystemParams
from .liouvillian import (
    SecularGenerator,
    build_liouvillian,
    density_operator,
    steady_state,
)
from .rabi import DressedBasis, dressed_basis, hamiltonian
from .settings import DEFAULT_N_MAX, MU_MODES


def resolve_mu(mode: str, basis: DressedBasis, absolute: float = 0.0) -> float:
    if mode == "absolute":
        return float(absolute)
    if mode == "omega_G":
        centers = spectrum_mod.emission_line_centers(basis)
        return basis.omega_ground + max(0.0, centers["plus"] - centers["central"])
    if mode == "omega_G_plus_omega_plus":
        return basis.omega_ground + basis.omega_plus
    raise ValueError(f"unknown mu mode {mode!r}; expected one of {MU_MODES}")


class DressedSystem(NamedTuple):
    """Everything derived from one parameter set at one bias point."""

    params: SystemParams  # with mu already resolved to a number
    basis: DressedBasis
    channels: dissipators.ChannelTable
    lv: SecularGenerator
    populations: np.ndarray  # stationary populations of the dressed levels

    @property
    def rho_ss(self) -> np.ndarray:
        """Stationary density operator in the bare basis, built on each read."""
        return density_operator(self.basis, self.populations)

    @property
    def x_pm(self):
        return dissipators.x_pm(self.basis)

    def line_fluxes(self):
        return spectrum_mod.line_fluxes(self)

    def rate_model_fluxes(self):
        rates = ratemodel.extract_rates(self.lv, self.basis)
        pops = ratemodel.rate_steady_state(ratemodel.rate_matrix(rates))
        return ratemodel.fluxes(pops, rates)

    def emission_spectrum(self, grid) -> spectrum_mod.Spectrum:
        return spectrum_mod.emission_spectrum(self, grid)


def build_system(params: SystemParams, n_max: int = DEFAULT_N_MAX,
                 mu_mode: str = "absolute") -> DressedSystem:
    """Assemble the full open system and solve for its steady state."""
    space = ModelSpace(n_max)
    basis = dressed_basis(hamiltonian(params, space), space)
    mu = resolve_mu(mu_mode, basis, absolute=params.mu)
    params = params._replace(mu=mu)
    channels = dissipators.all_channels(basis, params)
    lv = build_liouvillian(basis, channels)
    return DressedSystem(
        params=params,
        basis=basis,
        channels=channels,
        lv=lv,
        populations=steady_state(lv),
    )
