"""Classical five-level rate model and closed-form emission intensities.

The master equation truncated to the populations of {|s,0>, |s,1>, |G>,
|+>, |->} closes into a linear rate system.  The rates are taken from
the exact dressed-channel synthesis (not re-derived perturbatively), so
the only approximation relative to the full quantum model is the state
truncation itself.

The closed-form intensities are the leading-order results for the two
bias regimes with gamma_in = gamma_out = gamma:

    ground-state emission (no direct polariton injection):
        f_c   = eta^2 gamma / 8 * (1 - gamma/gamma_cav)
        f_pm  = eta^2 gamma / 16 * (gamma/gamma_cav)

    conventional electroluminescence (polariton injection open):
        f'_c  = gamma/6 * (2 gamma/gamma_cav + eta^2)
        f'_pm = gamma/6 * (1 +- eta/2) * (1 - 2 gamma/gamma_cav)

They are implemented verbatim with no validity guard; they hold for
eta << 1 and gamma << gamma_cav.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dissipators import BATH_CAVITY, BATH_IN, BATH_OUT, find_channel
from .linalg import NullSpaceError, stationary_distribution
from .rabi import DressedBasis

# population vector order used throughout this module
STATE_ORDER = ("s0", "s1", "G", "plus", "minus")


@dataclass(frozen=True)
class RateSet:
    """Scalar dressed rates entering the five-level system (units omega_c)."""

    in_0_g: float  # injection |s,0> -> |G>
    in_1_g: float  # injection |s,1> -> |G>
    in_1_plus: float
    in_1_minus: float
    in_0_plus: float  # zero unless the bias opens direct polariton injection
    in_0_minus: float
    out_g_0: float  # extraction |G> -> |s,0>
    out_g_1: float
    out_plus_0: float
    out_plus_1: float
    out_minus_0: float
    out_minus_1: float
    cav: float  # photon loss |s,1> -> |s,0>
    cav_plus: float  # polariton emission |+> -> |G>
    cav_minus: float

    def __post_init__(self):
        for name, value in self.__dict__.items():
            if value < 0:
                raise ValueError(f"rate {name} must be >= 0, got {value}")

    # aggregate shorthands: total in-rate from each empty state, total
    # out-rate from each one-electron level
    @property
    def in_s0(self) -> float:
        return self.in_0_g + self.in_0_plus + self.in_0_minus

    @property
    def in_s1(self) -> float:
        return self.in_1_g + self.in_1_plus + self.in_1_minus

    @property
    def out_g(self) -> float:
        return self.out_g_0 + self.out_g_1

    @property
    def out_plus(self) -> float:
        return self.out_plus_0 + self.out_plus_1

    @property
    def out_minus(self) -> float:
        return self.out_minus_0 + self.out_minus_1


@dataclass(frozen=True)
class Populations:
    """Steady-state occupation probabilities of the five retained levels."""

    s0: float
    s1: float
    g: float
    plus: float
    minus: float

    def __post_init__(self):
        values = self.as_array()
        if np.any(values < -1e-12) or np.any(values > 1 + 1e-12):
            raise ValueError(f"populations outside [0, 1]: {values}")
        if abs(values.sum() - 1.0) > 1e-12:
            raise ValueError(f"populations sum to {values.sum()}, not 1")

    def as_array(self) -> np.ndarray:
        return np.array([self.s0, self.s1, self.g, self.plus, self.minus])


def extract_rates(basis: DressedBasis, channels) -> RateSet:
    """Pick the five-level rates out of the synthesized channel lists.

    Channels absent from the lists (below the weight cut or closed by
    the chemical-potential gate) enter as zero.
    """
    s0, s1 = basis.s_levels[0], basis.s_levels[1]
    g, p, m = basis.index_ground, basis.index_plus, basis.index_minus
    by_bath = {BATH_IN: [], BATH_OUT: [], BATH_CAVITY: []}
    for ch in channels:
        by_bath[ch.bath].append(ch)
    cin, cout, ccav = by_bath[BATH_IN], by_bath[BATH_OUT], by_bath[BATH_CAVITY]
    return RateSet(
        in_0_g=find_channel(cin, basis, s0, g),
        in_1_g=find_channel(cin, basis, s1, g),
        in_1_plus=find_channel(cin, basis, s1, p),
        in_1_minus=find_channel(cin, basis, s1, m),
        in_0_plus=find_channel(cin, basis, s0, p),
        in_0_minus=find_channel(cin, basis, s0, m),
        out_g_0=find_channel(cout, basis, g, s0),
        out_g_1=find_channel(cout, basis, g, s1),
        out_plus_0=find_channel(cout, basis, p, s0),
        out_plus_1=find_channel(cout, basis, p, s1),
        out_minus_0=find_channel(cout, basis, m, s0),
        out_minus_1=find_channel(cout, basis, m, s1),
        cav=find_channel(ccav, basis, s1, s0),
        cav_plus=find_channel(ccav, basis, p, g),
        cav_minus=find_channel(ccav, basis, m, g),
    )


def rate_matrix(rates: RateSet) -> np.ndarray:
    """Generator M with dP/dt = M P over (s0, s1, G, +, -).

    Off-diagonal M[i, j] is the rate j -> i; columns sum to zero.  The
    direct injection terms s0 -> +/- extend the bias range beyond the
    gated regime; they vanish there and the system reduces exactly to
    the five displayed balance equations.
    """
    s0, s1, g, p, m = range(5)
    mat = np.zeros((5, 5))
    mat[g, s0] = rates.in_0_g
    mat[p, s0] = rates.in_0_plus
    mat[m, s0] = rates.in_0_minus
    mat[g, s1] = rates.in_1_g
    mat[p, s1] = rates.in_1_plus
    mat[m, s1] = rates.in_1_minus
    mat[s0, g] = rates.out_g_0
    mat[s1, g] = rates.out_g_1
    mat[s0, p] = rates.out_plus_0
    mat[s1, p] = rates.out_plus_1
    mat[s0, m] = rates.out_minus_0
    mat[s1, m] = rates.out_minus_1
    mat[s0, s1] = rates.cav
    mat[g, p] = rates.cav_plus
    mat[g, m] = rates.cav_minus
    np.fill_diagonal(mat, 0.0)
    np.fill_diagonal(mat, -mat.sum(axis=0))
    return mat


def rate_steady_state(mat: np.ndarray) -> Populations:
    """Stationary populations of the generator; raises on a degenerate kernel."""
    try:
        p = stationary_distribution(mat)
    except NullSpaceError as err:
        raise NullSpaceError(f"rate system has no unique steady state: {err}") from err
    return Populations(s0=p[0], s1=p[1], g=p[2], plus=p[3], minus=p[4])


def fluxes(populations: Populations, rates: RateSet):
    """Emitted photon flux of the three lines: (f_central, f_plus, f_minus)."""
    return (
        populations.s1 * rates.cav,
        populations.plus * rates.cav_plus,
        populations.minus * rates.cav_minus,
    )


def analytic_gse(eta: float, gamma: float, gamma_cav: float):
    """Leading-order fluxes with polariton injection closed (low bias)."""
    ratio = gamma / gamma_cav
    f_c = eta**2 * gamma / 8 * (1 - ratio)
    f_pm = eta**2 * gamma / 16 * ratio
    return f_c, f_pm, f_pm


def analytic_el(eta: float, gamma: float, gamma_cav: float):
    """Leading-order fluxes with polariton injection open (high bias)."""
    ratio = gamma / gamma_cav
    f_c = gamma / 6 * (2 * ratio + eta**2)
    f_plus = gamma / 6 * (1 + eta / 2) * (1 - 2 * ratio)
    f_minus = gamma / 6 * (1 - eta / 2) * (1 - 2 * ratio)
    return f_c, f_plus, f_minus
