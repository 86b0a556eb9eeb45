"""Classical five-level rate model and closed-form emission intensities.

The master equation truncated to the populations of {|s,0>, |s,1>, |G>,
|+>, |->} closes into a linear rate system: the 5 x 5 restriction of the
dressed Pauli rate matrix (not re-derived perturbatively), so the only
approximation relative to the full quantum model is the state truncation
itself.  Fifteen of its off-diagonal entries can be nonzero: injection
from |s,0> and |s,1> into each of |G>, |+>, |->, extraction back, and
the photon losses |s,1> -> |s,0>, |+> -> |G>, |-> -> |G>; the others
vanish by electron number, energy order or parity.

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

import numpy as np

from .liouvillian import SecularGenerator
from .linalg import NullSpaceError, stationary_distribution
from .rabi import DressedBasis

# population vector order used throughout this module, and its indices
STATE_ORDER = ("s0", "s1", "G", "plus", "minus")
S0, S1, G, PLUS, MINUS = range(5)


def five_levels(basis: DressedBasis) -> list:
    """Eigenindices of the retained levels, in STATE_ORDER: the ends of ``basis.lines``."""
    lines = basis.lines
    (s1, s0), (plus, ground) = lines["central"], lines["plus"]
    return [s0, s1, ground, plus, lines["minus"][0]]


def extract_rates(lv: SecularGenerator, basis: DressedBasis) -> np.ndarray:
    """Rates among the five retained levels: ``rates[to, from]`` in STATE_ORDER.

    The restriction of the system's dressed Pauli rate matrix to those
    levels.  Channels absent from its table (below the weight cut or
    closed by the chemical-potential gate) enter as zero.
    """
    keep = five_levels(basis)
    return lv.rates[np.ix_(keep, keep)]


def rate_matrix(rates: np.ndarray) -> np.ndarray:
    """Generator M with dP/dt = M P over (s0, s1, G, +, -).

    Off-diagonal M[i, j] is ``rates[i, j]``, the rate j -> i; the
    diagonal closes each column over the five levels, so rates leaving
    the retained set are dropped, not lost.  The direct injection terms
    s0 -> +/- extend the bias range beyond the gated regime; they vanish
    there and the system reduces exactly to the five displayed balance
    equations.
    """
    mat = np.array(rates, dtype=float)
    if mat.shape != (5, 5):
        raise ValueError(f"expected a 5 x 5 rate block, got shape {mat.shape}")
    np.fill_diagonal(mat, 0.0)
    np.fill_diagonal(mat, -mat.sum(axis=0))
    return mat


def rate_steady_state(mat: np.ndarray) -> np.ndarray:
    """Stationary populations in STATE_ORDER; raises on a degenerate kernel."""
    try:
        return stationary_distribution(mat)
    except NullSpaceError as err:
        raise NullSpaceError(f"rate system has no unique steady state: {err}") from err


def fluxes(populations: np.ndarray, rates: np.ndarray):
    """Emitted photon flux of the three lines: (f_central, f_plus, f_minus)."""
    return (
        populations[S1] * rates[S0, S1],
        populations[PLUS] * rates[G, PLUS],
        populations[MINUS] * rates[G, MINUS],
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
