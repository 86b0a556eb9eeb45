"""Dressed-basis jump channels for the three baths, and the quadrature split.

Each bath couples through a bare operator; golden-rule rates between
dressed levels are the bare rate times the squared dressed matrix
element of that operator:

* cavity:     X = a + a^dagger, downward transitions only (zero
  temperature), rate gamma_cav |<i|X|j>|^2;
* extraction: O_out = (|s><g| + |s><e|) x 1, ungated (the drain
  reservoir sits below every occupied level);
* injection:  O_in = O_out^dagger, gated by the chemical potential:
  a channel |s,n> -> |j> opens only when mu + n*omega_c reaches the
  one-electron energy of |j>.

The reservoir couples to |g> and |e> with equal amplitude.  That choice
reproduces the known weak-coupling rates (injection 1 into the ground
level and 1/2 into each polariton) and, downstream, the closed-form
emission intensities, which is how it is validated in the tests.

Gate arguments are built from energy differences within each sector, so
every rate is invariant under a global shift of the empty-state energy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .hilbert import ModelSpace, annihilation, transition
from .rabi import DressedBasis

# Squared matrix elements below this are dropped: they are numerical
# zeros of LAPACK eigenvectors, not physical channels.
WEIGHT_CUT = 1e-14

# Slack for the threshold comparison: Theta(0) = 1 must survive floating
# point when mu is placed exactly at a dressed threshold.
GATE_TOL = 1e-9

BATH_CAVITY = "cavity"
BATH_IN = "electron_in"
BATH_OUT = "electron_out"


@dataclass(frozen=True)
class JumpChannel:
    """One dressed transition |to><from| with its golden-rule rate.

    The jump operator is the rank-one |to><from| between two dressed
    eigenstates by construction, which is what makes the master
    equation exactly secular (see :mod:`electrolum.liouvillian`).
    ``freq`` is the system energy drop E_from - E_to (positive for
    emission; negative for injection channels, which pump the system).
    """

    from_index: int
    to_index: int
    rate: float
    freq: float
    bath: str


def gate_open(argument: float, tol: float = GATE_TOL) -> bool:
    """Zero-temperature occupation step with Theta(0) = 1."""
    return argument >= -tol


def _dressed_elements(op: np.ndarray, basis: DressedBasis) -> np.ndarray:
    """Matrix of <i| op |j> over the dressed eigenbasis."""
    v = basis.states
    return v.conj().T @ op @ v


def _make_channel(basis, i, j, weight, bare_rate, bath) -> JumpChannel:
    """Channel j -> i with rate bare_rate * weight (weight = |<i|op|j>|^2)."""
    return JumpChannel(
        from_index=int(j),
        to_index=int(i),
        rate=float(bare_rate * weight),
        freq=float(basis.energies[j] - basis.energies[i]),
        bath=bath,
    )


def quadrature(space: ModelSpace) -> np.ndarray:
    a = annihilation(space)
    return a + a.conj().T


def injection_operator(space: ModelSpace) -> np.ndarray:
    return transition(space, "s", "g") + transition(space, "s", "e")


def extraction_operator(space: ModelSpace) -> np.ndarray:
    return transition(space, "g", "s") + transition(space, "e", "s")


def channels_cavity(basis: DressedBasis, space: ModelSpace, gamma_cav: float):
    """One zero-temperature photon channel per energy-decreasing pair."""
    elems = _dressed_elements(quadrature(space), basis)
    channels = []
    for j in range(basis.dim):
        for i in range(basis.dim):
            if basis.energies[j] <= basis.energies[i]:
                continue
            weight = abs(elems[i, j]) ** 2
            if weight < WEIGHT_CUT:
                continue
            channels.append(_make_channel(basis, i, j, weight, gamma_cav, BATH_CAVITY))
    return channels


def channels_out(basis: DressedBasis, space: ModelSpace, gamma_out: float):
    """Extraction from every one-electron level into every |s,n>; no gate."""
    elems = _dressed_elements(extraction_operator(space), basis)
    channels = []
    for j in basis.one_electron_indices():
        for n, i in enumerate(basis.s_levels):
            weight = abs(elems[i, j]) ** 2
            if weight < WEIGHT_CUT:
                continue
            channels.append(_make_channel(basis, i, j, weight, gamma_out, BATH_OUT))
    return channels


def channels_in(basis: DressedBasis, space: ModelSpace, gamma_in: float, mu: float):
    """Injection |s,n> -> |j>, open only when mu + n*omega_c reaches the level.

    The photon energy n*omega_c is taken as E_{s,n} - E_{s,0} and the
    one-electron energies carry no empty-state offset, so the gate
    argument is independent of omega_s.
    """
    elems = _dressed_elements(injection_operator(space), basis)
    e_s0 = basis.energies[basis.s_levels[0]]
    channels = []
    for n, j in enumerate(basis.s_levels):
        photon_energy = basis.energies[j] - e_s0
        for i in basis.one_electron_indices():
            if not gate_open(mu + photon_energy - basis.energies[i]):
                continue
            weight = abs(elems[i, j]) ** 2
            if weight < WEIGHT_CUT:
                continue
            channels.append(_make_channel(basis, i, j, weight, gamma_in, BATH_IN))
    return channels


def all_channels(basis: DressedBasis, space: ModelSpace, params) -> list:
    """Cavity, extraction, and injection channels for one parameter set."""
    return (
        channels_cavity(basis, space, params.gamma_cav)
        + channels_out(basis, space, params.gamma_out)
        + channels_in(basis, space, params.gamma_in, params.mu)
    )


def x_pm(basis: DressedBasis, space: ModelSpace):
    """Energy-ordered split of the quadrature: X^- lowers, X^+ = (X^-)^dagger.

    X^- = sum_{E_j > E_i} <i|X|j> |i><j|, returned as matrices in the
    bare basis.  X^- + X^+ differs from X only on degenerate pairs and
    the diagonal, both of which carry zero quadrature weight here.
    """
    elems = _dressed_elements(quadrature(space), basis)
    lower = np.zeros_like(elems)
    for j in range(basis.dim):
        for i in range(basis.dim):
            if basis.energies[j] > basis.energies[i]:
                lower[i, j] = elems[i, j]
    v = basis.states
    x_minus = v @ lower @ v.conj().T
    return x_minus, x_minus.conj().T


def find_channel(channels, basis: DressedBasis, from_index: int, to_index: int):
    """Rate of the channel from_index -> to_index, or 0.0 if absent/gated away."""
    for ch in channels:
        if ch.from_index == from_index and ch.to_index == to_index:
            return ch.rate
    return 0.0
