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

The dressed elements are read off the parity-chain eigenvectors of the
basis (:mod:`electrolum.rabi`), with no dense operator products, and the
channels of a system form one :class:`ChannelTable` of parallel arrays,
selected with masks over those elements.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .rabi import DressedBasis

# Squared matrix elements below this are dropped.  Parity and electron
# number make the forbidden elements exactly zero, so what the cut drops
# are allowed elements too weak to matter at the run's precision, e.g.
# the 5e-22 "plus" line at eta 0.8, n_max 12.  Whether such lines change
# a converged result is the cutoff question of ROADMAP item 3.
WEIGHT_CUT = 1e-14

# Slack for the threshold comparison: Theta(0) = 1 must survive floating
# point when mu is placed exactly at a dressed threshold.
GATE_TOL = 1e-9

BATH_CAVITY = "cavity"
BATH_IN = "electron_in"
BATH_OUT = "electron_out"


class JumpChannel(NamedTuple):
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


class ChannelTable:
    """Jump channels as parallel arrays, one entry per channel.

    Row k is the channel ``from_index[k] -> to_index[k]`` of bath
    ``bath[k]``; ``len`` counts the rows and iterating yields them as
    :class:`JumpChannel`, so the table is a plain class, not a tuple of
    its columns.
    """

    __slots__ = JumpChannel._fields  # the columns, in row order

    def __init__(self, from_index: np.ndarray, to_index: np.ndarray, rate: np.ndarray,
                 freq: np.ndarray, bath: np.ndarray):
        self.from_index = from_index
        self.to_index = to_index
        self.rate = rate
        self.freq = freq
        self.bath = bath

    def __len__(self) -> int:
        return len(self.rate)

    def __iter__(self):
        return map(JumpChannel._make,
                   zip(*(getattr(self, name).tolist() for name in self.__slots__)))

    def of_bath(self, bath: str) -> ChannelTable:
        """The rows of one bath, in table order."""
        keep = self.bath == bath
        return ChannelTable(*(getattr(self, name)[keep] for name in self.__slots__))

    @classmethod
    def concat(cls, tables) -> ChannelTable:
        tables = list(tables)
        return cls(*(np.concatenate([getattr(t, name) for t in tables])
                     for name in cls.__slots__))


def gate_open(argument):
    """Zero-temperature occupation step with Theta(0) = 1 (elementwise on arrays)."""
    return argument >= -GATE_TOL


def _channels(basis: DressedBasis, elements: np.ndarray, allowed: np.ndarray,
              bare_rate: float, bath: str) -> ChannelTable:
    """Channels j -> i of rate bare_rate elements[i, j]^2 wherever allowed[i, j].

    Elements below the weight cut are dropped.  Rows are ordered by
    from-level, then by to-level.
    """
    weight = elements**2
    j, i = np.nonzero((allowed & (weight >= WEIGHT_CUT)).T)
    e = basis.energies
    return ChannelTable(from_index=j, to_index=i, rate=bare_rate * weight[i, j],
                        freq=e[j] - e[i], bath=np.full(len(i), bath))


def _downward(basis: DressedBasis) -> np.ndarray:
    """Mask [i, j] of the pairs with E_j > E_i."""
    e = basis.energies
    return e[None, :] > e[:, None]


def quadrature_elements(basis: DressedBasis) -> np.ndarray:
    """<i|X|j> over the dressed levels, X = a + a^dagger.

    X keeps the electronic label and moves the photon number by one, so
    it is the bare ladder sqrt(max(k, k')) among the empty levels and
    maps site k of one parity chain onto sites k +- 1 of the other:
    V_odd^T X_chain V_even.  Every other element is exactly zero.
    """
    hop = np.sqrt(np.arange(1.0, basis.space.n_photon))
    ladder = np.diag(hop, 1) + np.diag(hop, -1)
    (even, v_even), (odd, v_odd) = basis.chains
    s = list(basis.s_levels)
    x = np.zeros((basis.dim, basis.dim))
    x[np.ix_(s, s)] = ladder
    x[np.ix_(odd, even)] = v_odd.T @ (ladder @ v_even)
    x[np.ix_(even, odd)] = x[np.ix_(odd, even)].T
    return x


def injection_elements(basis: DressedBasis) -> np.ndarray:
    """<i|O_in|j> over the dressed levels; the extraction elements are its transpose.

    O_in takes |s,n> to |g,n> + |e,n>, and exactly one of the two is
    site n of each parity chain, so the element from |s,n> to a chain
    level is the entry of its chain eigenvector at site n.
    """
    o = np.zeros((basis.dim, basis.dim))
    for levels, vectors in basis.chains:
        o[np.ix_(levels, list(basis.s_levels))] = vectors.T
    return o


def channels_cavity(basis: DressedBasis, gamma_cav: float) -> ChannelTable:
    """One zero-temperature photon channel per energy-decreasing pair."""
    return _channels(basis, quadrature_elements(basis), _downward(basis), gamma_cav,
                     BATH_CAVITY)


def channels_out(basis: DressedBasis, gamma_out: float) -> ChannelTable:
    """Extraction from every one-electron level into every |s,n>; no gate."""
    allowed = np.outer(basis.sector == 0, basis.sector == 1)
    return _channels(basis, injection_elements(basis).T, allowed, gamma_out, BATH_OUT)


def channels_in(basis: DressedBasis, gamma_in: float, mu: float) -> ChannelTable:
    """Injection |s,n> -> |i>, open only when mu + n*omega_c reaches the level.

    The photon energy n*omega_c is taken as E_{s,n} - E_{s,0} and the
    one-electron energies carry no empty-state offset, so the gate
    argument is independent of omega_s.
    """
    e = basis.energies
    photon_energy = e - e[basis.s_levels[0]]
    allowed = (np.outer(basis.sector == 1, basis.sector == 0)
               & gate_open(mu + photon_energy[None, :] - e[:, None]))
    return _channels(basis, injection_elements(basis), allowed, gamma_in, BATH_IN)


def all_channels(basis: DressedBasis, params) -> ChannelTable:
    """Cavity, extraction, and injection channels for one parameter set."""
    return ChannelTable.concat((
        channels_cavity(basis, params.gamma_cav),
        channels_out(basis, params.gamma_out),
        channels_in(basis, params.gamma_in, params.mu),
    ))


def x_pm(basis: DressedBasis):
    """Energy-ordered split of the quadrature: X^- lowers, X^+ = (X^-)^dagger.

    X^- = sum_{E_j > E_i} <i|X|j> |i><j|, returned as matrices in the
    bare basis.  X^- + X^+ differs from X only on degenerate pairs and
    the diagonal, both of which carry zero quadrature weight here.
    """
    lower = np.where(_downward(basis), quadrature_elements(basis), 0.0)
    v = basis.states
    x_minus = v @ lower @ v.T
    return x_minus, x_minus.T
