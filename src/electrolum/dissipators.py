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

The dressed elements are read off the parity-chain eigenvectors of the
basis (:mod:`electrolum.rabi`), with no dense operator products, and the
channels of each bath form one rate matrix ``[to, from]`` over the
dressed levels (:class:`BathRates`), 0 where the bath has no channel.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .rabi import DressedBasis

# Squared matrix elements below this are dropped.  Parity and electron
# number make the forbidden elements exactly zero; the cut is set by the
# eigensolver instead.  eigh's eigenvector entries are accurate to about
# 1e-16 absolute, not relative, so an element below 1e-7 carries mostly
# round-off, while a kept |x|^2 >= 1e-14 has a relative error of at most
# about 1e-8.  The cut keeps every rate accurate entry by entry, which
# the entrywise steady-state solver needs of its input.
WEIGHT_CUT = 1e-14

# Slack for the threshold comparison: Theta(0) = 1 must survive floating
# point when mu is placed exactly at a dressed threshold.
GATE_TOL = 1e-9

BATH_CAVITY = "cavity"
BATH_IN = "electron_in"
BATH_OUT = "electron_out"


class JumpChannel(NamedTuple):
    """One row of the :class:`BathRates` row view; ``freq`` is E_from - E_to."""

    from_index: int
    to_index: int
    rate: float
    freq: float
    bath: str


class BathRates:
    """Rate matrices ``[to, from]`` of the three baths over the dressed levels.

    Entry [i, j] of a bath's matrix is the rate of its jump |i><j|, 0
    where it has none.  Every jump is a rank-one |to><from| between two
    dressed eigenstates, which makes the master equation exactly secular
    (:mod:`electrolum.liouvillian`), and no (to, from) pair belongs to two
    baths, so the Pauli rate matrix is the plain sum of the three.
    """

    __slots__ = ("cavity", "electron_in", "electron_out", "energies")

    def __init__(self, cavity: np.ndarray, electron_in: np.ndarray,
                 electron_out: np.ndarray, energies: np.ndarray):
        self.cavity = cavity
        self.electron_in = electron_in
        self.electron_out = electron_out
        self.energies = energies

    # Row view of the nonzero rates, kept only for the benchmark in
    # perfbench/, which counts and iterates the channels as JumpChannel
    # rows.  It goes once ROADMAP item 5 re-pins the benchmark.
    def __len__(self) -> int:
        return sum(map(np.count_nonzero, (self.cavity, self.electron_in, self.electron_out)))

    def __iter__(self):
        e = self.energies
        for bath, rates in ((BATH_CAVITY, self.cavity), (BATH_OUT, self.electron_out),
                            (BATH_IN, self.electron_in)):
            j, i = np.nonzero(rates.T)
            for row in zip(j.tolist(), i.tolist(), rates[i, j].tolist(), (e[j] - e[i]).tolist()):
                yield JumpChannel(*row, bath)


def gate_open(argument):
    """Zero-temperature occupation step with Theta(0) = 1 (elementwise on arrays)."""
    return argument >= -GATE_TOL


def _rates(elements: np.ndarray, allowed, bare_rate: float) -> np.ndarray:
    """bare_rate elements[i, j]^2 where allowed (mask or True) and above the weight cut, else 0."""
    weight = elements**2
    return np.where(allowed & (weight >= WEIGHT_CUT), bare_rate * weight, 0.0)


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


def all_channels(basis: DressedBasis, params) -> BathRates:
    """The three baths' rate matrices for one parameter set.

    |s,n> sits at exactly E = n*omega_c, so the injection gate compares
    mu + E_{s,n} with the one-electron energy directly.  The elements of
    O_in are exactly 0.0 except from an empty level to a chain level, so
    neither electron bath needs an electron-number mask.
    """
    e = basis.energies
    o_in = injection_elements(basis)
    return BathRates(
        cavity=_rates(quadrature_elements(basis), _downward(basis), params.gamma_cav),
        electron_in=_rates(o_in, gate_open(params.mu + e[None, :] - e[:, None]),
                           params.gamma_in),
        electron_out=_rates(o_in.T, True, params.gamma_out),
        energies=e,
    )


def x_pm(basis: DressedBasis):
    """Energy-ordered split of the quadrature: X^- lowers, X^+ = (X^-)^dagger.

    X^- = sum_{E_j > E_i} <i|X|j> |i><j|, returned as matrices over the
    dressed levels.  X^- + X^+ differs from X only on degenerate pairs
    and the diagonal, both of which carry zero quadrature weight here.
    """
    x_minus = np.where(_downward(basis), quadrature_elements(basis), 0.0)
    return x_minus, x_minus.T
