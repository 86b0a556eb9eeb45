"""Coupled Hamiltonian by parity chain, its dressed basis, dressed-level labels.

The Hamiltonian conserves the electron number.  In the zero-electron
sector it is already diagonal in the bare states |s,n>.  The
one-electron sector is the quantum Rabi model, which also conserves the
excitation parity (-1)^(n + [e]), so it splits into two real, symmetric,
tridiagonal chains of n_max + 1 sites each,

    even:  |g,0> - |e,1> - |g,2> - ...      odd:  |e,0> - |g,1> - |e,2> - ...

with photon number k at site k and hopping eta * sqrt(k + 1) between
sites k and k + 1 (Casanova et al., PRL 105, 263603 (2010); Braak,
PRL 107, 100401 (2011)).  Each chain is diagonalized on its own in real
arithmetic, and no dense Hamiltonian is built.  The three lowest
one-electron levels are labelled G (dressed ground state) and -/+
(first polariton doublet).
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .settings import ModelSpace, SystemParams

# Two one-electron levels closer than this are treated as degenerate when
# assigning the -/+ labels (only relevant at eta = 0).
DEGENERACY_TOL = 1e-9


def hamiltonian(params: SystemParams, space: ModelSpace) -> tuple:
    """H = a+a + omega_e |e><e| + eta (a + a+)(|e><g| + |g><e|), as two parity chains.

    Item p (0 even, 1 odd) is the ``(diagonal, off_diagonal)`` pair of
    parity chain p, whose site k holds k photons, on |g> when k + p is
    even and on |e> otherwise.  The empty sites |s,n> are not stored: H
    is diagonal there, with energy n.
    There is no element between blocks, so the form cannot hold a
    Hamiltonian that mixes electron numbers or parities.
    """
    k = np.arange(space.n_photon, dtype=float)
    hop = params.eta * np.sqrt(k[1:])
    return tuple((k + params.omega_e * ((k + p) % 2), hop) for p in (0, 1))


class DressedBasis(NamedTuple):
    """Eigenbasis of the coupled Hamiltonian with physical labels attached.

    Stored: ``energies``, ascending globally; ``s_levels[n]``, the
    eigenindex of |s,n> (an exact bare state with energy n, since the
    zero-electron block is diagonal); ``index_ground`` / ``index_minus``
    / ``index_plus``, the three lowest one-electron levels (past the
    level crossing, at eta ~ 0.434 for omega_e 1 and at every eta once
    omega_e >= 2, "+" is the third-lowest level, in G's own chain, not
    the upper polariton: ROADMAP item 20); and ``chains[p]``, the pair
    ``(levels, vectors)`` of parity chain p: column c of ``vectors`` is
    eigenstate ``levels[c]`` over the chain's sites.  The chains and
    ``s_levels`` fix every eigenvector.  The package works in this basis
    throughout and never lays the levels out over the bare (s, g, e) x
    Fock states; only the tests' dense oracle does.
    """

    space: ModelSpace
    energies: np.ndarray
    s_levels: tuple
    index_ground: int
    index_minus: int
    index_plus: int
    chains: tuple

    @property
    def omega_ground(self) -> float:
        """Energy of |G>."""
        return float(self.energies[self.index_ground])

    @property
    def dim(self) -> int:
        return self.space.dim

    @property
    def lines(self) -> dict:
        """The three reported emission lines as (upper, lower) eigenindices.

        The central line s1 -> s0 is fed by the photons bound in |G>, the
        other two are the polariton satellites.  The order (-, central,
        +) breaks ties between equal centers, as at zero coupling.
        """
        s0, s1 = self.s_levels[:2]
        g = self.index_ground
        return {"minus": (self.index_minus, g), "central": (s1, s0),
                "plus": (self.index_plus, g)}

    def population(self, rho: np.ndarray, k: int) -> float:
        """<k| rho |k>, read off a density operator over the dressed levels."""
        return float(np.real(rho[k, k]))


def dressed_basis(chains: tuple, space: ModelSpace) -> DressedBasis:
    """Diagonalize each parity chain and attach level labels.

    Levels are built block by block (the empty sites, then the even and
    the odd chain) and then sorted by energy, ties keeping that order.
    """
    nph = space.n_photon
    if any(len(diag) != nph for diag, _ in chains):
        raise ValueError("Hamiltonian dimension does not match the space")
    solved = [np.linalg.eigh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
              for diag, off in chains]
    ladder = np.arange(nph, dtype=float)  # |s,n> has energy n
    energies = np.concatenate([ladder] + [vals for vals, _ in solved])
    order = np.argsort(energies, kind="stable")
    # level[b]: eigenindex of the b-th level in block order
    level = np.empty_like(order)
    level[order] = np.arange(space.dim)
    # <n> of each level, for the -/+ tie-break
    photons = np.concatenate([ladder] + [ladder @ vecs**2 for _, vecs in solved])

    index_ground, index_minus, index_plus = _order_low_triplet(
        np.sort(level[nph:]), energies[order], photons[order])
    return DressedBasis(
        space=space,
        energies=energies[order],
        s_levels=tuple(int(k) for k in level[:nph]),
        index_ground=int(index_ground),
        index_minus=int(index_minus),
        index_plus=int(index_plus),
        chains=tuple((level[(1 + p) * nph:(2 + p) * nph], vecs)
                     for p, (_, vecs) in enumerate(solved)),
    )


def _order_low_triplet(one_el, energies, photons):
    """Indices of G, -, + with a deterministic tie-break at degeneracy.

    Levels are taken in ascending energy.  The doublet is degenerate
    only at zero coupling with omega_e = omega_c, where its states
    |e,0> and |g,1> both lie in the odd chain; the one with the lower
    photon-number expectation is then assigned to `-`.
    """
    ground, second, third = one_el[:3]
    if abs(energies[third] - energies[second]) < DEGENERACY_TOL:
        second, third = sorted((second, third), key=lambda k: photons[k])
    return ground, second, third
