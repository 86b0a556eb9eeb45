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

from .hilbert import ModelSpace, SystemParams

# Two one-electron levels closer than this are treated as degenerate when
# assigning the -/+ labels (only relevant at eta = 0).
DEGENERACY_TOL = 1e-9


class BlockHamiltonian(NamedTuple):
    """H = a+a + omega_e |e><e| - omega_s |s><s| + eta (a + a+)(|e><g| + |g><e|).

    ``empty[n]`` is the energy of |s,n>.  ``chains[p]`` is the
    ``(diagonal, off_diagonal)`` pair of the parity chain p (0 even,
    1 odd), whose sites are ``ModelSpace.chain_sites(p)``.  There is no
    element between blocks, so the form cannot hold a Hamiltonian that
    mixes electron numbers or parities.
    """

    empty: np.ndarray
    chains: tuple


def hamiltonian(params: SystemParams, space: ModelSpace) -> BlockHamiltonian:
    """The coupled Hamiltonian as empty-site energies and two parity chains."""
    k = np.arange(space.n_photon, dtype=float)
    hop = params.eta * np.sqrt(k[1:])
    chains = tuple((k + params.omega_e * ((k + p) % 2), hop) for p in (0, 1))
    return BlockHamiltonian(empty=k - params.omega_s, chains=chains)


class DressedBasis(NamedTuple):
    """Eigenbasis of the coupled Hamiltonian with physical labels attached.

    ``energies`` ascend globally; ``states`` holds the real eigenvectors
    as columns in the bare basis; ``sector[k]`` is the electron number of
    eigenstate k.  ``s_levels[n]`` is the eigenindex of |s,n> (exact bare
    states, the zero-electron block is diagonal), and ``index_ground`` /
    ``index_minus`` / ``index_plus`` point at the three lowest
    one-electron levels.  ``chains[p]`` is the pair ``(levels, vectors)``
    of parity chain p: column c of ``vectors`` is eigenstate
    ``levels[c]`` over the chain's sites.
    """

    space: ModelSpace
    energies: np.ndarray
    states: np.ndarray
    sector: np.ndarray
    s_levels: tuple
    index_ground: int
    index_minus: int
    index_plus: int
    chains: tuple

    @property
    def omega_ground(self) -> float:
        """Energy of |G> (independent of omega_s)."""
        return float(self.energies[self.index_ground])

    @property
    def omega_minus(self) -> float:
        return float(self.energies[self.index_minus] - self.energies[self.index_ground])

    @property
    def omega_plus(self) -> float:
        return float(self.energies[self.index_plus] - self.energies[self.index_ground])

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
        """<k| rho |k> for a density operator in the bare basis."""
        v = self.states[:, k]
        return float(np.real(v.conj() @ rho @ v))


def dressed_basis(h: BlockHamiltonian, space: ModelSpace) -> DressedBasis:
    """Diagonalize each parity chain and attach level labels.

    Levels are built block by block (the empty sites, then the even and
    the odd chain) and then sorted by energy, ties keeping that order.
    """
    nph = space.n_photon
    if len(h.empty) != nph or any(len(diag) != nph for diag, _ in h.chains):
        raise ValueError("Hamiltonian dimension does not match the space")
    solved = [np.linalg.eigh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
              for diag, off in h.chains]
    energies = np.concatenate([h.empty] + [vals for vals, _ in solved])
    order = np.argsort(energies, kind="stable")
    # level[b]: eigenindex of the b-th level in block order
    level = np.empty_like(order)
    level[order] = np.arange(space.dim)
    block = np.repeat([0, 1, 2], nph)  # empty, even chain, odd chain
    # <n> of each level, for the -/+ tie-break
    photons = np.concatenate([np.arange(nph)]
                             + [np.arange(nph) @ vecs**2 for _, vecs in solved])

    states = np.zeros((space.dim, space.dim))
    states[[space.index("s", n) for n in range(nph)], level[:nph]] = 1.0
    chains = []
    for p, (_, vecs) in enumerate(solved):
        levels = level[(1 + p) * nph:(2 + p) * nph]
        states[np.ix_(space.chain_sites(p), levels)] = vecs
        chains.append((levels, vecs))

    sector = (block[order] > 0).astype(int)
    index_ground, index_minus, index_plus = _order_low_triplet(
        np.flatnonzero(sector == 1), energies[order], photons[order])
    return DressedBasis(
        space=space,
        energies=energies[order],
        states=states,
        sector=sector,
        s_levels=tuple(int(k) for k in level[:nph]),
        index_ground=int(index_ground),
        index_minus=int(index_minus),
        index_plus=int(index_plus),
        chains=tuple(chains),
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
