"""Coupled Hamiltonian, sector-resolved diagonalization, dressed-level labels.

The Hamiltonian conserves the electron number, so it is diagonalized
separately in the zero-electron sector (where it is already diagonal in
the bare states |s,n>) and in the one-electron sector (the quantum Rabi
model).  The three lowest one-electron levels are labelled G (dressed
ground state) and -/+ (first polariton doublet).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .hilbert import (
    ModelSpace,
    SystemParams,
    annihilation,
    number_electron,
    number_photon,
    parity,
    transition,
)
from .linalg import eig_hermitian

# Two one-electron levels closer than this are treated as degenerate when
# assigning the -/+ labels (only relevant at rabi = 0).
DEGENERACY_TOL = 1e-9


def hamiltonian(params: SystemParams, space: ModelSpace) -> np.ndarray:
    """H = omega_c a+a + omega_e |e><e| - omega_s |s><s| + rabi (a + a+)(|e><g| + |g><e|)."""
    a = annihilation(space)
    x = a + a.conj().T
    sigma = transition(space, "g", "e") + transition(space, "e", "g")
    h = (
        params.omega_c * (a.conj().T @ a)
        + params.omega_e * transition(space, "e", "e")
        - params.omega_s * transition(space, "s", "s")
        + params.rabi * (x @ sigma)
    )
    return h


@dataclass(frozen=True)
class DressedBasis:
    """Eigenbasis of the coupled Hamiltonian with physical labels attached.

    ``energies`` ascend globally; ``states`` holds the eigenvectors as
    columns in the bare basis; ``sector[k]`` is the electron number of
    eigenstate k.  ``s_levels[n]`` is the eigenindex of |s,n> (exact bare
    states, the zero-electron block is diagonal), and ``index_ground`` /
    ``index_minus`` / ``index_plus`` point at the three lowest
    one-electron levels.
    """

    space: ModelSpace
    energies: np.ndarray
    states: np.ndarray
    sector: np.ndarray
    s_levels: tuple
    index_ground: int
    index_minus: int
    index_plus: int

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

    def state(self, k: int) -> np.ndarray:
        return self.states[:, k]

    def one_electron_indices(self) -> np.ndarray:
        return np.flatnonzero(self.sector == 1)

    def zero_electron_indices(self) -> np.ndarray:
        return np.flatnonzero(self.sector == 0)

    def population(self, rho: np.ndarray, k: int) -> float:
        """<k| rho |k> for a density operator in the bare basis."""
        v = self.states[:, k]
        return float(np.real(v.conj() @ rho @ v))

    def level_label(self, k: int):
        """Shift-stable identity of eigenstate k.

        ("s", n) for the empty-site levels and ("1el", rank) for the
        one-electron levels ordered by energy.  Unlike the flat
        eigenindex, this does not depend on how the two sectors
        interleave, i.e. it is invariant under an omega_s shift.
        """
        if self.sector[k] == 0:
            return ("s", self.s_levels.index(k))
        return ("1el", int(np.searchsorted(self.one_electron_indices(), k)))


class SectorMixingError(ValueError):
    """An eigenstate failed to sit in a definite electron-number sector."""


def dressed_basis(h: np.ndarray, space: ModelSpace) -> DressedBasis:
    """Diagonalize per electron sector and attach level labels.

    The bare basis is ordered so that each sector is a contiguous block
    and the Hamiltonian has no matrix element between blocks; a nonzero
    inter-block element means the input is not an electron-conserving
    Hamiltonian and raises SectorMixingError.
    """
    nph = space.n_photon
    s_slice = slice(0, nph)  # label order (s, g, e) from ModelSpace
    ge_slice = slice(nph, 3 * nph)
    cross = h[s_slice, ge_slice]
    scale = max(float(np.max(np.abs(h))), 1.0)
    if h.shape != (space.dim, space.dim):
        raise ValueError("Hamiltonian dimension does not match the space")
    if np.max(np.abs(cross)) > 1e-12 * scale:
        raise SectorMixingError(
            "Hamiltonian couples the zero- and one-electron sectors"
        )

    # Zero-electron block: diagonal in the bare |s,n> states.
    s_block = h[s_slice, s_slice]
    if np.max(np.abs(s_block - np.diag(np.diag(s_block)))) > 1e-12 * scale:
        raise SectorMixingError("zero-electron block is unexpectedly non-diagonal")
    s_energies = np.real(np.diag(s_block))

    ge_vals, ge_vecs = eig_hermitian(h[ge_slice, ge_slice])

    energies = np.concatenate([s_energies, ge_vals])
    states = np.zeros((space.dim, space.dim), dtype=complex)
    states[s_slice, :nph] = np.eye(nph)
    states[ge_slice, nph:] = ge_vecs
    sector = np.concatenate([np.zeros(nph, dtype=int), np.ones(2 * nph, dtype=int)])

    order = np.argsort(energies, kind="stable")
    energies = energies[order]
    states = states[:, order]
    sector = sector[order]

    one_el = np.flatnonzero(sector == 1)
    low3 = _order_low_triplet(one_el, energies, states, space)
    index_ground, index_minus, index_plus = low3

    s_levels = [0] * nph
    for k in np.flatnonzero(sector == 0):
        n = int(np.argmax(np.abs(states[s_slice, k])))
        s_levels[n] = int(k)

    basis = DressedBasis(
        space=space,
        energies=energies,
        states=states,
        sector=sector,
        s_levels=tuple(s_levels),
        index_ground=int(index_ground),
        index_minus=int(index_minus),
        index_plus=int(index_plus),
    )
    _check_sector_purity(basis, space)
    return basis


def _order_low_triplet(one_el, energies, states, space):
    """Indices of G, -, + with a deterministic tie-break at degeneracy.

    Levels are taken in ascending energy.  If the doublet is degenerate
    (only at zero coupling), the even-parity state is assigned to `-`
    first; if parity also ties, the state with lower photon-number
    expectation comes first.
    """
    ground = one_el[0]
    second, third = one_el[1], one_el[2]
    if abs(energies[third] - energies[second]) < DEGENERACY_TOL:
        pi = parity(space)
        nph_op = number_photon(space)

        def key(k):
            v = states[:, k]
            par = float(np.real(v.conj() @ pi @ v))
            nbar = float(np.real(v.conj() @ nph_op @ v))
            return (-par, nbar)  # even parity first, then fewer photons

        second, third = sorted((second, third), key=key)
    return ground, second, third


def _check_sector_purity(basis: DressedBasis, space: ModelSpace, tol: float = 1e-6):
    n_el = number_electron(space)
    expect = np.real(np.einsum("ik,ij,jk->k", basis.states.conj(), n_el, basis.states))
    defect = np.abs(expect - np.round(expect))
    if np.max(defect) > tol:
        raise SectorMixingError(
            f"eigenstate electron number deviates from integer by {np.max(defect):.3e}"
        )

