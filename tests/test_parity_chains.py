"""The parity-chain dressed basis against the dense Kronecker-built Hamiltonian.

The package diagonalizes two real tridiagonal chains and reads every
channel element off their eigenvectors.  Here the dressed states are
checked as eigenvectors of the dense Hamiltonian of
``dense_oracle.hamiltonian``, and the channel table is rebuilt pair by
pair from the dense bare operators sandwiched between those states.
"""

import numpy as np
import pytest

import dense_oracle
from electrolum import SystemParams, build_system
from electrolum.dissipators import BATH_CAVITY, BATH_IN, BATH_OUT, WEIGHT_CUT, gate_open

MODES = ["omega_G", "omega_G_plus_omega_plus"]


def dense_channels(system):
    """(from, to, rate, bath) rows from <i|op|j> = v_i^dagger op v_j of dense operators."""
    basis, space, params = system.basis, system.basis.space, system.params
    e = basis.energies
    v = basis.states
    one_el = np.flatnonzero(basis.sector == 1)
    e_s0 = e[basis.s_levels[0]]
    rows = []
    for op, pairs, bare_rate, bath in (
        (dense_oracle.quadrature(space),
         [(j, i) for j in range(basis.dim) for i in range(basis.dim) if e[j] > e[i]],
         params.gamma_cav, BATH_CAVITY),
        (dense_oracle.extraction_operator(space),
         [(j, i) for j in one_el for i in basis.s_levels], params.gamma_out, BATH_OUT),
        (dense_oracle.injection_operator(space),
         [(j, i) for j in basis.s_levels for i in one_el
          if gate_open(params.mu + (e[j] - e_s0) - e[i])], params.gamma_in, BATH_IN),
    ):
        elems = v.conj().T @ op @ v
        for j, i in pairs:
            weight = abs(elems[i, j]) ** 2
            if weight >= WEIGHT_CUT:
                rows.append((int(j), int(i), bare_rate * weight, bath))
    return rows


def max_defects(system):
    """Energy, eigenvector and orthonormality defects against the dense Hamiltonian."""
    basis = system.basis
    h = dense_oracle.hamiltonian(system.params, system.basis.space)
    v = basis.states
    return (np.max(np.abs(basis.energies - np.linalg.eigvalsh(h))),
            np.max(np.abs(h @ v - v * basis.energies)),
            np.max(np.abs(v.T @ v - np.eye(basis.dim))))


@pytest.mark.parametrize("n_max", [3, 8, 12])
@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("eta", [0.0, 0.02, 0.1, 0.3, 0.8])
def test_chains_match_dense_route(eta, mode, n_max):
    system = build_system(SystemParams(eta=eta), n_max=n_max, mu_mode=mode)
    assert system.basis.states.dtype.kind == "f"
    energy, eigen, ortho = max_defects(system)
    assert energy <= 1e-13
    assert eigen <= 1e-12
    assert ortho <= 1e-12

    table = list(system.channels)
    reference = dense_channels(system)
    assert [(r.from_index, r.to_index, r.bath) for r in table] == \
        [(j, i, bath) for j, i, _, bath in reference]
    rates = np.array([r.rate for r in table])
    expected = np.array([rate for _, _, rate, _ in reference])
    baths = np.array([r.bath for r in table])
    for bath in set(baths):
        mask = baths == bath
        largest = np.max(expected[mask])
        assert np.max(np.abs(rates[mask] - expected[mask])) <= 1e-12 * largest, bath


@pytest.mark.parametrize("mode", MODES)
def test_large_cutoff_ultrastrong(mode):
    # n_max 128 at eta 1: the regime whose bound photons need a long ladder
    system = build_system(SystemParams(eta=1.0), n_max=128, mu_mode=mode)
    assert system.basis.states.dtype.kind == "f"
    energy, _, ortho = max_defects(system)
    assert energy <= 1e-11
    assert ortho <= 1e-12
