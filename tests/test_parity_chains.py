"""The parity-chain dressed basis against the dense Kronecker-built Hamiltonian.

The package diagonalizes two real tridiagonal chains and reads every
channel element off their eigenvectors.  Here the dressed states are
checked as eigenvectors of the dense Hamiltonian of
``dense_oracle.hamiltonian``, and each bath's rate matrix is rebuilt
pair by pair from the dense bare operators sandwiched between those
states.
"""

import numpy as np
import pytest

import dense_oracle
from electrolum import SystemParams, build_system
from electrolum.dissipators import WEIGHT_CUT, gate_open

MODES = ["omega_G", "omega_G_plus_omega_plus"]


def dense_rates(system):
    """Rate matrix [to, from] of each bath from <i|op|j> = v_i^dagger op v_j of dense operators."""
    basis, space, params = system.basis, system.basis.space, system.params
    e = basis.energies
    v = dense_oracle.states(basis)
    # electron number of each level from the dense operator, not from the package's labels
    electrons = dense_oracle.electron_numbers(basis)
    empty, one_el = np.flatnonzero(electrons == 0), np.flatnonzero(electrons == 1)
    baths = {}
    for name, op, pairs, bare_rate in (
        ("cavity", dense_oracle.quadrature(space),
         [(j, i) for j in range(basis.dim) for i in range(basis.dim) if e[j] > e[i]],
         params.gamma_cav),
        ("electron_out", dense_oracle.extraction_operator(space),
         [(j, i) for j in one_el for i in empty], params.gamma_out),
        ("electron_in", dense_oracle.injection_operator(space),
         [(j, i) for j in empty for i in one_el
          if gate_open(params.mu + e[j] - e[i])], params.gamma_in),
    ):
        elems = v.conj().T @ op @ v
        rates = np.zeros((basis.dim, basis.dim))
        for j, i in pairs:
            weight = abs(elems[i, j]) ** 2
            if weight >= WEIGHT_CUT:
                rates[i, j] = bare_rate * weight
        baths[name] = rates
    return baths


def max_defects(system):
    """Energy, eigenvector and orthonormality defects against the dense Hamiltonian."""
    basis = system.basis
    h = dense_oracle.hamiltonian(system.params, system.basis.space)
    v = dense_oracle.states(basis)
    return (np.max(np.abs(basis.energies - np.linalg.eigvalsh(h))),
            np.max(np.abs(h @ v - v * basis.energies)),
            np.max(np.abs(v.T @ v - np.eye(basis.dim))))


@pytest.mark.parametrize("n_max", [3, 8, 12])
@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("eta", [0.0, 0.02, 0.1, 0.3, 0.8])
def test_chains_match_dense_route(eta, mode, n_max):
    system = build_system(SystemParams(eta=eta), n_max=n_max, mu_mode=mode)
    assert all(vectors.dtype.kind == "f" for _, vectors in system.basis.chains)
    energy, eigen, ortho = max_defects(system)
    assert energy <= 1e-13
    assert eigen <= 1e-12
    assert ortho <= 1e-12

    for bath, expected in dense_rates(system).items():
        rates = getattr(system.channels, bath)
        assert np.array_equal(rates != 0, expected != 0), bath
        assert np.max(np.abs(rates - expected)) <= 1e-12 * np.max(expected), bath


@pytest.mark.parametrize("mode", MODES)
def test_large_cutoff_ultrastrong(mode):
    # n_max 128 at eta 1: the regime whose bound photons need a long ladder
    system = build_system(SystemParams(eta=1.0), n_max=128, mu_mode=mode)
    assert all(vectors.dtype.kind == "f" for _, vectors in system.basis.chains)
    energy, _, ortho = max_defects(system)
    assert energy <= 1e-11
    assert ortho <= 1e-12
