import numpy as np
import pytest
from pytest import approx

import dense_oracle
from dense_oracle import basis_state, ground_photon_number, number_electron, parity
from electrolum.hilbert import ModelSpace, SystemParams
from electrolum.rabi import dressed_basis, hamiltonian


def jc_reference(params: SystemParams, space):
    """Closed-form weak-coupling states: G = |g,0>, +/- = (|g,1> +/- |e,0>)/sqrt(2).

    Valid at resonance; used as a test oracle for the exact levels.
    """
    if abs(params.omega_e - 1.0) > 1e-12:
        raise ValueError("reference states are defined at resonance omega_e = omega_c")
    g = basis_state(space, "g", 0)
    plus = (basis_state(space, "g", 1) + basis_state(space, "e", 0)) / np.sqrt(2)
    minus = (basis_state(space, "g", 1) - basis_state(space, "e", 0)) / np.sqrt(2)
    return g, plus, minus


def basis_for(eta, n_max=8, **kwargs):
    space = ModelSpace(n_max)
    params = SystemParams(eta=eta, **kwargs)
    return dressed_basis(hamiltonian(params, space), space), space


def dense_hamiltonian(params, space):
    """The block form of the package, laid out in the bare basis."""
    return dense_oracle.assemble(hamiltonian(params, space), space)


class TestHamiltonian:
    def test_uncoupled_diagonal(self):
        space = ModelSpace(4)
        params = SystemParams(eta=0.0, omega_e=1.3)
        h = dense_hamiltonian(params, space)
        off = h - np.diag(np.diag(h))
        assert np.max(np.abs(off)) == approx(0.0)
        e1 = basis_state(space, "e", 1)
        assert np.real(e1.conj() @ h @ e1) == approx(params.omega_e + 1.0)

    def test_coupling_elements(self):
        space = ModelSpace(4)
        params = SystemParams(eta=0.07)
        h = dense_hamiltonian(params, space)
        e0, g1 = basis_state(space, "e", 0), basis_state(space, "g", 1)
        e1, g0 = basis_state(space, "e", 1), basis_state(space, "g", 0)
        assert e0.conj() @ h @ g1 == approx(params.eta)
        # counter-rotating partner has the same amplitude
        assert e1.conj() @ h @ g0 == approx(params.eta)

    def test_empty_state_energies(self):
        space = ModelSpace(5)
        params = SystemParams(eta=0.1, omega_s=0.2)
        h = dense_hamiltonian(params, space)
        for n in range(space.n_photon):
            sn = basis_state(space, "s", n)
            assert np.real(sn.conj() @ h @ sn) == approx(n - params.omega_s)

    def test_conserves_electron_number(self):
        space = ModelSpace(6)
        h = dense_hamiltonian(SystemParams(eta=0.3), space)
        n_el = number_electron(space)
        assert np.max(np.abs(h @ n_el - n_el @ h)) < 1e-12

    def test_hermitian(self):
        space = ModelSpace(6)
        h = dense_hamiltonian(SystemParams(eta=0.2, omega_s=0.1), space)
        assert np.max(np.abs(h - h.conj().T)) == approx(0.0)

    @pytest.mark.parametrize("params", [
        SystemParams(eta=0.3),
        SystemParams(eta=0.7, omega_e=0.9, omega_s=0.25),
    ])
    def test_chains_are_the_kron_hamiltonian(self, params):
        # the two parity chains and the empty sites hold every nonzero
        # element of the dense Hamiltonian, and nothing else
        space = ModelSpace(7)
        dense = dense_oracle.hamiltonian(params, space)
        assert np.max(np.abs(dense_hamiltonian(params, space) - dense)) < 1e-14


class TestDressedBasis:
    def test_uncoupled_resonant_levels(self):
        basis, _ = basis_for(0.0)
        assert basis.omega_ground == approx(0.0)
        assert basis.omega_minus == approx(1.0)
        assert basis.omega_plus == approx(1.0)  # degenerate doublet

    def test_weak_coupling_splitting(self):
        eta = 1e-3
        basis, _ = basis_for(eta)
        assert basis.omega_plus - basis.omega_minus == approx(2 * eta, rel=1e-2)

    def test_ground_energy_lowered(self):
        # second-order perturbation theory as the independent oracle
        eta = 0.1
        basis, _ = basis_for(eta)
        assert basis.omega_ground < 0
        assert basis.omega_ground == approx(-eta**2 / 2, rel=0.1)

    def test_zero_sector_states_are_bare(self):
        basis, space = basis_for(0.15)
        for n, k in enumerate(basis.s_levels):
            assert np.abs(basis.states[:, k]) == approx(
                np.abs(basis_state(space, "s", n)), abs=1e-14
            )
            assert basis.sector[k] == 0

    def test_sector_block_structure(self):
        basis, space = basis_for(0.2)
        h = dense_oracle.hamiltonian(SystemParams(eta=0.2), space)
        zero = np.flatnonzero(basis.sector == 0)
        one = np.flatnonzero(basis.sector == 1)
        cross = basis.states[:, zero].conj().T @ h @ basis.states[:, one]
        assert np.max(np.abs(cross)) < 1e-14

    @pytest.mark.parametrize("eta", [0.1, 0.3])
    def test_parity_good_quantum_number(self, eta):
        basis, space = basis_for(eta)
        pi = parity(space)
        for k in np.flatnonzero(basis.sector == 1):
            v = basis.states[:, k]
            expect = np.real(v.conj() @ pi @ v)
            assert abs(abs(expect) - 1.0) < 1e-10

    def test_variational_bound_and_no_crossing(self):
        for eta in np.linspace(0.0, 0.5, 11):
            basis, _ = basis_for(eta)
            assert basis.omega_ground <= 1e-12
            assert basis.omega_minus > 0  # gap between G and - never closes

    @pytest.mark.parametrize("eta", [0.0, 0.05, 0.2])
    def test_labels_are_lowest_one_electron_levels(self, eta):
        basis, _ = basis_for(eta)
        one_el = np.flatnonzero(basis.sector == 1)
        assert basis.index_ground == one_el[0]
        assert {basis.index_minus, basis.index_plus} == set(one_el[1:3])
        assert basis.omega_minus <= basis.omega_plus

    def test_degenerate_doublet_tie_break(self):
        # at zero coupling |e,0> and |g,1> are degenerate and of equal
        # parity, so the state with fewer photons is labelled -
        basis, space = basis_for(0.0)
        assert abs(basis.states[:, basis.index_minus] @ basis_state(space, "e", 0)) == 1.0
        assert abs(basis.states[:, basis.index_plus] @ basis_state(space, "g", 1)) == 1.0

    def test_electron_number_expectation_integer(self):
        basis, space = basis_for(0.4)
        n_el = number_electron(space)
        for k in range(basis.dim):
            v = basis.states[:, k]
            expect = np.real(v.conj() @ n_el @ v)
            assert abs(expect - round(expect)) < 1e-10


class TestGroundPhotonNumber:
    def test_uncoupled_is_zero(self):
        basis, space = basis_for(0.0)
        assert ground_photon_number(basis, space) == approx(0.0, abs=1e-14)

    def test_perturbative_value(self):
        # |G> ~ |g,0> - (eta/2)|e,1> at resonance gives <n> ~ eta^2/4
        eta = 0.05
        basis, space = basis_for(eta)
        assert ground_photon_number(basis, space) == approx(eta**2 / 4, rel=0.1)

    def test_monotone_in_coupling(self):
        values = []
        for eta in np.linspace(0.0, 0.5, 11):
            basis, space = basis_for(eta)
            values.append(ground_photon_number(basis, space))
        assert all(b > a for a, b in zip(values, values[1:]))


class TestJCReference:
    def test_normalized_and_orthogonal(self):
        space = ModelSpace(6)
        g, plus, minus = jc_reference(SystemParams(eta=0.05), space)
        assert np.vdot(plus, plus) == approx(1.0)
        assert np.vdot(minus, minus) == approx(1.0)
        assert np.vdot(g, g) == approx(1.0)
        assert np.vdot(plus, minus) == approx(0.0, abs=1e-14)

    def test_overlap_with_exact_states(self):
        space = ModelSpace(8)

        def overlaps(eta):
            params = SystemParams(eta=eta)
            basis = dressed_basis(hamiltonian(params, space), space)
            g, plus, minus = jc_reference(params, space)
            return (
                abs(np.vdot(g, basis.states[:, basis.index_ground])) ** 2,
                abs(np.vdot(plus, basis.states[:, basis.index_plus])) ** 2,
                abs(np.vdot(minus, basis.states[:, basis.index_minus])) ** 2,
            )

        weak = overlaps(0.01)
        assert all(o >= 0.999 for o in weak)
        stronger = overlaps(0.05)
        assert all(w > s for w, s in zip(weak, stronger))

    def test_requires_resonance(self):
        space = ModelSpace(4)
        with pytest.raises(ValueError):
            jc_reference(SystemParams(eta=0.1, omega_e=1.5), space)
