import numpy as np
import pytest
from pytest import approx

import dense_oracle
from dense_oracle import (
    basis_state,
    electron_numbers,
    ground_photon_number,
    number_electron,
    parity,
    states,
)
from electrolum import ModelSpace, SystemParams
from electrolum.dissipators import quadrature_elements
from electrolum.rabi import DressedBasis, dressed_basis, hamiltonian
from electrolum.spectrum import emission_line_centers


MISLABELLED_DOUBLET = pytest.mark.xfail(strict=True, reason="ROADMAP item 20")


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
        # |s,n> sits at exactly E = n: the injection gate reads mu + n off it
        space = ModelSpace(5)
        ladder = np.arange(space.n_photon, dtype=float)
        h = hamiltonian(SystemParams(eta=0.1), space)
        # exactly the two parity chains: the ladder is not stored
        assert len(h) == 2
        for diag, off in h:
            assert (len(diag), len(off)) == (space.n_photon, space.n_photon - 1)
        basis = dressed_basis(h, space)
        assert np.array_equal(basis.energies[list(basis.s_levels)], ladder)

    def test_conserves_electron_number(self):
        space = ModelSpace(6)
        h = dense_hamiltonian(SystemParams(eta=0.3), space)
        n_el = number_electron(space)
        assert np.max(np.abs(h @ n_el - n_el @ h)) < 1e-12

    def test_hermitian(self):
        space = ModelSpace(6)
        h = dense_hamiltonian(SystemParams(eta=0.2), space)
        assert np.max(np.abs(h - h.conj().T)) == approx(0.0)

    @pytest.mark.parametrize("params", [
        SystemParams(eta=0.3),
        SystemParams(eta=0.7, omega_e=0.9),
    ])
    def test_chains_are_the_kron_hamiltonian(self, params):
        # the two parity chains and the empty sites hold every nonzero
        # element of the dense Hamiltonian, and nothing else
        space = ModelSpace(7)
        dense = dense_oracle.hamiltonian(params, space)
        assert np.max(np.abs(dense_hamiltonian(params, space) - dense)) < 1e-14


class TestDressedBasis:
    def test_rejects_another_cutoff(self):
        params = SystemParams(eta=0.1)
        with pytest.raises(ValueError, match="does not match the space"):
            dressed_basis(hamiltonian(params, ModelSpace(3)), ModelSpace(4))

    def test_stores_no_bare_matrix(self):
        # the chains and s_levels fix every eigenvector; only the dense
        # oracle lays them out over the bare basis (dense_oracle.states)
        assert DressedBasis._fields == ("space", "energies", "s_levels", "index_ground",
                                        "index_minus", "index_plus", "chains")

    def test_uncoupled_resonant_levels(self):
        basis, _ = basis_for(0.0)
        centers = emission_line_centers(basis)
        assert basis.omega_ground == approx(0.0)
        assert centers["minus"] == approx(1.0)
        assert centers["plus"] == approx(1.0)  # degenerate doublet
        # the line frequencies have one reader
        assert not hasattr(DressedBasis, "omega_minus")
        assert not hasattr(DressedBasis, "omega_plus")

    def test_weak_coupling_splitting(self):
        eta = 1e-3
        centers = emission_line_centers(basis_for(eta)[0])
        assert centers["plus"] - centers["minus"] == approx(2 * eta, rel=1e-2)

    def test_ground_energy_lowered(self):
        # second-order perturbation theory as the independent oracle
        eta = 0.1
        basis, _ = basis_for(eta)
        assert basis.omega_ground < 0
        assert basis.omega_ground == approx(-eta**2 / 2, rel=0.1)

    def test_zero_sector_states_are_bare(self):
        basis, space = basis_for(0.15)
        v = states(basis)
        for n, k in enumerate(basis.s_levels):
            assert np.abs(v[:, k]) == approx(
                np.abs(basis_state(space, "s", n)), abs=1e-14
            )
        assert np.flatnonzero(electron_numbers(basis) == 0).tolist() == sorted(basis.s_levels)

    def test_sector_block_structure(self):
        basis, space = basis_for(0.2)
        h = dense_oracle.hamiltonian(SystemParams(eta=0.2), space)
        zero, one = (np.flatnonzero(electron_numbers(basis) == n) for n in (0, 1))
        v = states(basis)
        cross = v[:, zero].conj().T @ h @ v[:, one]
        assert np.max(np.abs(cross)) < 1e-14

    @pytest.mark.parametrize("eta", [0.1, 0.3])
    def test_parity_good_quantum_number(self, eta):
        basis, space = basis_for(eta)
        pi = parity(space)
        vectors = states(basis)
        for k in np.flatnonzero(electron_numbers(basis) == 1):
            v = vectors[:, k]
            expect = np.real(v.conj() @ pi @ v)
            assert abs(abs(expect) - 1.0) < 1e-10

    def test_variational_bound_and_no_crossing(self):
        for eta in np.linspace(0.0, 0.5, 11):
            basis, _ = basis_for(eta)
            assert basis.omega_ground <= 1e-12
            # gap between G and - never closes
            assert emission_line_centers(basis)["minus"] > 0

    @pytest.mark.parametrize("eta", [0.0, 0.05, 0.2])
    def test_labels_are_lowest_one_electron_levels(self, eta):
        basis, _ = basis_for(eta)
        one_el = np.flatnonzero(electron_numbers(basis) == 1)
        assert basis.index_ground == one_el[0]
        assert {basis.index_minus, basis.index_plus} == set(one_el[1:3])
        centers = emission_line_centers(basis)
        assert centers["minus"] <= centers["plus"]

    # past the level crossing (eta ~ 0.434 at omega_e 1, every eta once
    # omega_e >= 2) "+" is the third-lowest level, in G's own chain
    @pytest.mark.parametrize("omega_e, eta", [
        (1.0, 0.1), (1.0, 0.3),
        *[pytest.param(omega_e, eta, marks=MISLABELLED_DOUBLET)
          for omega_e, eta in ((1.0, 0.8), (1.0, 1.5), (2.5, 0.1), (2.5, 1.0))],
    ])
    def test_doublet_is_what_x_reaches_from_ground(self, omega_e, eta):
        basis, _ = basis_for(eta, n_max=16, omega_e=omega_e)
        x, ground = quadrature_elements(basis), basis.index_ground
        assert x[basis.index_minus, ground] != 0.0
        assert x[basis.index_plus, ground] != 0.0
        centers = emission_line_centers(basis)
        assert centers["minus"] < centers["plus"]

    def test_degenerate_doublet_tie_break(self):
        # at zero coupling |e,0> and |g,1> are degenerate and of equal
        # parity, so the state with fewer photons is labelled -
        basis, space = basis_for(0.0)
        v = states(basis)
        assert abs(v[:, basis.index_minus] @ basis_state(space, "e", 0)) == 1.0
        assert abs(v[:, basis.index_plus] @ basis_state(space, "g", 1)) == 1.0

    def test_electron_number_expectation_integer(self):
        basis, space = basis_for(0.4)
        n_el = number_electron(space)
        vectors = states(basis)
        for k in range(basis.dim):
            v = vectors[:, k]
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
            v = states(basis)
            g, plus, minus = jc_reference(params, space)
            return (
                abs(np.vdot(g, v[:, basis.index_ground])) ** 2,
                abs(np.vdot(plus, v[:, basis.index_plus])) ** 2,
                abs(np.vdot(minus, v[:, basis.index_minus])) ** 2,
            )

        weak = overlaps(0.01)
        assert all(o >= 0.999 for o in weak)
        stronger = overlaps(0.05)
        assert all(w > s for w, s in zip(weak, stronger))

    def test_requires_resonance(self):
        space = ModelSpace(4)
        with pytest.raises(ValueError):
            jc_reference(SystemParams(eta=0.1, omega_e=1.5), space)
