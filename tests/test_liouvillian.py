import itertools

import numpy as np
import pytest
import scipy.linalg as sla
from pytest import approx

import dense_oracle
from channel_rows import channel_table
from electrolum import ModelSpace, SystemParams, build_system
from electrolum.dissipators import BATH_CAVITY, channels_cavity
from electrolum.liouvillian import (
    SteadyStateError,
    build_liouvillian,
    check_density_operator,
    steady_state,
)
from electrolum.rabi import dressed_basis, hamiltonian
from electrolum.spectrum import quadrature_moment


def random_density(dim, rng):
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = a @ a.conj().T
    return rho / np.trace(rho)


def small_basis(n_max=2, eta=0.1):
    space = ModelSpace(n_max)
    params = SystemParams(eta=eta)
    basis = dressed_basis(hamiltonian(params, space), space)
    return dense_oracle.hamiltonian(params, space), basis, space


def dressed(basis, rho):
    """rho in the dressed basis."""
    return basis.states.conj().T @ rho @ basis.states


class TestGenerator:
    def test_stationary_eigenprojector_without_channels(self):
        h, basis, _ = small_basis()
        no_channels = channel_table([])
        lv = build_liouvillian(basis, no_channels)
        assert lv.dim == basis.dim
        assert not lv.rates.any() and not lv.out_rates.any()
        dense = dense_oracle.liouvillian(h, basis, no_channels)
        v = basis.states[:, 1]
        drho = dense_oracle.apply(dense, np.outer(v, v.conj()))
        assert np.max(np.abs(drho)) == approx(0.0, abs=1e-14)

    def test_single_channel_exponential_decay(self):
        gamma = 0.2
        h, basis, _ = small_basis()
        i, j = 0, 3
        ch = channel_table([(j, i, gamma, basis.energies[j] - basis.energies[i], BATH_CAVITY)])
        lv = build_liouvillian(basis, ch)
        assert lv.rates[i, j] == approx(gamma)
        assert lv.out_rates[j] == approx(gamma)
        # the dense generator applied to |j><j| moves population j -> i
        v = basis.states[:, j]
        drho = dressed(basis, dense_oracle.apply(
            dense_oracle.liouvillian(h, basis, ch), np.outer(v, v.conj())))
        assert np.real(drho[j, j]) == approx(-gamma)
        assert np.real(drho[i, i]) == approx(gamma)

    def test_trace_preservation(self, rng):
        system, dense = _reference_generator()
        lv = system.lv
        # the out-rates close every column of the Pauli matrix: with no
        # self-jump, -out_rates is the diagonal the steady-state solver ignores
        assert not np.diag(lv.rates).any()
        assert np.array_equal(lv.out_rates, lv.rates.sum(axis=0))
        rho = random_density(lv.dim, rng)
        assert abs(np.trace(dense_oracle.apply(dense, rho))) < 1e-12
        # the trace functional is a left null vector of the dense generator
        identity_row = dense_oracle.vec(np.eye(lv.dim)) @ dense
        assert np.max(np.abs(identity_row)) < 1e-12 * np.max(np.abs(dense))

    def test_apply_matches_direct_evaluation(self, rng):
        system, dense = _reference_generator()
        h = dense_oracle.hamiltonian(system.params, system.basis.space)
        for _ in range(10):
            rho = random_density(system.lv.dim, rng)
            direct = dense_oracle.lindblad_rhs(h, system.basis, system.channels, rho)
            assert np.max(np.abs(dense_oracle.apply(dense, rho) - direct)) < 1e-12

    def test_block_form_matches_dense_generator(self, rng):
        # populations follow the Pauli matrix; each coherence |i><j| is an
        # eigenoperator with eigenvalue -i(E_i - E_j) - (Gamma_i + Gamma_j)/2
        system, dense = _reference_generator()
        basis, lv = system.basis, system.lv
        v = basis.states
        p = rng.dirichlet(np.ones(lv.dim))
        drho = dressed(basis, dense_oracle.apply(dense, (v * p) @ v.conj().T))
        assert np.max(np.abs(drho - np.diag(dense_oracle.generator(lv.rates) @ p))) < 1e-13
        for i, j in [(0, 5), (3, 1), (basis.index_ground, basis.index_plus)]:
            coherence = np.outer(v[:, i], v[:, j].conj())
            expected = (-1j * (basis.energies[i] - basis.energies[j])
                        - 0.5 * (lv.out_rates[i] + lv.out_rates[j])) * coherence
            out = dense_oracle.apply(dense, coherence)
            assert np.max(np.abs(out - expected)) < 1e-12

    def test_preserves_hermiticity(self, rng):
        system, dense = _reference_generator()
        rho = random_density(system.lv.dim, rng)
        out = dense_oracle.apply(dense, rho)
        assert np.max(np.abs(out - out.conj().T)) < 1e-12

    def test_dimension_mismatch_rejected(self):
        system, dense = _reference_generator()
        with pytest.raises(ValueError):
            dense_oracle.apply(dense, np.eye(system.lv.dim + 1))


def _reference_generator(n_max=3):
    params = SystemParams(eta=0.1, mu=0.1)
    system = build_system(params, n_max=n_max, mu_mode="absolute")
    return system, dense_oracle.system_liouvillian(system)


class TestSteadyState:
    def test_cavity_only_kernel_is_ambiguous(self):
        # without electron exchange both sector grounds are stationary;
        # the dense generator agrees
        h, basis, space = small_basis()
        channels = channels_cavity(basis, 7e-4)
        with pytest.raises(SteadyStateError):
            steady_state(build_liouvillian(basis, channels))
        with pytest.raises(SteadyStateError):
            dense_oracle.steady_state(dense_oracle.liouvillian(h, basis, channels))

    def test_cavity_only_empty_sector_drains_to_vacuum(self):
        # starting in the empty sector, everything funnels into |s,0>
        _, basis, space = small_basis()
        lv = build_liouvillian(basis, channels_cavity(basis, 7e-4))
        p0 = np.zeros(basis.dim)
        p0[basis.s_levels[2]] = 1.0
        horizon = 50.0 / 7e-4
        p_t = sla.expm(dense_oracle.generator(lv.rates) * horizon) @ p0
        target = np.zeros(basis.dim)
        target[basis.s_levels[0]] = 1.0
        assert np.max(np.abs(p_t - target)) < 1e-8

    def test_balanced_cycle_without_coupling(self):
        system = build_system(SystemParams(eta=0.0, mu=0.2), mu_mode="absolute")
        basis = system.basis
        assert basis.population(system.rho_ss, basis.s_levels[0]) == approx(0.5, abs=1e-9)
        assert basis.population(system.rho_ss, basis.index_ground) == approx(0.5, abs=1e-9)
        photons = np.real(np.trace(dense_oracle.number_photon(basis.space) @ system.rho_ss))
        assert abs(photons) < 1e-12

    def test_reference_point_emittable_photon_number(self, low_bias_system):
        # escape-rate balance: gamma_cav <X+X-> equals the emitted flux
        # eta^2 gamma / 8 to leading order
        xm, _ = low_bias_system.x_pm
        moment = quadrature_moment(low_bias_system.rho_ss, xm)
        eta, gamma = 0.1, 0.5e-6
        assert moment == approx(eta**2 * gamma / (8 * 7e-4), rel=0.1)

    def test_stationarity_residual(self, low_bias_system, dense_generator):
        system = low_bias_system
        residual = dense_oracle.apply(dense_generator(system), system.rho_ss)
        assert np.max(np.abs(residual)) < 1e-9
        p = system.populations
        assert np.max(np.abs(dense_oracle.generator(system.lv.rates) @ p)) < 1e-14 * np.max(system.lv.out_rates)

    def test_physicality(self, low_bias_system):
        report = check_density_operator(low_bias_system.rho_ss)
        assert report["ok"], report

    def test_no_injection_no_extraction_is_ambiguous(self):
        system = build_system(SystemParams(eta=0.1, mu=0.2), mu_mode="absolute")
        cavity_only = system.channels.of_bath(BATH_CAVITY)
        with pytest.raises(SteadyStateError):
            steady_state(build_liouvillian(system.basis, cavity_only))
        with pytest.raises(SteadyStateError):
            dense_oracle.steady_state(
                dense_oracle.liouvillian(
                    dense_oracle.hamiltonian(system.params, system.basis.space),
                    system.basis, cavity_only))


class TestSpectralStructure:
    def test_contraction_spectrum(self, low_bias_system, dense_generator):
        evals = np.linalg.eigvals(dense_generator(low_bias_system))
        assert np.max(evals.real) <= 1e-10
        near_zero = np.sum(np.abs(evals) < 1e-10)
        assert near_zero == 1

    def test_vectorization_round_trip(self, rng):
        rho = random_density(6, rng)
        assert np.max(np.abs(dense_oracle.unvec(dense_oracle.vec(rho)) - rho)) == approx(0.0)

    def test_steady_state_convention_independent(self):
        # the dense kernel in the row-stacking convention (a permutation
        # similarity of the column-stacked generator) is the same state
        system, dense = _reference_generator()
        d = system.basis.space.dim
        perm = np.zeros((d * d, d * d))
        for i, j in itertools.product(range(d), range(d)):
            perm[i * d + j, j * d + i] = 1.0
        rho_row = dense_oracle.steady_state(perm @ dense @ perm.T).T
        assert np.max(np.abs(rho_row - system.rho_ss)) < 1e-10
