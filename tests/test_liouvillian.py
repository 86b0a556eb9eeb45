import itertools

import numpy as np
import pytest
import scipy.linalg as sla
from pytest import approx

import dense_oracle
from channel_rows import bath_rates
from electrolum import ModelSpace, SystemParams, build_system, liouvillian
from electrolum.dissipators import all_channels
from electrolum.liouvillian import build_liouvillian, check_density_operator, steady_state
from electrolum.linalg import NullSpaceError
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
    v = dense_oracle.states(basis)
    return v.conj().T @ rho @ v


class TestGenerator:
    def test_stationary_eigenprojector_without_channels(self):
        h, basis, _ = small_basis()
        lv = build_liouvillian(bath_rates(basis.energies))
        assert lv.dim == basis.dim
        assert not lv.rates.any() and not lv.out_rates.any()
        dense = dense_oracle.liouvillian(h, basis, np.zeros((basis.dim, basis.dim)))
        v = dense_oracle.states(basis)[:, 1]
        drho = dense_oracle.apply(dense, np.outer(v, v.conj()))
        assert np.max(np.abs(drho)) == approx(0.0, abs=1e-14)

    def test_single_channel_exponential_decay(self):
        gamma = 0.2
        h, basis, _ = small_basis()
        i, j = 0, 3
        rates = np.zeros((basis.dim, basis.dim))
        rates[i, j] = gamma
        lv = build_liouvillian(bath_rates(basis.energies, cavity=rates))
        assert lv.rates[i, j] == approx(gamma)
        assert lv.out_rates[j] == approx(gamma)
        # the dense generator applied to |j><j| moves population j -> i
        v = dense_oracle.states(basis)[:, j]
        drho = dressed(basis, dense_oracle.apply(
            dense_oracle.liouvillian(h, basis, rates), np.outer(v, v.conj())))
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
            direct = dense_oracle.lindblad_rhs(
                h, system.basis, dense_oracle.summed_rates(system.channels), rho)
            assert np.max(np.abs(dense_oracle.apply(dense, rho) - direct)) < 1e-12

    def test_block_form_matches_dense_generator(self, rng):
        # populations follow the Pauli matrix; each coherence |i><j| is an
        # eigenoperator with eigenvalue -i(E_i - E_j) - (Gamma_i + Gamma_j)/2
        system, dense = _reference_generator()
        basis, lv = system.basis, system.lv
        v = dense_oracle.states(basis)
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


# the cavity bath alone (gamma_cav 7e-4), for the bases of small_basis
CAVITY_ONLY = SystemParams(eta=0.1, gamma_in=0.0, gamma_out=0.0)
# linalg's one message for it: the two sector grounds are both stationary
TWO_CLASSES = "^no unique stationary state: the rate graph has 2 closed classes"


class TestSteadyState:
    def test_cavity_only_kernel_is_ambiguous(self):
        # without electron exchange both sector grounds are stationary;
        # the dense generator agrees
        h, basis, space = small_basis()
        channels = all_channels(basis, CAVITY_ONLY)
        with pytest.raises(NullSpaceError, match=TWO_CLASSES):
            steady_state(build_liouvillian(channels))
        with pytest.raises(NullSpaceError):
            dense_oracle.steady_state(dense_oracle.liouvillian(
                h, basis, dense_oracle.summed_rates(channels)))
        assert not hasattr(liouvillian, "SteadyStateError")  # linalg's is the one failure

    def test_cavity_only_empty_sector_drains_to_vacuum(self):
        # starting in the empty sector, everything funnels into |s,0>
        _, basis, space = small_basis()
        lv = build_liouvillian(all_channels(basis, CAVITY_ONLY))
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
        rho = dense_oracle.to_bare(basis, system.rho_ss)
        photons = np.real(np.trace(dense_oracle.number_photon(basis.space) @ rho))
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
        rho = dense_oracle.to_bare(system.basis, system.rho_ss)
        residual = dense_oracle.apply(dense_generator(system), rho)
        assert np.max(np.abs(residual)) < 1e-9
        p = system.populations
        assert np.max(np.abs(dense_oracle.generator(system.lv.rates) @ p)) < 1e-14 * np.max(system.lv.out_rates)

    @pytest.mark.parametrize("n_max", [8, 16])
    @pytest.mark.parametrize("mu_mode", ["omega_G", "omega_G_plus_omega_plus"])
    @pytest.mark.parametrize("eta", [0.02, 0.1, 0.3, 1.0])
    def test_steady_state_carries_one_current(self, eta, mu_mode, n_max):
        # cavity jumps keep the electron number, so d/dt P(one electron) =
        # I_in - I_out and the two currents are equal in the steady state.
        # The bound comes from GTH's entrywise accuracy, not from the data.
        # GTH builds every population from sums, products and quotients of
        # non-negative numbers, with no cancellation, each sum over at most
        # D terms; each p_k is taken to a relative error of a few D eps, 4 D
        # eps here (a rigorous worst case grows faster in D).  Each current
        # sums at most D non-negative terms (column sums of rates) x p_k,
        # which adds at most 2 D eps.  So the two currents differ by at
        # most 2 (4 + 2) D eps = 12 D eps relative to either.
        system = build_system(SystemParams(eta=eta), n_max=n_max, mu_mode=mu_mode)
        channels, p = system.channels, system.populations
        current_in = channels.electron_in.sum(axis=0) @ p
        current_out = channels.electron_out.sum(axis=0) @ p
        assert current_in > 0.0
        bound = 12 * system.lv.dim * np.finfo(float).eps
        assert abs(current_in - current_out) <= bound * current_in

    def test_physicality(self, low_bias_system):
        report = check_density_operator(low_bias_system.rho_ss)
        assert report["ok"], report

    @pytest.mark.parametrize("mu_mode", ["omega_G", "omega_G_plus_omega_plus"])
    @pytest.mark.parametrize("eta", [0.1, 0.3])
    def test_readers_over_the_dressed_levels(self, eta, mu_mode):
        # rho_ss = diag(p) and X- live over the dressed levels; each reader
        # gives what it gives on their bare images V rho V^T and V X- V^T
        system = build_system(SystemParams(eta=eta), mu_mode=mu_mode)
        basis, rho = system.basis, system.rho_ss
        assert [basis.population(rho, k) for k in range(basis.dim)] == system.populations.tolist()
        report = check_density_operator(rho)
        assert report["ok"], report
        x_minus = system.x_pm[0]
        bare = quadrature_moment(dense_oracle.to_bare(basis, rho),
                                 dense_oracle.to_bare(basis, x_minus))
        assert quadrature_moment(rho, x_minus) == approx(bare, rel=1e-12, abs=0)

    def test_no_injection_no_extraction_is_ambiguous(self):
        system = build_system(SystemParams(eta=0.1, mu=0.2), mu_mode="absolute")
        cavity_only = all_channels(system.basis,
                                   system.params._replace(gamma_in=0.0, gamma_out=0.0))
        with pytest.raises(NullSpaceError, match=TWO_CLASSES):
            steady_state(build_liouvillian(cavity_only))
        with pytest.raises(NullSpaceError):
            dense_oracle.steady_state(
                dense_oracle.liouvillian(
                    dense_oracle.hamiltonian(system.params, system.basis.space),
                    system.basis, dense_oracle.summed_rates(cavity_only)))


def cascade_jumps(cavity, energies):
    """Expected number of cavity jumps from each level down to one with none left."""
    total = cavity.sum(axis=0)
    jumps = np.zeros(len(energies))
    for j in np.argsort(energies, kind="stable"):  # cavity jumps only go down
        if total[j] > 0:
            jumps[j] = 1.0 + cavity[:, j] @ jumps / total[j]
    return jumps


class TestBoundPhotonIdentity:
    """At omega_G the cavity emits <n>_G = <G|a^dagger a|G> photons per electron.

    F is the total cavity flux, I the current and x = gamma_in/gamma_cav.
    Give each level a photon count psi: m on |s,m>, and on a one-electron
    level <n>_G plus L, its expected number of cavity jumps down to |G>.
    In the steady state the flux-weighted change of psi over all jumps is
    zero.  Cavity jumps lower psi by one each (on the one-electron levels in
    expectation), and an extraction from a level with <n> = psi leaves it
    unchanged on average, since it lands on |s,m> with the level's photon
    weights.  So F - I <n>_G is the sum over injections |s,m> -> |j> of
    their flux times (L_j - m), plus extractions from levels other than
    |G>, which are populated only at order x and so add order x^2.

    Injection out of |s,m> is at most 2 gamma_in (its weights into each of
    the two parity chains sum to one), and m gamma_cav p_{s,m} is at most
    the extraction flux that lands on rungs >= m, the only feed of those
    rungs.  If every injection from |s,m> moves at most m photons,
    |L_j - m| <= m, the sum over rungs gives |F - I <n>_G| <= 2 x I <n>_G:
    |K| <= 2 in F / (I <n>_G) - 1 = K x.  The premise is checked below:
    the gate keeps E_j <= mu + m omega_c, and the test fails if some
    cascade from there still takes more than 2m jumps.  The order-x^2
    remainder carries one more factor x times a photon count of at most
    n_max, which the bound allows as the factor (1 + n_max x).
    """

    N_MAX = 16

    def deviation(self, eta, **rates):
        system = build_system(SystemParams(eta=eta, **rates), n_max=self.N_MAX,
                              mu_mode="omega_G")
        channels, p = system.channels, system.populations
        flux = channels.cavity.sum(axis=0) @ p
        current = channels.electron_out.sum(axis=0) @ p
        bound_photons = dense_oracle.ground_photon_number(system.basis, system.basis.space)
        return system, flux / (current * bound_photons) - 1.0

    @pytest.mark.parametrize("eta", [0.02, 0.05, 0.1, 0.3, 0.6, 0.8, 1.0])
    def test_flux_per_electron_is_bound_photons(self, eta):
        system, deviation = self.deviation(eta)
        basis, channels = system.basis, system.channels
        jumps = cascade_jumps(channels.cavity, channels.energies)
        resting = np.flatnonzero((channels.cavity.sum(axis=0) == 0)
                                 & (dense_oracle.electron_numbers(basis) == 1))
        assert resting.tolist() == [basis.index_ground]
        rung = np.zeros(basis.dim)
        rung[list(basis.s_levels)] = np.arange(basis.space.n_photon)
        to, source = np.nonzero(channels.electron_in)
        assert np.all(np.abs(jumps[to] - rung[source]) <= rung[source] + 1e-9)
        x = system.params.gamma_in / system.params.gamma_cav
        assert abs(deviation) <= 2 * x * (1 + self.N_MAX * x)

    # Below eta 0.3, |K| < 0.03 and the order-x^2 remainder is not small
    # against K x, so the linear law is checked only where K is large.
    @pytest.mark.parametrize("eta", [0.6, 1.0])
    def test_deviation_scales_with_gamma_over_gamma_cav(self, eta):
        system, deviation = self.deviation(eta)
        _, smaller = self.deviation(eta, gamma_cav=10 * system.params.gamma_cav)
        x = system.params.gamma_in / system.params.gamma_cav
        assert deviation / smaller == approx(10.0, rel=2 * self.N_MAX * x)


class TestSpectralStructure:
    def test_contraction_spectrum(self, low_bias_system, dense_generator):
        blocks = dense_oracle.charge_split(dense_generator(low_bias_system),
                                           low_bias_system.basis.space)
        evals = np.concatenate([np.linalg.eigvals(b) for b in blocks.values()])
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
        rho = dense_oracle.to_bare(system.basis, system.rho_ss)
        assert np.max(np.abs(rho_row - rho)) < 1e-10
