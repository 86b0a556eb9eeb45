import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from pytest import approx
from scipy.integrate import solve_ivp

from electrolum import SystemParams, build_system
from electrolum.linalg import NullSpaceError
from electrolum.ratemodel import (
    Populations,
    RateSet,
    analytic_el,
    analytic_gse,
    extract_rates,
    fluxes,
    rate_matrix,
    rate_steady_state,
)

REF_GAMMA = 0.5e-6
REF_GAMMA_CAV = 7e-4

rate_values = st.floats(0.0, 10.0, allow_nan=False, allow_infinity=False)

# rates for the stiff forward-integration oracle: either absent or well
# inside the resolvable dynamic range
ode_rate_values = st.one_of(st.just(0.0), st.floats(1e-3, 10.0))


def random_rate_set(draw=None, **kwargs):
    names = RateSet.__dataclass_fields__.keys()
    return RateSet(**{name: kwargs.get(name, 0.0) for name in names})


@st.composite
def rate_sets(draw, values=rate_values):
    names = RateSet.__dataclass_fields__.keys()
    return RateSet(**{name: draw(values) for name in names})


class TestExtractRates:
    def test_low_bias_closes_direct_polariton_injection(self):
        system = build_system(SystemParams.from_eta(0.08), mu_mode="omega_G")
        rates = extract_rates(system.basis, system.channels)
        assert rates.in_0_plus == 0.0
        assert rates.in_0_minus == 0.0
        assert rates.in_0_g > 0.0

    def test_weak_coupling_polariton_decay(self):
        system = build_system(SystemParams.from_eta(1e-3), mu_mode="omega_G")
        rates = extract_rates(system.basis, system.channels)
        assert rates.cav_plus == approx(REF_GAMMA_CAV / 2, rel=1e-2)
        assert rates.cav_minus == approx(REF_GAMMA_CAV / 2, rel=1e-2)

    def test_weak_coupling_ground_extraction_leaves_no_photon(self):
        system = build_system(SystemParams.from_eta(1e-3), mu_mode="omega_G")
        rates = extract_rates(system.basis, system.channels)
        assert rates.out_g_1 <= REF_GAMMA * 1e-5
        assert rates.out_g_0 == approx(REF_GAMMA, rel=1e-5)


class TestRateMatrix:
    def test_all_zero(self):
        m = rate_matrix(random_rate_set())
        assert np.max(np.abs(m)) == 0.0

    @given(rates=rate_sets())
    @settings(max_examples=50, deadline=None)
    def test_generator_structure(self, rates):
        m = rate_matrix(rates)
        assert m.sum(axis=0) == approx(np.zeros(5), abs=1e-12)
        off = m - np.diag(np.diag(m))
        assert np.all(off >= 0)

    def test_matches_displayed_balance_equations(self, rng):
        # independent oracle: the five balance equations written out
        # term by term
        rates = RateSet(
            in_0_g=1.1, in_1_g=0.2, in_1_plus=0.3, in_1_minus=0.4,
            in_0_plus=0.05, in_0_minus=0.06,
            out_g_0=0.7, out_g_1=0.8, out_plus_0=0.9, out_plus_1=1.0,
            out_minus_0=1.1, out_minus_1=1.2,
            cav=2.0, cav_plus=2.1, cav_minus=2.2,
        )
        m = rate_matrix(rates)
        p = rng.uniform(0.0, 1.0, 5)
        p_s0, p_s1, p_g, p_p, p_m = p
        expected = np.array([
            -p_s0 * rates.in_s0 + p_g * rates.out_g_0
            + p_p * rates.out_plus_0 + p_m * rates.out_minus_0
            + p_s1 * rates.cav,
            -p_s1 * (rates.cav + rates.in_s1) + p_g * rates.out_g_1
            + p_p * rates.out_plus_1 + p_m * rates.out_minus_1,
            -p_g * rates.out_g + p_s0 * rates.in_0_g + p_s1 * rates.in_1_g
            + p_p * rates.cav_plus + p_m * rates.cav_minus,
            -p_p * (rates.cav_plus + rates.out_plus) + p_s1 * rates.in_1_plus
            + p_s0 * rates.in_0_plus,
            -p_m * (rates.cav_minus + rates.out_minus) + p_s1 * rates.in_1_minus
            + p_s0 * rates.in_0_minus,
        ])
        assert m @ p == approx(expected)

    def test_extraction_feeds_one_photon_state(self):
        rates = random_rate_set(out_g_1=0.8)
        assert rate_matrix(rates)[1, 2] == approx(0.8)


class TestRateSteadyState:
    def test_balanced_cycle(self):
        # uncoupled system: the current runs s0 -> G -> s0 with equal
        # rates and never touches a photon state
        system = build_system(SystemParams.from_eta(0.0, mu=0.2), mu_mode="absolute")
        rates = extract_rates(system.basis, system.channels)
        pops = rate_steady_state(rate_matrix(rates))
        assert pops.s0 == approx(0.5)
        assert pops.g == approx(0.5)
        assert pops.s1 == approx(0.0, abs=1e-12)
        assert pops.plus == approx(0.0, abs=1e-12)
        assert pops.minus == approx(0.0, abs=1e-12)

    def test_conventional_regime_populations(self):
        # with polariton injection open and fast cavity decay the cycle
        # puts 1/3 in |s,0> and 2/3 in the dressed ground state
        system = build_system(
            SystemParams.from_eta(1e-3, gamma_in=1e-6, gamma_out=1e-6, gamma_cav=1e-2),
            mu_mode="omega_G_plus_omega_plus",
        )
        pops = rate_steady_state(rate_matrix(extract_rates(system.basis, system.channels)))
        assert pops.s0 == approx(1 / 3, rel=1e-3)
        assert pops.g == approx(2 / 3, rel=1e-3)

    @given(rates=rate_sets(values=ode_rate_values), seed=st.integers(0, 2**31))
    @settings(max_examples=10, deadline=None)
    def test_agrees_with_forward_integration(self, rates, seed):
        m = rate_matrix(rates)
        try:
            pops = rate_steady_state(m)
        except NullSpaceError:
            return  # disconnected random graph: no unique steady state
        # the slowest transient decays at the spectral gap: the smallest
        # |Re lambda| once the stationary eigenvalue is set aside
        evals = np.linalg.eigvals(m)
        gap = np.min(np.abs(np.delete(evals, np.argmin(np.abs(evals))).real))
        horizon = 100.0 / gap
        p0 = np.random.default_rng(seed).dirichlet(np.ones(5))
        sol = solve_ivp(lambda _, p: m @ p, (0.0, horizon), p0,
                        method="Radau", rtol=1e-10, atol=1e-13)
        assert pops.as_array() == approx(sol.y[:, -1], abs=1e-6)

    def test_degenerate_kernel_rejected(self):
        with pytest.raises(NullSpaceError):
            rate_steady_state(rate_matrix(random_rate_set()))

    def test_populations_validate(self):
        with pytest.raises(ValueError):
            Populations(s0=0.5, s1=0.5, g=0.5, plus=-0.5, minus=0.0)


class TestFluxes:
    def test_no_photon_population_no_central_flux(self):
        pops = Populations(s0=0.5, s1=0.0, g=0.5, plus=0.0, minus=0.0)
        rates = random_rate_set(cav=1.0, cav_plus=0.5, cav_minus=0.5)
        f_c, f_p, f_m = fluxes(pops, rates)
        assert f_c == 0.0 and f_p == 0.0 and f_m == 0.0

    def test_low_bias_flux_matches_closed_form(self, low_bias_system):
        f_c, f_p, f_m = low_bias_system.rate_model_fluxes()
        a_c, a_p, a_m = analytic_gse(0.1, REF_GAMMA, REF_GAMMA_CAV)
        assert f_c == approx(a_c, rel=0.1)
        assert f_p == approx(a_p, rel=0.1)
        assert f_m == approx(a_m, rel=0.1)

    def test_high_bias_flux_matches_closed_form(self, high_bias_system):
        f_c, f_p, f_m = high_bias_system.rate_model_fluxes()
        a_c, a_p, a_m = analytic_el(0.1, REF_GAMMA, REF_GAMMA_CAV)
        assert f_c == approx(a_c, rel=0.1)
        assert f_p == approx(a_p, rel=0.1)
        assert f_m == approx(a_m, rel=0.1)


class TestClosedForms:
    def test_zero_coupling(self):
        assert analytic_gse(0.0, REF_GAMMA, REF_GAMMA_CAV) == (0.0, 0.0, 0.0)

    def test_reference_values(self):
        f_c, f_p, f_m = analytic_gse(0.1, REF_GAMMA, REF_GAMMA_CAV)
        assert f_c == approx(6.2455e-10, rel=1e-4)
        assert f_p == approx(2.232e-13, rel=1e-3)
        assert f_p == f_m

    def test_conventional_reference_values(self):
        f_c, f_p, f_m = analytic_el(0.1, REF_GAMMA, REF_GAMMA_CAV)
        assert f_p == approx(8.737e-8, rel=1e-3)
        # without coupling and with fast cavity decay the satellites
        # carry gamma/6 each
        _, f_p0, f_m0 = analytic_el(0.0, REF_GAMMA, REF_GAMMA_CAV)
        assert f_p0 == approx(REF_GAMMA / 6, rel=2e-3)
        assert f_m0 == approx(REF_GAMMA / 6, rel=2e-3)

    def test_satellite_to_central_ratio_limit(self):
        for gamma in (1e-7, 1e-6):
            f_c, f_p, _ = analytic_gse(0.05, gamma, REF_GAMMA_CAV)
            assert f_p / f_c == approx(gamma / (2 * REF_GAMMA_CAV), rel=1e-2)

    def test_satellite_asymmetry_identity(self):
        eta, gamma = 0.1, REF_GAMMA
        _, f_p, f_m = analytic_el(eta, gamma, REF_GAMMA_CAV)
        expected = gamma / 6 * eta * (1 - 2 * gamma / REF_GAMMA_CAV)
        assert f_p - f_m == approx(expected)

    @pytest.mark.parametrize("eta", [0.02, 0.05, 0.1])
    def test_ground_fed_satellites_weaker_than_conventional(self, eta):
        _, f_p, f_m = analytic_gse(eta, REF_GAMMA, REF_GAMMA_CAV)
        _, fp_el, fm_el = analytic_el(eta, REF_GAMMA, REF_GAMMA_CAV)
        assert f_p < fp_el
        assert f_m < fm_el


class TestTruncationQuality:
    def test_rate_model_error_shrinks_with_coupling(self):
        # the five-level truncation must approach the master equation as
        # the coupling is reduced
        errors = []
        for eta in (0.1, 0.05, 0.02):
            system = build_system(SystemParams.from_eta(eta), mu_mode="omega_G")
            master = system.line_fluxes()["central"]
            rate, _, _ = system.rate_model_fluxes()
            errors.append(abs(rate / master - 1))
        assert errors[0] < 0.10
        assert errors[0] > errors[1] > errors[2]


class TestGatingTransition:
    def test_flux_jumps_at_polariton_threshold(self):
        base = SystemParams.from_eta(0.1)
        system = build_system(base, mu_mode="omega_G")
        threshold = system.basis.omega_ground + system.basis.omega_minus
        below = build_system(
            SystemParams.from_eta(0.1, mu=threshold - 5e-3), mu_mode="absolute"
        )
        above = build_system(
            SystemParams.from_eta(0.1, mu=threshold + 5e-3), mu_mode="absolute"
        )
        _, _, f_m_below = below.rate_model_fluxes()
        _, _, f_m_above = above.rate_model_fluxes()
        assert f_m_above / f_m_below > 10
