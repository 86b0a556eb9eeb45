import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from pytest import approx
from scipy.integrate import solve_ivp

import dense_oracle
from electrolum import SystemParams, build_system
from channel_rows import find_channel
from electrolum.dissipators import GATE_TOL
from electrolum.linalg import NullSpaceError
from electrolum.spectrum import emission_line_centers
from electrolum.ratemodel import (
    MINUS,
    PLUS,
    S0,
    S1,
    G,
    analytic_el,
    analytic_gse,
    extract_rates,
    five_levels,
    fluxes,
    rate_matrix,
    rate_steady_state,
)

REF_GAMMA = 0.5e-6
REF_GAMMA_CAV = 7e-4

# the fifteen transitions (to, from) of the five-level model: injection
# from both empty states into the three one-electron levels, extraction
# back, and the three photon losses
INJECTION = [(to, frm) for frm in (S0, S1) for to in (G, PLUS, MINUS)]
EXTRACTION = [(to, frm) for frm in (G, PLUS, MINUS) for to in (S0, S1)]
CAVITY = [(S0, S1), (G, PLUS), (G, MINUS)]
TRANSITIONS = INJECTION + EXTRACTION + CAVITY

rate_values = st.floats(0.0, 10.0, allow_nan=False, allow_infinity=False)

# rates for the stiff forward-integration oracle: either absent or well
# inside the resolvable dynamic range
ode_rate_values = st.one_of(st.just(0.0), st.floats(1e-3, 10.0))


def rate_block(entries=None):
    """5 x 5 block rates[to, from] with the given {(to, from): rate}, zero elsewhere."""
    block = np.zeros((5, 5))
    for (to, frm), rate in (entries or {}).items():
        assert (to, frm) in TRANSITIONS
        block[to, frm] = rate
    return block


@st.composite
def rate_blocks(draw, values=rate_values):
    return rate_block({pair: draw(values) for pair in TRANSITIONS})


class TestExtractRates:
    def test_low_bias_closes_direct_polariton_injection(self):
        system = build_system(SystemParams(eta=0.08), mu_mode="omega_G")
        rates = extract_rates(system.lv, system.basis)
        assert rates[PLUS, S0] == 0.0
        assert rates[MINUS, S0] == 0.0
        assert rates[G, S0] > 0.0

    def test_weak_coupling_polariton_decay(self):
        system = build_system(SystemParams(eta=1e-3), mu_mode="omega_G")
        rates = extract_rates(system.lv, system.basis)
        assert rates[G, PLUS] == approx(REF_GAMMA_CAV / 2, rel=1e-2)
        assert rates[G, MINUS] == approx(REF_GAMMA_CAV / 2, rel=1e-2)

    def test_weak_coupling_ground_extraction_leaves_no_photon(self):
        system = build_system(SystemParams(eta=1e-3), mu_mode="omega_G")
        rates = extract_rates(system.lv, system.basis)
        assert rates[S1, G] <= REF_GAMMA * 1e-5
        assert rates[S0, G] == approx(REF_GAMMA, rel=1e-5)

    @pytest.mark.parametrize("name", ["low_bias_system", "high_bias_system"])
    def test_block_holds_exactly_the_fifteen_channel_rates(self, name, request):
        # the other in-block pairs vanish by electron number, energy
        # order or parity (+ -> - through the cavity is parity-forbidden)
        system = request.getfixturevalue(name)
        levels = five_levels(system.basis)
        rates = extract_rates(system.lv, system.basis)
        for to in range(5):
            for frm in range(5):
                expected = find_channel(system.channels, levels[frm], levels[to])
                assert rates[to, frm] == expected
                if (to, frm) not in TRANSITIONS:
                    assert expected == 0.0, (to, frm)
        assert rates[G, S0] > 0 and rates[S0, S1] > 0 and rates[G, PLUS] > 0


    @pytest.mark.parametrize("mu_mode", ["omega_G", "omega_G_plus_omega_plus"])
    @pytest.mark.parametrize("eta", [0.05, 0.5])
    @pytest.mark.parametrize("omega_e", [0.8, 1.2])
    def test_five_levels_are_the_ends_of_the_reported_lines(self, omega_e, eta, mu_mode):
        basis = build_system(SystemParams(eta=eta, omega_e=omega_e),
                             mu_mode=mu_mode).basis
        lines = basis.lines
        (minus, ground), (s1, s0), (plus, ground_plus) = (
            lines[name] for name in ("minus", "central", "plus"))
        assert ground_plus == ground == basis.index_ground
        assert five_levels(basis) == [s0, s1, ground, plus, minus]
        assert [s0, s1, plus, minus] == [*basis.s_levels[:2], basis.index_plus,
                                         basis.index_minus]
        for n, k in enumerate((s0, s1)):
            assert dense_oracle.states(basis)[dense_oracle.index(basis.space, "s", n), k] == 1.0


class TestRateMatrix:
    def test_all_zero(self):
        m = rate_matrix(rate_block())
        assert np.max(np.abs(m)) == 0.0

    @pytest.mark.parametrize("shape", [(4, 4), (5, 6), (25,)])
    def test_rejects_another_block(self, shape):
        with pytest.raises(ValueError, match="5 x 5"):
            rate_matrix(np.zeros(shape))

    @given(rates=rate_blocks())
    @settings(max_examples=50, deadline=None)
    def test_generator_structure(self, rates):
        m = rate_matrix(rates)
        assert m.sum(axis=0) == approx(np.zeros(5), abs=1e-12)
        off = m - np.diag(np.diag(m))
        assert np.all(off >= 0)

    def test_matches_displayed_balance_equations(self, rng):
        # independent oracle: the five balance equations written out
        # term by term
        rates = rate_block({
            (G, S0): 1.1, (G, S1): 0.2, (PLUS, S1): 0.3, (MINUS, S1): 0.4,
            (PLUS, S0): 0.05, (MINUS, S0): 0.06,
            (S0, G): 0.7, (S1, G): 0.8, (S0, PLUS): 0.9, (S1, PLUS): 1.0,
            (S0, MINUS): 1.1, (S1, MINUS): 1.2,
            (S0, S1): 2.0, (G, PLUS): 2.1, (G, MINUS): 2.2,
        })
        m = rate_matrix(rates)
        p = rng.uniform(0.0, 1.0, 5)
        p_s0, p_s1, p_g, p_p, p_m = p
        in_s0 = rates[G, S0] + rates[PLUS, S0] + rates[MINUS, S0]
        in_s1 = rates[G, S1] + rates[PLUS, S1] + rates[MINUS, S1]
        out_g = rates[S0, G] + rates[S1, G]
        out_plus = rates[S0, PLUS] + rates[S1, PLUS]
        out_minus = rates[S0, MINUS] + rates[S1, MINUS]
        expected = np.array([
            -p_s0 * in_s0 + p_g * rates[S0, G]
            + p_p * rates[S0, PLUS] + p_m * rates[S0, MINUS]
            + p_s1 * rates[S0, S1],
            -p_s1 * (rates[S0, S1] + in_s1) + p_g * rates[S1, G]
            + p_p * rates[S1, PLUS] + p_m * rates[S1, MINUS],
            -p_g * out_g + p_s0 * rates[G, S0] + p_s1 * rates[G, S1]
            + p_p * rates[G, PLUS] + p_m * rates[G, MINUS],
            -p_p * (rates[G, PLUS] + out_plus) + p_s1 * rates[PLUS, S1]
            + p_s0 * rates[PLUS, S0],
            -p_m * (rates[G, MINUS] + out_minus) + p_s1 * rates[MINUS, S1]
            + p_s0 * rates[MINUS, S0],
        ])
        assert m @ p == approx(expected)

    def test_extraction_feeds_one_photon_state(self):
        rates = rate_block({(S1, G): 0.8})
        assert rate_matrix(rates)[S1, G] == approx(0.8)


class TestRateSteadyState:
    def test_balanced_cycle(self):
        # uncoupled system: the current runs s0 -> G -> s0 with equal
        # rates and never touches a photon state
        system = build_system(SystemParams(eta=0.0, mu=0.2), mu_mode="absolute")
        rates = extract_rates(system.lv, system.basis)
        pops = rate_steady_state(rate_matrix(rates))
        assert pops[S0] == approx(0.5)
        assert pops[G] == approx(0.5)
        assert pops[S1] == approx(0.0, abs=1e-12)
        assert pops[PLUS] == approx(0.0, abs=1e-12)
        assert pops[MINUS] == approx(0.0, abs=1e-12)

    def test_conventional_regime_populations(self):
        # with polariton injection open and fast cavity decay the cycle
        # puts 1/3 in |s,0> and 2/3 in the dressed ground state
        system = build_system(
            SystemParams(eta=1e-3, gamma_in=1e-6, gamma_out=1e-6, gamma_cav=1e-2),
            mu_mode="omega_G_plus_omega_plus",
        )
        pops = rate_steady_state(rate_matrix(extract_rates(system.lv, system.basis)))
        assert pops[S0] == approx(1 / 3, rel=1e-3)
        assert pops[G] == approx(2 / 3, rel=1e-3)

    @given(rates=rate_blocks(values=ode_rate_values), seed=st.integers(0, 2**31))
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
        assert pops == approx(sol.y[:, -1], abs=1e-6)

    def test_degenerate_kernel_rejected(self):
        with pytest.raises(NullSpaceError, match="^no unique stationary state: "):
            rate_steady_state(rate_matrix(rate_block()))


class TestFluxes:
    def test_no_photon_population_no_central_flux(self):
        pops = np.array([0.5, 0.0, 0.5, 0.0, 0.0])  # (s0, s1, G, +, -)
        rates = rate_block({(S0, S1): 1.0, (G, PLUS): 0.5, (G, MINUS): 0.5})
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
        assert f_c == approx(6.2455e-10, rel=1e-4, abs=0)
        assert f_p == approx(2.232e-13, rel=1e-3, abs=0)
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
        assert f_p - f_m == approx(expected, rel=1e-6, abs=0)

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
            system = build_system(SystemParams(eta=eta), mu_mode="omega_G")
            master = system.line_fluxes()["central"]
            rate, _, _ = system.rate_model_fluxes()
            errors.append(abs(rate / master - 1))
        assert errors[0] < 0.10
        assert errors[0] > errors[1] > errors[2]


class TestGatingTransition:
    def test_flux_jumps_at_polariton_threshold(self):
        base = SystemParams(eta=0.1)
        system = build_system(base, mu_mode="omega_G")
        threshold = system.basis.omega_ground + emission_line_centers(system.basis)["minus"]
        below = build_system(
            SystemParams(eta=0.1, mu=threshold - 5e-3), mu_mode="absolute"
        )
        above = build_system(
            SystemParams(eta=0.1, mu=threshold + 5e-3), mu_mode="absolute"
        )
        _, _, f_m_below = below.rate_model_fluxes()
        _, _, f_m_above = above.rate_model_fluxes()
        assert f_m_above / f_m_below > 10


class TestAnalyticReader:
    """``DressedSystem.analytic_fluxes`` reads its regime off the injection channels."""

    # around each threshold: shut, inside GATE_TOL, round-off away, exact, open
    OFFSETS = [-1e-6, -5e-10, -2e-16, 0.0, 2e-16, 1e-6]

    @pytest.mark.parametrize("offset", OFFSETS)
    @pytest.mark.parametrize("level", ["index_ground", "index_minus"])
    def test_closed_form_at_injection_thresholds(self, level, offset):
        # mu at E_level + offset: the gate of |s,0> -> level opens within GATE_TOL
        basis = build_system(SystemParams(eta=0.1), n_max=4, mu_mode="omega_G").basis
        mu = float(basis.energies[getattr(basis, level)]) + offset
        system = build_system(SystemParams(eta=0.1, mu=mu), n_max=4, mu_mode="absolute")
        p, s0 = system.params, basis.s_levels[0]
        is_open = offset >= -GATE_TOL
        assert (system.channels.electron_in[getattr(basis, level), s0] > 0) == is_open
        if level == "index_ground" and not is_open:
            expected = (0.0, 0.0, 0.0)
        elif level == "index_minus" and is_open:
            expected = analytic_el(p.eta, p.gamma_in, p.gamma_cav)
        else:
            expected = analytic_gse(p.eta, p.gamma_in, p.gamma_cav)
        assert system.analytic_fluxes() == expected

    @pytest.mark.parametrize("change, mu_mode", [
        ({"mu": -0.05}, "absolute"),  # below omega_G: |s,0> -> |G> shut
        ({"gamma_in": 0.0}, "omega_G"),
        ({"gamma_out": 0.0}, "omega_G"),
    ])
    def test_system_without_current_is_dark(self, change, mu_mode):
        system = build_system(SystemParams(eta=0.1, **change), n_max=4, mu_mode=mu_mode)
        channels, basis = system.channels, system.basis
        ground = basis.index_ground
        assert not (channels.electron_in[ground, basis.s_levels[0]] > 0
                    and channels.electron_out[:, ground].any())
        assert system.analytic_fluxes() == (0.0, 0.0, 0.0)

    def test_mean_electron_rate(self):
        system = build_system(SystemParams(eta=0.1, gamma_in=1e-6, gamma_out=3e-6), n_max=4,
                              mu_mode="omega_G_plus_omega_plus")
        assert system.analytic_fluxes() == analytic_el(0.1, 2e-6, system.params.gamma_cav)
