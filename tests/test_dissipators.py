import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from pytest import approx

from channel_rows import find_channel
from dense_oracle import annihilation, basis_state, quadrature
from electrolum.dissipators import (
    BATH_CAVITY,
    BATH_IN,
    BATH_OUT,
    WEIGHT_CUT,
    all_channels,
    channels_cavity,
    channels_in,
    channels_out,
    gate_open,
    injection_elements,
    quadrature_elements,
    x_pm,
)
from electrolum.hilbert import ModelSpace, SystemParams
from electrolum.pipeline import build_system
from electrolum.rabi import dressed_basis, hamiltonian


def make_basis(eta, n_max=8, **kwargs):
    space = ModelSpace(n_max)
    params = SystemParams(eta=eta, **kwargs)
    return dressed_basis(hamiltonian(params, space), space), space, params


class TestCavityChannels:
    def test_bare_photon_decay(self):
        basis, space, _ = make_basis(0.0)
        chans = channels_cavity(basis, 7e-4)
        s1, s0 = basis.s_levels[1], basis.s_levels[0]
        assert find_channel(chans, s1, s0) == approx(7e-4)

    def test_polariton_rates_weak_coupling(self):
        # polaritons are half photon: each decays at gamma_cav / 2
        basis, space, _ = make_basis(1e-3)
        chans = channels_cavity(basis, 7e-4)
        for idx in (basis.index_plus, basis.index_minus):
            rate = find_channel(chans, idx, basis.index_ground)
            assert rate == approx(7e-4 / 2, rel=1e-2)

    def test_polariton_rate_sum(self):
        eta = 0.1
        basis, space, _ = make_basis(eta)
        chans = channels_cavity(basis, 7e-4)
        total = find_channel(chans, basis.index_plus, basis.index_ground) \
            + find_channel(chans, basis.index_minus, basis.index_ground)
        assert total == approx(7e-4, rel=2 * eta**2)

    def test_emission_frequencies_positive(self):
        basis, space, _ = make_basis(0.1)
        for ch in channels_cavity(basis, 7e-4):
            assert ch.freq > 0
            assert ch.rate >= 0

    def test_channel_operator_pattern(self):
        # channel j -> i is the dressed element <i|X|j> of the bare quadrature
        basis, space, _ = make_basis(0.1)
        v = basis.states
        x = quadrature(space)
        for ch in list(channels_cavity(basis, 7e-4))[:10]:
            element = v[:, ch.to_index].conj() @ x @ v[:, ch.from_index]
            assert ch.rate == approx(7e-4 * abs(element) ** 2, rel=1e-12, abs=0)
            assert ch.freq == approx(basis.energies[ch.from_index]
                                     - basis.energies[ch.to_index], abs=1e-15)


class TestExtractionChannels:
    def test_uncoupled_extracts_to_vacuum_only(self):
        basis, space, _ = make_basis(0.0)
        chans = channels_out(basis, 0.5e-6)
        g = basis.index_ground
        assert find_channel(chans, g, basis.s_levels[0]) == approx(0.5e-6, rel=1e-6, abs=0)
        assert find_channel(chans, g, basis.s_levels[1]) == approx(0.0, abs=0)

    def test_ground_state_photon_release(self):
        # extraction out of |G> leaves one photon with weight eta^2/4
        eta = 0.05
        basis, space, _ = make_basis(eta)
        chans = channels_out(basis, 1.0)
        rate = find_channel(chans, basis.index_ground, basis.s_levels[1])
        assert rate == approx(eta**2 / 4, rel=0.1)

    def test_polariton_extraction_half_half(self):
        basis, space, _ = make_basis(1e-3)
        chans = channels_out(basis, 1.0)
        for idx in (basis.index_plus, basis.index_minus):
            for n in (0, 1):
                rate = find_channel(chans, idx, basis.s_levels[n])
                assert rate == approx(0.5, rel=1e-2)

    @pytest.mark.parametrize("eta", [0.05, 0.1, 0.3])
    def test_rate_sum_rule(self, eta):
        # total extraction out of any one-electron level is the bare rate
        basis, space, _ = make_basis(eta)
        chans = channels_out(basis, 1.0)
        for j in (basis.index_ground, basis.index_minus, basis.index_plus):
            total = sum(ch.rate for ch in chans if ch.from_index == j)
            assert total == approx(1.0, abs=1e-10)


class TestInjectionChannels:
    def test_low_bias_reaches_ground_only(self):
        basis, space, _ = make_basis(0.05)
        chans = channels_in(basis, 1.0, mu=basis.omega_ground)
        s0 = basis.s_levels[0]
        assert find_channel(chans, s0, basis.index_ground) > 0
        assert find_channel(chans, s0, basis.index_plus) == 0.0
        assert find_channel(chans, s0, basis.index_minus) == 0.0

    def test_ground_injection_unit_weight(self):
        basis, space, _ = make_basis(1e-3)
        chans = channels_in(basis, 1.0, mu=0.0)
        rate = find_channel(chans, basis.s_levels[0], basis.index_ground)
        assert rate == approx(1.0, rel=1e-5)

    def test_polariton_injection_half_each(self):
        basis, space, _ = make_basis(1e-3)
        mu = basis.omega_ground + basis.omega_plus
        chans = channels_in(basis, 1.0, mu=mu)
        s0 = basis.s_levels[0]
        assert find_channel(chans, s0, basis.index_plus) == approx(0.5, rel=1e-2)
        assert find_channel(chans, s0, basis.index_minus) == approx(0.5, rel=1e-2)

    def test_threshold_exactness(self):
        basis, space, _ = make_basis(0.1)
        s0 = basis.s_levels[0]
        for idx, omega in ((basis.index_minus, basis.omega_minus),
                           (basis.index_plus, basis.omega_plus)):
            threshold = basis.omega_ground + omega
            below = channels_in(basis, 1.0, mu=threshold - 2e-9)
            at = channels_in(basis, 1.0, mu=threshold)
            assert find_channel(below, s0, idx) == 0.0
            assert find_channel(at, s0, idx) > 0.0

    @given(
        mu_lo=st.floats(-0.2, 2.2),
        delta=st.floats(0.0, 1.0),
    )
    @settings(max_examples=20, deadline=None)
    def test_monotone_gating(self, mu_lo, delta):
        basis, space, _ = make_basis(0.1, n_max=4)
        lo = channels_in(basis, 1.0, mu=mu_lo)
        hi = channels_in(basis, 1.0, mu=mu_lo + delta)
        lo_keys = {(ch.from_index, ch.to_index) for ch in lo}
        hi_keys = {(ch.from_index, ch.to_index) for ch in hi}
        assert lo_keys <= hi_keys

    @pytest.mark.parametrize("mu_mode", ["omega_G", "omega_G_plus_omega_plus"])
    @given(
        omega_e=st.floats(0.7, 1.3),
        omega_s=st.floats(0.0, 2.0),
        eta=st.floats(0.01, 1.2),
    )
    @settings(max_examples=150, deadline=None)
    def test_symbolic_bias_point_is_stable_under_ulp_shifts(self, mu_mode, omega_e,
                                                            omega_s, eta):
        # a symbolic bias point sits exactly on an injection threshold; the
        # channel set it opens must not depend on the last bits of mu
        system = build_system(SystemParams(eta=eta, omega_e=omega_e, omega_s=omega_s),
                              n_max=10, mu_mode=mu_mode)
        basis, mu = system.basis, system.params.mu

        def keys(mu):
            return {(ch.from_index, ch.to_index) for ch in channels_in(basis, 1.0, mu)}

        at = keys(mu)
        for direction in (-np.inf, np.inf):
            shifted = mu
            for _ in range(4):
                shifted = np.nextafter(shifted, direction)
                assert keys(shifted) == at, (shifted - mu)

    def test_gate_zero_is_open(self):
        assert gate_open(0.0)
        assert gate_open(-1e-10)  # float-exact thresholds stay open
        assert not gate_open(-1e-6)


def loop_channels(basis, params):
    """Channel rows built pair by pair: the reference for the vectorized table."""
    e = basis.energies
    rows = []

    def add(elems, pairs, bare_rate, bath):
        for j, i in pairs:
            weight = abs(elems[i, j]) ** 2
            if weight >= WEIGHT_CUT:
                rows.append((int(j), int(i), bare_rate * weight, e[j] - e[i], bath))

    one_el = np.flatnonzero(basis.sector == 1)
    add(quadrature_elements(basis), [(j, i) for j in range(basis.dim)
                                     for i in range(basis.dim) if e[j] > e[i]],
        params.gamma_cav, BATH_CAVITY)
    add(injection_elements(basis).T, [(j, i) for j in one_el for i in basis.s_levels],
        params.gamma_out, BATH_OUT)
    e_s0 = e[basis.s_levels[0]]
    add(injection_elements(basis), [(j, i) for j in basis.s_levels for i in one_el
                                    if gate_open(params.mu + (e[j] - e_s0) - e[i])],
        params.gamma_in, BATH_IN)
    return rows


def level_label(basis, k):
    """Shift-stable identity of eigenstate k.

    ("s", n) for the empty-site levels and ("1el", rank) for the
    one-electron levels ordered by energy.  Unlike the flat eigenindex,
    this does not depend on how the two sectors interleave, i.e. it is
    invariant under an omega_s shift.
    """
    if basis.sector[k] == 0:
        return ("s", basis.s_levels.index(k))
    return ("1el", int(np.searchsorted(np.flatnonzero(basis.sector == 1), k)))


class TestChannelTable:
    @pytest.mark.parametrize("eta, mu, omega_s", [
        (0.0, 0.0, 0.0), (0.1, 0.9, 0.0), (0.1, 2.05, 0.37), (0.3, 1.3, 0.0),
    ])
    def test_matches_pair_loops(self, eta, mu, omega_s):
        # same rows in the same order; a rate may differ in its last bit,
        # because an array squares by multiplication and a scalar by pow
        basis, space, params = make_basis(eta, n_max=6, mu=mu, omega_s=omega_s)
        table = list(all_channels(basis, params))
        reference = loop_channels(basis, params)
        assert [(r.from_index, r.to_index, r.freq, r.bath) for r in table] == \
            [(j, i, freq, bath) for j, i, _, freq, bath in reference]
        for row, ref in zip(table, reference):
            assert row.rate == approx(ref[2], rel=4e-16, abs=0.0)


class TestShiftInvariance:
    def test_rates_independent_of_empty_state_offset(self):
        def rate_map(omega_s):
            basis, space, params = make_basis(0.1, omega_s=omega_s, mu=0.3)
            return {
                (c.bath, level_label(basis, c.from_index), level_label(basis, c.to_index)):
                c.rate for c in all_channels(basis, params)
            }

        reference = rate_map(0.0)
        shifted = rate_map(0.37)
        assert reference.keys() == shifted.keys()
        for key, rate in reference.items():
            assert shifted[key] == approx(rate, rel=1e-12, abs=1e-300)


class TestQuadratureSplit:
    def test_bare_limit_is_annihilation(self):
        basis, space, _ = make_basis(0.0)
        xm, _ = x_pm(basis)
        assert np.max(np.abs(xm - annihilation(space))) < 1e-12

    def test_double_lowering_annihilates_one_photon(self):
        basis, space, _ = make_basis(0.0)
        xm, _ = x_pm(basis)
        s1 = basis_state(space, "s", 1)
        assert np.linalg.norm(xm @ (xm @ s1)) == approx(0.0, abs=1e-14)

    def test_energy_ordering(self):
        basis, space, _ = make_basis(0.1)
        xm, _ = x_pm(basis)
        x = quadrature(space)
        g = basis.states[:, basis.index_ground]
        plus = basis.states[:, basis.index_plus]
        assert g.conj() @ xm @ plus == approx(g.conj() @ x @ plus)
        assert plus.conj() @ xm @ g == approx(0.0, abs=1e-14)

    def test_split_reconstructs_quadrature(self):
        basis, space, _ = make_basis(0.1)
        xm, xp = x_pm(basis)
        assert np.max(np.abs(quadrature(space) - xm - xp)) < 1e-12
        assert np.max(np.abs(xp - xm.conj().T)) == approx(0.0)
