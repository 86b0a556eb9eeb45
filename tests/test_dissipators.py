import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from pytest import approx

from dense_oracle import annihilation, basis_state, electron_numbers, quadrature, states, to_bare
from electrolum import ModelSpace, SystemParams
from electrolum.dissipators import (
    BATH_CAVITY,
    BATH_IN,
    BATH_OUT,
    WEIGHT_CUT,
    all_channels,
    gate_open,
    injection_elements,
    quadrature_elements,
    x_pm,
)
from electrolum.pipeline import build_system
from electrolum.rabi import DressedBasis, dressed_basis, hamiltonian
from electrolum.spectrum import emission_line_centers


def make_basis(eta, n_max=8, **kwargs):
    space = ModelSpace(n_max)
    params = SystemParams(eta=eta, **kwargs)
    return dressed_basis(hamiltonian(params, space), space), space, params


def bath(basis, params, name, **changes):
    """Rate matrix [to, from] of one bath, from all_channels at params with changes."""
    return getattr(all_channels(basis, params._replace(**changes)), name)


class TestCavityChannels:
    def test_bare_photon_decay(self):
        basis, space, params = make_basis(0.0)
        cav = bath(basis, params, "cavity", gamma_cav=7e-4)
        s1, s0 = basis.s_levels[1], basis.s_levels[0]
        assert cav[s0, s1] == approx(7e-4)

    def test_polariton_rates_weak_coupling(self):
        # polaritons are half photon: each decays at gamma_cav / 2
        basis, space, params = make_basis(1e-3)
        cav = bath(basis, params, "cavity", gamma_cav=7e-4)
        for idx in (basis.index_plus, basis.index_minus):
            assert cav[basis.index_ground, idx] == approx(7e-4 / 2, rel=1e-2)

    def test_polariton_rate_sum(self):
        eta = 0.1
        basis, space, params = make_basis(eta)
        cav = bath(basis, params, "cavity", gamma_cav=7e-4)
        total = cav[basis.index_ground, basis.index_plus] \
            + cav[basis.index_ground, basis.index_minus]
        assert total == approx(7e-4, rel=2 * eta**2)

    def test_emission_frequencies_positive(self):
        basis, space, params = make_basis(0.1)
        cav = bath(basis, params, "cavity", gamma_cav=7e-4)
        to, frm = np.nonzero(cav)
        assert to.size > 0
        assert np.all(basis.energies[frm] > basis.energies[to])
        assert np.all(cav >= 0)

    def test_equal_energies_open_no_cavity_channel(self):
        # a hand-built basis at n_max 1 with identity chain vectors: levels
        # 1 (|g,0>, even chain) and 2 (|g,1>, odd chain) share one energy and
        # <g,0|X|g,1> = 1; at zero temperature only downward jumps exist
        basis = DressedBasis(
            space=ModelSpace(1), energies=np.array([0.0, 0.5, 0.5, 1.0, 1.5, 2.0]),
            s_levels=(0, 3), index_ground=1, index_minus=2, index_plus=4,
            chains=((np.array([1, 4]), np.eye(2)), (np.array([5, 2]), np.eye(2))))
        assert quadrature_elements(basis)[1, 2] == 1.0
        cav = all_channels(basis, SystemParams(eta=0.1)).cavity
        assert cav[1, 2] == cav[2, 1] == 0.0
        # |e,0> (level 5, 2.0) -> |e,1> (level 4, 1.5) stays open one way
        assert cav[4, 5] == 7e-4 and cav[5, 4] == 0.0

    def test_channel_operator_pattern(self):
        # channel j -> i is the dressed element <i|X|j> of the bare quadrature
        basis, space, params = make_basis(0.1)
        cav = bath(basis, params, "cavity", gamma_cav=7e-4)
        v = states(basis)
        x = quadrature(space)
        frm, to = np.nonzero(cav.T)
        for j, i in list(zip(frm, to))[:10]:
            element = v[:, i].conj() @ x @ v[:, j]
            assert cav[i, j] == approx(7e-4 * abs(element) ** 2, rel=1e-12, abs=0)


class TestExtractionChannels:
    def test_uncoupled_extracts_to_vacuum_only(self):
        basis, space, params = make_basis(0.0)
        out = bath(basis, params, "electron_out", gamma_out=0.5e-6)
        g = basis.index_ground
        assert out[basis.s_levels[0], g] == approx(0.5e-6, rel=1e-6, abs=0)
        assert out[basis.s_levels[1], g] == approx(0.0, abs=0)

    def test_ground_state_photon_release(self):
        # extraction out of |G> leaves one photon with weight eta^2/4
        eta = 0.05
        basis, space, params = make_basis(eta)
        out = bath(basis, params, "electron_out", gamma_out=1.0)
        assert out[basis.s_levels[1], basis.index_ground] == approx(eta**2 / 4, rel=0.1)

    def test_polariton_extraction_half_half(self):
        basis, space, params = make_basis(1e-3)
        out = bath(basis, params, "electron_out", gamma_out=1.0)
        for idx in (basis.index_plus, basis.index_minus):
            for n in (0, 1):
                assert out[basis.s_levels[n], idx] == approx(0.5, rel=1e-2)

    @pytest.mark.parametrize("eta", [0.05, 0.1, 0.3])
    def test_rate_sum_rule(self, eta):
        # total extraction out of any one-electron level is the bare rate
        basis, space, params = make_basis(eta)
        out = bath(basis, params, "electron_out", gamma_out=1.0)
        for j in (basis.index_ground, basis.index_minus, basis.index_plus):
            assert out[:, j].sum() == approx(1.0, abs=1e-10)


class TestInjectionChannels:
    def test_low_bias_reaches_ground_only(self):
        basis, space, params = make_basis(0.05)
        inj = bath(basis, params, "electron_in", gamma_in=1.0, mu=basis.omega_ground)
        s0 = basis.s_levels[0]
        assert inj[basis.index_ground, s0] > 0
        assert inj[basis.index_plus, s0] == 0.0
        assert inj[basis.index_minus, s0] == 0.0

    def test_ground_injection_unit_weight(self):
        basis, space, params = make_basis(1e-3)
        inj = bath(basis, params, "electron_in", gamma_in=1.0, mu=0.0)
        assert inj[basis.index_ground, basis.s_levels[0]] == approx(1.0, rel=1e-5)

    def test_polariton_injection_half_each(self):
        basis, space, params = make_basis(1e-3)
        mu = basis.omega_ground + emission_line_centers(basis)["plus"]
        inj = bath(basis, params, "electron_in", gamma_in=1.0, mu=mu)
        s0 = basis.s_levels[0]
        assert inj[basis.index_plus, s0] == approx(0.5, rel=1e-2)
        assert inj[basis.index_minus, s0] == approx(0.5, rel=1e-2)

    def test_threshold_exactness(self):
        basis, space, params = make_basis(0.1)
        s0, centers = basis.s_levels[0], emission_line_centers(basis)
        for idx, name in ((basis.index_minus, "minus"), (basis.index_plus, "plus")):
            threshold = basis.omega_ground + centers[name]
            below = bath(basis, params, "electron_in", gamma_in=1.0, mu=threshold - 2e-9)
            at = bath(basis, params, "electron_in", gamma_in=1.0, mu=threshold)
            assert below[idx, s0] == 0.0
            assert at[idx, s0] > 0.0

    @given(
        mu_lo=st.floats(-0.2, 2.2),
        delta=st.floats(0.0, 1.0),
    )
    @settings(max_examples=20, deadline=None)
    def test_monotone_gating(self, mu_lo, delta):
        basis, space, params = make_basis(0.1, n_max=4)
        lo = bath(basis, params, "electron_in", gamma_in=1.0, mu=mu_lo)
        hi = bath(basis, params, "electron_in", gamma_in=1.0, mu=mu_lo + delta)
        assert np.all(hi[lo != 0] != 0)

    @pytest.mark.parametrize("mu_mode", ["omega_G", "omega_G_plus_omega_plus"])
    @given(
        omega_e=st.floats(0.7, 1.3),
        eta=st.floats(0.01, 1.2),
    )
    @settings(max_examples=150, deadline=None)
    def test_symbolic_bias_point_is_stable_under_ulp_shifts(self, mu_mode, omega_e, eta):
        # a symbolic bias point sits exactly on an injection threshold; the
        # channel set it opens must not depend on the last bits of mu
        system = build_system(SystemParams(eta=eta, omega_e=omega_e), n_max=10, mu_mode=mu_mode)
        basis, mu = system.basis, system.params.mu

        def opened(mu):
            return bath(basis, system.params, "electron_in", gamma_in=1.0, mu=mu) != 0

        at = opened(mu)
        for direction in (-np.inf, np.inf):
            shifted = mu
            for _ in range(4):
                shifted = np.nextafter(shifted, direction)
                assert np.array_equal(opened(shifted), at), (shifted - mu)

    def test_gate_zero_is_open(self):
        assert gate_open(0.0)
        assert gate_open(-1e-10)  # float-exact thresholds stay open
        assert not gate_open(-1e-6)


def loop_channels(basis, params):
    """Channel rows built pair by pair: the reference for the rows of all_channels."""
    e = basis.energies
    rows = []

    def add(elems, pairs, bare_rate, bath):
        for j, i in pairs:
            weight = abs(elems[i, j]) ** 2
            if weight >= WEIGHT_CUT:
                rows.append((int(j), int(i), bare_rate * weight, e[j] - e[i], bath))

    one_el = np.flatnonzero(electron_numbers(basis) == 1)
    add(quadrature_elements(basis), [(j, i) for j in range(basis.dim)
                                     for i in range(basis.dim) if e[j] > e[i]],
        params.gamma_cav, BATH_CAVITY)
    add(injection_elements(basis).T, [(j, i) for j in one_el for i in basis.s_levels],
        params.gamma_out, BATH_OUT)
    add(injection_elements(basis), [(j, i) for j in basis.s_levels for i in one_el
                                    if gate_open(params.mu + e[j] - e[i])],
        params.gamma_in, BATH_IN)
    return rows


class TestChannelRows:
    @pytest.mark.parametrize("eta, mu", [(0.0, 0.0), (0.1, 0.9), (0.1, 2.05), (0.3, 1.3)])
    def test_matches_pair_loops(self, eta, mu):
        # same rows in the same order; a rate may differ in its last bit,
        # because an array squares by multiplication and a scalar by pow
        basis, space, params = make_basis(eta, n_max=6, mu=mu)
        assert_rows_match_pair_loops(basis, params)

    def test_zero_rate_is_no_row(self):
        # with gamma_out = 0 the extraction pairs carry no rate, so they are
        # neither rows nor counted by len: the benchmark's
        # dissipators.channels counts the nonzero rates
        basis, space, params = make_basis(0.1, n_max=6, mu=0.9, gamma_out=0.0)
        rows = assert_rows_match_pair_loops(basis, params)
        assert {row.bath for row in rows} == {BATH_CAVITY, BATH_IN}


def assert_rows_match_pair_loops(basis, params):
    """The row view of all_channels against the nonzero-rate rows of the pair loops."""
    channels = all_channels(basis, params)
    table = list(channels)
    reference = [row for row in loop_channels(basis, params) if row[2] != 0.0]
    assert len(channels) == len(table) == len(reference)
    assert [(r.from_index, r.to_index, r.freq, r.bath) for r in table] == \
        [(j, i, freq, bath) for j, i, _, freq, bath in reference]
    for row, ref in zip(table, reference):
        assert row.rate == approx(ref[2], rel=4e-16, abs=0.0)
    return table


class TestQuadratureSplit:
    def test_bare_limit_is_annihilation(self):
        basis, space, _ = make_basis(0.0)
        xm = to_bare(basis, x_pm(basis)[0])
        assert np.max(np.abs(xm - annihilation(space))) < 1e-12

    def test_double_lowering_annihilates_one_photon(self):
        basis, space, _ = make_basis(0.0)
        xm = to_bare(basis, x_pm(basis)[0])
        s1 = basis_state(space, "s", 1)
        assert np.linalg.norm(xm @ (xm @ s1)) == approx(0.0, abs=1e-14)

    def test_energy_ordering(self):
        basis, space, _ = make_basis(0.1)
        xm = to_bare(basis, x_pm(basis)[0])
        x = quadrature(space)
        v = states(basis)
        g, plus = v[:, basis.index_ground], v[:, basis.index_plus]
        assert g.conj() @ xm @ plus == approx(g.conj() @ x @ plus)
        assert plus.conj() @ xm @ g == approx(0.0, abs=1e-14)

    def test_split_reconstructs_quadrature(self):
        basis, space, _ = make_basis(0.1)
        xm, xp = (to_bare(basis, m) for m in x_pm(basis))
        assert np.max(np.abs(quadrature(space) - xm - xp)) < 1e-12
        assert np.max(np.abs(xp - xm.conj().T)) == approx(0.0)


def oracle_weights(basis, params, dps=60):
    """Squared X (odd x even chain levels) and O_in (each chain's levels x sites) elements.

    The chains' eigenvectors come from ``mpmath.eigsy`` at ``dps``
    digits on the same float chain matrices the package diagonalizes.
    """
    with mpmath.workdps(dps):
        vectors = []
        for diag, off in hamiltonian(params, basis.space):
            n = len(diag)
            chain = mpmath.matrix(n, n)
            for k in range(n):
                chain[k, k] = mpmath.mpf(float(diag[k]))
            for k in range(n - 1):
                chain[k, k + 1] = chain[k + 1, k] = mpmath.mpf(float(off[k]))
            vectors.append(mpmath.eigsy(chain)[1])  # columns in ascending energy, like eigh
        even, odd = vectors
        ladder = mpmath.matrix(n, n)
        for k in range(n - 1):
            ladder[k, k + 1] = ladder[k + 1, k] = mpmath.sqrt(k + 1)
        x = odd.T * ladder * even

        def squares(m):
            return np.array([[float(m[i, j] ** 2) for j in range(m.cols)] for i in range(m.rows)])

        return squares(x), [squares(v.T) for v in vectors]


class TestWeightCut:
    """Every element the cut keeps is accurate entry by entry; every one it drops is noise.

    eigh's eigenvector entries carry an absolute error of about 1e-16, so
    a kept weight |x|^2 >= WEIGHT_CUT is good to about 1e-8 relative.
    """

    @pytest.mark.parametrize("n_max, eta", [(16, 0.1), (16, 1.0), (32, 1.0)])
    def test_kept_weights_match_a_60_digit_oracle(self, n_max, eta):
        basis, _, params = make_basis(eta, n_max=n_max)
        (even, _), (odd, _) = basis.chains
        s = list(basis.s_levels)
        x_oracle, o_oracle = oracle_weights(basis, params)
        o_in = injection_elements(basis)
        pairs = [(quadrature_elements(basis)[np.ix_(odd, even)] ** 2, x_oracle)]
        pairs += [(o_in[np.ix_(levels, s)] ** 2, oracle)
                  for (levels, _), oracle in zip(basis.chains, o_oracle)]
        for weights, oracle in pairs:
            kept = weights >= WEIGHT_CUT
            assert kept.any()
            assert np.all(np.abs(weights - oracle)[kept] <= 1e-8 * oracle[kept])
            assert np.all(oracle[~kept] < WEIGHT_CUT * (1 + 1e-6))
