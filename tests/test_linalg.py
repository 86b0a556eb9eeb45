import mpmath
import numpy as np
import pytest
from pytest import approx
from scipy.integrate import solve_ivp
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from dense_oracle import generator, null_vector
from electrolum import SystemParams, build_system
from electrolum.linalg import (
    LinalgError,
    NullSpaceError,
    stationary_distribution,
)
from electrolum.spectrum import default_windows


def exact_stationary(m, dps):
    """Stationary vector of the off-diagonal rates of ``m``, at ``dps`` digits.

    The diagonal is rebuilt exactly from those rates (the float diagonal
    closes the columns only up to round-off), the first balance equation
    is replaced by the normalization, and the system is solved by
    pivoted Gaussian elimination: an algorithm independent of GTH.
    """
    n = m.shape[0]
    with mpmath.workdps(dps):
        a = mpmath.matrix(n, n)
        for i in range(n):
            for j in range(n):
                if i != j:
                    a[i, j] = mpmath.mpf(float(m[i, j]))
        for j in range(n):
            a[j, j] = -mpmath.fsum(a[i, j] for i in range(n) if i != j)
            a[0, j] = 1
        rhs = mpmath.matrix([1] + [0] * (n - 1))
        x = mpmath.lu_solve(a, rhs)
        return [x[i] for i in range(n)]


def assert_matches_exact(p, m, rel=1e-12):
    """Every nonzero entry within ``rel`` of the exact one, zeros exact zeros.

    The oracle is solved at 60 and at 120 digits; that the two agree far
    below ``rel`` shows the oracle itself is converged.
    """
    coarse, fine = exact_stationary(m, 60), exact_stationary(m, 120)
    for k, (value, lo, hi) in enumerate(zip(p, coarse, fine)):
        if value == 0.0:
            assert abs(hi) < mpmath.mpf(10) ** -100, k
            continue
        assert abs(lo - hi) <= mpmath.mpf(10) ** -40 * abs(hi), k
        assert abs(mpmath.mpf(float(value)) - hi) <= rel * abs(hi), (k, value, hi)


class TestStationaryDistribution:
    def test_two_level_balance(self):
        p = stationary_distribution(generator([[0.0, 3.0], [1.0, 0.0]]))
        assert p == approx([0.75, 0.25], rel=1e-15)

    def test_single_level(self):
        assert stationary_distribution(np.zeros((1, 1))).tolist() == [1.0]

    @pytest.mark.parametrize("mode", ["omega_G", "omega_G_plus_omega_plus"])
    def test_pauli_matrix_against_exact_arithmetic(self, mode):
        # levels with weights near 1e-50 sit next to order-one ones; an
        # SVD kernel gets such entries wrong in sign and magnitude
        system = build_system(SystemParams(eta=0.1), n_max=12, mu_mode=mode)
        m = system.lv.rates
        p = stationary_distribution(m)
        assert np.min(p[p > 0]) < 1e-40
        assert_matches_exact(p, m)

    def test_line_flux_carries_exact_populations(self):
        # the central-line flux is a sum of rate x population over the
        # cavity channels in its window; with the stationary populations
        # carried through unchanged it matches exact arithmetic to the
        # accuracy of the populations themselves
        system = build_system(SystemParams(eta=0.1), n_max=12, mu_mode="omega_G")
        exact = exact_stationary(system.lv.rates, 120)
        win = default_windows(system.basis)["central"]
        cavity, e = system.channels.cavity, system.basis.energies
        with mpmath.workdps(120):
            flux = mpmath.fsum(
                mpmath.mpf(cavity[i, j]) * exact[j] for i, j in zip(*np.nonzero(cavity))
                if win.lo <= e[j] - e[i] <= win.hi
            )
            computed = mpmath.mpf(system.line_fluxes()["central"])
            assert abs(computed - flux) <= 1e-14 * flux

    def test_stiff_chain_against_exact_arithmetic(self):
        # rates from 1e-14 to 1 along a chain, with a slow link closing it
        # into a cycle so detailed balance does not hold
        n = 12
        up = np.logspace(-14, 0, n - 1)
        rates = np.zeros((n, n))
        for k in range(n - 1):
            rates[k + 1, k] = up[k]
            rates[k, k + 1] = up[-1 - k]
        rates[0, n - 1] = 1e-9
        rates[5, 2] = 1e-3
        m = generator(rates)
        p = stationary_distribution(m)
        assert np.min(p) < 1e-29
        assert_matches_exact(p, m)

    def test_tiny_rate_link_counts_as_connected(self):
        # the only way into level 2 is a 1e-30 rate: still one closed class
        m = generator([[0.0, 1.0, 1.0], [1.0, 0.0, 0.0], [0.0, 1e-30, 0.0]])
        p = stationary_distribution(m)
        assert p == approx([0.5, 0.5, 0.5e-30], rel=1e-15, abs=0)

    def test_transient_levels_are_exactly_zero(self):
        # 0 -> {1, 2} <- 3: levels 0 and 3 drain into the closed pair
        m = generator([
            [0.0, 0.0, 0.0, 0.0],
            [2.0, 0.0, 1.0, 0.0],
            [0.0, 4.0, 0.0, 5.0],
            [0.0, 0.0, 0.0, 0.0],
        ])
        p = stationary_distribution(m)
        assert p[0] == 0.0 and p[3] == 0.0
        assert p[1:3] == approx([0.2, 0.8], rel=1e-15)
        assert_matches_exact(p, m)

    @pytest.mark.parametrize(("rates", "classes"), [
        ([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]], 2),  # isolated level
        ([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [1.0, 0.0, 0.0]], 2),  # two sinks
        (np.zeros((2, 2)), 2),
        # a transient level 0 draining into three sinks
        ([[0.0, 0.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0], [2.0, 0.0, 0.0, 0.0],
          [3.0, 0.0, 0.0, 0.0]], 3),
    ])
    def test_closed_classes_are_counted(self, rates, classes):
        message = f"^no unique stationary state: the rate graph has {classes} closed classes"
        with pytest.raises(NullSpaceError, match=message):
            stationary_distribution(generator(rates))

    def test_class_count_against_strong_components(self):
        # independent oracle: a closed class is a strongly connected
        # component that no edge leaves; rates span 1e-14 to 1
        rng = np.random.default_rng(37)
        counts = set()
        for _ in range(500):
            n = int(rng.integers(1, 14))
            rates = np.where(rng.random((n, n)) < rng.uniform(0.02, 0.4),
                             10.0 ** rng.uniform(-14, 0, (n, n)), 0.0)
            np.fill_diagonal(rates, 0.0)
            _, label = connected_components(csr_matrix(rates.T), connection="strong")
            leaves = {label[j] for i, j in zip(*np.nonzero(rates)) if label[i] != label[j]}
            closed = sorted(set(label) - leaves)
            counts.add(len(closed))
            if len(closed) != 1:
                with pytest.raises(NullSpaceError, match=f" has {len(closed)} closed classes"):
                    stationary_distribution(rates)
                continue
            p = stationary_distribution(rates)
            assert np.array_equal(p > 0, label == closed[0])
        assert counts >= set(range(1, 9))

    def test_underflowing_censored_rate_counts_as_closed_class(self):
        # 0 <-> 1 at 1, 1 -> 2 at 1e-10, 2 -> 3 at 1e-200, 3 -> 2 at 1 and
        # 3 -> 0 at 1e-200: the exact state is [1e-390, 1e-390, 1, 1e-200].
        # Level 2's censored out-rate 1e-400 underflows to 0.0, so level 2
        # counts as closed, and the result is that state in double precision
        rates = np.zeros((4, 4))
        rates[1, 0] = rates[0, 1] = rates[2, 3] = 1.0
        rates[2, 1] = 1e-10
        rates[3, 2] = rates[0, 3] = 1e-200
        with np.errstate(divide="raise", invalid="raise"):
            p = stationary_distribution(rates)
        assert p.tolist() == [0.0, 0.0, 1.0, 1e-200]
        assert p.tolist() == [float(v) for v in exact_stationary(rates, 500)]

    @pytest.mark.parametrize("m", [
        np.array([[-1.0, -1.0], [1.0, 1.0]]),  # negative off-diagonal rate
        np.array([[-1.0, 1.0], [1.0, -1.0]]) + 0j,  # complex
        np.array([[0.0, np.nan], [0.0, 0.0]]),
        np.zeros((2, 3)),
        np.zeros((0, 0)),
    ])
    def test_rejects_non_generator(self, m):
        with pytest.raises(LinalgError):
            stationary_distribution(m)

    def test_diagonal_is_ignored(self):
        # a zero diagonal, the generator's own and arbitrary finite values
        # all give the same p, bit for bit; the stiff rates and the 1e-30
        # link make any use of the diagonal show in the small entries
        rng = np.random.default_rng(14)
        rates = rng.uniform(0.0, 1.0, (6, 6)) * np.logspace(-12, 0, 6)
        rates[5, :] = 0.0
        rates[5, 4] = 1e-30
        np.fill_diagonal(rates, 0.0)
        p = stationary_distribution(rates)
        assert p.min() > 0.0
        for diagonal in (np.diag(generator(rates)), rng.uniform(-1e3, 1e3, 6),
                         np.full(6, -np.finfo(float).max)):
            m = rates.copy()
            np.fill_diagonal(m, diagonal)
            assert stationary_distribution(m).tobytes() == p.tobytes()


class TestNullVector:
    """The SVD kernel of the dense test oracle."""

    def test_explicit_kernel(self):
        x = null_vector(np.array([[0.0, 0.0], [0.0, 1.0]]))
        assert abs(x[0]) == approx(1.0)
        assert abs(x[1]) == approx(0.0, abs=1e-12)

    def test_symmetric_rate_matrix(self):
        x = null_vector(np.array([[-1.0, 1.0], [1.0, -1.0]]))
        assert np.abs(x) == approx(np.array([1.0, 1.0]) / np.sqrt(2))

    def test_no_kernel_raises(self):
        with pytest.raises(NullSpaceError):
            null_vector(np.eye(3))

    def test_ambiguous_kernel_raises(self):
        with pytest.raises(NullSpaceError):
            null_vector(np.zeros((2, 2)))

    def test_rate_matrix_against_ode_integration(self):
        # five-level generator of the reference system; the independent
        # oracle is stiff forward integration to t = 100 / min rate
        from electrolum import SystemParams, build_system
        from electrolum.ratemodel import extract_rates, rate_matrix

        system = build_system(SystemParams(eta=0.1), mu_mode="omega_G")
        m = rate_matrix(extract_rates(system.lv, system.basis))
        x = null_vector(m.astype(complex))
        p_kernel = np.real(x)
        p_kernel /= p_kernel.sum()

        p0 = np.zeros(5)
        p0[0] = 1.0
        t_end = 100.0 / 0.5e-6
        sol = solve_ivp(lambda _, p: m @ p, (0.0, t_end), p0,
                        method="Radau", rtol=1e-10, atol=1e-14)
        p_ode = sol.y[:, -1]
        assert p_kernel == approx(p_ode, rel=1e-6, abs=1e-9)
