import numpy as np
import pytest
from pytest import approx
from scipy.integrate import solve_ivp

from electrolum.linalg import (
    NonHermitianError,
    NullSpaceError,
    eig_hermitian,
    null_vector,
)


def random_hermitian(n, rng):
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return 0.5 * (a + a.conj().T)


class TestEigHermitian:
    def test_identity(self):
        vals, vecs = eig_hermitian(np.eye(2))
        assert vals == approx([1.0, 1.0])
        assert vecs.conj().T @ vecs == approx(np.eye(2))

    def test_pauli_x(self):
        vals, vecs = eig_hermitian(np.array([[0, 1], [1, 0]], dtype=complex))
        assert vals == approx([-1.0, 1.0])
        for k, sign in enumerate((-1, 1)):
            expected = np.array([1.0, sign]) / np.sqrt(2)
            overlap = abs(np.vdot(expected, vecs[:, k]))
            assert overlap == approx(1.0, abs=1e-12)

    def test_scaled_pauli_x(self):
        g = 0.1
        vals, _ = eig_hermitian(np.array([[0, g], [g, 0]]))
        assert vals == approx([-g, g])

    def test_rejects_non_square(self):
        with pytest.raises(Exception, match="square"):
            eig_hermitian(np.ones((2, 3)))

    def test_rejects_non_hermitian(self):
        with pytest.raises(NonHermitianError):
            eig_hermitian(np.array([[0, 1], [0, 0]], dtype=complex))

    @pytest.mark.parametrize("dim", [2, 27, 120, 800])
    def test_reconstruction(self, dim, rng):
        m = random_hermitian(dim, rng)
        vals, vecs = eig_hermitian(m)
        rebuilt = (vecs * vals) @ vecs.conj().T
        rel = np.linalg.norm(rebuilt - m) / np.linalg.norm(m)
        assert rel < 1e-9
        assert np.all(np.diff(vals) >= 0)
        assert np.max(np.abs(vecs.conj().T @ vecs - np.eye(dim))) < 1e-10


class TestNullVector:
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

        system = build_system(SystemParams.from_eta(0.1), mu_mode="omega_G")
        m = rate_matrix(extract_rates(system.basis, system.channels))
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
