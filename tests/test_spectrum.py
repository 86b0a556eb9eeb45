import warnings

import numpy as np
import pytest
from pytest import approx

import dense_oracle
from electrolum import SystemParams, build_system
from electrolum.dissipators import BATH_CAVITY
from electrolum.ratemodel import analytic_gse
from electrolum.spectrum import (
    Spectrum,
    default_windows,
    emission_line_centers,
    integrate_peak,
    line_halfwidths,
    line_windows,
    quadrature_moment,
    total_emission,
    window_capture,
    window_fluxes,
)

REF_GAMMA = 0.5e-6
REF_GAMMA_CAV = 7e-4


class TestEmissionSpectrum:
    def test_dark_when_uncoupled(self):
        system = build_system(SystemParams(eta=0.0, mu=0.0), n_max=2,
                              mu_mode="absolute")
        spec = system.emission_spectrum(np.linspace(0.5, 1.5, 201))
        assert np.max(np.abs(spec.values)) < 1e-16

    def test_three_peaks_at_dressed_frequencies(self, low_bias_system,
                                                 low_bias_spectrum):
        spec = low_bias_spectrum
        values = spec.values
        interior = (values[1:-1] > values[:-2]) & (values[1:-1] > values[2:])
        peaks = np.flatnonzero(interior) + 1
        # the three tallest local maxima are the emission lines
        tallest = peaks[np.argsort(values[peaks])[-3:]]
        centers = emission_line_centers(low_bias_system.basis)
        step = spec.omegas[1] - spec.omegas[0]
        for name in ("minus", "central", "plus"):
            assert np.min(np.abs(spec.omegas[tallest] - centers[name])) <= step

    def test_satellites_grow_with_bias(self, low_bias_system, high_bias_system):
        low = low_bias_system.line_fluxes()
        high = high_bias_system.line_fluxes()
        assert high["plus"] / low["plus"] > 100
        assert high["minus"] / low["minus"] > 100
        assert high["central"] / low["central"] < 3

    def test_positivity(self, low_bias_spectrum):
        assert np.min(low_bias_spectrum.values) >= -1e-12

    def test_stationary_state_gives_real_finite_values(self, low_bias_spectrum):
        assert np.all(np.isfinite(low_bias_spectrum.values))

    def test_grid_must_ascend(self):
        with pytest.raises(ValueError):
            Spectrum(omegas=np.array([1.0, 0.5]), values=np.zeros(2))
        with pytest.raises(ValueError, match="ascending"):
            Spectrum(np.array([0.5, 1.0, 1.0]), np.zeros(3))

    def test_metadata_is_a_new_empty_dict_each_read(self):
        spec = Spectrum(np.linspace(0.0, 1.0, 3), np.zeros(3))
        spec.metadata["failed_points"] = [1]
        assert spec.metadata == {}
        assert Spectrum(np.linspace(0.0, 1.0, 3), np.zeros(3)).metadata == {}


class TestIntegratePeak:
    def test_zero_spectrum(self):
        spec = Spectrum(omegas=np.linspace(0.0, 1.0, 11), values=np.zeros(11))
        assert integrate_peak(spec, 0.5, 0.2) == 0.0

    def test_triangle_exact(self):
        omegas = np.linspace(0.0, 2.0, 2001)
        values = np.maximum(0.0, 1.0 - np.abs(omegas - 1.0))
        spec = Spectrum(omegas=omegas, values=values)
        assert integrate_peak(spec, 1.0, 1.0) == approx(1.0, rel=1e-6)
        assert integrate_peak(spec, 1.0, 0.5) == approx(0.75, rel=1e-6)

    def test_window_outside_grid_rejected(self):
        spec = Spectrum(omegas=np.linspace(0.5, 1.5, 11), values=np.zeros(11))
        with pytest.raises(ValueError, match="window"):
            integrate_peak(spec, 1.4, 0.2)

    def test_central_peak_matches_closed_form(self, low_bias_system,
                                              low_bias_spectrum):
        windows = line_windows(low_bias_system.basis, low_bias_system.channels)
        win = windows["central"]
        flux = integrate_peak(low_bias_spectrum, win.center, win.halfwidth)
        flux /= window_capture(5.0)
        expected, _, _ = analytic_gse(0.1, REF_GAMMA, REF_GAMMA_CAV)
        assert flux == approx(expected, rel=0.2)

    def test_satellite_peak_matches_closed_form(self, low_bias_system,
                                                low_bias_spectrum):
        windows = line_windows(low_bias_system.basis, low_bias_system.channels)
        win = windows["plus"]
        flux = integrate_peak(low_bias_spectrum, win.center, win.halfwidth)
        flux /= window_capture(5.0)
        _, expected, _ = analytic_gse(0.1, REF_GAMMA, REF_GAMMA_CAV)
        assert flux == approx(expected, rel=0.3)


class TestWindowFluxes:
    @pytest.mark.parametrize("mu_mode", ["omega_G", "omega_G_plus_omega_plus"])
    @pytest.mark.parametrize("eta", [0.03, 0.1, 0.3])
    def test_limit_of_the_fine_trapezoid(self, eta, mu_mode):
        # the trapezoid error falls quadratically with the points per
        # window: 1.5e-4 at 241 points, about 1.5e-8 at 24001
        system = build_system(SystemParams(eta=eta), mu_mode=mu_mode)
        windows = line_windows(system.basis, system.channels)
        exact = window_fluxes(system, windows)
        theta = np.linspace(-np.arctan(5.0), np.arctan(5.0), 24001)
        for name, win in windows.items():
            lo, hi = win.center - win.halfwidth, win.center + win.halfwidth
            grid = win.center + (win.halfwidth / 5.0) * np.tan(theta)
            grid[0], grid[-1] = lo, hi
            spec = system.emission_spectrum(grid)
            trapezoid = integrate_peak(spec, win.center, win.halfwidth)
            assert exact[name] == approx(trapezoid, rel=1e-7, abs=0.0), name


class TestWindows:
    def test_centers_near_polariton_splitting(self, low_bias_system):
        eta = 0.1
        windows = default_windows(low_bias_system.basis)
        assert windows["central"].center == approx(1.0)
        assert windows["minus"].center == approx(1.0 - eta, abs=2 * eta**2)
        assert windows["plus"].center == approx(1.0 + eta, abs=2 * eta**2)

    def test_midpoint_partition(self, low_bias_system):
        windows = default_windows(low_bias_system.basis)
        ordered = sorted(windows.values(), key=lambda w: w.center)
        for a, b in zip(ordered, ordered[1:]):
            assert a.hi == approx(b.lo)
        span_lo = ordered[0].center - ordered[0].halfwidth
        assert ordered[0].lo == approx(span_lo, abs=1e-12)

    @pytest.mark.parametrize("mu_mode", ["omega_G", "omega_G_plus_omega_plus"])
    @pytest.mark.parametrize("eta", [0.05, 0.3])
    def test_reported_lines_are_cavity_channels(self, eta, mu_mode):
        # each reported line is the cavity channel between its two levels:
        # centered at that channel's frequency, with the mean out-rate of
        # the two levels as half-width
        system = build_system(SystemParams(eta=eta), mu_mode=mu_mode)
        lines = system.basis.lines
        centers = emission_line_centers(system.basis)
        widths = line_halfwidths(system.basis, system.channels)
        cavity = system.channels.of_bath(BATH_CAVITY)
        out = system.lv.out_rates
        assert list(lines) == list(centers) == ["minus", "central", "plus"]
        for name, (up, low) in lines.items():
            row = np.flatnonzero((cavity.from_index == up) & (cavity.to_index == low))
            assert row.size == 1, name
            assert cavity.freq[row[0]] == centers[name], name
            assert widths[name] == 0.5 * (out[up] + out[low]), name

    def test_degenerate_centers_warn(self):
        # only coinciding centers warn: at eta 1e-3 they sit at 0.999, 1.0
        # and 1.001, far closer than any useful grid spacing, and still apart
        from electrolum.hilbert import ModelSpace
        from electrolum.rabi import dressed_basis, hamiltonian

        space = ModelSpace(4)

        def basis(eta):
            return dressed_basis(hamiltonian(SystemParams(eta=eta), space), space)

        with pytest.warns(UserWarning, match="resolve"):
            default_windows(basis(0.0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            windows = default_windows(basis(1e-3))
        assert [w.center for w in windows.values()] == approx([0.999, 1.0, 1.001], abs=1e-5)


class TestFluxConsistency:
    def test_parseval_total_flux(self, low_bias_system, low_bias_spectrum):
        xm, _ = low_bias_system.x_pm
        total = total_emission(low_bias_spectrum)
        expected = REF_GAMMA_CAV * quadrature_moment(low_bias_system.rho_ss, xm)
        assert total == approx(expected, rel=0.03, abs=0)

    def test_line_fluxes_sum_to_total(self, low_bias_system):
        xm, _ = low_bias_system.x_pm
        fluxes = low_bias_system.line_fluxes()
        expected = REF_GAMMA_CAV * quadrature_moment(low_bias_system.rho_ss, xm)
        assert sum(fluxes.values()) == approx(expected, rel=0.01, abs=0)

    @pytest.mark.slow
    def test_time_domain_oracle(self, low_bias_system, dense_generator):
        """Propagated and Fourier-transformed correlation reproduces the spectrum.

        The correlation C(tau) = Tr[X+ exp(L tau) (X- rho)] is evaluated by
        modal expansion of the dense generator (an eigendecomposition, an
        independent path from the closed-form Lorentzians) and transformed
        with an FFT; the two spectra must agree pointwise on the peak core.
        """
        system = low_bias_system
        xm, xp = system.x_pm
        gamma_cav = system.params.gamma_cav
        vec = dense_oracle.vec

        evals, evecs = np.linalg.eig(dense_generator(system))
        source = vec(xm @ system.rho_ss)
        source -= vec(system.rho_ss) * np.trace(xm @ system.rho_ss)
        coeff = np.linalg.solve(evecs, source)
        amps = (vec(xp.T) @ evecs) * coeff
        keep = np.abs(amps) > 1e-12 * np.max(np.abs(amps))

        horizon = 60.0 / gamma_cav
        n_t = 2**17
        taus = np.linspace(0.0, horizon, n_t, endpoint=False)
        corr = np.zeros(n_t, dtype=complex)
        for amp, lam in zip(amps[keep], evals[keep]):
            corr += amp * np.exp(lam * taus)
        dt = taus[1] - taus[0]
        freqs = 2 * np.pi * np.fft.fftfreq(n_t, d=dt)
        s_fft = (gamma_cav / np.pi) * np.real(np.fft.fft(corr) * dt)
        order = np.argsort(freqs)

        grid = np.linspace(0.995, 1.005, 401)
        spec = system.emission_spectrum(grid)
        fft_on_grid = np.interp(grid, freqs[order], s_fft[order])
        core = spec.values > 0.05 * spec.values.max()
        rel = np.abs(fft_on_grid[core] / spec.values[core] - 1.0)
        assert np.max(rel) < 0.05
