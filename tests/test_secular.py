"""The secular production path against the dense Lindblad oracle.

Steady state and emission spectrum are compared at several couplings,
at both symbolic bias points and at two photon cutoffs, with the dense
kernel and resolvent taken on the charge-0 block of the generator.
That both paths refuse an ambiguous kernel is checked in
test_liouvillian.py.  The oracle with the empty ladder grouped into one
damped oscillator keeps the populations but not the central line shape
(ROADMAP item 9).
"""

from functools import lru_cache

import numpy as np
import pytest

import dense_oracle
from electrolum import SystemParams, build_system
from electrolum.spectrum import emission_line_centers, line_halfwidths


def grid_through_lines(system):
    """A coarse sweep of the band plus a fine one across each line core."""
    centers = emission_line_centers(system.basis)
    widths = line_halfwidths(system.basis, system.channels)
    parts = [np.linspace(0.5, 1.5, 101)]
    for name, center in centers.items():
        parts.append(center + widths[name] * np.linspace(-10.0, 10.0, 41))
    return np.unique(np.concatenate(parts))


@pytest.mark.parametrize("n_max", [3, 8])
@pytest.mark.parametrize("mode", ["omega_G", "omega_G_plus_omega_plus"])
@pytest.mark.parametrize("eta", [0.02, 0.1, 0.3])
def test_agrees_with_dense_generator(eta, mode, n_max, dense_generator):
    system = build_system(SystemParams(eta=eta), n_max=n_max, mu_mode=mode)
    space = system.basis.space
    block = dense_oracle.charge_split(dense_generator(system), space)[0]

    rho_dense = dense_oracle.steady_state(block, space)
    rho = dense_oracle.to_bare(system.basis, system.rho_ss)
    assert np.max(np.abs(rho - rho_dense)) <= 1e-12

    grid = grid_through_lines(system)
    x_minus, x_plus = (dense_oracle.to_bare(system.basis, m) for m in system.x_pm)
    expected = dense_oracle.emission_spectrum(
        block, rho_dense, x_minus, x_plus, grid, system.params.gamma_cav, space
    )
    values = system.emission_spectrum(grid).values
    assert np.max(np.abs(values - expected)) <= 1e-8 * np.max(expected)


@lru_cache(maxsize=2)
def ladder_grouped(eta):
    """Low-bias system at n_max 8, its ladder-grouped charge-0 block and dense kernel."""
    system = build_system(SystemParams(eta=eta), n_max=8, mu_mode="omega_G")
    space = system.basis.space
    block = dense_oracle.charge_split(dense_oracle.ladder_grouped_liouvillian(system), space)[0]
    return system, block, dense_oracle.steady_state(block, space)


@pytest.mark.parametrize("eta", [0.1, 0.3])
def test_ladder_grouped_oracle_keeps_the_populations(eta):
    system, _, rho = ladder_grouped(eta)
    v = dense_oracle.states(system.basis)
    populations = np.real(np.diag(v.T @ rho @ v))
    assert np.max(np.abs(populations - system.populations)) <= 1e-12


@pytest.mark.xfail(strict=True, reason="ROADMAP item 9")
@pytest.mark.parametrize("eta", [0.1, 0.3])
def test_central_peak_matches_ladder_grouped_oracle(eta):
    # the rank-one ladder damps |s,n-1><s,n| at (2n-1) gamma_cav / 2, the
    # grouped one at gamma_cav / 2: the central peak is 0.3% (eta 0.1) and
    # 3% (eta 0.3) higher in the grouped model
    system, block, rho = ladder_grouped(eta)
    x_minus, x_plus = (dense_oracle.to_bare(system.basis, m) for m in system.x_pm)
    expected = dense_oracle.emission_spectrum(block, rho, x_minus, x_plus, [1.0],
                                              system.params.gamma_cav, system.basis.space)
    assert system.emission_spectrum([1.0]).values[0] == pytest.approx(expected[0], rel=1e-6)
