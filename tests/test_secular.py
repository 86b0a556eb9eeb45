"""The secular production path against the dense Lindblad oracle.

Steady state and emission spectrum are compared at several couplings,
at both symbolic bias points and at two photon cutoffs, with the dense
kernel and resolvent taken on the charge-0 block of the generator.
That both paths refuse an ambiguous kernel is checked in
test_liouvillian.py.
"""

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
    assert np.max(np.abs(system.rho_ss - rho_dense)) <= 1e-12

    grid = grid_through_lines(system)
    x_minus, x_plus = system.x_pm
    expected = dense_oracle.emission_spectrum(
        block, rho_dense, x_minus, x_plus, grid, system.params.gamma_cav, space
    )
    values = system.emission_spectrum(grid).values
    assert np.max(np.abs(values - expected)) <= 1e-8 * np.max(expected)
