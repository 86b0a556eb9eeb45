"""Run settings that both configuration validation and the numerical modules read.

The command line validates a configuration against these names before
it loads any numerical module, so this module imports nothing.
"""

# how the injecting reservoir's chemical potential is set (see pipeline.resolve_mu)
MU_MODES = ("absolute", "omega_G", "omega_G_plus_omega_plus")
# the command line's mu_mode when the configuration names none and sweeps no mu
DEFAULT_MU_MODE = "omega_G"
# photon-number cutoff of the Fock space (see hilbert.ModelSpace)
DEFAULT_N_MAX = 8
# largest cutoff a configuration may ask for: one spectrum or sweep run at
# n_max 256 (eta 0.1, default grid) peaks at 75 MB RSS
MAX_N_MAX = 256
# spectrum frequency grid: (min, max, points)
DEFAULT_GRID = (0.5, 1.5, 4001)
# most grid points a configuration may ask for: one spectrum run at 10**6
# points (eta 0.1, n_max 8) peaks at 70 MB RSS and writes a 42 MB table
MAX_GRID_POINTS = 10**6
# smallest grid step, in ulps of the larger |end|: np.linspace's rounding
# shrinks no step by 6 ulps or more, so the grid stays strictly ascending
GRID_STEP_ULPS = 8
# line windows span +-WINDOW_SCALE half-widths and capture (2/pi) arctan 5 of
# each Lorentzian line; the sweep divides its window fluxes by that fraction
WINDOW_SCALE = 5.0
