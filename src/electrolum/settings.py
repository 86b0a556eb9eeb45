"""Run settings that both configuration validation and the numerical modules read.

The command line validates a configuration against these names before
it loads any numerical module, so this module imports nothing.
"""

# how the injecting reservoir's chemical potential is set (see pipeline.resolve_mu)
MU_MODES = ("absolute", "omega_G", "omega_G_plus_omega_plus")
# photon-number cutoff of the Fock space (see hilbert.ModelSpace)
DEFAULT_N_MAX = 8
# spectrum frequency grid: (min, max, points)
DEFAULT_GRID = (0.5, 1.5, 4001)
# line windows span +-WINDOW_SCALE half-widths and capture (2/pi) arctan 5 of
# each Lorentzian line; the sweep divides its window fluxes by that fraction
WINDOW_SCALE = 5.0
