"""Run settings that both configuration validation and the numerical modules read.

The command line validates a configuration against these names before
it loads any numerical module, so this module imports nothing.
"""

# how the injecting reservoir's chemical potential is set (see pipeline.resolve_mu)
MU_MODES = ("absolute", "omega_G", "omega_G_plus_omega_plus")
# photon-number cutoff of the Fock space (see hilbert.build_space)
DEFAULT_N_MAX = 8
# spectrum frequency grid: (min, max, points)
DEFAULT_GRID = (0.5, 1.5, 4001)
