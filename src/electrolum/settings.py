"""What a run is set with: the input records and the run settings.

The command line validates a configuration against these names before
it loads any numerical module, so this module imports no numpy, and its
records are ``typing.NamedTuple`` subclasses, so nothing beyond
``math``, ``operator`` and ``typing`` (``dataclasses`` would load
``inspect``).  Both records check their fields in ``__new__``, which
unpickling passes through too; ``SystemParams`` routes ``_replace``
through it, so a replaced copy is checked again.
"""

from __future__ import annotations

import math
import operator
from typing import NamedTuple

# how the injecting reservoir's chemical potential is set (see pipeline.resolve_mu)
MU_MODES = ("absolute", "omega_G", "omega_G_plus_omega_plus")
# the command line's mu_mode when the configuration names none and sweeps no mu
DEFAULT_MU_MODE = "omega_G"
# photon-number cutoff of the Fock space (see ModelSpace below)
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


class _ModelSpaceFields(NamedTuple):
    n_max: int


class ModelSpace(_ModelSpaceFields):
    """Size of the truncated photon ladder over three electronic states."""

    __slots__ = ()

    def __new__(cls, n_max: int):
        if operator.index(n_max) < 1:  # TypeError for a non-integer; numpy integers pass
            raise ValueError(
                "n_max must be at least 1: the satellite emission channels "
                "involve the one-photon states"
            )
        return super().__new__(cls, n_max)

    @property
    def n_photon(self) -> int:
        return self.n_max + 1

    @property
    def dim(self) -> int:
        return 3 * (self.n_max + 1)


class _SystemParamsFields(NamedTuple):
    eta: float  # normalised light-matter coupling Omega_R / omega_c
    omega_e: float = 1.0  # g -> e transition frequency
    gamma_in: float = 0.5e-6  # bare electron injection rate
    gamma_out: float = 0.5e-6  # bare electron extraction rate
    gamma_cav: float = 7e-4  # bare cavity decay rate
    mu: float = 0.0  # injecting-reservoir chemical potential


class SystemParams(_SystemParamsFields):
    """Physical constants of the open system, in units of the cavity frequency.

    ``mu`` is the chemical potential of the injecting reservoir and may be
    negative (the dressed ground-state energy is negative at finite
    coupling); every other field is a frequency or a rate and must be >= 0,
    ``gamma_cav`` > 0 (the closed forms divide by it; without it no photon leaves).
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        for name, value in zip(self._fields, self):
            in_range = name == "mu" or (value > 0 if name == "gamma_cav" else value >= 0)
            if not (math.isfinite(value) and in_range):
                rule = {"mu": "finite", "gamma_cav": "finite and > 0"}.get(name, "finite and >= 0")
                raise ValueError(f"{name} must be {rule}, got {value}")
        return self

    def _replace(self, **changes) -> SystemParams:
        # the inherited _replace skips __new__, and with it the checks
        return type(self)(**{**self._asdict(), **changes})
