"""Master-equation generator of the rank-one channels in block form, and the steady state.

Every channel is a rank-one jump |to><from| between two dressed
eigenstates, and the Hamiltonian is diagonal in that basis.  For such a
generator the Lindblad equation splits exactly into two parts:

* the populations p_k = <k|rho|k> obey the Pauli rate equation
  dp/dt = (W - diag(Gamma)) p, with W[to, from] the summed rate of the
  channels from -> to and Gamma_k = sum_to W[to, k] the total out-rate
  of level k;
* each coherence rho_ij (i != j) evolves on its own,
  d rho_ij/dt = (-i (E_i - E_j) - (Gamma_i + Gamma_j)/2) rho_ij.

So the stationary state is diagonal in the dressed basis with the Pauli
kernel as populations, and no D^2 x D^2 superoperator is ever needed.

The rank-one channels equal the grouped secular master equation, which
gathers the jumps of one bath at one Bohr frequency into a single
operator A(omega) (Breuer & Petruccione, The Theory of Open Quantum
Systems, sec. 3.3), only where no two Bohr frequencies of a bath
coincide.  The empty-cavity ladder |s,n> -> |s,n-1> is the exception:
every rung emits at exactly omega = 1, and the grouped form also feeds
the coherence |s,n><s,n+1| into |s,n-1><s,n|, which the rank-one form
leaves out.  The cross terms vanish on a diagonal state, so the
populations, the steady state and the line fluxes are the same in both
forms; the shape weights of the central line in the spectrum are not
(ROADMAP item 9).
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .linalg import NullSpaceError, stationary_distribution


class SecularGenerator(NamedTuple):
    """Lindblad generator of rank-one dressed channels, in block form.

    It is exactly the Pauli rate equation: ``rates[to, from]`` is the
    summed rate of the channels from -> to; ``out_rates[k]`` is the total
    out-rate of level k, which also sets the decay of every coherence
    involving k.
    """

    rates: np.ndarray
    out_rates: np.ndarray

    @property
    def dim(self) -> int:
        return self.rates.shape[0]


def build_liouvillian(basis, channels) -> SecularGenerator:
    """Pauli rate matrix and level out-rates of a channel table over the dressed basis."""
    rates = np.zeros((basis.dim, basis.dim))
    np.add.at(rates, (channels.to_index, channels.from_index), channels.rate)
    return SecularGenerator(rates=rates, out_rates=rates.sum(axis=0))


class SteadyStateError(NullSpaceError):
    """The generator has no unique stationary state."""


def steady_state(lv: SecularGenerator) -> np.ndarray:
    """Unique stationary populations p_k of the dressed levels.

    They are the stationary distribution of the Pauli rate equation,
    solved from ``lv.rates`` alone: the solver ignores the diagonal and
    reads the out-rates as the column sums of the off-diagonal rates,
    which is what ``lv.out_rates`` holds.  A unique stationary state
    leaves at most one level with zero out-rate, so every coherence
    decays and the stationary state is diagonal in the dressed basis
    (see :func:`density_operator`).  More than one closed class in the
    rate graph (for example with the electron channels switched off)
    raises SteadyStateError.
    """
    try:
        return stationary_distribution(lv.rates)
    except NullSpaceError as err:
        raise SteadyStateError(
            f"no unique stationary state: {err} "
            "(is the channel graph connected, e.g. gamma_in > 0?)"
        ) from err


def density_operator(basis, populations: np.ndarray) -> np.ndarray:
    """V diag(p) V^T: the state with dressed populations p, in the bare basis."""
    rho = (basis.states * populations) @ basis.states.T
    return 0.5 * (rho + rho.T)


# physicality bounds of check_density_operator
HERM_TOL = 1e-10
TRACE_TOL = 1e-10
EIG_FLOOR = -1e-9


def check_density_operator(rho: np.ndarray) -> dict:
    """Physicality defects of a density operator (used by the test gates)."""
    herm = float(np.max(np.abs(rho - rho.conj().T)))
    trace_err = abs(np.trace(rho) - 1.0)
    min_eig = float(np.min(np.linalg.eigvalsh(0.5 * (rho + rho.conj().T))))
    report = {
        "hermiticity_defect": herm,
        "trace_error": float(trace_err),
        "min_eigenvalue": min_eig,
        "ok": herm <= HERM_TOL and trace_err <= TRACE_TOL and min_eig >= EIG_FLOOR,
    }
    return report
