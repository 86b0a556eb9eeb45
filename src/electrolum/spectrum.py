"""Extra-cavity emission spectrum via the regression theorem, and peak fluxes.

The stationary two-time correlation <X+(tau) X-(0)> evolves under the
same generator as the state, so its one-sided Fourier transform is a
resolvent of the Liouvillian:

    S(w) = (gamma_cav / pi) * Re Tr[ X+ . R(w) . (X- rho_ss) ],
    R(w) = -(L - i w)^(-1),

equivalent to the two-sided transform because C(-tau) = C(tau)*.  In the
dressed basis rho_ss = diag(p) and X- = sum_{E_j > E_i} x_ij |i><j|, so
X- rho_ss is a sum of coherences x_ij p_j |i><j|, each of which the
generator of the rank-one channels damps on its own at
(Gamma_i + Gamma_j)/2 while it rotates at E_j - E_i.  Its resolvent is
then exact in closed form: one Lorentzian per cavity channel j -> i, of
weight gamma_cav |x_ij|^2 p_j (the channel's rate times its upper
population).  X- rho_ss has no stationary component, so the coherent
term Tr[X+ rho]Tr[X- rho] is exactly zero here.  Lines and their window
integrals (:func:`window_fluxes`) are exact for that generator, with no
grid artifacts; the time-domain transform is kept only as a test oracle.

The grouped secular master equation differs from the rank-one form on
the empty-cavity ladder, whose rungs all emit at omega = 1
(:mod:`electrolum.liouvillian`): there the coherences feed one another,
so the central line keeps these centers, widths and total flux, but its
Lorentzians take other weights.  :func:`line_fluxes` is the same in both
forms; the spectrum near omega = 1 and the window integrals, which read
the central line's shape, are not.

Two rules decide which photons belong to a reported line.
:func:`line_fluxes` assigns every cavity channel by its frequency to
the midpoint-bounded windows of :func:`default_windows` (a channel on a
shared edge goes to the lower line) and sums rate x upper population:
the exact channel-resolved flux.  The sweep's window columns
(``cli.window_line_fluxes``) integrate the whole spectrum over
+-``WINDOW_SCALE`` line half-widths (:func:`line_windows`) and divide
by the captured fraction of one Lorentzian, so they count the tails of
neighbouring lines, as a measurement would.  At n_max 8 the window
estimate over the exact flux is 1.72 (minus) and 1.68 (plus) at
``omega_G``, eta 0.03; 1.07 and 1.06 there at eta 0.1; and 1.21 for the
central line at ``omega_G_plus_omega_plus``, eta 0.03.
"""

from __future__ import annotations

import warnings
from typing import NamedTuple

import numpy as np

from .liouvillian import build_liouvillian
from .rabi import DEGENERACY_TOL, DressedBasis
from .settings import WINDOW_SCALE


class _SpectrumFields(NamedTuple):
    omegas: np.ndarray
    values: np.ndarray


class Spectrum(_SpectrumFields):
    """Emission spectrum on an ascending frequency grid."""

    __slots__ = ()

    def __new__(cls, omegas: np.ndarray, values: np.ndarray):
        if np.any(np.diff(omegas) <= 0):
            raise ValueError("frequency grid must be strictly ascending")
        return super().__new__(cls, omegas, values)

    @property
    def metadata(self) -> dict:
        """Always empty: the closed-form spectrum has no failed points to record."""
        return {}


class PeakWindow(NamedTuple):
    """Integration window around one emission line."""

    center: float
    lo: float
    hi: float

    @property
    def halfwidth(self) -> float:
        return 0.5 * (self.hi - self.lo)


def _lorentzians(system):
    """Flux, half-width and frequency of every lit cavity line of a solved system.

    Channel from -> to emits rate * p_from photons per unit time at
    freq = E_from - E_to, with the half-width (Gamma_from + Gamma_to)/2
    of the coherence it leaves behind; p are the stationary populations
    of the dressed levels.  Zero-flux channels are dropped, so no term
    is ever 0/0.  Lines are listed by from-level, then by to-level.
    """
    out, e = system.lv.out_rates, system.basis.energies
    emitted = (system.channels.cavity * system.populations).T  # [from, to]: rate * p_from
    j, i = np.nonzero(emitted)
    return emitted[j, i], 0.5 * (out[j] + out[i]), e[j] - e[i]


def emission_spectrum(system, grid) -> Spectrum:
    """S(w) of a solved ``DressedSystem`` over the grid: one Lorentzian per lit line."""
    omegas = np.asarray(grid, dtype=float)
    fluxes, widths, freqs = _lorentzians(system)
    values = np.zeros_like(omegas)
    # one line at a time: a (points x channels) array costs more memory than time
    for weight, width, freq in zip((fluxes / np.pi).tolist(), widths.tolist(), freqs.tolist()):
        values += weight * width / (width**2 + (omegas - freq) ** 2)
    return Spectrum(omegas=omegas, values=values)


def window_fluxes(system, windows):
    """Exact integral of a solved system's S over each window, keyed as ``windows``.

    A line of flux F and half-width L at freq puts
    F (arctan((hi - freq)/L) - arctan((lo - freq)/L)) / pi in [lo, hi];
    every line counts in every window, neighbours' tails included.
    """
    fluxes, widths, freqs = _lorentzians(system)
    return {
        name: float(fluxes @ (np.arctan((win.hi - freqs) / widths)
                              - np.arctan((win.lo - freqs) / widths)) / np.pi)
        for name, win in windows.items()
    }


def integrate_peak(spec: Spectrum, center: float, halfwidth: float) -> float:
    """Trapezoidal integral of S over [center - halfwidth, center + halfwidth].

    The window must lie inside the grid; the integrand is interpolated
    linearly at the two window edges so the bounds are honored exactly.
    """
    lo, hi = center - halfwidth, center + halfwidth
    omegas, values = spec.omegas, spec.values
    if lo < omegas[0] or hi > omegas[-1]:
        raise ValueError(
            f"window [{lo:g}, {hi:g}] exceeds the grid "
            f"[{omegas[0]:g}, {omegas[-1]:g}]"
        )
    inside = (omegas > lo) & (omegas < hi)
    xs = np.concatenate([[lo], omegas[inside], [hi]])
    ys = np.concatenate(
        [[np.interp(lo, omegas, values)], values[inside], [np.interp(hi, omegas, values)]]
    )
    return float(np.trapezoid(ys, xs))


def emission_line_centers(basis: DressedBasis):
    """Frequencies of the three reported lines (:attr:`DressedBasis.lines`)."""
    e = basis.energies
    return {name: float(e[up] - e[low]) for name, (up, low) in basis.lines.items()}


def default_windows(basis: DressedBasis):
    """Midpoint-bounded windows around the three emission lines.

    Adjacent windows share a boundary at the midpoint between centers;
    the outer edges extend by the same half-gap.  Centers that coincide
    within ``DEGENERACY_TOL``, as at zero coupling, cannot be told apart
    and trigger a warning.
    """
    named = emission_line_centers(basis)
    order = sorted(named, key=named.get)
    centers = np.array([named[name] for name in order])
    gaps = np.diff(centers)
    if np.any(gaps < DEGENERACY_TOL):
        warnings.warn("emission line centers coincide; windows cannot resolve the peaks")
    halfwidth_lo = np.concatenate([gaps[:1], gaps]) / 2
    halfwidth_hi = np.concatenate([gaps, gaps[-1:]]) / 2
    return {
        name: PeakWindow(center=c, lo=c - wlo, hi=c + whi)
        for name, c, wlo, whi in zip(order, centers, halfwidth_lo, halfwidth_hi)
    }


def line_halfwidths(basis: DressedBasis, channels):
    """Lorentzian half-widths of the three lines: mean of the two level widths."""
    out = build_liouvillian(channels).out_rates
    return {name: 0.5 * (out[up] + out[low]) for name, (up, low) in basis.lines.items()}


def line_windows(basis: DressedBasis, channels, scale: float = WINDOW_SCALE):
    """Windows of +-scale half-widths around each line.

    Narrow windows keep the Lorentzian tail of the dominant line out of
    the weak satellites; the captured fraction of a Lorentzian is
    (2/pi) arctan(scale), available as :func:`window_capture`.
    """
    centers = emission_line_centers(basis)
    widths = line_halfwidths(basis, channels)
    return {
        name: PeakWindow(center=c, lo=c - scale * widths[name], hi=c + scale * widths[name])
        for name, c in centers.items()
    }


def window_capture(scale: float) -> float:
    """Fraction of a Lorentzian line inside +-scale half-widths."""
    return (2.0 / np.pi) * np.arctan(scale)


def line_fluxes(system):
    """Exact steady-state photon flux of each reported line of a solved system.

    Every lit cavity line emits rate * population of its upper level; the
    lines are grouped by emission frequency into the midpoint-bounded
    windows of the three reported lines, a line on a shared edge going to
    the lower one.  This is the master-equation flux that the
    window-integrated spectrum estimates.
    """
    fluxes, _, freqs = _lorentzians(system)
    unclaimed = np.ones(len(freqs), dtype=bool)
    result = {}
    for name, win in default_windows(system.basis).items():
        inside = unclaimed & (win.lo <= freqs) & (freqs <= win.hi)
        result[name] = float(fluxes[inside].sum())
        unclaimed &= ~inside
    return result


def total_emission(spec: Spectrum) -> float:
    """Trapezoidal integral of S over the whole grid."""
    return float(np.trapezoid(spec.values, spec.omegas))


def quadrature_moment(rho_ss: np.ndarray, x_minus: np.ndarray) -> float:
    """<X+ X-> in the steady state: the total emitted flux per unit gamma_cav."""
    x_plus = x_minus.conj().T
    return float(np.real(np.trace(x_plus @ x_minus @ rho_ss)))
