"""Extra-cavity emission spectrum via the regression theorem, and peak fluxes.

The stationary two-time correlation <X+(tau) X-(0)> evolves under the
same generator as the state, so its one-sided Fourier transform is a
resolvent of the Liouvillian:

    S(w) = (gamma_cav / pi) * Re Tr[ X+ . R(w) . (X- rho_ss) ],
    R(w) = -(L - i w)^(-1),

equivalent to the two-sided transform because C(-tau) = C(tau)*.  In the
dressed basis rho_ss = diag(p) and X- = sum_{E_j > E_i} x_ij |i><j|, so
X- rho_ss is a sum of coherences x_ij p_j |i><j|, each of which the
secular generator damps on its own at (Gamma_i + Gamma_j)/2 while it
rotates at E_j - E_i.  The resolvent is then exact in closed form: one
Lorentzian per cavity channel j -> i, of weight gamma_cav |x_ij|^2 p_j
(the channel's rate times its upper population).  X- rho_ss has no
stationary component, so the coherent term Tr[X+ rho]Tr[X- rho] is
exactly zero here.  Lines and their window integrals (:func:`window_fluxes`)
are exact, with no grid artifacts; the time-domain transform is kept
only as a test oracle.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .dissipators import BATH_CAVITY
from .liouvillian import SecularGenerator, build_liouvillian
from .rabi import DressedBasis
from .settings import DEFAULT_GRID

# line windows span +-WINDOW_SCALE half-widths and capture (2/pi) arctan 5 of
# each Lorentzian line; the sweep divides its window fluxes by that fraction
WINDOW_SCALE = 5.0


@dataclass(frozen=True)
class Spectrum:
    """Emission spectrum on an ascending frequency grid."""

    omegas: np.ndarray
    values: np.ndarray
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        if np.any(np.diff(self.omegas) <= 0):
            raise ValueError("frequency grid must be strictly ascending")


@dataclass(frozen=True)
class PeakWindow:
    """Integration window around one emission line."""

    center: float
    lo: float
    hi: float

    @property
    def halfwidth(self) -> float:
        return 0.5 * (self.hi - self.lo)


def default_grid() -> np.ndarray:
    return np.linspace(*DEFAULT_GRID)


def _check_populations(populations, dim: int) -> np.ndarray:
    p = np.asarray(populations)
    if p.shape != (dim,):
        raise ValueError(
            f"expected {dim} dressed-level populations, got an array of shape {p.shape}"
        )
    return p


def _lorentzians(lv: SecularGenerator, populations: np.ndarray, channels):
    """Flux, half-width and frequency of every lit cavity line.

    Channel from -> to emits rate * p_from photons per unit time at
    freq = E_from - E_to, with the half-width (Gamma_from + Gamma_to)/2
    of the coherence it leaves behind; p are the stationary populations
    of the dressed levels.  Zero-flux channels are dropped, so no term
    is ever 0/0.
    """
    p = _check_populations(populations, lv.dim)
    cav = channels.of_bath(BATH_CAVITY)
    fluxes = cav.rate * p[cav.from_index]
    widths = 0.5 * (lv.out_rates[cav.from_index] + lv.out_rates[cav.to_index])
    lit = fluxes != 0.0
    return fluxes[lit], widths[lit], cav.freq[lit]


def emission_spectrum(lv: SecularGenerator, populations: np.ndarray, channels,
                      grid) -> Spectrum:
    """S(w) over the grid: one Lorentzian per lit cavity channel."""
    omegas = np.asarray(grid, dtype=float)
    fluxes, widths, freqs = _lorentzians(lv, populations, channels)
    values = np.zeros_like(omegas)
    # one line at a time: a (points x channels) array costs more memory than time
    for weight, width, freq in zip((fluxes / np.pi).tolist(), widths.tolist(), freqs.tolist()):
        values += weight * width / (width**2 + (omegas - freq) ** 2)
    return Spectrum(omegas=omegas, values=values)


def window_fluxes(lv: SecularGenerator, populations: np.ndarray, channels, windows):
    """Exact integral of S over each window, keyed as ``windows``.

    A line of flux F and half-width L at freq puts
    F (arctan((hi - freq)/L) - arctan((lo - freq)/L)) / pi in [lo, hi];
    every line counts in every window, neighbours' tails included.
    """
    fluxes, widths, freqs = _lorentzians(lv, populations, channels)
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
    the outer edges extend by the same half-gap.  Centers closer than
    ten spacings of the default grid trigger a resolution warning (they
    coincide at zero coupling).
    """
    grid_spacing = (DEFAULT_GRID[1] - DEFAULT_GRID[0]) / (DEFAULT_GRID[2] - 1)
    named = emission_line_centers(basis)
    order = sorted(named, key=named.get)
    centers = np.array([named[name] for name in order])
    gaps = np.diff(centers)
    if np.any(np.abs(gaps) < 10 * grid_spacing):
        warnings.warn(
            "emission line centers closer than 10 grid spacings; "
            "windows cannot resolve the peaks"
        )
    halfwidth_lo = np.concatenate([gaps[:1], gaps]) / 2
    halfwidth_hi = np.concatenate([gaps, gaps[-1:]]) / 2
    return {
        name: PeakWindow(center=c, lo=c - wlo, hi=c + whi)
        for name, c, wlo, whi in zip(order, centers, halfwidth_lo, halfwidth_hi)
    }


def line_halfwidths(basis: DressedBasis, channels):
    """Lorentzian half-widths of the three lines: mean of the two level widths."""
    out = build_liouvillian(basis, channels).out_rates
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


def line_fluxes(basis: DressedBasis, channels, populations: np.ndarray):
    """Exact steady-state photon flux of each reported line.

    Every cavity channel emits rate * population of its upper level; the
    channels are grouped by emission frequency into the midpoint-bounded
    windows of the three lines, a channel on a shared edge going to the
    lower line.  This is the master-equation flux that the
    window-integrated spectrum estimates.
    """
    p = _check_populations(populations, basis.dim)
    cav = channels.of_bath(BATH_CAVITY)
    emitted = cav.rate * p[cav.from_index]
    unclaimed = np.ones(len(cav), dtype=bool)
    fluxes = {}
    for name, win in default_windows(basis).items():
        inside = unclaimed & (win.lo <= cav.freq) & (cav.freq <= win.hi)
        fluxes[name] = float(emitted[inside].sum())
        unclaimed &= ~inside
    return fluxes


def total_emission(spec: Spectrum) -> float:
    """Trapezoidal integral of S over the whole grid."""
    return float(np.trapezoid(spec.values, spec.omegas))


def quadrature_moment(rho_ss: np.ndarray, x_minus: np.ndarray) -> float:
    """<X+ X-> in the steady state: the total emitted flux per unit gamma_cav."""
    x_plus = x_minus.conj().T
    return float(np.real(np.trace(x_plus @ x_minus @ rho_ss)))
