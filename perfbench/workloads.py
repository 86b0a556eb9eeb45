"""The three benchmark workloads: seeded inputs, operation commands, checks.

Each workload draws its coupling values from a seeded generator and
writes them into the input file the program reads; the program sees
nothing else.  Each check reads one operation's output files and raises
``CheckFailed`` when they are wrong.  The tolerances are the acceptance
tolerances (Parseval 3%, rate model 10%), not byte equality, so that a
faster solver that moves CSV values at the 1e-9 level still passes.
"""

from __future__ import annotations

import random
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from electrolum import build_system
from electrolum.cli import WINDOW_SCALE, load_table, validate_config
from electrolum.dissipators import BATH_CAVITY
from electrolum.liouvillian import check_density_operator
from electrolum.spectrum import (
    Spectrum,
    emission_line_centers,
    line_windows,
    quadrature_moment,
    total_emission,
    window_capture,
)

HERE = Path(__file__).resolve().parent
FLUX_RTOL = 0.10  # acceptance criterion 4
PARSEVAL_RTOL = 0.03  # acceptance criterion 9
PEAK_TOL_SPACINGS = 2  # a maximum "sits at" a line center within this many grid steps


class CheckFailed(AssertionError):
    """An operation's output is wrong."""


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "cli" (the electrolum CLI) or "cutoff" (cutoff_op.py)
    mode: str | None  # CLI --mode
    output: str  # file whose sha256 identifies the operation's result
    make_input: Callable[[random.Random], object]
    systems: Callable[[object], int]  # dressed systems built per operation
    check: Callable[[object, Path], dict]

    def argv(self, input_path, out_dir, spans=None, op_id=0):
        """Command for one operation; traced when a spans file is given."""
        if self.kind == "cli":
            args = ["--config", str(input_path), "--out", str(out_dir), "--mode", self.mode]
            head = [sys.executable, "-m", "electrolum"]
        else:
            args = [str(input_path), str(out_dir)]
            head = [sys.executable, str(HERE / "cutoff_op.py")]
        if spans is None:
            return head + args
        return [sys.executable, str(HERE / "traced.py"), str(spans), str(op_id), self.kind] + args


def _rel(a: float, b: float) -> float:
    return abs(a / b - 1.0)


def _spectrum_input(rng):
    return {
        "eta": rng.uniform(0.08, 0.12),
        "n_max": 8,
        "mu_mode": "omega_G",
        "grid": {"min": 0.5, "max": 1.5, "points": 4001},
    }


def _check_spectrum(raw, out_dir: Path) -> dict:
    _, header, data = load_table(out_dir / "spectrum.csv")
    config = validate_config(raw)
    if header != ["omega", "S"] or data.shape != (config.grid[2], 2):
        raise CheckFailed(f"spectrum table has header {header} and shape {data.shape}")
    omegas, values = data[:, 0], data[:, 1]
    if not np.all(np.isfinite(values)):
        raise CheckFailed(f"{int(np.sum(~np.isfinite(values)))} non-finite spectrum values")

    system = build_system(config.params(), n_max=config.n_max, mu_mode=config.mu_mode)
    centers = emission_line_centers(system.basis)
    interior = (values[1:-1] > values[:-2]) & (values[1:-1] > values[2:])
    peaks = np.flatnonzero(interior) + 1
    tallest = np.sort(omegas[peaks[np.argsort(values[peaks])[-3:]]])
    spacing = omegas[1] - omegas[0]
    expected = np.sort(list(centers.values()))
    offsets = np.abs(tallest - expected) / spacing if tallest.size == 3 else [np.inf]
    if np.max(offsets) > PEAK_TOL_SPACINGS:
        raise CheckFailed(f"three tallest maxima at {tallest}, line centers {expected}")

    x_minus, _ = system.x_pm
    closure = total_emission(Spectrum(omegas, values)) / (
        system.params.gamma_cav * quadrature_moment(system.rho_ss, x_minus)
    )
    if _rel(closure, 1.0) > PARSEVAL_RTOL:
        raise CheckFailed(f"Parseval closure {closure:.4f} is off by more than 3%")
    return {"peak_offsets_in_grid_steps": [float(x) for x in offsets],
            "parseval_closure": float(closure)}


def _sweep_input(rng):
    values = sorted(rng.uniform(0.03, 0.15) for _ in range(3))
    return {
        "eta": values[0],
        "n_max": 8,
        "mu_mode": "omega_G_plus_omega_plus",
        "grid": {"min": 0.5, "max": 1.5, "points": 401},
        "sweep": {"variable": "eta", "values": values},
        "methods": {"spectrum": True, "analytic": True, "ratemodel": True},
    }


def _window_oracle(system) -> dict:
    """The CLI's capture-corrected window integrals, predicted from the master equation.

    Each cavity channel emits rate * population of its upper level as a
    Lorentzian at its frequency, with half-width the mean of the two
    level widths.  Integrating every channel's Lorentzian over each line
    window counts the tails of neighbouring lines that fall inside the
    window, as the window-integrated spectrum does.
    """
    windows = line_windows(system.basis, system.channels, scale=WINDOW_SCALE)
    widths = np.zeros(system.basis.dim)
    for ch in system.channels:
        widths[ch.from_index] += ch.rate
    predicted = dict.fromkeys(windows, 0.0)
    for ch in system.channels:
        if ch.bath != BATH_CAVITY:
            continue
        flux = ch.rate * system.basis.population(system.rho_ss, ch.from_index)
        half = 0.5 * (widths[ch.from_index] + widths[ch.to_index])
        for name, win in windows.items():
            share = np.arctan((win.hi - ch.freq) / half) - np.arctan((win.lo - ch.freq) / half)
            predicted[name] += flux * share / np.pi
    capture = window_capture(WINDOW_SCALE)
    return {name: value / capture for name, value in predicted.items()}


def _check_sweep(raw, out_dir: Path) -> dict:
    _, header, data = load_table(out_dir / "sweep.csv")
    config = validate_config(raw)
    if data.shape != (len(config.sweep[1]), len(header)) or not np.all(np.isfinite(data)):
        raise CheckFailed(f"sweep table has shape {data.shape} or non-finite values")
    col = {name: i for i, name in enumerate(header)}
    worst, leakage = 0.0, []
    for row in data:
        system = build_system(config.params(eta=row[col["eta"]]),
                              n_max=config.n_max, mu_mode=config.mu_mode)
        master = system.line_fluxes()
        window = _window_oracle(system)
        for column, line in (("f_C", "central"), ("f_plus", "plus"), ("f_minus", "minus")):
            spectral, rate = row[col[column]], row[col[column + "_rate"]]
            errors = (_rel(spectral, window[line]), _rel(rate, master[line]))
            worst = max(worst, *errors)
            if max(errors) > FLUX_RTOL:
                raise CheckFailed(
                    f"eta={row[0]:.6g} {column}: spectrum {spectral:.6g} against "
                    f"{window[line]:.6g} expected in its window; rate model {rate:.6g} "
                    f"against master {master[line]:.6g}"
                )
            leakage.append(spectral / master[line] - 1.0)
    # how far the window estimate sits from the line flux (tails of
    # neighbouring lines inside the window); recorded, not gated
    return {"worst_flux_deviation": worst, "window_estimate_vs_line_flux": leakage}


def _cutoff_input(rng):
    eta = rng.uniform(0.05, 0.15)
    return [{"eta": eta, "n_max": 12, "mu_mode": mode}
            for mode in ("omega_G", "omega_G_plus_omega_plus")]


def _check_cutoff(raw, out_dir: Path) -> dict:
    lines = (out_dir / "cutoff.csv").read_text().splitlines()
    header, rows = lines[0].split(","), [line.split(",") for line in lines[1:]]
    if len(rows) != len(raw):
        raise CheckFailed(f"{len(rows)} cutoff rows for {len(raw)} configurations")
    worst = 0.0
    for k, (config, row) in enumerate(zip(raw, rows)):
        values = dict(zip(header, row))
        if values["mu_mode"] != config["mu_mode"]:
            raise CheckFailed(f"row {k} is for {values['mu_mode']}, not {config['mu_mode']}")
        report = check_density_operator(np.load(out_dir / f"rho_{k}.npy"))
        if not report["ok"]:
            raise CheckFailed(f"{config['mu_mode']}: steady state is not physical: {report}")
        for column in ("f_C", "f_plus", "f_minus"):
            master, rate = float(values[column]), float(values[column + "_rate"])
            if not master > 0 or _rel(rate, master) > FLUX_RTOL:
                raise CheckFailed(f"{config['mu_mode']} {column}: master {master:.6g}, "
                                  f"rate model {rate:.6g}")
            worst = max(worst, _rel(rate, master))
    return {"worst_rate_model_deviation": worst}


WORKLOADS = {
    w.name: w
    for w in (
        Workload("spectrum-n8", "cli", "spectrum", "spectrum.csv",
                 _spectrum_input, lambda raw: 1, _check_spectrum),
        Workload("sweep-n8", "cli", "sweep", "sweep.csv",
                 _sweep_input, lambda raw: len(raw["sweep"]["values"]), _check_sweep),
        Workload("cutoff-n12", "cutoff", None, "cutoff.csv",
                 _cutoff_input, len, _check_cutoff),
    )
}
