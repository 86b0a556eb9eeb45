"""Configuration-driven entry point producing machine-readable emission data.

Two modes, selected with ``--mode``:

* ``spectrum``: one emission spectrum S(omega) on the configured grid,
  written as CSV with ``omega,S`` columns.
* ``sweep``: integrated line fluxes against a swept variable (eta or
  mu), one row per sweep value, with closed-form reference columns.
  Each line's window is integrated in closed form, with no frequency
  grid; the configured ``grid`` serves spectrum mode only.

The configuration is a single JSON file; unknown keys are rejected with
their full path so typos cannot silently fall back to defaults.  Output
files carry '#'-prefixed metadata lines (resolved parameters, package
version) followed by a CSV header and full-precision rows, so a rerun
with the same configuration is byte-identical and every value reparses
exactly.

Exit codes: 0 success, 1 configuration error, 2 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__, ratemodel
from .dissipators import gate_open
from .hilbert import SystemParams
from .linalg import LinalgError
from .pipeline import MU_MODES, build_system
# integrate_peak is unused here: perfbench/traced.py wraps it at this lookup name
from .spectrum import integrate_peak, line_windows, window_capture, window_fluxes

DEFAULTS = {
    "gamma": 0.5e-6,
    "gamma_cav": 7e-4,
    "omega_e": 1.0,
    "omega_s": 0.0,
    "n_max": 8,
    "mu_mode": "omega_G",
    "grid": {"min": 0.5, "max": 1.5, "points": 4001},
    "outputs": {"spectrum": "spectrum.csv", "sweep": "sweep.csv"},
    "methods": {"spectrum": True, "ratemodel": False, "analytic": True},
}

# windows of +-5 half-widths capture (2/pi) arctan 5 of each Lorentzian
# line; integrated fluxes are divided by that fraction so the columns
# estimate total line fluxes
WINDOW_SCALE = 5.0


class ConfigError(ValueError):
    """Invalid or unknown configuration entry; message carries the key path."""


@dataclass(frozen=True)
class RunConfig:
    """Fully validated and defaulted run description."""

    eta: float
    gamma_in: float
    gamma_out: float
    gamma_cav: float
    omega_e: float
    omega_s: float
    n_max: int
    mu_mode: str
    mu: float
    grid: tuple  # (min, max, points)
    sweep: tuple | None  # (variable, values)
    outputs: dict = field(default_factory=dict)
    methods: dict = field(default_factory=dict)

    def params(self, eta: float | None = None, mu: float | None = None) -> SystemParams:
        return SystemParams.from_eta(
            self.eta if eta is None else eta,
            omega_e=self.omega_e,
            omega_s=self.omega_s,
            gamma_in=self.gamma_in,
            gamma_out=self.gamma_out,
            gamma_cav=self.gamma_cav,
            mu=self.mu if mu is None else mu,
        )


def _require_number(value, path, minimum=None, allow_zero=True):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{path}: expected a number, got {value!r}")
    x = float(value)
    if not np.isfinite(x):
        raise ConfigError(f"{path}: must be finite, got {value!r}")
    if minimum is not None and (x < minimum or (not allow_zero and x == minimum)):
        raise ConfigError(f"{path}: must be >= {minimum}, got {value!r}")
    return x


def _check_keys(raw: dict, allowed, path: str):
    unknown = set(raw) - set(allowed)
    if unknown:
        name = sorted(unknown)[0]
        where = f"{path}.{name}" if path else name
        raise ConfigError(f"unknown configuration key: {where}")


def validate_config(raw: dict) -> RunConfig:
    """Validate a parsed JSON tree into a RunConfig; fail closed on anything odd."""
    if not isinstance(raw, dict):
        raise ConfigError("configuration root must be a JSON object")
    allowed = {
        "eta", "rabi", "gamma", "gamma_in", "gamma_out", "gamma_cav",
        "omega_e", "omega_s", "n_max", "mu_mode", "mu", "grid", "sweep",
        "outputs", "methods",
    }
    _check_keys(raw, allowed, "")

    if "eta" in raw and "rabi" in raw:
        raise ConfigError("eta: give either eta or rabi, not both")
    if "eta" in raw:
        eta = _require_number(raw["eta"], "eta", minimum=0.0)
    elif "rabi" in raw:
        eta = _require_number(raw["rabi"], "rabi", minimum=0.0)  # omega_c = 1
    else:
        raise ConfigError("eta: required (coupling strength eta = rabi/omega_c)")

    gamma = _require_number(raw.get("gamma", DEFAULTS["gamma"]), "gamma", minimum=0.0)
    gamma_in = _require_number(raw.get("gamma_in", gamma), "gamma_in", minimum=0.0)
    gamma_out = _require_number(raw.get("gamma_out", gamma), "gamma_out", minimum=0.0)
    gamma_cav = _require_number(
        raw.get("gamma_cav", DEFAULTS["gamma_cav"]), "gamma_cav", minimum=0.0
    )
    omega_e = _require_number(raw.get("omega_e", DEFAULTS["omega_e"]), "omega_e", minimum=0.0)
    omega_s = _require_number(raw.get("omega_s", DEFAULTS["omega_s"]), "omega_s", minimum=0.0)

    n_max = raw.get("n_max", DEFAULTS["n_max"])
    if isinstance(n_max, bool) or not isinstance(n_max, int) or n_max < 1:
        raise ConfigError(f"n_max: expected an integer >= 1, got {n_max!r}")

    mu_mode = raw.get("mu_mode", DEFAULTS["mu_mode"])
    if mu_mode not in MU_MODES:
        raise ConfigError(f"mu_mode: expected one of {MU_MODES}, got {mu_mode!r}")
    if mu_mode == "absolute":
        if "mu" not in raw:
            raise ConfigError("mu: required when mu_mode is 'absolute'")
        mu = _require_number(raw["mu"], "mu")
    else:
        if "mu" in raw:
            raise ConfigError(f"mu: not allowed with symbolic mu_mode {mu_mode!r}")
        mu = 0.0

    grid_raw = raw.get("grid", DEFAULTS["grid"])
    if not isinstance(grid_raw, dict):
        raise ConfigError("grid: expected an object with min/max/points")
    _check_keys(grid_raw, {"min", "max", "points"}, "grid")
    gmin = _require_number(grid_raw.get("min", DEFAULTS["grid"]["min"]), "grid.min")
    gmax = _require_number(grid_raw.get("max", DEFAULTS["grid"]["max"]), "grid.max")
    points = grid_raw.get("points", DEFAULTS["grid"]["points"])
    if isinstance(points, bool) or not isinstance(points, int) or points < 2:
        raise ConfigError(f"grid.points: expected an integer >= 2, got {points!r}")
    if gmax <= gmin:
        raise ConfigError(f"grid.max: must exceed grid.min, got [{gmin}, {gmax}]")

    sweep = None
    if "sweep" in raw:
        sweep_raw = raw["sweep"]
        if not isinstance(sweep_raw, dict):
            raise ConfigError("sweep: expected an object with variable/values")
        _check_keys(sweep_raw, {"variable", "values"}, "sweep")
        variable = sweep_raw.get("variable")
        if variable not in ("eta", "mu"):
            raise ConfigError(f"sweep.variable: expected 'eta' or 'mu', got {variable!r}")
        values = sweep_raw.get("values")
        if not isinstance(values, list) or not values:
            raise ConfigError("sweep.values: expected a non-empty list of numbers")
        values = [
            _require_number(v, f"sweep.values[{i}]",
                            minimum=0.0 if variable == "eta" else None)
            for i, v in enumerate(values)
        ]
        sweep = (variable, tuple(sorted(values)))

    outputs = dict(DEFAULTS["outputs"])
    if "outputs" in raw:
        if not isinstance(raw["outputs"], dict):
            raise ConfigError("outputs: expected an object")
        _check_keys(raw["outputs"], set(outputs), "outputs")
        for key, value in raw["outputs"].items():
            if not isinstance(value, str) or not value:
                raise ConfigError(f"outputs.{key}: expected a file name")
            outputs[key] = value

    methods = dict(DEFAULTS["methods"])
    if "methods" in raw:
        if not isinstance(raw["methods"], dict):
            raise ConfigError("methods: expected an object")
        _check_keys(raw["methods"], set(methods), "methods")
        for key, value in raw["methods"].items():
            if not isinstance(value, bool):
                raise ConfigError(f"methods.{key}: expected true or false")
            methods[key] = value

    return RunConfig(
        eta=eta,
        gamma_in=gamma_in,
        gamma_out=gamma_out,
        gamma_cav=gamma_cav,
        omega_e=omega_e,
        omega_s=omega_s,
        n_max=n_max,
        mu_mode=mu_mode,
        mu=mu,
        grid=(gmin, gmax, points),
        sweep=sweep,
        outputs=outputs,
        methods=methods,
    )


def load_config(path) -> RunConfig:
    try:
        raw = json.loads(Path(path).read_text())
    except OSError as err:
        raise ConfigError(f"cannot read configuration file: {err}") from err
    except json.JSONDecodeError as err:
        raise ConfigError(f"configuration is not valid JSON: {err}") from err
    return validate_config(raw)


def _format(value) -> str:
    return f"{value:.17g}"


def _metadata_lines(config: RunConfig, mode: str, skip=()):
    pairs = [
        ("eta", _format(config.eta)),
        ("gamma_in", _format(config.gamma_in)),
        ("gamma_out", _format(config.gamma_out)),
        ("gamma_cav", _format(config.gamma_cav)),
        ("omega_e", _format(config.omega_e)),
        ("omega_s", _format(config.omega_s)),
        ("n_max", str(config.n_max)),
        ("mu_mode", config.mu_mode),
    ]
    lines = [f"# electrolum {__version__}", f"# mode = {mode}"]
    lines += [f"# {k} = {v}" for k, v in pairs if k not in skip]
    return lines


def run_spectrum(config: RunConfig, out_dir) -> Path:
    """Compute S(omega) on the configured grid and write the spectrum table."""
    system = build_system(config.params(), n_max=config.n_max, mu_mode=config.mu_mode)
    gmin, gmax, points = config.grid
    spec = system.emission_spectrum(np.linspace(gmin, gmax, points))

    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / config.outputs["spectrum"]
    lines = _metadata_lines(config, "spectrum")
    lines += [
        f"# mu = {_format(system.params.mu)}",
        f"# omega_G = {_format(system.basis.omega_ground)}",
        f"# omega_minus = {_format(system.basis.omega_minus)}",
        f"# omega_plus = {_format(system.basis.omega_plus)}",
    ]
    lines.append("omega,S")
    for omega, value in zip(spec.omegas, spec.values):
        lines.append(f"{_format(omega)},{_format(value)}")
    path.write_text("\n".join(lines) + "\n")
    return path


def _row_fluxes(system):
    """Capture-corrected window fluxes of the three lines for one system."""
    windows = line_windows(system.basis, system.channels, scale=WINDOW_SCALE)
    fluxes = window_fluxes(system.lv, system.populations, system.channels, windows)
    return {name: flux / window_capture(WINDOW_SCALE) for name, flux in fluxes.items()}


def _analytic_fluxes(system):
    """Closed-form fluxes in whichever bias regime the gates put the system."""
    p = system.params
    gamma = 0.5 * (p.gamma_in + p.gamma_out)
    # the same gate that opens the injection channel |s,0> -> |->
    basis = system.basis
    if gate_open(p.mu - basis.energies[basis.index_minus]):
        return ratemodel.analytic_el(p.eta, gamma, p.gamma_cav)
    return ratemodel.analytic_gse(p.eta, gamma, p.gamma_cav)


def run_sweep(config: RunConfig, out_dir) -> Path:
    """Integrated line fluxes against the swept variable, one row per value."""
    if config.sweep is None:
        raise ConfigError("sweep.values: a sweep requires sweep.variable and sweep.values")
    variable, values = config.sweep

    columns = [variable]
    if config.methods["spectrum"]:
        columns += ["f_C", "f_plus", "f_minus"]
    if config.methods["analytic"]:
        columns += ["f_C_analytic", "f_plus_analytic", "f_minus_analytic"]
    if config.methods["ratemodel"]:
        columns += ["f_C_rate", "f_plus_rate", "f_minus_rate"]

    rows = []
    for value in values:
        if variable == "eta":
            params = config.params(eta=value)
            system = build_system(params, n_max=config.n_max, mu_mode=config.mu_mode)
        else:
            params = config.params(mu=value)
            system = build_system(params, n_max=config.n_max, mu_mode="absolute")
        row = [value]
        if config.methods["spectrum"]:
            fluxes = _row_fluxes(system)
            row += [fluxes["central"], fluxes["plus"], fluxes["minus"]]
        if config.methods["analytic"]:
            row += list(_analytic_fluxes(system))
        if config.methods["ratemodel"]:
            row += list(system.rate_model_fluxes())
        rows.append(row)

    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / config.outputs["sweep"]
    lines = _metadata_lines(config, "sweep", skip=(variable,))
    lines.append(f"# sweep variable = {variable}")
    lines.append(
        f"# flux windows: +-{WINDOW_SCALE:g} line half-widths, exact integrals "
        f"divided by the captured fraction {_format(window_capture(WINDOW_SCALE))}"
    )
    lines.append(",".join(columns))
    for row in rows:
        lines.append(",".join(_format(x) for x in row))
    path.write_text("\n".join(lines) + "\n")
    return path


def load_table(path):
    """Parse a file written by this module: (metadata, columns, array)."""
    metadata, header, data = [], None, []
    for line in Path(path).read_text().splitlines():
        if line.startswith("#"):
            metadata.append(line[1:].strip())
        elif header is None:
            header = line.split(",")
        else:
            data.append([float(x) for x in line.split(",")])
    return metadata, header, np.array(data)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="electrolum",
        description="Emission spectra and line fluxes of an electrically "
                    "driven, ultrastrongly coupled cavity",
    )
    parser.add_argument("--config", required=True, help="JSON configuration file")
    parser.add_argument("--out", default=".", help="output directory")
    parser.add_argument("--mode", required=True, choices=("spectrum", "sweep"))
    args = parser.parse_args(argv)

    try:
        config = load_config(args.config)
        if args.mode == "spectrum":
            path = run_spectrum(config, args.out)
        else:
            path = run_sweep(config, args.out)
    except ConfigError as err:
        print(f"configuration error: {err}", file=sys.stderr)
        return 1
    except LinalgError as err:
        print(f"numerical failure: {err}", file=sys.stderr)
        return 2
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
