"""Configuration-driven entry point producing machine-readable emission data.

Two modes, selected with ``--mode``:

* ``spectrum``: one emission spectrum S(omega) on the configured grid,
  written as CSV with ``omega,S`` columns.
* ``sweep``: integrated line fluxes against a swept variable (eta or
  mu), one row per sweep value, with closed-form reference columns.
  Each line's window is integrated in closed form, with no frequency
  grid; the configured ``grid`` serves spectrum mode only.

The configuration is a single JSON file; unknown keys are rejected with
their full path so typos cannot silently fall back to defaults.  A
missing key takes the default of the module that owns it: the physical
constants from ``SystemParams``, ``n_max``, ``grid`` and the flux-window
scale from ``settings`` (``DEFAULT_N_MAX``, ``DEFAULT_GRID``,
``WINDOW_SCALE``); only ``mu_mode``, ``outputs`` and ``methods`` default here
(``DEFAULTS``).  Output files carry '#'-prefixed metadata lines
(resolved parameters, package version) followed by a CSV header and
full-precision rows, so a rerun with the same configuration is
byte-identical and every value reparses exactly.

Exit codes: 0 success, 1 configuration error, 2 numerical failure.

Validation, ``--help`` and every configuration error import only the
standard library, ``hilbert`` and ``settings``, and of the standard
library neither ``inspect`` (the records are ``typing.NamedTuple``s) nor,
for validation alone, ``argparse``, which only :func:`main` imports.  Each
run function imports the numerical modules (and numpy) where it calls
them, so only a run pays for them.
"""

from __future__ import annotations

import json
import math
import sys
import warnings
from operator import itemgetter
from pathlib import Path
from typing import NamedTuple

from . import __version__
from .hilbert import SystemParams
from .settings import DEFAULT_GRID, DEFAULT_N_MAX, MU_MODES, WINDOW_SCALE


# perfbench/traced.py wraps these here; the run calls build_system and line_windows here
def build_system(*args, **kwargs):
    from . import pipeline
    return pipeline.build_system(*args, **kwargs)


def line_windows(*args, **kwargs):
    from . import spectrum
    return spectrum.line_windows(*args, **kwargs)


def integrate_peak(*args, **kwargs):
    from . import spectrum
    return spectrum.integrate_peak(*args, **kwargs)


# defaults of the settings that no other module owns
DEFAULTS = {
    "mu_mode": "omega_G",
    "outputs": {"spectrum": "spectrum.csv", "sweep": "sweep.csv"},
    "methods": {"spectrum": True, "ratemodel": False, "analytic": True},
}


class ConfigError(ValueError):
    """Invalid or unknown configuration entry; message carries the key path."""


class RunConfig(NamedTuple):
    """Fully validated and defaulted run description."""

    base: SystemParams  # mu is 0 unless the configuration gives it
    n_max: int
    mu_mode: str
    grid: tuple  # (min, max, points)
    sweep: tuple | None  # (variable, values)
    outputs: dict  # mode -> bare file name
    methods: dict  # methods key -> bool

    @property
    def eta(self) -> float:
        return self.base.eta

    def params(self, eta: float | None = None, mu: float | None = None) -> SystemParams:
        """``base`` with the given values, checked again as a new SystemParams."""
        changes = {"eta": eta, "mu": mu}
        return self.base._replace(**{k: v for k, v in changes.items() if v is not None})


def _require_number(value, path, minimum=None):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{path}: expected a number, got {value!r}")
    try:
        x = float(value)
    except OverflowError:  # an integer beyond the float range
        x = math.inf
    if not math.isfinite(x):
        raise ConfigError(f"{path}: must be finite, got {value!r}")
    if minimum is not None and x < minimum:
        raise ConfigError(f"{path}: must be >= {minimum}, got {value!r}")
    return x


def _require_int(value, path, minimum):
    if isinstance(value, bool) or not isinstance(value, int) or value < minimum:
        raise ConfigError(f"{path}: expected an integer >= {minimum}, got {value!r}")
    return value


def _require_file_name(value, path):
    """A bare file name, written inside ``--out``: no directory part or NUL, not ``.``/``..``."""
    if (not isinstance(value, str) or value in ("", ".", "..") or "\0" in value
            or Path(value).name != value):
        raise ConfigError(f"{path}: expected a bare file name, got {value!r}")
    return value


def _require_bool(value, path):
    if not isinstance(value, bool):
        raise ConfigError(f"{path}: expected true or false")
    return value


def _check_keys(raw: dict, allowed, path: str):
    unknown = set(raw) - set(allowed)
    if unknown:
        name = sorted(unknown)[0]
        where = f"{path}.{name}" if path else name
        raise ConfigError(f"unknown configuration key: {where}")


def _config_object(raw: dict, name: str, defaults: dict, checks: dict) -> dict:
    """``defaults`` overridden by the object ``raw[name]``, each entry vetted by ``checks``."""
    given = raw.get(name, {})
    if not isinstance(given, dict):
        raise ConfigError(f"{name}: expected an object with {'/'.join(defaults)}")
    _check_keys(given, defaults, name)
    return {key: checks[key](given[key], f"{name}.{key}") if key in given else default
            for key, default in defaults.items()}


def validate_config(raw: dict) -> RunConfig:
    """Validate a parsed JSON tree into a RunConfig; fail closed on anything odd."""
    if not isinstance(raw, dict):
        raise ConfigError("configuration root must be a JSON object")
    allowed = {
        "eta", "gamma", "gamma_in", "gamma_out", "gamma_cav",
        "omega_e", "omega_s", "n_max", "mu_mode", "mu", "grid", "sweep",
        "outputs", "methods",
    }
    _check_keys(raw, allowed, "")

    if "eta" not in raw:
        raise ConfigError("eta: required (coupling strength eta = Omega_R/omega_c)")
    eta = _require_number(raw["eta"], "eta", minimum=0.0)

    # absent constants keep their SystemParams defaults; gamma sets both electron rates
    constants = {}
    if "gamma" in raw:
        constants["gamma_in"] = constants["gamma_out"] = _require_number(
            raw["gamma"], "gamma", minimum=0.0)
    for name in ("gamma_in", "gamma_out", "gamma_cav", "omega_e", "omega_s"):
        if name in raw:
            constants[name] = _require_number(raw[name], name, minimum=0.0)
    # the closed forms divide by it, and without it no photon leaves
    if constants.get("gamma_cav") == 0.0:
        raise ConfigError(f"gamma_cav: must be > 0, got {raw['gamma_cav']!r}")

    n_max = _require_int(raw.get("n_max", DEFAULT_N_MAX), "n_max", 1)

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

    # a swept mu is an absolute chemical potential, and the sweep supplies it
    mu_swept = sweep is not None and sweep[0] == "mu"
    mu_mode = raw.get("mu_mode", "absolute" if mu_swept else DEFAULTS["mu_mode"])
    if mu_mode not in MU_MODES:
        raise ConfigError(f"mu_mode: expected one of {MU_MODES}, got {mu_mode!r}")
    if mu_swept:
        if mu_mode != "absolute":
            raise ConfigError(f"mu_mode: a mu sweep takes absolute mu values, got {mu_mode!r}")
        if "mu" in raw:
            raise ConfigError("mu: not allowed with a mu sweep, which supplies it")
    elif mu_mode == "absolute":
        if "mu" not in raw:
            raise ConfigError("mu: required when mu_mode is 'absolute'")
        constants["mu"] = _require_number(raw["mu"], "mu")
    elif "mu" in raw:
        raise ConfigError(f"mu: not allowed with symbolic mu_mode {mu_mode!r}")

    grid = _config_object(
        raw, "grid", dict(zip(("min", "max", "points"), DEFAULT_GRID)),
        {"min": _require_number, "max": _require_number,
         "points": lambda value, path: _require_int(value, path, 2)},
    )
    if grid["max"] <= grid["min"]:
        raise ConfigError(f"grid.max: must exceed grid.min, got [{grid['min']}, {grid['max']}]")

    outputs = _config_object(raw, "outputs", DEFAULTS["outputs"],
                             dict.fromkeys(DEFAULTS["outputs"], _require_file_name))
    methods = _config_object(raw, "methods", DEFAULTS["methods"],
                             dict.fromkeys(DEFAULTS["methods"], _require_bool))

    return RunConfig(
        base=SystemParams(eta=eta, **constants),
        n_max=n_max,
        mu_mode=mu_mode,
        grid=(grid["min"], grid["max"], grid["points"]),
        sweep=sweep,
        outputs=outputs,
        methods=methods,
    )


def load_config(path) -> RunConfig:
    try:
        raw = json.loads(Path(path).read_text())
    except OSError as err:
        raise ConfigError(f"cannot read configuration file: {err}") from err
    except UnicodeDecodeError as err:
        raise ConfigError(f"configuration is not UTF-8 text: {err}") from err
    except ValueError as err:  # JSONDecodeError, or an integer past the digit limit
        raise ConfigError(f"configuration is not valid JSON: {err}") from err
    return validate_config(raw)


def _format(value) -> str:
    return f"{value:.17g}"


def _write_table(config: RunConfig, mode: str, out_dir, notes, columns, rows) -> Path:
    """Write the ``mode`` table that :func:`load_table` reads back; return its path.

    '#' lines carry the package version, the mode, the resolved constants
    (less a swept one, which has its own column), n_max, mu_mode and the
    ``notes``; then come the CSV header and one full-precision line per row.
    """
    settings = {name: _format(getattr(config.base, name)) for name in
                ("eta", "gamma_in", "gamma_out", "gamma_cav", "omega_e", "omega_s")}
    settings.update(n_max=config.n_max, mu_mode=config.mu_mode)
    if mode == "sweep":
        settings.pop(config.sweep[0], None)
    meta = [f"electrolum {__version__}", f"mode = {mode}"]
    meta += [f"{name} = {value}" for name, value in settings.items()] + notes
    lines = [f"# {line}" for line in meta] + [",".join(columns)]
    lines += [",".join(_format(x) for x in row) for row in rows]
    out_dir = Path(out_dir)
    path = out_dir / config.outputs[mode]
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        path.write_text("\n".join(lines) + "\n")
    except OSError as err:
        raise ConfigError(f"cannot write {path}: {err}") from err
    return path


def run_spectrum(config: RunConfig, out_dir) -> Path:
    """Compute S(omega) on the configured grid and write the spectrum table.

    Warns, naming each line, when a reported line's center lies outside
    the grid: the table then has no peak for that line.
    """
    import numpy as np

    from .spectrum import emission_line_centers

    system = build_system(config.params(), n_max=config.n_max, mu_mode=config.mu_mode)
    gmin, gmax, points = config.grid
    spec = system.emission_spectrum(np.linspace(gmin, gmax, points))
    outside = [f"{name} at {center:.6g}"
               for name, center in emission_line_centers(system.basis).items()
               if not gmin <= center <= gmax]
    if outside:
        warnings.warn(f"line centers outside the grid [{gmin:g}, {gmax:g}]: "
                      + ", ".join(outside), stacklevel=2)

    basis = system.basis
    notes = [f"{name} = {_format(value)}" for name, value in (
        ("mu", system.params.mu), ("omega_G", basis.omega_ground),
        ("omega_minus", basis.omega_minus), ("omega_plus", basis.omega_plus))]
    return _write_table(config, "spectrum", out_dir, notes, ("omega", "S"),
                        zip(spec.omegas, spec.values))


def window_line_fluxes(system) -> dict:
    """Window estimate of each line's flux, as the sweep's ``f_*`` columns report it.

    Returns ``{"central", "plus", "minus"}`` -> the exact integral of the
    spectrum over the line's window (``line_windows``, +-``WINDOW_SCALE``
    half-widths), divided by the fraction of one Lorentzian line that the
    window captures.  Tails of neighbouring lines inside a window are
    counted, as a measured spectrum counts them; ``system.line_fluxes()``
    gives the exact channel-resolved fluxes.
    """
    from .spectrum import window_capture, window_fluxes

    windows = line_windows(system.basis, system.channels)
    fluxes = window_fluxes(system, windows)
    return {name: flux / window_capture(WINDOW_SCALE) for name, flux in fluxes.items()}


def _analytic_fluxes(system):
    """Closed-form fluxes in whichever bias regime the gates put the system.

    A system that carries no current is dark, so every closed form reads
    0 there: the gate of |s,0> -> |G> is shut, or either electron rate is 0.
    """
    from . import ratemodel
    from .dissipators import gate_open

    p, basis = system.params, system.basis
    if not (gate_open(p.mu - basis.omega_ground) and p.gamma_in > 0 and p.gamma_out > 0):
        return 0.0, 0.0, 0.0
    gamma = 0.5 * (p.gamma_in + p.gamma_out)
    # the same gate that opens the injection channel |s,0> -> |->
    if gate_open(p.mu - basis.energies[basis.index_minus]):
        return ratemodel.analytic_el(p.eta, gamma, p.gamma_cav)
    return ratemodel.analytic_gse(p.eta, gamma, p.gamma_cav)


# the sweep's optional column groups in CSV order:
# (methods key, column names, the columns' values for one system)
_SWEEP_GROUPS = (
    ("spectrum", ("f_C", "f_plus", "f_minus"),
     lambda system: itemgetter("central", "plus", "minus")(window_line_fluxes(system))),
    ("analytic", ("f_C_analytic", "f_plus_analytic", "f_minus_analytic"), _analytic_fluxes),
    ("ratemodel", ("f_C_rate", "f_plus_rate", "f_minus_rate"),
     lambda system: system.rate_model_fluxes()),
)


def run_sweep(config: RunConfig, out_dir) -> Path:
    """Integrated line fluxes against the swept variable, one row per value."""
    if config.sweep is None:
        raise ConfigError("sweep.values: a sweep requires sweep.variable and sweep.values")
    from .spectrum import window_capture

    variable, values = config.sweep
    groups = [(names, fluxes) for key, names, fluxes in _SWEEP_GROUPS if config.methods[key]]

    columns = [variable] + [name for names, _ in groups for name in names]
    rows = []
    for value in values:
        system = build_system(config.params(**{variable: value}), n_max=config.n_max,
                              mu_mode=config.mu_mode)
        rows.append([value] + [x for _, fluxes in groups for x in fluxes(system)])

    notes = [f"sweep variable = {variable}"]
    if config.methods["spectrum"]:
        notes.append(f"flux windows: +-{WINDOW_SCALE:g} line half-widths, exact integrals "
                     f"divided by the captured fraction {_format(window_capture(WINDOW_SCALE))}")
    return _write_table(config, "sweep", out_dir, notes, columns, rows)


def load_table(path):
    """Parse a file written by this module: (metadata, columns, array)."""
    import numpy as np

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
    import argparse  # here, not at the top: validation alone never parses arguments

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
    # only a loaded linalg raises LinalgError; until then () matches nothing,
    # so a failed import (a broken numpy, an interrupt) propagates as itself
    except getattr(sys.modules.get(f"{__package__}.linalg"), "LinalgError", ()) as err:
        print(f"numerical failure: {err}", file=sys.stderr)
        return 2
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
