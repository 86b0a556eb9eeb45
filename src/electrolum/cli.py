"""Configuration-driven entry point producing machine-readable emission data.

Two modes, selected with ``--mode``:

* ``spectrum``: one emission spectrum S(omega) on the configured grid,
  written as CSV with ``omega,S`` columns.
* ``sweep``: integrated line fluxes against a swept variable (eta or
  mu), one row per sweep value, with closed-form reference columns.
  Each line's window is integrated in closed form, with no frequency
  grid; the configured ``grid`` serves spectrum mode only.

The configuration is a single JSON file, read as UTF-8 on any locale.
Unknown keys are rejected with their full path so typos cannot silently
fall back to defaults.  The physical constants are the fields of
``SystemParams``, each finite and >= 0 but ``mu``, and a missing one keeps
its ``SystemParams`` default; ``n_max``, ``mu_mode`` and ``grid`` default
from ``settings``.  Each ``methods`` switch defaults from its column
group's row of ``_SWEEP_GROUPS``.  The run table ``_RUNS`` gives the
``--mode`` choices, and ``outputs.<mode>`` defaults to ``<mode>.csv``.
``n_max`` and ``grid.points`` are capped at ``settings.MAX_N_MAX`` and
``settings.MAX_GRID_POINTS``, and the grid's step must be finite and at
least ``settings.GRID_STEP_ULPS`` ulps of its larger end, so that it
stays strictly ascending.  Output files carry '#'-prefixed metadata
lines (resolved parameters, package version) followed by a CSV header
and full-precision rows, so a rerun with the same configuration is
byte-identical and every value reparses exactly.

Exit codes: 0 success, 1 configuration or command-line usage error,
2 numerical failure (no unique stationary state, arithmetic overflow, or
a non-finite value for a table, which is then not written).

Validation, ``--help`` and every configuration error import only the
standard library and ``settings``, and of the standard library neither
``inspect`` (the records are ``typing.NamedTuple``s) nor, for validation
alone, ``argparse``, which only :func:`main` imports.  Each run function
imports the numerical modules (and numpy) where it calls them, so only a
run pays for them.
"""

from __future__ import annotations

import json
import math
import sys
import warnings
from operator import itemgetter, methodcaller
from pathlib import Path
from typing import NamedTuple

from . import LinalgError, __version__, build_system
from .settings import (DEFAULT_GRID, DEFAULT_MU_MODE, DEFAULT_N_MAX, GRID_STEP_ULPS,
                       MAX_GRID_POINTS, MAX_N_MAX, MU_MODES, WINDOW_SCALE, SystemParams)


# perfbench/traced.py wraps cli.build_system (the package's function, imported
# above), cli.line_windows and cli.integrate_peak; the run calls build_system
# and line_windows through this module's globals, so it calls the wrappers
def line_windows(*args, **kwargs):
    from . import spectrum
    return spectrum.line_windows(*args, **kwargs)


def integrate_peak(*args, **kwargs):
    from . import spectrum
    return spectrum.integrate_peak(*args, **kwargs)


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

    def params(self, **changes) -> SystemParams:
        """``base`` with the given values, checked again as a new SystemParams."""
        return self.base._replace(**changes)


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


def _require_int(value, path, minimum, maximum):
    if (isinstance(value, bool) or not isinstance(value, int)
            or not minimum <= value <= maximum):
        raise ConfigError(f"{path}: expected an integer in [{minimum}, {maximum}], "
                          f"got {value!r}")
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
    _check_keys(raw, {*SystemParams._fields, "n_max", "mu_mode", "grid", "sweep", "outputs",
                      "methods"}, "")

    if "eta" not in raw:
        raise ConfigError("eta: required (coupling strength eta = Omega_R/omega_c)")
    # absent constants keep their SystemParams defaults; all but mu (below) are >= 0
    constants = {name: _require_number(raw[name], name, minimum=0.0)
                 for name in SystemParams._fields if name in raw and name != "mu"}
    # the closed forms divide by it, and without it no photon leaves
    if constants.get("gamma_cav") == 0.0:
        raise ConfigError(f"gamma_cav: must be > 0, got {raw['gamma_cav']!r}")

    n_max = _require_int(raw.get("n_max", DEFAULT_N_MAX), "n_max", 1, MAX_N_MAX)

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
    mu_mode = raw.get("mu_mode", "absolute" if mu_swept else DEFAULT_MU_MODE)
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
         "points": lambda value, path: _require_int(value, path, 2, MAX_GRID_POINTS)},
    )
    lo, hi, points = grid["min"], grid["max"], grid["points"]
    if hi <= lo:
        raise ConfigError(f"grid.max: must exceed grid.min, got [{lo}, {hi}]")
    step = (hi - lo) / (points - 1)  # np.linspace's step
    if step == math.inf:
        raise ConfigError(f"grid: max - min overflows, got [{lo}, {hi}]")
    # a subnormal step carries too few bits for settings.GRID_STEP_ULPS to hold
    least = GRID_STEP_ULPS * max(math.ulp(max(abs(lo), abs(hi))), sys.float_info.min)
    if step < least:
        raise ConfigError(f"grid: {points} points in [{lo}, {hi}] are closer than float "
                          f"resolution allows: step {step:.3g} < {least:.3g}")

    outputs = _config_object(raw, "outputs", {mode: f"{mode}.csv" for mode in _RUNS},
                             dict.fromkeys(_RUNS, _require_file_name))
    methods = _config_object(raw, "methods", {key: on for key, on, *_ in _SWEEP_GROUPS},
                             {key: _require_bool for key, *_ in _SWEEP_GROUPS})

    return RunConfig(
        base=SystemParams(**constants),
        n_max=n_max,
        mu_mode=mu_mode,
        grid=(lo, hi, points),
        sweep=sweep,
        outputs=outputs,
        methods=methods,
    )


def load_config(path) -> RunConfig:
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
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
    ``notes``; then come the CSV header and one full-precision line per
    row.  A non-finite value raises ``LinalgError`` before anything is
    written.
    """
    import numpy as np

    table = np.asarray(rows, dtype=float)
    finite = np.isfinite(table).all(axis=0)
    if not finite.all():
        bad = [name for name, ok in zip(columns, finite) if not ok]
        raise LinalgError(f"non-finite values in {', '.join(bad)}; no {mode} table written")
    settings = {name: _format(getattr(config.base, name)) for name in
                ("eta", "gamma_in", "gamma_out", "gamma_cav", "omega_e")}
    settings.update(n_max=config.n_max, mu_mode=config.mu_mode)
    if mode == "sweep":
        settings.pop(config.sweep[0], None)
    meta = [f"electrolum {__version__}", f"mode = {mode}"]
    meta += [f"{name} = {value}" for name, value in settings.items()] + notes
    out_dir = Path(out_dir)
    path = out_dir / config.outputs[mode]
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        # row by row: a joined table costs several times its size
        with path.open("w", encoding="utf-8") as file:
            file.writelines(f"# {line}\n" for line in meta)
            file.write(",".join(columns) + "\n")
            file.writelines(",".join(map(_format, row)) + "\n" for row in table)
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
    centers = emission_line_centers(system.basis)
    outside = [f"{name} at {center:.6g}" for name, center in centers.items()
               if not gmin <= center <= gmax]
    if outside:
        warnings.warn(f"line centers outside the grid [{gmin:g}, {gmax:g}]: "
                      + ", ".join(outside), stacklevel=2)

    notes = [f"{name} = {_format(value)}" for name, value in (
        ("mu", system.params.mu), ("omega_G", system.basis.omega_ground),
        ("omega_minus", centers["minus"]), ("omega_plus", centers["plus"]))]
    return _write_table(config, "spectrum", out_dir, notes, ("omega", "S"),
                        np.column_stack((spec.omegas, spec.values)))


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


# the sweep's optional column groups in CSV order:
# (methods key, on by default, column names, reader)
_SWEEP_GROUPS = (
    ("spectrum", True, ("f_C", "f_plus", "f_minus"),
     lambda system: itemgetter("central", "plus", "minus")(window_line_fluxes(system))),
    ("analytic", True, ("f_C_analytic", "f_plus_analytic", "f_minus_analytic"),
     methodcaller("analytic_fluxes")),
    ("ratemodel", False, ("f_C_rate", "f_plus_rate", "f_minus_rate"),
     methodcaller("rate_model_fluxes")),
)


def run_sweep(config: RunConfig, out_dir) -> Path:
    """Integrated line fluxes against the swept variable, one row per value."""
    if config.sweep is None:
        raise ConfigError("sweep.values: a sweep requires sweep.variable and sweep.values")
    from .spectrum import window_capture

    variable, values = config.sweep
    groups = [(names, fluxes) for key, _, names, fluxes in _SWEEP_GROUPS if config.methods[key]]

    columns = [variable] + [name for names, _ in groups for name in names]
    rows = []
    for value in values:
        system = build_system(config.params(**{variable: value}), n_max=config.n_max,
                              mu_mode=config.mu_mode)
        rows.append([value] + [x for _, fluxes in groups for x in fluxes(system)])

    notes = [f"sweep variable = {variable}"]
    if variable == "eta" and config.mu_mode == "absolute":  # a mu sweep has it as a column
        notes.insert(0, f"mu = {_format(config.base.mu)}")
    if config.methods["spectrum"]:
        notes.append(f"flux windows: +-{WINDOW_SCALE:g} line half-widths, exact integrals "
                     f"divided by the captured fraction {_format(window_capture(WINDOW_SCALE))}")
    return _write_table(config, "sweep", out_dir, notes, columns, rows)


# --mode: each mode's run, which writes the table outputs.<mode> (default <mode>.csv)
_RUNS = {"spectrum": run_spectrum, "sweep": run_sweep}


def load_table(path):
    """Parse a file written by this module: (metadata, columns, array)."""
    import numpy as np

    metadata, header, data = [], None, []
    for line in Path(path).read_text(encoding="utf-8").splitlines():
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
    parser.add_argument("--mode", required=True, choices=_RUNS)
    try:
        args = parser.parse_args(argv)
    except SystemExit as done:  # --help, or a usage error that argparse printed
        return 1 if done.code else 0

    try:
        config = load_config(args.config)
        path = _RUNS[args.mode](config, args.out)
    except ConfigError as err:
        print(f"configuration error: {err}", file=sys.stderr)
        return 1
    except LinalgError as err:
        print(f"numerical failure: {err}", file=sys.stderr)
        return 2
    except OverflowError as err:  # Python float arithmetic past the float range
        print(f"numerical failure: arithmetic overflow: {err}", file=sys.stderr)
        return 2
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
