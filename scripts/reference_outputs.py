#!/usr/bin/env python3
"""Write the standard set of CLI tables for a byte-for-byte comparison.

Usage: ``python scripts/reference_outputs.py OUT_DIR``

Every CLI table goes through the command line's own ``validate_config``,
``run_spectrum`` and ``run_sweep``, so it holds exactly the bytes that
``python -m electrolum`` writes for the same configuration.  The readers
table ``readers.csv`` holds what no CLI table reads: the exact
``DressedSystem.line_fluxes()`` and the ``rate_model_fluxes()`` of
systems built through ``validate_config`` and ``build_system``.  Run it
on two versions of the code and compare the directories with
``diff -r``: a change that should not move a result leaves them
identical.

The set (32 files):

* spectra at both symbolic bias points, at eta 0.8 (where the lower
  satellite falls below the default grid) and at an absolute mu;
* eta sweeps at both bias points and a mu sweep, each under all 8
  combinations of the ``methods`` switches;
* an eta sweep at n_max 12;
* a spectrum and a sweep with the ``gamma``, ``gamma_in``,
  ``gamma_cav``, ``omega_e`` and ``omega_s`` overrides;
* the readers table at both symbolic bias points, eta 0.05, 0.1 and 0.3
  and n_max 8 and 12.
"""

import argparse
import itertools
from pathlib import Path

from electrolum import build_system
from electrolum.cli import run_spectrum, run_sweep, validate_config

ETA_VALUES = [0.02, 0.05, 0.1, 0.3, 0.8]
MU_VALUES = [-0.05, -0.002, 0.0, 0.5, 0.96, 1.0, 1.05, 2.1]
OVERRIDES = {"eta": 0.2, "gamma": 2e-6, "gamma_in": 1e-6, "gamma_cav": 1e-3,
             "omega_e": 1.1, "omega_s": 0.3}
READER_COLUMNS = ("mu_mode", "eta", "n_max", "f_C", "f_plus", "f_minus",
                  "f_C_rate", "f_plus_rate", "f_minus_rate")


def runs():
    """(file name, mode, raw configuration) of every table in the set."""
    for name, mode in (("low_bias", "omega_G"), ("high_bias", "omega_G_plus_omega_plus")):
        yield f"spectrum_{name}", "spectrum", {"eta": 0.1, "mu_mode": mode}
    yield "spectrum_eta_0.8", "spectrum", {"eta": 0.8}
    yield "spectrum_absolute_mu", "spectrum", {"eta": 0.1, "mu_mode": "absolute", "mu": 0.96}

    for switches in itertools.product((False, True), repeat=3):
        methods = dict(zip(("spectrum", "analytic", "ratemodel"), switches))
        tag = "".join(str(int(s)) for s in switches)
        for name, mode in (("low_bias", "omega_G"),
                           ("high_bias", "omega_G_plus_omega_plus")):
            yield f"sweep_eta_{name}_{tag}", "sweep", {
                "eta": ETA_VALUES[0], "mu_mode": mode, "methods": methods,
                "sweep": {"variable": "eta", "values": ETA_VALUES}}
        yield f"sweep_mu_{tag}", "sweep", {
            "eta": 0.1, "methods": methods,
            "sweep": {"variable": "mu", "values": MU_VALUES}}

    yield "sweep_eta_n_max_12", "sweep", {
        "eta": ETA_VALUES[0], "n_max": 12,
        "methods": {"spectrum": True, "analytic": True, "ratemodel": True},
        "sweep": {"variable": "eta", "values": ETA_VALUES}}
    yield "spectrum_overrides", "spectrum", OVERRIDES
    yield "sweep_overrides", "sweep", {
        **OVERRIDES, "methods": {"spectrum": True, "analytic": True, "ratemodel": True},
        "sweep": {"variable": "eta", "values": ETA_VALUES}}


def readers_table() -> str:
    """``line_fluxes()`` and ``rate_model_fluxes()`` per system, as full-precision CSV."""
    lines = [",".join(READER_COLUMNS)]
    for mode, eta, n_max in itertools.product(
            ("omega_G", "omega_G_plus_omega_plus"), (0.05, 0.1, 0.3), (8, 12)):
        config = validate_config({"eta": eta, "n_max": n_max, "mu_mode": mode})
        system = build_system(config.params(), n_max=config.n_max, mu_mode=config.mu_mode)
        exact = system.line_fluxes()
        values = [exact["central"], exact["plus"], exact["minus"], *system.rate_model_fluxes()]
        lines.append(",".join([mode, f"{eta:.17g}", str(n_max)]
                              + [f"{float(v):.17g}" for v in values]))
    return "\n".join(lines) + "\n"


def main():
    parser = argparse.ArgumentParser(
        description="Write the standard byte-check set of CLI tables.")
    parser.add_argument("out_dir", type=Path, help="output directory")
    args = parser.parse_args()

    for name, mode, raw in runs():
        config = validate_config({**raw, "outputs": {mode: f"{name}.csv"}})
        run = run_spectrum if mode == "spectrum" else run_sweep
        print(run(config, args.out_dir))
    path = args.out_dir / "readers.csv"
    path.write_text(readers_table())
    print(path)


if __name__ == "__main__":
    main()
