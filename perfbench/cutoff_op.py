"""The cutoff check a user runs: both bias points at a raised photon cutoff.

Usage: python3 cutoff_op.py CONFIGS.json OUT_DIR

CONFIGS.json holds a list of configurations in the CLI schema (here the
same eta at n_max = 12, one per bias point).  Each is validated by the
CLI's own validator, built with ``electrolum.build_system``, and read out
through ``DressedSystem.line_fluxes`` and
``DressedSystem.rate_model_fluxes``.  The fluxes go to OUT_DIR/cutoff.csv
and each steady state to OUT_DIR/rho_<k>.npy, so that the checks run in
another process, outside the timed operation.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np

import electrolum
from electrolum.cli import validate_config

COLUMNS = ("mu_mode", "eta", "mu", "f_C", "f_plus", "f_minus",
           "f_C_rate", "f_plus_rate", "f_minus_rate")


def main(argv) -> int:
    config_path, out_dir = argv
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    lines = [",".join(COLUMNS)]
    for k, raw in enumerate(json.loads(Path(config_path).read_text())):
        config = validate_config(raw)
        # looked up on the package at call time, as a user script does
        system = electrolum.build_system(
            config.params(), n_max=config.n_max, mu_mode=config.mu_mode
        )
        master = system.line_fluxes()
        rate = system.rate_model_fluxes()
        values = [config.eta, system.params.mu,
                  master["central"], master["plus"], master["minus"], *rate]
        lines.append(",".join([config.mu_mode] + [f"{float(v):.17g}" for v in values]))
        np.save(out / f"rho_{k}.npy", system.rho_ss)
    (out / "cutoff.csv").write_text("\n".join(lines) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
