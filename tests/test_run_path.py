"""The run path (CLI, system build, fluxes) imports neither scipy nor numpy.ma.

scipy costs about a third of a second and tens of megabytes to import,
more than the physics of a whole CLI run, so a lazy scipy import slipped
into any production module would quietly undo that.  ``numpy.ma`` costs
15 to 20 ms, a third of a sweep's own computation, and numpy functions
such as ``np.unique`` import it lazily on first call.  The check runs in
a fresh interpreter in which ``import scipy`` fails, and asserts after
the runs that ``numpy.ma`` was never loaded.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import electrolum

SCRIPT = """
import json, sys
sys.modules["scipy"] = None  # every "import scipy..." now raises ImportError

from electrolum import SystemParams, build_system
from electrolum.cli import main

config, out = sys.argv[1:]
for mode in ("spectrum", "sweep"):
    code = main(["--config", config, "--out", out, "--mode", mode])
    assert code == 0, (mode, code)
system = build_system(SystemParams.from_eta(0.1), n_max=2, mu_mode="omega_G")
print(json.dumps([system.line_fluxes(), list(system.rate_model_fluxes())]))
assert "numpy.ma" not in sys.modules, "numpy.ma was imported on the run path"
"""


def test_cli_and_build_run_without_scipy(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "eta": 0.1,
        "n_max": 2,
        "grid": {"min": 0.9, "max": 1.1, "points": 51},
        "sweep": {"variable": "eta", "values": [0.05, 0.1]},
        "methods": {"spectrum": True, "analytic": True, "ratemodel": True},
    }))
    src = str(Path(electrolum.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, "-c", SCRIPT, str(config), str(tmp_path)],
                            env=env, capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    master, rate = json.loads(result.stdout.splitlines()[-1])
    assert master["central"] > 0 and all(f > 0 for f in rate)
    assert (tmp_path / "spectrum.csv").is_file() and (tmp_path / "sweep.csv").is_file()
