"""What the run path imports, and the lazily bound names it relies on.

scipy costs about a third of a second and tens of megabytes to import,
more than the physics of a whole CLI run, so a lazy scipy import slipped
into any production module would quietly undo that.  ``numpy.ma`` costs
15 to 20 ms, a third of a sweep's own computation, and numpy functions
such as ``np.unique`` import it lazily on first call.  numpy itself
costs about 100 ms, and validating a configuration, ``--help`` and a
configuration error need none of it: the front door (``electrolum``,
``electrolum.cli``, ``hilbert`` and ``settings``) imports no numpy, and
the numerical names load on first use.  Every check runs in a fresh interpreter, since
this process has long loaded numpy.
"""

import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import electrolum
from electrolum import cli
from perfbench_files import load

SRC = str(Path(electrolum.__file__).resolve().parents[1])

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

SMALL_CONFIG = {
    "eta": 0.1,
    "n_max": 2,
    "grid": {"min": 0.9, "max": 1.1, "points": 51},
    "sweep": {"variable": "eta", "values": [0.05, 0.1, 0.2]},
    "methods": {"spectrum": True, "analytic": True, "ratemodel": True},
}

NO_NUMPY = """
numpy = sorted(m for m in sys.modules if m == "numpy" or m.startswith("numpy."))
assert not numpy, f"numpy loaded: {numpy[:5]}"
"""


def python(*args):
    """Run a fresh interpreter with this checkout's electrolum on its path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *map(str, args)], env=env,
                          capture_output=True, text=True, timeout=120)


def imported_numpy(stderr):
    """numpy modules that ``python -X importtime`` reports as imported."""
    names = (line.rsplit("|", 1)[-1].strip() for line in stderr.splitlines()
             if line.startswith("import time:"))
    return [name for name in names if name == "numpy" or name.startswith("numpy.")]


@pytest.fixture
def small_config(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(SMALL_CONFIG))
    return path


def test_cli_and_build_run_without_scipy(small_config, tmp_path):
    result = python("-c", SCRIPT, small_config, tmp_path)
    assert result.returncode == 0, result.stderr
    master, rate = json.loads(result.stdout.splitlines()[-1])
    assert master["central"] > 0 and all(f > 0 for f in rate)
    assert (tmp_path / "spectrum.csv").is_file() and (tmp_path / "sweep.csv").is_file()


class TestNumpyFreeFrontDoor:
    @pytest.mark.parametrize("name", sorted(load("workloads").WORKLOADS))
    def test_setup_probe_validates_without_numpy(self, name, tmp_path):
        # the benchmark's own set-up probe on the workload's seeded inputs
        workload = load("workloads").WORKLOADS[name]
        probe = load("run").SETUP_PROBE
        for seed in (1, 2, 3):
            path = tmp_path / f"input{seed}.json"
            path.write_text(json.dumps(workload.make_input(random.Random(seed))))
            result = python("-c", probe + "\n" + NO_NUMPY, path)
            assert result.returncode == 0, result.stderr

    def test_help_loads_no_numpy(self):
        result = python("-X", "importtime", "-m", "electrolum", "--help")
        assert result.returncode == 0, result.stderr
        assert "--config" in result.stdout
        assert imported_numpy(result.stderr) == []

    # the last is valid, but a sweep needs its sweep block
    @pytest.mark.parametrize("payload", [{"eta": 0.1, "typo": 1}, {"eta": -1.0}, "not json",
                                         {"eta": 0.1}])
    def test_configuration_error_loads_no_numpy(self, payload, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(payload if isinstance(payload, str) else json.dumps(payload))
        result = python("-X", "importtime", "-m", "electrolum", "--config", path,
                        "--out", tmp_path, "--mode", "sweep")
        assert result.returncode == 1
        assert "configuration error:" in result.stderr
        assert imported_numpy(result.stderr) == []
        assert not (tmp_path / "sweep.csv").exists()

    def test_failed_bind_raises_its_own_error(self, small_config, tmp_path):
        # main's handler for LinalgError, unbound until the run path is,
        # must not turn numpy's ImportError into a NameError
        script = """
import sys
sys.modules["numpy"] = None  # "import numpy" now raises ImportError
from electrolum.cli import main
main(["--config", sys.argv[1], "--out", sys.argv[2], "--mode", "sweep"])
"""
        result = python("-c", script, small_config, tmp_path)
        assert result.returncode == 1
        assert "NameError" not in result.stderr, result.stderr
        assert result.stderr.strip().splitlines()[-1].startswith(
            "ModuleNotFoundError: import of numpy halted"), result.stderr


class TestLazySurface:
    @pytest.mark.parametrize("source", ["cli", "owner"])
    def test_rebound_run_path_names_are_called(self, source, small_config, tmp_path):
        # perfbench/traced.py replaces cli.build_system and cli.line_windows
        # before main runs; the sweep must call the replacements.  The
        # wrapped function is read from cli itself (which binds the run
        # path) or from its defining module (cli's name still unbound).
        script = f"""
import json, sys
import electrolum.cli as cli
owners = {{"build_system": "electrolum.pipeline", "line_windows": "electrolum.spectrum"}}
calls = dict.fromkeys(owners, 0)

def counting(name):
    if {source!r} == "cli":
        fn = getattr(cli, name)
    else:
        fn = getattr(__import__(owners[name], fromlist=[name]), name)

    def wrapper(*args, **kwargs):
        calls[name] += 1
        return fn(*args, **kwargs)
    return wrapper

for name in owners:
    setattr(cli, name, counting(name))
config, out = sys.argv[1:]
assert cli.main(["--config", config, "--out", out, "--mode", "sweep"]) == 0
print(json.dumps(calls))
"""
        result = python("-c", script, small_config, tmp_path)
        assert result.returncode == 0, result.stderr
        values = len(SMALL_CONFIG["sweep"]["values"])
        assert json.loads(result.stdout.splitlines()[-1]) == {
            "build_system": values, "line_windows": values}

    @pytest.mark.parametrize("mode", ["spectrum", "sweep"])
    def test_run_functions_work_without_main(self, mode, small_config, tmp_path):
        # called first thing in a fresh interpreter, the run writes the
        # same bytes as main does here
        expected = tmp_path / "main"
        assert cli.main(["--config", str(small_config), "--out", str(expected),
                         "--mode", mode]) == 0
        script = f"""
import sys
from electrolum.cli import load_config, run_{mode}
print(run_{mode}(load_config(sys.argv[1]), sys.argv[2]))
"""
        result = python("-c", script, small_config, tmp_path / "direct")
        assert result.returncode == 0, result.stderr
        written = Path(result.stdout.splitlines()[-1])
        assert written.read_bytes() == (expected / f"{mode}.csv").read_bytes()

    def test_load_table_works_without_main(self, tmp_path):
        path = tmp_path / "table.csv"
        path.write_text("# mode = sweep\neta,f_C\n0.5,1e-3\n0.25,2e-3\n")
        script = """
import sys
from electrolum.cli import load_table
metadata, header, data = load_table(sys.argv[1])
print(metadata, header, data.shape, data.tolist())
"""
        result = python("-c", script, path)
        assert result.returncode == 0, result.stderr
        assert result.stdout.split("\n")[0] == (
            "['mode = sweep'] ['eta', 'f_C'] (2, 2) [[0.5, 0.001], [0.25, 0.002]]")

    def test_package_exports_are_their_owners_objects(self):
        script = """
import importlib, sys
import electrolum
owners = {
    "ModelSpace": "hilbert", "SystemParams": "hilbert", "build_space": "hilbert",
    "DressedSystem": "pipeline", "build_system": "pipeline", "resolve_mu": "pipeline",
    "DressedBasis": "rabi", "dressed_basis": "rabi", "hamiltonian": "rabi",
    "Spectrum": "spectrum", "emission_spectrum": "spectrum",
    "integrate_peak": "spectrum", "__version__": "",
}
assert sorted(electrolum.__all__) == sorted(owners), electrolum.__all__
namespace = {}
exec("from electrolum import *", namespace)
for name, owner in owners.items():
    module = importlib.import_module(".".join(filter(None, ["electrolum", owner])))
    assert getattr(electrolum, name) is getattr(module, name), name
    assert namespace[name] is getattr(module, name), name
print("ok")
"""
        result = python("-c", script)
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "ok"

    def test_unknown_names_raise_attribute_error_without_numpy(self):
        script = """
import sys
import electrolum
import electrolum.cli as cli
for module in (electrolum, cli):
    try:
        module.nope
    except AttributeError as err:
        assert "nope" in str(err), err
    else:
        raise AssertionError(f"{module.__name__}.nope resolved")
assert not hasattr(cli, "__path__")
""" + NO_NUMPY
        result = python("-c", script)
        assert result.returncode == 0, result.stderr
