"""What the run path imports, and where it imports it.

scipy costs about a third of a second and tens of megabytes to import,
more than the physics of a whole CLI run, so a lazy scipy import slipped
into any production module would quietly undo that.  ``numpy.ma`` costs
about 5 ms after numpy (numpy 2.4.6), and numpy functions such as
``np.unique`` import it lazily on first call.  numpy itself
costs about 40 ms, more than half of a gated benchmark operation, and
validating a configuration, ``--help`` and a configuration error need
none of it: the front door (``electrolum``, ``electrolum.cli`` and
``electrolum.settings``, and no other package module) imports no
numpy.  The package's ``build_system`` imports ``pipeline`` when it is
called, and each run function of ``cli`` imports the numerical modules
where it calls them.  The front door also skips two standard-library imports:
``dataclasses``, which loads ``inspect`` (about 15 ms), because the
records are ``typing.NamedTuple``s, and, for validation alone,
``argparse``, which only ``cli.main`` imports.  Every check runs in a
fresh interpreter, since this process has long loaded numpy.  The same
check for every configuration the command line refuses runs with their
table, ``REFUSALS`` in ``test_cli.py``, all of them in one interpreter.
"""

import ast
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import electrolum
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
system = build_system(SystemParams(eta=0.1), n_max=2, mu_mode="omega_G")
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

# what validating a configuration must not import, beyond numpy
NOT_FOR_VALIDATION = ("dataclasses", "inspect", "argparse")
# the package modules that validating a configuration loads, and no others
FRONT_DOOR = ["electrolum", "electrolum.cli", "electrolum.settings"]
NO_UNNEEDED_MODULES = NO_NUMPY + f"""
loaded = [m for m in {NOT_FOR_VALIDATION!r} if m in sys.modules]
assert not loaded, f"loaded: {{loaded}}"
package = sorted(m for m in sys.modules if m.split(".")[0] == "electrolum")
assert package == {FRONT_DOOR!r}, f"package modules: {{package}}"
"""


def python(*args):
    """Run a fresh interpreter with this checkout's electrolum on its path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *map(str, args)], env=env,
                          capture_output=True, text=True, timeout=120)


def imported(stderr):
    """Modules that ``python -X importtime`` reports as imported."""
    return [line.rsplit("|", 1)[-1].strip() for line in stderr.splitlines()
            if line.startswith("import time:")]


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
            result = python("-c", probe + "\n" + NO_UNNEEDED_MODULES, path)
            assert result.returncode == 0, result.stderr

    def test_help_loads_no_numpy(self):
        result = python("-X", "importtime", "-m", "electrolum", "--help")
        assert result.returncode == 0, result.stderr
        assert "--config" in result.stdout
        loaded = [name for name in imported(result.stderr)
                  if name.split(".")[0] in ("numpy", "dataclasses", "inspect")]
        assert loaded == []

    def test_no_module_imports_dataclasses(self):
        # NamedTuples take the records' place; dataclasses would load inspect
        package = Path(electrolum.__file__).parent
        found = []
        for path in sorted(package.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom):
                    names = [node.module or ""]
                else:
                    continue
                found += [f"{path.name}:{node.lineno}" for name in names
                          if name.split(".")[0] == "dataclasses"]
        assert found == []

    def test_failed_import_raises_its_own_error(self, small_config, tmp_path):
        # main's handler for LinalgError, which the numpy-free package root
        # defines, must not turn numpy's ImportError into another error
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


class TestBenchmarkWraps:
    @pytest.mark.parametrize("mode", ["spectrum", "sweep"])
    def test_rebound_run_path_names_are_called(self, mode, small_config, tmp_path):
        # perfbench/traced.py replaces cli.build_system and cli.line_windows
        # before main runs; the run must call the replacements
        script = f"""
import json, sys
import electrolum.cli as cli
calls = dict.fromkeys(("build_system", "line_windows"), 0)

def counting(name):
    fn = getattr(cli, name)

    def wrapper(*args, **kwargs):
        calls[name] += 1
        return fn(*args, **kwargs)
    return wrapper

for name in calls:
    setattr(cli, name, counting(name))
config, out = sys.argv[1:]
assert cli.main(["--config", config, "--out", out, "--mode", {mode!r}]) == 0
print(json.dumps(calls))
"""
        result = python("-c", script, small_config, tmp_path)
        assert result.returncode == 0, result.stderr
        systems = len(SMALL_CONFIG["sweep"]["values"]) if mode == "sweep" else 1
        assert json.loads(result.stdout.splitlines()[-1]) == {
            "build_system": systems, "line_windows": systems if mode == "sweep" else 0}


def test_run_path_builds_no_bare_basis():
    # the package works over the dressed levels only: the bare (s, g, e) x
    # Fock layout, its flat index and V are the dense oracle's
    import numpy as np

    from electrolum import ModelSpace, SystemParams, build_system, liouvillian, settings
    from electrolum.dissipators import quadrature_elements
    from electrolum.rabi import DressedBasis

    assert not hasattr(DressedBasis, "states")
    assert not hasattr(liouvillian, "density_operator")
    assert ModelSpace.index is tuple.index  # the record's own, not a bare index
    assert not hasattr(ModelSpace, "chain_sites")
    assert not hasattr(settings, "ELECTRONIC_LABELS")
    system = build_system(SystemParams(eta=0.1), n_max=4, mu_mode="omega_G")
    assert np.array_equal(system.rho_ss, np.diag(system.populations))
    x_minus, x_plus = system.x_pm
    assert np.array_equal(x_minus + x_plus, quadrature_elements(system.basis))


def test_package_exports_are_their_owners_objects():
    script = """
import sys
import electrolum
assert sorted(electrolum.__all__) == sorted(
    ["ModelSpace", "SystemParams", "LinalgError", "build_system", "__version__"])
namespace = {}
exec("from electrolum import *", namespace)
for name in electrolum.__all__:
    assert namespace[name] is getattr(electrolum, name), name
try:
    electrolum.nope
except AttributeError as err:
    assert "nope" in str(err), err
else:
    raise AssertionError("electrolum.nope resolved")
from electrolum import cli, settings
assert electrolum.ModelSpace is settings.ModelSpace
assert electrolum.SystemParams is settings.SystemParams
assert cli.build_system is electrolum.build_system and cli.LinalgError is electrolum.LinalgError
""" + NO_NUMPY + """
params = electrolum.SystemParams(eta=0.1)
fluxes = electrolum.build_system(params, n_max=2, mu_mode="omega_G").line_fluxes()
assert "numpy" in sys.modules
from electrolum import linalg, pipeline
assert linalg.LinalgError is electrolum.LinalgError
assert issubclass(linalg.NullSpaceError, electrolum.LinalgError)
assert fluxes == pipeline.build_system(params, n_max=2, mu_mode="omega_G").line_fluxes()
print("ok")
"""
    result = python("-c", script)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "ok"
