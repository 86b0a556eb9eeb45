"""scripts/reference_outputs.py asks only for configurations the command line accepts.

The script is no test itself and runs only when someone compares two
versions byte for byte, so a configuration key it still spells after the
key is gone would fail only then.  Here each of its tables is validated,
with no system built.
"""

import importlib.util
from pathlib import Path

import pytest

from electrolum import SystemParams
from electrolum.cli import validate_config

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "reference_outputs.py"


@pytest.fixture(scope="module")
def reference_outputs():
    spec = importlib.util.spec_from_file_location("reference_outputs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_table_configuration_validates(reference_outputs):
    runs = list(reference_outputs.runs())
    assert len(runs) == 31  # with readers.csv, the 32 files of the set
    assert len({name for name, _, _ in runs}) == len(runs)
    for name, mode, raw in runs:
        config = validate_config({**raw, "outputs": {mode: f"{name}.csv"}})
        assert (config.sweep is not None) == (mode == "sweep"), name
    # the rates the overrides tables were written with, each by its own name
    assert validate_config(reference_outputs.OVERRIDES).base == SystemParams(
        eta=0.2, gamma_in=1e-6, gamma_out=2e-6, gamma_cav=1e-3, omega_e=1.1)
