"""scripts/bench.py keeps working against the package it times.

The harness is no test itself, so a renamed name in ``src/`` would break
it silently.  Its layer worker runs here on this checkout, shrunk to
n_max 2 and one repeat.
"""

import importlib.util
import json
import math
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "scripts" / "bench.py"


@pytest.fixture
def bench():
    path = list(sys.path)
    spec = importlib.util.spec_from_file_location("bench", BENCH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    # a layer worker imports the script with the tree under test first on
    # its path, so importing it must leave the path alone
    assert sys.path == path
    module.N_MAX = (2,)
    module.REPEATS = 1
    return module


def test_layer_worker_times_every_layer(bench, capsys):
    bench.layer_worker()
    record = json.loads(capsys.readouterr().out)
    cases = {f"n2-eta{eta}-{mode}" for eta in bench.ETAS for mode in bench.MODES}
    assert set(record["times"]) == set(record["results"]) == cases
    for case in cases:
        times = record["times"][case]
        assert set(times) == set(bench.LAYERS)
        assert all(math.isfinite(t) and t >= 0.0 for t in times.values())
        assert record["results"][case]
        assert all(math.isfinite(v) for v in record["results"][case])


def test_bad_tree_exits_before_timing(bench, tmp_path):
    out = tmp_path / "bench.json"
    with pytest.raises(SystemExit) as exit_info:
        bench.main(["--out", str(out), "--tree", "x=/nonexistent"])
    assert exit_info.value.code == 2
    assert not out.exists()
