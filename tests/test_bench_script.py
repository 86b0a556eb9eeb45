"""scripts/bench.py keeps working against the package it times.

The harness is no test itself, so a renamed name in ``src/`` would break
it silently.  Its layer worker runs here on this checkout, shrunk to
n_max 2 and one repeat, and its compute part to one round at n_max 2;
``main`` runs with both parts replaced by fixed results.
"""

import importlib.util
import json
import math
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "scripts" / "bench.py"


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


def test_layer_summary_keeps_best_median_and_quartiles(bench):
    # two cases over three rounds, each layer's per-round best 1, 3, 2 times the case's scale
    per_round = [{"times": {case: dict.fromkeys(bench.LAYERS, scale * k)
                            for case, scale in (("a", 1e-3), ("b", 2e-3))}}
                 for k in (3.0, 1.0, 2.0)]
    results = bench.layer_summary(per_round)
    assert set(results) == {"a", "b"}
    assert results["a"] == dict.fromkeys(bench.LAYERS, {"best_s": 1e-3, "median_s": 2e-3,
                                                        "q1_s": 1e-3, "q3_s": 3e-3})
    assert results["b"]["steady_state"] == {"best_s": 2e-3, "median_s": 4e-3,
                                            "q1_s": 2e-3, "q3_s": 6e-3}


def test_layers_runs_each_tree_once_a_round(bench, monkeypatch):
    started = []

    def run(path, threads, argv, cwd=None):
        started.append(path[0])
        worker = {"times": {"n2": dict.fromkeys(bench.LAYERS, 1e-3)}, "results": {"n2": [1.0]}}
        return 0.0, json.dumps(worker), ""

    monkeypatch.setattr(bench, "run", run)
    results, moved = bench.layers({"parent": "old/src", "change": "src"})
    assert len(started) == 2 * bench.ROUNDS
    assert started.count("old/src") == started.count("src") == bench.ROUNDS
    assert set(results) == {"parent", "change"}
    assert moved == {}


def test_moved_results_name_each_case_with_its_largest_move(bench):
    # stubbed worker outputs: case "b" moves by one ulp in two workers,
    # and one worker drops a value of case "c"
    first = {"a": [1.0, 2.0], "b": [1.0, 4.0], "c": [1.0, 2.0]}
    up = math.nextafter(4.0, 5.0)
    outputs = [first, dict(first), dict(first, b=[1.0, up]),
               dict(first, b=[math.nextafter(1.0, 0.0), 4.0], c=[1.0])]
    assert bench.moved_results(outputs) == {"b": (up - 4.0) / up, "c": math.inf}
    assert bench.moved_results([first, dict(first)]) == {}


def test_compute_times_each_command(bench):
    bench.ROUNDS = 1
    bench.COMPUTE_INPUTS = {
        "spectrum": {"eta": 1.0, "n_max": 2},
        "sweep": {"eta": 0.1, "n_max": 2,
                  "sweep": {"variable": "eta", "values": [0.1, 0.2, 0.3]}},
    }
    results = bench.compute({"this": ROOT / "src"})
    assert set(results) == {"this"}
    assert set(results["this"]) == {"spectrum_wall_s", "sweep_wall_s"}
    for summary in results["this"].values():
        assert set(summary) == {"median", "q1", "q3", "samples"}
        assert len(summary["samples"]) == 1
        assert 0.0 < summary["q1"] == summary["median"] == summary["q3"]


def test_main_records_compute_and_layers_only(bench, monkeypatch, tmp_path, capsys):
    def compute(trees):
        return {label: {"sweep_wall_s": bench.summary([1.0, 2.0, 3.0])} for label in trees}

    def layers(trees):
        per_round = [{"times": {"n2": dict.fromkeys(bench.LAYERS, 1e-3 * k)}}
                     for k in (1.0, 2.0, 3.0)]
        return {label: bench.layer_summary(per_round) for label in trees}, {}

    monkeypatch.setattr(bench, "compute", compute)
    monkeypatch.setattr(bench, "layers", layers)
    monkeypatch.setattr(sys, "path", list(sys.path))
    monkeypatch.delitem(sys.modules, "perfbench_workloads", raising=False)
    out = tmp_path / "bench.json"
    assert bench.main(["--out", str(out)]) == 0

    record = json.loads(out.read_text())
    assert set(record) == {"host", "python", "numpy", "blas", "pythondontwritebytecode",
                           "compute", "layers", "trees"}
    assert set(record["host"]) == {"cpu_model", "nproc", "machine", "load_avg_at_start",
                                   "load_avg_at_end"}
    assert len(record["host"]["load_avg_at_start"]) == 3
    assert set(record["blas"]) == {"library", "threads"}
    assert set(record["trees"]) == {"this"}
    assert set(record["trees"]["this"]) == {"src", "compute", "layers"}
    assert record["trees"]["this"]["src"] == "src"
    assert set(record["compute"]) == {"what", "rounds", "inputs"}
    assert record["layers"]["identical_results"] is True
    assert record["layers"]["moved_results"] == {}
    assert "perfbench_workloads" not in sys.modules
    out = capsys.readouterr().out
    assert "this: compute sweep_wall_s 2.000 (1.000-3.000)" in out
    assert "identical_results: True, moved_results: {}" in out
    assert " at start, " in out and out.rstrip().endswith(" at end")
