"""The names and result shapes the benchmark in perfbench/ relies on.

perfbench/traced.py wraps every function in its ``TARGETS`` at the name
its caller looks it up by, and reads counts off some results; a name
that is gone makes every traced operation fail.  perfbench/workloads.py
iterates the row view of ``dissipators.BathRates``, and
perfbench/cutoff_op.py and the workload checks read the CLI's
RunConfig.  The files are loaded by path, unchanged, and checked against
a freshly built system or run on a workload's own input.
"""

import importlib
import json
import math
import random

import numpy as np
import pytest

from electrolum import SystemParams, build_system, cli
from electrolum import dissipators
from perfbench_files import load


@pytest.fixture(scope="module")
def traced():
    return load("traced")


@pytest.fixture(scope="module")
def system():
    return build_system(SystemParams(eta=0.1), n_max=4, mu_mode="omega_G")


def test_every_traced_electrolum_target_resolves(traced):
    targets = [(m, a) for m, a, _ in traced.TARGETS if m.startswith("electrolum")]
    assert targets
    for module_name, attr in targets:
        assert callable(getattr(importlib.import_module(module_name), attr)), (module_name, attr)


def test_channel_table_rows_read_as_the_benchmark_reads_them(traced, system):
    channels = dissipators.all_channels(system.basis, system.params)
    rows = list(channels)
    assert len(channels) == len(rows) > 0
    for row in rows:
        assert isinstance(row.bath, str)
        assert isinstance(row.from_index, int) and isinstance(row.to_index, int)
        assert math.isfinite(row.rate) and math.isfinite(row.freq)
    counts = traced._channel_counts(channels)
    assert counts["channels"] == len(channels)
    assert sum(v for k, v in counts.items() if k.startswith("channels.")) == len(channels)


def test_counters_read_their_results(traced, system):
    counters = traced.COUNTERS
    assert counters["liouvillian.build_liouvillian"](system.lv)["generator_bytes"] > 0
    spec = system.emission_spectrum(np.linspace(0.9, 1.1, 21))
    assert counters["spectrum.emission_spectrum"](spec) == {"points": 21, "failed_points": 0}


def test_window_oracle_reads_channel_rows(system):
    # workloads._window_oracle predicts the CLI's window integrals from
    # the channel rows; its total must close on the exact line fluxes
    workloads = load("workloads")
    predicted = workloads._window_oracle(system)
    exact = system.line_fluxes()
    assert predicted.keys() == exact.keys()
    assert predicted["central"] == pytest.approx(exact["central"], rel=0.1)


@pytest.mark.parametrize("name", sorted(load("workloads").WORKLOADS))
def test_gated_workload_operation_passes_its_check(name, tmp_path):
    # one operation of each workload (the ungated spectrum-n8 too), run in
    # this process on the workload's own seeded input and judged by the
    # workload's own check
    workloads = load("workloads")
    workload = workloads.WORKLOADS[name]
    raw = workload.make_input(random.Random(7))
    config_path = tmp_path / "input.json"
    config_path.write_text(json.dumps(raw))
    out = tmp_path / "out"
    if workload.kind == "cutoff":
        assert load("cutoff_op").main([str(config_path), str(out)]) == 0
    else:
        assert cli.main(["--config", str(config_path), "--out", str(out),
                         "--mode", workload.mode]) == 0
    assert (out / workload.output).exists()
    report = workload.check(raw, out)
    assert report
