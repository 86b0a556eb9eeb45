import gc
import itertools
import json
import math
import warnings
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from pytest import approx

from channel_rows import find_channel
from electrolum import ModelSpace, SystemParams, build_system, cli, spectrum
from electrolum.cli import (
    ConfigError,
    RunConfig,
    load_table,
    main,
    run_spectrum,
    run_sweep,
    validate_config,
)
from electrolum.settings import (DEFAULT_GRID, DEFAULT_N_MAX, GRID_STEP_ULPS, MAX_GRID_POINTS,
                                 MAX_N_MAX)
from electrolum.rabi import dressed_basis, hamiltonian
from electrolum.ratemodel import analytic_el
from electrolum.spectrum import line_windows, window_capture
from test_run_path import python


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


class TestValidateConfig:
    def test_minimal_defaults(self):
        assert validate_config({"eta": 0.1}) == RunConfig(
            base=SystemParams(eta=0.1, omega_e=1.0, gamma_in=0.5e-6, gamma_out=0.5e-6,
                              gamma_cav=7e-4, mu=0.0),
            n_max=8,
            mu_mode="omega_G",
            grid=(0.5, 1.5, 4001),
            sweep=None,
            outputs={"spectrum": "spectrum.csv", "sweep": "sweep.csv"},
            methods={"spectrum": True, "analytic": True, "ratemodel": False},
        )

    @pytest.mark.parametrize("eta", [0.0, 0.1, 0.7])
    def test_defaults_are_the_library_defaults(self, eta):
        config = validate_config({"eta": eta})
        assert config.params() == SystemParams(eta=eta)
        assert config.n_max == DEFAULT_N_MAX
        assert config.grid == DEFAULT_GRID

    def test_absolute_mode_takes_mu(self):
        config = validate_config({"eta": 0.1, "mu_mode": "absolute", "mu": -0.01})
        assert config.base.mu == approx(-0.01)

    def test_sweep_values_sorted(self):
        config = validate_config(
            {"eta": 0.1, "sweep": {"variable": "eta", "values": [0.1, 0.02]}}
        )
        assert config.sweep == ("eta", (0.02, 0.1))

    def test_params_are_checked_again(self):
        config = validate_config({"eta": 0.1})
        assert config.params(eta=0.2, mu=-0.01) == SystemParams(eta=0.2, mu=-0.01)
        with pytest.raises(ValueError, match="eta"):
            config.params(eta=-1.0)
        with pytest.raises(ValueError, match="mu"):
            config.params(mu=float("inf"))

    @pytest.mark.parametrize("name", ["x.csv", "my sweep.csv", "..x", ".hidden"])
    def test_bare_output_names_accepted(self, name):
        config = validate_config({"eta": 0.1, "outputs": {"sweep": name}})
        assert config.outputs == {"spectrum": "spectrum.csv", "sweep": name}

    def test_integer_caps(self):
        # every cutoff and grid the repo uses stays valid; one past each cap is a REFUSALS row
        config = validate_config({"eta": 0.1, "n_max": MAX_N_MAX,
                                  "grid": {"points": MAX_GRID_POINTS}})
        assert (config.n_max, config.grid[2]) == (MAX_N_MAX, MAX_GRID_POINTS)
        assert MAX_N_MAX >= 256 and MAX_GRID_POINTS >= DEFAULT_GRID[2]

    @settings(max_examples=300, deadline=None)
    @given(lo=st.one_of(st.floats(-1e300, 1e300), st.floats(-1e-305, 1e-305)),
           points=st.integers(2, 5000), offset=st.floats(-1.0, 1.0))
    def test_every_accepted_grid_ascends(self, lo, points, offset):
        # grids within one ulp per step of the GRID_STEP_ULPS bound, in the
        # normal and the subnormal range, where rounding is tightest
        hi = lo + (GRID_STEP_ULPS + offset) * (points - 1) * math.ulp(lo)
        try:
            config = validate_config({"eta": 0.1, "grid": {"min": lo, "max": hi,
                                                           "points": points}})
        except ConfigError:
            return
        assert np.all(np.diff(np.linspace(*config.grid)) > 0)

    def test_grid_step_bound(self):
        # a step of exactly GRID_STEP_ULPS ulps is accepted; one ulp less is a REFUSALS row
        end = 1.0 + 2 * GRID_STEP_ULPS * math.ulp(1.0)
        grid = validate_config({"eta": 0.1, "grid": {"min": 1.0, "max": end, "points": 3}}).grid
        assert grid == (1.0, end, 3)


@pytest.fixture(scope="module")
def small_spectrum_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("spectrum_run")
    config = validate_config({
        "eta": 0.1,
        "n_max": 4,
        "grid": {"min": 0.85, "max": 1.15, "points": 601},
    })
    path = run_spectrum(config, out)
    return config, path


class TestRunSpectrum:
    def test_header_and_shape(self, small_spectrum_run):
        config, path = small_spectrum_run
        metadata, header, data = load_table(path)
        assert header == ["omega", "S"]
        assert data.shape == (601, 2)
        assert any(line.startswith("electrolum") for line in metadata)

    def test_round_trip_full_precision(self, small_spectrum_run):
        config, path = small_spectrum_run
        _, _, data = load_table(path)
        grid = np.linspace(0.85, 1.15, 601)
        assert data[:, 0] == approx(grid, rel=1e-15)
        assert np.all(np.isfinite(data[:, 1]))

    def test_deterministic_rerun(self, small_spectrum_run, tmp_path):
        config, path = small_spectrum_run
        again = run_spectrum(config, tmp_path)
        assert again.read_bytes() == path.read_bytes()

    def test_three_largest_maxima_at_line_frequencies(self, tmp_path):
        config = validate_config({"eta": 0.1})
        path = run_spectrum(config, tmp_path)
        metadata, _, data = load_table(path)
        omegas, values = data[:, 0], data[:, 1]
        meta = dict(line.split(" = ") for line in metadata if " = " in line)
        centers = [
            float(meta["omega_minus"]),
            1.0,
            float(meta["omega_plus"]),
        ]
        interior = (values[1:-1] > values[:-2]) & (values[1:-1] > values[2:])
        peaks = np.flatnonzero(interior) + 1
        tallest = peaks[np.argsort(values[peaks])[-3:]]
        step = omegas[1] - omegas[0]
        for center in centers:
            assert np.min(np.abs(omegas[tallest] - center)) <= step

    def test_dark_configuration(self, tmp_path):
        config = validate_config({
            "eta": 0.0,
            "n_max": 2,
            "mu_mode": "absolute",
            "mu": 0.0,
            "grid": {"min": 0.5, "max": 1.5, "points": 101},
        })
        _, _, data = load_table(run_spectrum(config, tmp_path))
        assert np.max(np.abs(data[:, 1])) < 1e-16

    def test_warns_for_each_line_outside_the_grid(self, tmp_path):
        # at eta 0.8 the lower satellite sits at 0.26, below the default
        # grid: the table has no peak there, and the run still succeeds
        config_path = write_config(tmp_path, {"eta": 0.8})
        with pytest.warns(UserWarning, match="outside the grid") as record:
            code = main(["--config", str(config_path), "--out", str(tmp_path),
                         "--mode", "spectrum"])
        assert code == 0
        assert len(record) == 1
        message = str(record[0].message)
        assert "minus at 0.262464" in message
        assert "plus" not in message and "central" not in message

    def test_no_warning_with_every_line_inside_the_grid(self, tmp_path):
        config = validate_config({"eta": 0.1})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            run_spectrum(config, tmp_path)


# the sweep's optional column groups, in CSV order
METHOD_COLUMNS = (
    ("spectrum", ["f_C", "f_plus", "f_minus"]),
    ("analytic", ["f_C_analytic", "f_plus_analytic", "f_minus_analytic"]),
    ("ratemodel", ["f_C_rate", "f_plus_rate", "f_minus_rate"]),
)
SWEEPS = {"eta": [0.05, 0.1], "mu": [-0.01, 0.1]}


def sweep_config(variable, methods):
    return validate_config({
        "eta": 0.1,
        "n_max": 3,
        "sweep": {"variable": variable, "values": SWEEPS[variable]},
        "methods": methods,
    })


@pytest.fixture(scope="module")
def full_sweeps(tmp_path_factory):
    """Header and rows of each sweep with every column group on."""
    tables = {}
    for variable in SWEEPS:
        config = sweep_config(variable, {key: True for key, _ in METHOD_COLUMNS})
        _, header, data = load_table(run_sweep(config, tmp_path_factory.mktemp(variable)))
        tables[variable] = header, data
    return tables


class TestRunSweep:
    @pytest.mark.parametrize("variable", sorted(SWEEPS))
    @pytest.mark.parametrize("switches", list(itertools.product((False, True), repeat=3)))
    def test_columns_follow_methods(self, tmp_path, full_sweeps, variable, switches):
        methods = dict(zip([key for key, _ in METHOD_COLUMNS], switches))
        _, header, data = load_table(run_sweep(sweep_config(variable, methods), tmp_path))
        expected = [variable] + [name for key, names in METHOD_COLUMNS if methods[key]
                                 for name in names]
        assert header == expected
        assert data.shape == (len(SWEEPS[variable]), len(expected))
        # each column holds the same values as in the sweep with every group on
        full_header, full_data = full_sweeps[variable]
        for i, name in enumerate(header):
            assert list(data[:, i]) == list(full_data[:, full_header.index(name)]), name

    def test_eta_sweep_schema_and_agreement(self, tmp_path):
        config = validate_config({
            "eta": 0.1,
            "n_max": 6,
            "sweep": {"variable": "eta", "values": [0.02, 0.05, 0.1]},
        })
        path = run_sweep(config, tmp_path)
        _, header, data = load_table(path)
        assert header == ["eta", "f_C", "f_plus", "f_minus",
                          "f_C_analytic", "f_plus_analytic", "f_minus_analytic"]
        ratio = data[:, 1] / data[:, 4]
        assert np.all(ratio > 0.8) and np.all(ratio < 1.2)

    def test_high_bias_satellites_match_closed_form(self, tmp_path):
        config = validate_config({
            "eta": 0.1,
            "n_max": 6,
            "mu_mode": "omega_G_plus_omega_plus",
            "sweep": {"variable": "eta", "values": [0.05, 0.1]},
        })
        _, header, data = load_table(run_sweep(config, tmp_path))
        i_p, i_pa = header.index("f_plus"), header.index("f_plus_analytic")
        i_m, i_ma = header.index("f_minus"), header.index("f_minus_analytic")
        assert data[:, i_p] == approx(data[:, i_pa], rel=0.2)
        assert data[:, i_m] == approx(data[:, i_ma], rel=0.2)

    def test_mu_sweep_uses_absolute_values(self, tmp_path):
        config = validate_config({
            "eta": 0.1,
            "n_max": 4,
            "grid": {"min": 0.5, "max": 1.5, "points": 201},
            "sweep": {"variable": "mu", "values": [0.1, -0.01]},
            "methods": {"spectrum": False, "ratemodel": True},
        })
        _, header, data = load_table(run_sweep(config, tmp_path))
        assert header[0] == "mu"
        assert data[:, 0] == approx([-0.01, 0.1])

    def test_mu_sweep_metadata_says_absolute(self, tmp_path):
        config = validate_config({
            "eta": 0.1,
            "n_max": 3,
            "sweep": {"variable": "mu", "values": [-0.01, 0.1]},
        })
        assert config.mu_mode == "absolute"
        metadata, _, _ = load_table(run_sweep(config, tmp_path))
        assert "mu_mode = absolute" in metadata

    def test_eta_sweep_at_absolute_mu_records_mu(self, tmp_path):
        # mu fixes every row of the table, so the metadata must carry it
        config = validate_config({"eta": 0.1, "mu_mode": "absolute", "mu": 0.3, "n_max": 4,
                                  "sweep": {"variable": "eta", "values": [0.05, 0.1]}})
        metadata, _, _ = load_table(run_sweep(config, tmp_path))
        notes = metadata[metadata.index("mu_mode = absolute") + 1:]
        assert notes[:2] == ["mu = 0.29999999999999999", "sweep variable = eta"]
        assert float(notes[0].split(" = ")[1]) == 0.3

    def test_flux_window_line_only_with_window_columns(self, tmp_path):
        for spectrum_on in (False, True):
            config = sweep_config("eta", {"spectrum": spectrum_on})
            metadata, _, _ = load_table(run_sweep(config, tmp_path / str(spectrum_on)))
            windows = [line for line in metadata if line.startswith("flux windows")]
            assert len(windows) == spectrum_on

    def test_analytic_regime_follows_injection_gate(self, tmp_path):
        # just below the |s,0> -> |-> threshold, inside the gate tolerance:
        # the channel is open, so the closed forms must be the high-bias ones
        space = ModelSpace(3)
        basis = dressed_basis(hamiltonian(SystemParams(eta=0.1), space), space)
        mu = float(basis.energies[basis.index_minus]) - 5e-10
        base = {"eta": 0.1, "n_max": 3, "methods": {"spectrum": False, "analytic": True}}
        config = validate_config({**base, "sweep": {"variable": "mu", "values": [mu]}})
        system = build_system(config.params(mu=mu), n_max=3, mu_mode="absolute")
        assert find_channel(system.channels, basis.s_levels[0], basis.index_minus) > 0.0
        _, _, data = load_table(run_sweep(config, tmp_path))
        expected = analytic_el(0.1, config.base.gamma_in, config.base.gamma_cav)
        assert list(data[0, 1:]) == list(expected)

        # a system that carries no current is dark, and so are its closed
        # forms: below omega_G (|s,0> -> |G> shut), or either electron rate 0
        dark = [({}, -0.05), ({"gamma_in": 0}, mu), ({"gamma_out": 0}, mu)]
        for k, (rates, value) in enumerate(dark):
            config = validate_config({
                **base, **rates, "methods": {**base["methods"], "ratemodel": True},
                "sweep": {"variable": "mu", "values": [value]}})
            _, header, data = load_table(run_sweep(config, tmp_path / str(k)))
            assert header[1:4] == ["f_C_analytic", "f_plus_analytic", "f_minus_analytic"]
            assert list(data[0, 1:]) == [0.0] * 6, rates

    @pytest.mark.parametrize("mu_mode", ["omega_G", "omega_G_plus_omega_plus"])
    def test_window_columns_are_exact_arctan_integrals(self, tmp_path, mu_mode):
        # every cavity channel is a Lorentzian of flux rate * p_from and
        # half-width the mean out-rate of its two levels; a grid trapezoid
        # sits about 1.5e-4 below this integral
        config = validate_config({
            "eta": 0.1,
            "n_max": 6,
            "mu_mode": mu_mode,
            "sweep": {"variable": "eta", "values": [0.03, 0.1, 0.3]},
        })
        _, header, data = load_table(run_sweep(config, tmp_path))
        for row in data:
            system = build_system(config.params(eta=row[0]), n_max=6, mu_mode=mu_mode)
            channels, e = system.channels, system.basis.energies
            out_rates = (channels.cavity + channels.electron_in
                         + channels.electron_out).sum(axis=0)
            windows = line_windows(system.basis, channels, scale=5.0)
            for column, line in (("f_C", "central"), ("f_plus", "plus"),
                                 ("f_minus", "minus")):
                win, expected = windows[line], 0.0
                for i, j in zip(*np.nonzero(channels.cavity)):
                    half = 0.5 * (out_rates[j] + out_rates[i])
                    freq = e[j] - e[i]
                    share = (np.arctan((win.hi - freq) / half)
                             - np.arctan((win.lo - freq) / half)) / np.pi
                    expected += channels.cavity[i, j] * system.populations[j] * share
                expected /= window_capture(5.0)
                got = row[header.index(column)]
                assert got == approx(expected, rel=1e-12, abs=0.0), column

    def test_sweep_evaluates_no_spectrum(self, tmp_path, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("the sweep evaluated a spectrum on a grid")

        monkeypatch.setattr(spectrum, "emission_spectrum", forbidden)
        monkeypatch.setattr(spectrum, "integrate_peak", forbidden)
        monkeypatch.setattr(cli, "integrate_peak", forbidden)
        config = validate_config({
            "eta": 0.1,
            "n_max": 4,
            "sweep": {"variable": "eta", "values": [0.05, 0.1]},
            "methods": {"spectrum": True, "analytic": True, "ratemodel": True},
        })
        _, header, data = load_table(run_sweep(config, tmp_path))
        assert header[1:4] == ["f_C", "f_plus", "f_minus"]
        assert np.all(np.isfinite(data)) and np.all(data[:, 1:4] > 0)

    def test_sweep_requires_sweep_block(self, tmp_path):
        config = validate_config({"eta": 0.1})
        with pytest.raises(ConfigError, match="sweep"):
            run_sweep(config, tmp_path)

    def test_deterministic_rerun(self, tmp_path):
        config = validate_config({
            "eta": 0.1,
            "n_max": 4,
            "grid": {"min": 0.5, "max": 1.5, "points": 51},
            "sweep": {"variable": "eta", "values": [0.05, 0.1]},
        })
        first = run_sweep(config, tmp_path / "a")
        second = run_sweep(config, tmp_path / "b")
        assert first.read_bytes() == second.read_bytes()


# registered before the package's own exit hook, so it runs after that one
FREEZE_PROBE = """import atexit, gc, sys
atexit.register(lambda: print("frozen at exit:", gc.get_freeze_count() > 0))
import electrolum
"""
FROZEN_NOW = 'print("frozen before exit:", gc.get_freeze_count() > 0)\n'


class TestMain:
    def test_spectrum_exit_zero(self, tmp_path, capsys):
        config_path = write_config(tmp_path, {
            "eta": 0.05, "n_max": 3,
            "grid": {"min": 0.9, "max": 1.1, "points": 51},
        })
        code = main(["--config", str(config_path), "--out", str(tmp_path),
                     "--mode", "spectrum"])
        assert code == 0
        out = capsys.readouterr().out.strip()
        assert out.endswith("spectrum.csv")
        assert (tmp_path / "spectrum.csv").exists()

    def test_main_freezes_nothing(self, tmp_path):
        # the heap is frozen only at exit; in-process callers keep their
        # collector as it was
        config_path = write_config(tmp_path, {"eta": 0.1, "n_max": 2, "sweep": SWEEP})
        frozen = gc.get_freeze_count()
        assert main(["--config", str(config_path), "--out", str(tmp_path),
                     "--mode", "sweep"]) == 0
        assert gc.get_freeze_count() == frozen

    def test_build_system_freezes_nothing(self):
        frozen = gc.get_freeze_count()
        build_system(SystemParams(eta=0.1), n_max=2, mu_mode="omega_G")
        assert gc.get_freeze_count() == frozen

    @pytest.mark.parametrize("mode", ["spectrum", "sweep"])
    def test_process_entry_writes_what_main_writes(self, tmp_path, mode):
        config_path = write_config(tmp_path, {
            "eta": 0.1, "n_max": 2, "grid": {"min": 0.9, "max": 1.1, "points": 51},
            "sweep": SWEEP, "methods": {"ratemodel": True}})

        def argv(out):
            return ["--config", str(config_path), "--out", str(tmp_path / out), "--mode", mode]

        result = python("-m", "electrolum", *argv("process"))
        assert result.returncode == 0, result.stderr
        assert main(argv("main")) == 0
        written = [(tmp_path / out / f"{mode}.csv").read_bytes() for out in ("process", "main")]
        assert written[0] == written[1]

    def test_console_script_is_the_process_entry(self, tmp_path):
        tomllib = pytest.importorskip("tomllib")
        pyproject = Path(cli.__file__).resolve().parents[2] / "pyproject.toml"
        scripts = tomllib.loads(pyproject.read_text())["project"]["scripts"]
        assert scripts == {"electrolum": "electrolum.cli:main"}
        # what the installed script runs: main's code is the exit status,
        # and the package's exit hook freezes the heap after main returns
        config_path = write_config(tmp_path, {"eta": 0.1, "n_max": 2, "sweep": SWEEP})
        script = FREEZE_PROBE + "from electrolum.cli import main\ncode = main()\n" + FROZEN_NOW
        result = python("-c", script + "sys.exit(code)", "--config", config_path,
                        "--out", tmp_path, "--mode", "sweep")
        assert result.returncode == 0, result.stderr
        assert result.stdout.splitlines() == [str(tmp_path / "sweep.csv"),
                                              "frozen before exit: False",
                                              "frozen at exit: True"]

    def test_library_path_freezes_the_heap_at_exit(self):
        script = (FREEZE_PROBE + "electrolum.build_system(electrolum.SystemParams(eta=0.1),"
                  " n_max=2, mu_mode='omega_G')\n" + FROZEN_NOW)
        result = python("-c", script)
        assert result.returncode == 0, result.stderr
        assert result.stdout == "frozen before exit: False\nfrozen at exit: True\n"

    def test_unclosed_module_global_file_is_written_at_exit(self, tmp_path):
        # the heap frozen at exit still flushes a buffered file that no
        # cycle holds
        path = tmp_path / "left_open.txt"
        script = ("import sys, electrolum\n"
                  "electrolum.build_system(electrolum.SystemParams(eta=0.1), n_max=2)\n"
                  "f = open(sys.argv[1], 'w')\nf.write('x' * 100)\n")
        result = python("-c", script, path)
        assert result.returncode == 0, result.stderr
        assert path.read_text() == "x" * 100

    @pytest.mark.parametrize("mode", [None, "bogus"], ids=["no_mode", "unknown_mode"])
    def test_usage_error_exit_one(self, tmp_path, capsys, mode):
        # exit 2 is a numerical failure, so argparse's own code 2 must not leak out
        argv = ["--config", str(write_config(tmp_path, {"eta": 0.1}))]
        argv += ["--mode", mode] if mode else []
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("usage: electrolum ")
        assert captured.out == ""
        assert list(tmp_path.iterdir()) == [tmp_path / "config.json"]

    def test_help_exit_zero(self, capsys):
        assert main(["--help"]) == 0
        assert capsys.readouterr().out.startswith("usage: electrolum ")

    @pytest.mark.parametrize("blocker", ["table_is_a_directory", "out_is_a_file"])
    def test_unwritable_table_exit_one(self, tmp_path, capsys, blocker):
        # a table that cannot be written is a configuration error naming the
        # path, not a traceback
        out = tmp_path / "out"
        if blocker == "table_is_a_directory":
            (out / "x").mkdir(parents=True)
        else:
            out.write_text("")
        config_path = write_config(tmp_path, {
            "eta": 0.1, "n_max": 2, "sweep": {"variable": "eta", "values": [0.1]},
            "outputs": {"sweep": "x"},
        })
        code = main(["--config", str(config_path), "--out", str(out), "--mode", "sweep"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"configuration error: cannot write {out / 'x'}: ")
        assert err.count("\n") == 1


class Refusal(NamedTuple):
    """A configuration the command line refuses, and how it says so."""

    id: str
    content: object  # the --config file: JSON of a dict, a str, bytes, or None for no file
    mode: str
    code: int  # 1 configuration error, 2 numerical failure
    message: str  # start of stderr after "<kind>: "; a final newline pins the whole line


SWEEP = {"variable": "eta", "values": [0.1]}
MU_SWEEP = {"variable": "mu", "values": [0.1]}
# stands for the test's directory in a configuration, so that a table
# written to an absolute path would land where the check looks
TEST_DIR = "@TEST_DIR@"
BIG = "1" + "0" * 400  # overflows a float
PAST_DIGIT_LIMIT = "1" + "0" * 4400  # json refuses the literal

REFUSALS = [
    Refusal("unknown_key", {"eta": 0.1, "unknown_key": 3}, "spectrum", 1,
            "unknown configuration key: unknown_key\n"),
    Refusal("nested_unknown_key", {"eta": 0.1, "grid": {"step": 0.1}}, "spectrum", 1,
            "unknown configuration key: grid.step\n"),
    # eta is the coupling's only name
    Refusal("rabi", {"rabi": 0.1}, "spectrum", 1, "unknown configuration key: rabi\n"),
    Refusal("rabi_with_eta", {"eta": 0.1, "rabi": 0.1}, "spectrum", 1,
            "unknown configuration key: rabi\n"),
    # the empty site sits at E = 0: mu is measured from it, with no offset to set
    Refusal("omega_s_is_not_a_key", {"eta": 0.1, "omega_s": 0.3}, "spectrum", 1,
            "unknown configuration key: omega_s\n"),
    # each electron rate has one name: gamma_in and gamma_out
    Refusal("gamma_is_not_a_key", {"eta": 0.1, "gamma": 1e-6}, "spectrum", 1,
            "unknown configuration key: gamma\n"),
    Refusal("root_not_object", "[0.1]", "sweep", 1,
            "configuration root must be a JSON object\n"),
    Refusal("eta_missing", {}, "spectrum", 1, "eta: required"),
    Refusal("eta_not_number", {"eta": "0.1"}, "spectrum", 1, "eta: expected a number"),
    Refusal("eta_negative", {"eta": -1.0}, "sweep", 1, "eta: must be >= 0"),
    Refusal("gamma_cav_negative", {"eta": 0.1, "gamma_cav": -1}, "spectrum", 1,
            "gamma_cav: must be >= 0"),
    # the closed forms divide by gamma_cav, and the default sweep has them
    *[Refusal(f"gamma_cav_zero_{mode}",
              {"eta": 0.1, "gamma_cav": 0, "n_max": 2, "sweep": SWEEP}, mode, 1,
              "gamma_cav: must be > 0") for mode in ("spectrum", "sweep")],
    # one past each cap, and far past it: refused before the run allocates anything
    *[Refusal(f"n_max_{n_max}", {"eta": 0.1, "n_max": n_max}, "spectrum", 1,
              "n_max: expected an integer in [1, ") for n_max in (MAX_N_MAX + 1, 10**9)],
    *[Refusal(f"grid_points_{points}", {"eta": 0.1, "grid": {"points": points}}, "spectrum", 1,
              "grid.points: expected an integer in [2, ")
      for points in (1, MAX_GRID_POINTS + 1, 10**15)],
    Refusal("grid_not_object", {"eta": 0.1, "grid": [0.5, 1.5]}, "spectrum", 1,
            "grid: expected an object with min/max/points\n"),
    Refusal("grid_max_below_min", {"eta": 0.1, "grid": {"min": 1.0, "max": 0.5}}, "spectrum", 1,
            "grid.max: must exceed grid.min"),
    # np.linspace of these grids is NaN, or not strictly ascending
    Refusal("grid_span_overflow", {"eta": 0.1, "grid": {"min": -1e308, "max": 1e308}},
            "spectrum", 1, "grid: max - min overflows"),
    Refusal("grid_below_resolution",
            {"eta": 0.1, "grid": {"min": 1.0, "max": 1.000000000000001, "points": 1000}},
            "spectrum", 1, "grid: 1000 points in [1.0, 1.000000000000001] are closer than"),
    Refusal("grid_step_one_ulp_below_bound",
            {"eta": 0.1, "grid": {"min": 1.0, "points": 3,
                                  "max": 1.0 + 2 * (GRID_STEP_ULPS - 1) * math.ulp(1.0)}},
            "spectrum", 1, "grid: 3 points in [1.0, "),
    Refusal("mu_mode_unknown", {"eta": 0.1, "mu_mode": "high"}, "spectrum", 1,
            "mu_mode: expected one of"),
    Refusal("mu_required_when_absolute", {"eta": 0.1, "mu_mode": "absolute"}, "spectrum", 1,
            "mu: required when mu_mode is 'absolute'"),
    Refusal("mu_with_symbolic_mu_mode", {"eta": 0.1, "mu": 0.3}, "spectrum", 1,
            "mu: not allowed with symbolic mu_mode 'omega_G'"),
    *[Refusal(f"mu_sweep_{mu_mode}", {"eta": 0.1, "mu_mode": mu_mode, "sweep": MU_SWEEP},
              "sweep", 1, "mu_mode: a mu sweep takes absolute mu values")
      for mu_mode in ("omega_G", "omega_G_plus_omega_plus")],
    Refusal("mu_sweep_with_mu",
            {"eta": 0.1, "mu_mode": "absolute", "mu": 0.0, "sweep": MU_SWEEP}, "sweep", 1,
            "mu: not allowed with a mu sweep"),
    Refusal("sweep_not_object", {"eta": 0.1, "sweep": [0.1]}, "sweep", 1,
            "sweep: expected an object with variable/values\n"),
    Refusal("sweep_variable_unknown",
            {"eta": 0.1, "sweep": {"variable": "gamma", "values": [0.1]}}, "sweep", 1,
            "sweep.variable: expected 'eta' or 'mu'"),
    Refusal("sweep_empty", {"eta": 0.1, "sweep": {"variable": "eta", "values": []}}, "sweep", 1,
            "sweep.values: expected a non-empty list"),
    Refusal("sweep_block_missing", {"eta": 0.1}, "sweep", 1, "sweep.values: a sweep requires"),
    # the table goes inside --out: a path there would crash or escape it
    *[Refusal(f"output_name_{tag}",
              {"eta": 0.1, "n_max": 2, "sweep": SWEEP, "outputs": {"sweep": name}}, "sweep", 1,
              "outputs.sweep: expected a bare file name")
      for tag, name in (("sub", "sub/x.csv"), ("dot", "."), ("dotdot", ".."), ("empty", ""),
                        ("absolute", f"{TEST_DIR}/x.csv"))],
    # methods keys in CSV column order
    Refusal("methods_not_object", {"eta": 0.1, "methods": []}, "sweep", 1,
            "methods: expected an object with spectrum/analytic/ratemodel\n"),
    Refusal("methods_value_not_bool", {"eta": 0.1, "methods": {"spectrum": 1}}, "sweep", 1,
            "methods.spectrum: expected true or false\n"),
    Refusal("file_missing", None, "spectrum", 1, "cannot read configuration file: "),
    Refusal("not_json", "not json", "sweep", 1, "configuration is not valid JSON: "),
    Refusal("not_utf8", b'{"eta": 0.1, "x": "\xff"}', "sweep", 1,
            "configuration is not UTF-8 text: "),
    Refusal("eta_overflows", '{"eta": %s}' % BIG, "sweep", 1, "eta: must be finite"),
    Refusal("sweep_value_overflows",
            '{"eta": 0.1, "sweep": {"variable": "mu", "values": [-%s]}}' % BIG, "sweep", 1,
            "sweep.values[0]: must be finite"),
    Refusal("grid_min_overflows", '{"eta": 0.1, "grid": {"min": %s}}' % BIG, "sweep", 1,
            "grid.min: must be finite"),
    Refusal("past_digit_limit", '{"eta": %s}' % PAST_DIGIT_LIMIT, "sweep", 1,
            "configuration is not valid JSON: "),
    # no electron exchange at all: both sector grounds are stationary and
    # the steady state is ambiguous
    Refusal("no_electron_exchange",
            {"eta": 0.1, "gamma_in": 0.0, "gamma_out": 0.0, "n_max": 2,
             "grid": {"min": 0.9, "max": 1.1, "points": 11}},
            "spectrum", 2, "no unique stationary state"),
    # extraction off and |s,0> gated shut (mu below omega_G): the electron
    # can neither enter from |s,0> nor leave |G>, though gamma_in > 0
    Refusal("injection_shut_no_extraction",
            {"eta": 0.1, "gamma_out": 0.0, "mu_mode": "absolute", "mu": -1.0, "n_max": 2,
             "grid": {"min": 0.9, "max": 1.1, "points": 11}},
            "spectrum", 2, "no unique stationary state: the rate graph has 2 closed classes "
            "(no electron can enter from |s,0> or leave the one-electron ground level; "
            "open one: gamma_in > 0 with mu >= omega_G, or gamma_out > 0)\n"),
    # line widths past 1e154: their squares overflow in the spectrum
    *[Refusal(f"gamma_cav_{rate:g}", {"eta": 0.1, "gamma_cav": rate, "n_max": 2}, "spectrum", 2,
              "arithmetic overflow: ") for rate in (1e160, 1e300)],
    Refusal("gamma_1e300_sweep",
            {"eta": 0.1, "gamma_in": 1e300, "gamma_out": 1e300, "n_max": 2, "sweep": SWEEP},
            "sweep", 2, "non-finite values in f_C_analytic, f_plus_analytic, f_minus_analytic; "
            "no sweep table written\n"),
]


def refusal_argv(row, directory):
    """Write the row's configuration file into ``directory``; return the CLI arguments."""
    config = directory / "config.json"
    content = row.content
    if isinstance(content, dict):
        content = json.dumps(content).replace(TEST_DIR, str(directory))
    if isinstance(content, str):
        content = content.encode()
    if content is not None:
        config.write_bytes(content)
    return ["--config", str(config), "--out", str(directory / "out"), "--mode", row.mode]


@pytest.mark.parametrize("row", REFUSALS, ids=lambda row: row.id)
def test_refusal_is_one_line_and_writes_nothing(row, tmp_path, capsys):
    argv = refusal_argv(row, tmp_path)
    files = sorted(tmp_path.rglob("*"))
    assert main(argv) == row.code
    captured = capsys.readouterr()
    kind = {1: "configuration error", 2: "numerical failure"}[row.code]
    assert captured.err.startswith(f"{kind}: {row.message}"), captured.err
    assert captured.err.count("\n") == 1 and captured.err.endswith("\n")
    assert captured.out == ""
    assert sorted(tmp_path.rglob("*")) == files


def test_configuration_errors_load_no_numpy(tmp_path):
    # one fresh interpreter for every exit-1 row, since this process has
    # long loaded numpy; dataclasses would load inspect
    argvs = []
    for row in REFUSALS:
        if row.code == 1:
            (tmp_path / row.id).mkdir()
            argvs.append(refusal_argv(row, tmp_path / row.id))
    script = """
import json, sys
from electrolum.cli import main
codes = [main(argv) for argv in json.loads(sys.argv[1])]
loaded = sorted(m for m in sys.modules if m.split(".")[0] in ("numpy", "dataclasses", "inspect"))
print(json.dumps([codes, loaded]))
"""
    result = python("-c", script, json.dumps(argvs))
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout) == [[1] * len(argvs), []]


@pytest.mark.parametrize("row", [
    Refusal("non_ascii_key", '{"eta": 0.1, "ëta": 1}', "spectrum", 1,
            "unknown configuration key: "),
    next(row for row in REFUSALS if row.id == "not_utf8"),
], ids=lambda row: row.id)
def test_configuration_is_utf8_on_an_ascii_locale(row, tmp_path, monkeypatch):
    # the C locale without UTF-8 mode or coercion decodes as ASCII; the
    # messages are matched up to the key, which an ASCII stderr escapes
    for name, value in (("PYTHONUTF8", "0"), ("LC_ALL", "C"), ("PYTHONCOERCECLOCALE", "0")):
        monkeypatch.setenv(name, value)
    script = """
import codecs, locale, sys
from electrolum.cli import main
assert codecs.lookup(locale.getpreferredencoding(False)).name == "ascii"
sys.exit(main(sys.argv[1:]))
"""
    result = python("-c", script, *refusal_argv(row, tmp_path))
    assert result.returncode == row.code, result.stderr
    assert result.stderr.startswith(f"configuration error: {row.message}"), result.stderr
