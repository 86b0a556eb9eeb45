import itertools
import json
import warnings

import numpy as np
import pytest
from pytest import approx

from channel_rows import find_channel
from electrolum import ModelSpace, SystemParams, build_system, cli, spectrum
from electrolum.cli import (
    ConfigError,
    load_table,
    main,
    run_spectrum,
    run_sweep,
    validate_config,
)
from electrolum.settings import DEFAULT_GRID, DEFAULT_N_MAX
from electrolum.rabi import dressed_basis, hamiltonian
from electrolum.ratemodel import analytic_el
from electrolum.spectrum import line_windows, window_capture


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


class TestValidateConfig:
    def test_minimal_defaults(self):
        config = validate_config({"eta": 0.1})
        assert config.eta == approx(0.1)
        assert config.base.gamma_in == approx(0.5e-6, rel=1e-6, abs=0)
        assert config.base.gamma_out == approx(0.5e-6, rel=1e-6, abs=0)
        assert config.base.gamma_cav == approx(7e-4)
        assert config.n_max == 8
        assert config.mu_mode == "omega_G"
        assert config.grid == (0.5, 1.5, 4001)

    @pytest.mark.parametrize("eta", [0.0, 0.1, 0.7])
    def test_defaults_are_the_library_defaults(self, eta):
        config = validate_config({"eta": eta})
        assert config.params() == SystemParams(eta=eta)
        assert config.n_max == DEFAULT_N_MAX
        assert config.grid == DEFAULT_GRID

    @pytest.mark.parametrize("mu_mode", ["omega_G", "omega_G_plus_omega_plus"])
    def test_mu_sweep_rejects_symbolic_mu_mode(self, mu_mode):
        with pytest.raises(ConfigError, match="mu_mode"):
            validate_config({"eta": 0.1, "mu_mode": mu_mode,
                             "sweep": {"variable": "mu", "values": [0.1]}})

    def test_mu_sweep_rejects_mu(self):
        with pytest.raises(ConfigError, match="^mu: not allowed"):
            validate_config({"eta": 0.1, "mu_mode": "absolute", "mu": 0.0,
                             "sweep": {"variable": "mu", "values": [0.1]}})

    def test_unknown_key_rejected_with_name(self):
        with pytest.raises(ConfigError, match="unknown_key"):
            validate_config({"eta": 0.1, "unknown_key": 3})

    def test_nested_unknown_key_has_path(self):
        with pytest.raises(ConfigError, match="grid.step"):
            validate_config({"eta": 0.1, "grid": {"step": 0.1}})

    def test_negative_rate_rejected(self):
        with pytest.raises(ConfigError, match="gamma_cav"):
            validate_config({"eta": 0.1, "gamma_cav": -1})

    def test_coupling_required(self):
        with pytest.raises(ConfigError, match="eta"):
            validate_config({})

    @pytest.mark.parametrize("raw", [{"rabi": 0.1}, {"eta": 0.1, "rabi": 0.1}])
    def test_rabi_key_is_unknown(self, raw):
        # eta is the coupling's only name
        with pytest.raises(ConfigError, match="^unknown configuration key: rabi$"):
            validate_config(raw)

    def test_absolute_mode_requires_mu(self):
        with pytest.raises(ConfigError, match="mu"):
            validate_config({"eta": 0.1, "mu_mode": "absolute"})
        config = validate_config({"eta": 0.1, "mu_mode": "absolute", "mu": -0.01})
        assert config.base.mu == approx(-0.01)

    def test_mu_forbidden_for_symbolic_modes(self):
        with pytest.raises(ConfigError, match="mu"):
            validate_config({"eta": 0.1, "mu": 0.3})

    def test_empty_sweep_rejected(self):
        with pytest.raises(ConfigError, match=r"sweep\.values"):
            validate_config({"eta": 0.1, "sweep": {"variable": "eta", "values": []}})

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

    def test_grid_validation(self):
        with pytest.raises(ConfigError, match="grid.points"):
            validate_config({"eta": 0.1, "grid": {"points": 1}})
        with pytest.raises(ConfigError, match="grid.max"):
            validate_config({"eta": 0.1, "grid": {"min": 1.0, "max": 0.5}})


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
        config = sweep_config(variable, dict.fromkeys(cli.DEFAULTS["methods"], True))
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

    def test_config_error_exit_one(self, tmp_path, capsys):
        config_path = write_config(tmp_path, {"eta": 0.1, "bogus": 1})
        code = main(["--config", str(config_path), "--out", str(tmp_path),
                     "--mode", "spectrum"])
        assert code == 1
        assert "bogus" in capsys.readouterr().err

    def test_numerical_failure_exit_two(self, tmp_path, capsys):
        # no electron exchange at all: both sector grounds are stationary
        # and the steady state is ambiguous
        config_path = write_config(tmp_path, {
            "eta": 0.1, "gamma": 0.0, "n_max": 2,
            "grid": {"min": 0.9, "max": 1.1, "points": 11},
        })
        code = main(["--config", str(config_path), "--out", str(tmp_path),
                     "--mode", "spectrum"])
        assert code == 2
        assert "numerical failure" in capsys.readouterr().err

    @pytest.mark.parametrize("mode", ["spectrum", "sweep"])
    def test_zero_cavity_rate_exit_one(self, tmp_path, capsys, mode):
        # the closed forms divide by gamma_cav, and the default sweep has them
        config_path = write_config(tmp_path, {
            "eta": 0.1, "gamma_cav": 0, "n_max": 2,
            "sweep": {"variable": "eta", "values": [0.1]},
        })
        code = main(["--config", str(config_path), "--out", str(tmp_path), "--mode", mode])
        assert code == 1
        assert "configuration error: gamma_cav: must be > 0" in capsys.readouterr().err
        assert not list(tmp_path.glob("*.csv"))

    def test_rabi_config_exit_one(self, tmp_path, capsys):
        config_path = write_config(tmp_path, {"rabi": 0.1})
        code = main(["--config", str(config_path), "--out", str(tmp_path),
                     "--mode", "spectrum"])
        assert code == 1
        assert "unknown configuration key: rabi" in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["sub/x.csv", ".", "..", "", "ABSOLUTE"])
    def test_output_name_with_a_directory_part_exit_one(self, tmp_path, capsys, name):
        # the table goes inside --out: a path there would crash or escape it
        elsewhere = tmp_path / "elsewhere"
        elsewhere.mkdir()
        if name == "ABSOLUTE":
            name = str(elsewhere / "x.csv")
        out = tmp_path / "out"
        config_path = write_config(tmp_path, {
            "eta": 0.1, "n_max": 2, "sweep": {"variable": "eta", "values": [0.1]},
            "outputs": {"sweep": name},
        })
        code = main(["--config", str(config_path), "--out", str(out), "--mode", "sweep"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("configuration error: outputs.sweep: expected a bare file name")
        assert not out.exists() and not list(elsewhere.iterdir())

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

    def test_missing_file_exit_one(self, tmp_path, capsys):
        code = main(["--config", str(tmp_path / "absent.json"),
                     "--out", str(tmp_path), "--mode", "spectrum"])
        assert code == 1

    def test_non_utf8_file_exit_one(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_bytes(b'{"eta": 0.1, "x": "\xff"}')
        code = main(["--config", str(path), "--out", str(tmp_path), "--mode", "sweep"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("configuration error: configuration is not UTF-8 text: ")
        assert err.count("\n") == 1
        assert not (tmp_path / "sweep.csv").exists()

    # 401 digits overflow a float; past 4300 digits json refuses the literal
    @pytest.mark.parametrize("text, message", [
        ('{"eta": 1%s}' % ("0" * 400), "eta: must be finite"),
        ('{"eta": 0.1, "sweep": {"variable": "mu", "values": [-1%s]}}' % ("0" * 400),
         "sweep.values[0]: must be finite"),
        ('{"eta": 0.1, "grid": {"min": 1%s}}' % ("0" * 400), "grid.min: must be finite"),
        ('{"eta": 1%s}' % ("0" * 4400), "configuration is not valid JSON: "),
    ], ids=["eta", "sweep_value", "grid_min", "past_digit_limit"])
    def test_huge_integer_exit_one(self, tmp_path, capsys, text, message):
        path = tmp_path / "config.json"
        path.write_text(text)
        code = main(["--config", str(path), "--out", str(tmp_path), "--mode", "sweep"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"configuration error: {message}")
        assert err.count("\n") == 1
        assert not (tmp_path / "sweep.csv").exists()
