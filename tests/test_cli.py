import dataclasses
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import spinmap
from spinmap import cli, fileio, placement
from spinmap.cli import DEFAULT_LATTICE_RADIUS, build_parser, main
from spinmap.errors import InputError, InversionError, NonConvergenceError
from spinmap.placement import CouplingMeasurement, minimum_search_radius

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "tests" / "data"
FIXTURE = DATA / "couplings_fixture.csv"


def run(args):
    return main([str(a) for a in args])


PLACE_ARGS = ["--couplings", "COUPLINGS", "--out", "OUT"]
DDRF_ARGS = ["--omega0", "1.60e6", "--omega1", "1.63e6", "--omega-rf", "1.60e6"]
CALIBRATE_ARGS = ["calibrate", "--freqs", "FREQS", "--dft", "DFT", "--out", "OUT"]


class TestExitCodes:
    def test_missing_input_is_usage_error(self, tmp_path, capsys):
        rc = run(["place", "--couplings", tmp_path / "nope.csv", "--out", tmp_path / "s.json"])
        assert rc == 2
        assert "nope.csv" in capsys.readouterr().err

    def test_usage_error_on_unknown_command(self):
        assert run(["frobnicate"]) == 2

    def test_domain_error_is_json_on_stderr(self, tmp_path, capsys):
        bad = tmp_path / "c.csv"
        fileio.write_couplings_csv(bad, [CouplingMeasurement("Si1", "Si2", 500.0, 0.2)])
        rc = run(
            ["place", "--couplings", bad, "--lattice-radius", "12",
             "--out", tmp_path / "s.json"]
        )
        assert rc == 1
        err = json.loads(capsys.readouterr().err)
        assert "error" in err and "message" in err


    @pytest.mark.parametrize(
        "exc, key, expected",
        [
            (InversionError("no real A_perp", residual=np.float64(12.5)), "residual", 12.5),
            (
                NonConvergenceError(
                    "no convergence",
                    diagnostics={"cost": np.float64(3.0), "x": np.array([1.0, -2.0])},
                ),
                "diagnostics",
                {"cost": 3.0, "x": [1.0, -2.0]},
            ),
        ],
    )
    def test_error_details_in_stderr_json(self, tmp_path, capsys, monkeypatch, exc, key, expected):
        def fail(*args, **kwargs):
            raise exc

        monkeypatch.setattr(cli, "field_scan_min_aperp", fail)
        freqs = tmp_path / "freqs.json"
        freqs.write_text(json.dumps(
            {"field_gauss": 1960.9, "spins": {"Si5": {"f_plus": 1.0, "f_minus": 2.0}}}
        ))
        dft = tmp_path / "dft.csv"
        dft.write_text("label,A_zz_Hz,A_perp_Hz\nSi5,-150000.0,700.0\n")
        rc = run(["calibrate", "--freqs", freqs, "--dft", dft, "--out", tmp_path / "c.json"])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        data = json.loads(err)
        assert data["error"] == exc.code
        assert data[key] == expected

    def test_failed_recovery_has_typed_code(self, tmp_path, capsys, monkeypatch):
        # no solution's orbit holds the truth
        monkeypatch.setattr(cli, "truth_recovery", lambda solutions, truth: (False, 1))
        rc = run(["reproduce", "--seed", "1", "--workdir", tmp_path / "w"])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert json.loads(err)["error"] == "recovery"

    @pytest.mark.parametrize("args", [
        ["lattice", "--radius", "nan"],
        ["lattice", "--radius", "inf"],
        ["lattice", "--radius", "5", "--a", "nan"],
        ["lattice", "--radius", "5", "--c", "inf"],
        ["--gamma-si29=nan", "lattice", "--radius", "5"],
        ["--gamma-si29=0", "lattice", "--radius", "5"],
        ["--gamma-c13=inf", "lattice", "--radius", "5"],
        ["--gamma-c13=-inf", "lattice", "--radius", "5"],
    ])
    def test_non_finite_number_is_input_error(self, tmp_path, capsys, args):
        out = tmp_path / "lat.csv"
        assert run([*args, "--out", out]) == 1
        assert json.loads(capsys.readouterr().err)["error"] == "input"
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--gamma-si29=nan", "--gamma-c13=0"])
    def test_bad_gamma_rejected_by_constants(self, capsys, flag):
        assert run([flag, "constants"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err)["error"] == "input"

    def test_bad_flag_value_is_input_error(self, tmp_path, capsys):
        rc = run(["synth", "telegraph", "--rates", "0.2", "--out", tmp_path / "t.csv"])
        assert rc == 1
        assert json.loads(capsys.readouterr().err)["error"] == "input"

    @pytest.mark.parametrize("argv, named", [
        pytest.param(["place", *PLACE_ARGS, "--tolerance", "nan"], "tolerance_default",
                     id="place-tolerance-nan"),
        pytest.param(["place", *PLACE_ARGS, "--tolerance", "0"], "tolerance_default",
                     id="place-tolerance-0"),
        pytest.param(["place", *PLACE_ARGS, "--override", "Si1:Si2=nan"], "override Si1:Si2",
                     id="place-override-nan"),
        pytest.param(["place", *PLACE_ARGS, "--override", "Si2:Si1=-3"], "override Si1:Si2",
                     id="place-override-negative"),
        pytest.param(["place", *PLACE_ARGS, "--relative-tolerance", "-1"],
                     "relative_tolerance_strong", id="place-relative-tolerance"),
        pytest.param(["place", *PLACE_ARGS, "--strong-threshold", "nan"], "strong_threshold",
                     id="place-strong-threshold-nan"),
        pytest.param(["place", *PLACE_ARGS, "--strong-threshold", "inf"], "strong_threshold",
                     id="place-strong-threshold-inf"),
        pytest.param(["synth", "telegraph", "--rates", "a,b", "--out", "OUT"], "--rates",
                     id="synth-telegraph-rates-text"),
        pytest.param(["synth", "telegraph", "--rates", "0.1,nan", "--out", "OUT"],
                     "dark_to_bright rate", id="synth-telegraph-rates-nan"),
        pytest.param(["synth", "telegraph", "--dt", "nan", "--out", "OUT"], "dt",
                     id="synth-telegraph-dt"),
        pytest.param(["synth", "telegraph", "--duration", "nan", "--out", "OUT"], "duration",
                     id="synth-telegraph-duration-nan"),
        pytest.param(["synth", "telegraph", "--duration", "-5", "--out", "OUT"], "duration",
                     id="synth-telegraph-duration-negative"),
        pytest.param(["synth", "telegraph", "--bright-cps", "nan", "--out", "OUT"], "bright_cps",
                     id="synth-telegraph-bright-cps-nan"),
        pytest.param(["synth", "telegraph", "--dark-cps", "-5", "--out", "OUT"], "dark_cps",
                     id="synth-telegraph-dark-cps-negative"),
        pytest.param(["ddrf-calc", *DDRF_ARGS, "--tau", "nan"], "tau", id="ddrf-tau"),
        pytest.param(["ddrf-calc", *DDRF_ARGS, "--tau", "20e-6", "--rabi", "inf"], "omega",
                     id="ddrf-rabi"),
        pytest.param(["ddrf-calc", "--omega0", "nan", "--omega1", "1.63e6", "--omega-rf",
                      "1.60e6", "--tau", "20e-6", "--json"], "omega_0", id="ddrf-json-omega0"),
        pytest.param(["ddrf-calc", "--omega0", "1e308", "--omega1", "1e308", "--omega-rf", "0",
                      "--tau", "1"], "phase", id="ddrf-phase-overflow"),
        pytest.param(["telegraph", "--trace", "TRACE", "--threshold", "nan", "--out", "OUT"],
                     "threshold", id="telegraph-threshold"),
        pytest.param(["export-graph", "--couplings", "COUPLINGS", "--cutoff", "nan",
                      "--out", "OUT"], "cutoff", id="export-graph-cutoff"),
        pytest.param(["synth", "cluster", "--seed", "-1", "--out", "OUT"], "seed",
                     id="synth-cluster-seed"),
        pytest.param(["synth", "couplings", "--truth", "TRUTH", "--seed", "-1", "--out", "OUT"],
                     "seed", id="synth-couplings-seed"),
        pytest.param(["synth", "telegraph", "--seed", "-3", "--out", "OUT"], "seed",
                     id="synth-telegraph-seed"),
        pytest.param(["reproduce", "--seed", "-1", "--workdir", "OUT"], "seed",
                     id="reproduce-seed"),
        pytest.param(["synth", "cluster", "--n-c", "-1", "--out", "OUT"], "carbon count",
                     id="synth-cluster-n-c"),
        pytest.param(["synth", "cluster", "--min-detectable", "nan", "--out", "OUT"],
                     "min_detectable must", id="synth-cluster-min-detectable"),
        pytest.param(["synth", "couplings", "--truth", "TRUTH", "--min-detectable", "nan",
                      "--out", "OUT"], "min_detectable must", id="synth-couplings-min-detectable"),
        pytest.param(["place", *PLACE_ARGS, "--min-detectable", "nan"], "min_detectable must",
                     id="place-min-detectable-nan"),
        pytest.param(["place", *PLACE_ARGS, "--min-detectable", "-1"], "min_detectable must",
                     id="place-min-detectable-negative"),
        pytest.param(["place", *PLACE_ARGS, "--max-branches", "-5"], "max_branches",
                     id="place-max-branches"),
        pytest.param([*CALIBRATE_ARGS, "--grid-step", "0"], "--grid-step",
                     id="calibrate-grid-step-0"),
        pytest.param([*CALIBRATE_ARGS, "--grid-step", "nan"], "--grid-step",
                     id="calibrate-grid-step-nan"),
        pytest.param([*CALIBRATE_ARGS, "--grid-step", "-0.01"], "--grid-step",
                     id="calibrate-grid-step-negative"),
        pytest.param([*CALIBRATE_ARGS, "--grid-span", "inf"], "--grid-span",
                     id="calibrate-grid-span-inf"),
        pytest.param([*CALIBRATE_ARGS, "--grid-span", "0"], "--grid-span",
                     id="calibrate-grid-span-0"),
        pytest.param([*CALIBRATE_ARGS, "--grid-span", "0.001"], "--grid-span",
                     id="calibrate-grid-span-one-point"),
        pytest.param(["synth", "telegraph", "--duration", "0.001", "--out", "OUT"], "duration",
                     id="synth-telegraph-duration-zero-bins"),
    ])
    def test_bad_value_is_input_error(self, tmp_path, capsys, cli_inputs, argv, named):
        argv, _ = _resolve(argv, cli_inputs, tmp_path)
        assert run(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        err = json.loads(captured.err)
        assert err["error"] == "input" and named in err["message"]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("argv, named", [
        pytest.param([*CALIBRATE_ARGS, "--grid-step", "1e-7"], "MAX_GRID_POINTS",
                     id="calibrate-tiny-step"),
        pytest.param([*CALIBRATE_ARGS, "--grid-span", "1e300", "--grid-step", "1"],
                     "MAX_GRID_POINTS", id="calibrate-huge-span"),
        pytest.param(["synth", "telegraph", "--duration", "1e300", "--out", "OUT"],
                     "MAX_TELEGRAPH_BINS", id="synth-telegraph-huge-duration"),
        pytest.param(["synth", "telegraph", "--duration", "1e9", "--out", "OUT"],
                     "MAX_TELEGRAPH_BINS", id="synth-telegraph-long-duration"),
        pytest.param(["synth", "telegraph", "--dt", "1e-9", "--out", "OUT"],
                     "MAX_TELEGRAPH_BINS", id="synth-telegraph-tiny-dt"),
    ])
    def test_oversized_request_is_capacity_error(self, tmp_path, capsys, cli_inputs,
                                                 monkeypatch, argv, named):
        # the cap must be checked before the grid or trace is laid out or drawn
        def no_alloc(*args, **kwargs):
            raise AssertionError("allocation or draw reached past the cap")

        argv, _ = _resolve(argv, cli_inputs, tmp_path)
        for name in ("arange", "empty"):
            monkeypatch.setattr(np, name, no_alloc)
        monkeypatch.setattr(np.random, "default_rng", no_alloc)
        assert run(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        err = json.loads(captured.err)
        assert err["error"] == "capacity" and named in err["message"]
        assert not (tmp_path / "out").exists()

    def test_nan_sigma_is_input_error(self, tmp_path, capsys):
        out = tmp_path / "c.csv"
        rc = run(["synth", "couplings", "--truth", DATA / "truth_fixture.json",
                  "--sigma", "nan", "--out", out])
        assert rc == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "input" and "amplitude" in err["message"]
        assert not out.exists()

    @pytest.mark.parametrize("content", ["not json {", "[]", "{}"])
    @pytest.mark.parametrize("command", [
        ["refine", "--couplings", FIXTURE, "--solution"],
        ["place", "--couplings"],
        ["export-graph", "--couplings", FIXTURE, "--solution"],
        ["synth", "couplings", "--truth"],
        ["calibrate", "--dft", "DFT", "--freqs"],
    ], ids=["refine", "place", "export-graph", "synth-couplings", "calibrate"])
    def test_malformed_json_input_is_input_error(self, tmp_path, capsys, command, content):
        bad = tmp_path / "bad.json"
        bad.write_text(content)
        dft = tmp_path / "dft.csv"
        dft.write_text("label,A_zz_Hz,A_perp_Hz\nSi5,-150000.0,700.0\n")
        out = tmp_path / "out.json"
        command = [dft if a == "DFT" else a for a in command]
        assert run([*command, bad, "--out", out]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "input" and "bad.json" in err["message"]
        assert not out.exists()

    @pytest.mark.parametrize("command, content, where", [
        (["telegraph", "--trace"], b"t_s,counts_per_s\n0.0,100.0\n0.005,abc\n", "bad.csv:3"),
        (["calibrate", "--freqs", "FREQS", "--dft"],
         b"label,A_zz_Hz,A_perp_Hz\nSi5,x,700.0\n", "bad.csv:2"),
        (["place", "--couplings"],
         b"spin_a,spin_b,f_hz,sigma_hz,subspace_mode\nSi1,Si2,5.0,0.2,averag\xe9\n", "bad.csv"),
    ], ids=["telegraph", "calibrate", "place"])
    def test_malformed_csv_input_is_input_error(self, tmp_path, capsys, command, content, where):
        bad = tmp_path / "bad.csv"
        bad.write_bytes(content)
        freqs = tmp_path / "freqs.json"
        freqs.write_text(json.dumps(
            {"field_gauss": 1960.9, "spins": {"Si5": {"f_plus": 1.0, "f_minus": 2.0}}}
        ))
        out = tmp_path / "out.json"
        command = [freqs if a == "FREQS" else a for a in command]
        assert run([*command, bad, "--out", out]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "input" and where in err["message"]
        assert not out.exists()

    @pytest.mark.parametrize("command", ["place", "refine"])
    def test_non_finite_coupling_is_input_error(self, tmp_path, capsys, command):
        sols = tmp_path / "solutions.json"
        assert run(["place", "--couplings", FIXTURE, "--out", sols]) == 0
        capsys.readouterr()
        lines = FIXTURE.read_text().splitlines()
        cells = lines[1].split(",")
        cells[2] = "nan"  # f_hz
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join([lines[0], ",".join(cells), *lines[2:]]) + "\n")
        out = tmp_path / "out.json"
        args = ["--solution", sols] if command == "refine" else []
        assert run([command, *args, "--couplings", bad, "--out", out]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "input" and "bad.csv:2" in err["message"]
        assert not out.exists()

    def test_non_finite_solution_position_is_input_error(self, tmp_path, capsys):
        sols = tmp_path / "solutions.json"
        assert run(["place", "--couplings", FIXTURE, "--out", sols]) == 0
        capsys.readouterr()
        data = json.loads(sols.read_text())
        data["solutions"][0]["assignment"]["Si2"]["position"][0] = float("nan")
        sols.write_text(json.dumps(data))
        out = tmp_path / "refined.json"
        assert run(["refine", "--solution", sols, "--couplings", FIXTURE, "--out", out]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "input" and "'Si2'" in err["message"]
        assert not out.exists()

    def test_refined_residual_above_initial_is_typed(self, tmp_path, capsys, monkeypatch):
        sols = tmp_path / "solutions.json"
        assert run(["place", "--couplings", FIXTURE, "--out", sols]) == 0
        capsys.readouterr()

        def worse_step(base, x0, terms, signs, param):
            info = {"iterations": 1, "converged_by": "step", "gradient_norm": 0.0}
            return x0 + 0.5, info

        refine_module = importlib.import_module("spinmap.refine")  # spinmap.refine is the function
        monkeypatch.setattr(refine_module, "_levenberg_marquardt", worse_step)
        rc = run(["refine", "--solution", sols, "--couplings", FIXTURE,
                  "--out", tmp_path / "refined.json"])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        data = json.loads(err)
        assert data["error"] == "non_convergence"
        diag = data["diagnostics"]
        assert diag["final_residual"] > diag["initial_residual"]


class TestNoScipy:
    def test_histogram_fit_and_calibration_import_no_scipy(self, tmp_path):
        trace, fit, calib = tmp_path / "trace.csv", tmp_path / "fit.json", tmp_path / "calib.json"
        assert run(["synth", "telegraph", "--seed", "3", "--out", trace]) == 0
        freqs, dft = _calibration_inputs(tmp_path)
        code = (
            "import sys\n"
            "from spinmap.cli import main\n"
            f"assert main(['telegraph', '--trace', {str(trace)!r}, '--method', 'histogram', "
            f"'--out', {str(fit)!r}]) == 0\n"
            f"assert main(['calibrate', '--freqs', {str(freqs)!r}, '--dft', {str(dft)!r}, "
            f"'--out', {str(calib)!r}]) == 0\n"
            "loaded = sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy')\n"
            "assert not loaded, loaded\n"
        )
        src = str(Path(spinmap.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(fit.read_text())["rate_bright_to_dark_hz"] > 0


class TestLatticeCommand:
    def test_csv_output(self, tmp_path):
        out = tmp_path / "lat.csv"
        assert run(["lattice", "--radius", "5", "--out", out]) == 0
        assert out.exists()
        assert (tmp_path / "lat.csv.manifest.json").exists()

    def test_json_output(self, tmp_path):
        out = tmp_path / "lat.json"
        assert run(["lattice", "--radius", "5", "--format", "json", "--out", out]) == 0
        data = json.loads(out.read_text())
        assert len(data["sites"]) == 47


class TestPlaceRefineSmoke:
    def test_place_on_shipped_fixture(self, tmp_path):
        out = tmp_path / "solutions.json"
        rc = run(
            ["place", "--couplings", FIXTURE, "--override", "Si1:Si2=3.0", "--out", out]
        )
        assert rc == 0
        data = json.loads(out.read_text())
        assert data["n_solutions"] >= 1
        assert data["branch_history"][-1] == data["n_solutions"]

    def test_refine_on_place_output(self, tmp_path):
        sols = tmp_path / "solutions.json"
        refined = tmp_path / "refined.json"
        assert run(["place", "--couplings", FIXTURE, "--out", sols]) == 0
        assert run(["refine", "--solution", sols, "--couplings", FIXTURE, "--out", refined]) == 0
        data = json.loads(refined.read_text())
        assert data["residual_hz2"] >= 0
        assert data["displacement_max_A"] < 3.08


class TestExportGraph:
    def test_edge_count_monotone_in_cutoff(self, tmp_path):
        counts = {}
        for cutoff in (1.0, 2.0):
            out = tmp_path / f"g{cutoff}.json"
            assert run(
                ["export-graph", "--couplings", FIXTURE, "--cutoff", cutoff, "--out", out]
            ) == 0
            counts[cutoff] = len(json.loads(out.read_text())["edges"])
        assert counts[1.0] >= counts[2.0]

    def test_node_metadata(self, tmp_path):
        out = tmp_path / "g.json"
        dot = tmp_path / "g.dot"
        assert run(
            ["export-graph", "--couplings", FIXTURE, "--out", out, "--dot", dot]
        ) == 0
        nodes = json.loads(out.read_text())["nodes"]
        assert len(nodes) == 25
        assert sum(1 for n in nodes if n["species"] == "Si") == 22
        assert sum(1 for n in nodes if n["species"] == "C") == 3
        assert dot.exists()


class TestSynthAndTelegraph:
    def test_trace_roundtrip_through_analysis(self, tmp_path):
        trace = tmp_path / "trace.csv"
        result = tmp_path / "telegraph.json"
        assert run(
            ["synth", "telegraph", "--rates", "0.18,0.85", "--seed", "3", "--out", trace]
        ) == 0
        assert run(["telegraph", "--trace", trace, "--out", result]) == 0
        data = json.loads(result.read_text())
        assert abs(data["rate_bright_to_dark_hz"] - 0.18) <= 3 * data["rate_bright_to_dark_err"]
        assert abs(data["rate_dark_to_bright_hz"] - 0.85) <= 3 * data["rate_dark_to_bright_err"]

    def test_synth_cluster_then_couplings(self, tmp_path):
        truth = tmp_path / "truth.json"
        coupl = tmp_path / "couplings.csv"
        assert run(["synth", "cluster", "--seed", "2", "--out", truth]) == 0
        assert run(
            ["synth", "couplings", "--truth", truth, "--seed", "2", "--out", coupl]
        ) == 0
        meas = fileio.read_couplings(coupl)
        assert len(meas) > 50


class TestDdrfCalc:
    def test_json_mode(self, capsys):
        rc = run(
            ["ddrf-calc", "--omega0", "1.60e6", "--omega1", "1.63e6",
             "--omega-rf", "1.60e6", "--tau", "20e-6", "--rabi", "500",
             "--pulses", "16", "--json"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert out == (
            '{\n  "effective_rabi_hz": -577.95744031572,\n'
            '  "phase_update_rad": 0.6283185307179586,\n'
            '  "rotation_angle_rad": -1.1620523830933935,\n'
            '  "sign_conditional_on_initial_state": true\n}\n'
        )
        data = json.loads(out)
        assert set(data) >= {"phase_update_rad", "effective_rabi_hz", "rotation_angle_rad"}


def _calibration_inputs(d):
    """freqs.json and dft.csv in d for two spins whose true field is 1.47 and
    1.59 G below the nominal 1960.9 G."""
    from spinmap.spinphys import SI29, FieldConfig, HyperfineTensor, nuclear_transition_frequency

    def pair(azz, aperp, b_true):
        f = FieldConfig(b_true)
        hf = HyperfineTensor.from_perp(azz, aperp)
        return (
            nuclear_transition_frequency(f, SI29, hf, 1.5),
            nuclear_transition_frequency(f, SI29, hf, -1.5),
        )

    fp5, fm5 = pair(-150e3, 700.0, 1960.9 - 1.47)
    fp14, fm14 = pair(210e3, 400.0, 1960.9 - 1.59)
    freqs = d / "freqs.json"
    freqs.write_text(json.dumps({
        "field_gauss": 1960.9,
        "spins": {
            "Si5": {"f_plus": fp5, "f_minus": fm5},
            "Si14": {"f_plus": fp14, "f_minus": fm14},
        },
    }))
    dft = d / "dft.csv"
    dft.write_text(
        "label,A_zz_Hz,A_perp_Hz\nSi5,-150000.0,700.0\nSi14,210000.0,400.0\n"
    )
    return freqs, dft


class TestCalibrateCommand:
    def test_full_calibration_run(self, tmp_path):
        freqs, dft = _calibration_inputs(tmp_path)
        out = tmp_path / "calib.json"
        assert run(["calibrate", "--freqs", freqs, "--dft", dft, "--out", out]) == 0
        data = json.loads(out.read_text())
        assert data["g_factor"] == pytest.approx(-2.0012, abs=1e-4)
        assert data["delta_b_gauss"] == pytest.approx(-1.53, abs=0.02)


class TestConstantsAndConfig:
    def test_constants_json(self, capsys):
        assert run(["constants"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["gamma_si29_Hz_per_T"] == -8.465e6
        assert data["g_electron_default"] == -2.0028

    def test_config_file_sets_defaults_and_flags_win(self, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("[place]\ntolerance = 0.9\n")
        out = tmp_path / "s.json"
        assert run(["--config", cfg, "place", "--couplings", FIXTURE, "--out", out]) == 0
        manifest = json.loads((tmp_path / "s.json.manifest.json").read_text())
        assert manifest["config"]["tolerance"] == 0.9
        assert run(
            ["--config", cfg, "place", "--couplings", FIXTURE, "--tolerance", "0.6",
             "--out", out]
        ) == 0
        manifest = json.loads((tmp_path / "s.json.manifest.json").read_text())
        assert manifest["config"]["tolerance"] == 0.6

    def test_config_section_of_nested_subcommand(self, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("[synth-telegraph]\nduration = 20.0\nseed = 7\n")
        out = tmp_path / "trace.csv"
        assert run(["--config", cfg, "synth", "telegraph", "--seed", "3", "--out", out]) == 0
        config = json.loads((tmp_path / "trace.csv.manifest.json").read_text())["config"]
        assert (config["duration"], config["seed"]) == (20.0, 3)

    def test_unknown_config_section_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("[bogus]\nx = 1\n")
        rc = run(["--config", cfg, "constants"])
        assert rc == 2  # invalid config is a usage error

    def test_malformed_config_is_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("tolerance 0.6\n")
        assert run(["--config", cfg, "constants"]) == 2

    def test_config_not_utf8_is_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.txt"
        cfg.write_bytes(b"[place]\ntolerance = 0.\xe96\n")
        assert run(["--config", cfg, "constants"]) == 2
        assert "cfg.txt: not a UTF-8 text file" in capsys.readouterr().err

    def test_gamma_override_changes_placement(self, tmp_path, capsys):
        out = tmp_path / "s.json"
        rc = run(["--gamma-si29=-8.4e6", "place", "--couplings", FIXTURE, "--out", out])
        assert rc == 1  # couplings become inconsistent with the lattice
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "infeasible"

    def test_gamma_flags_recorded_in_manifest(self, tmp_path):
        out = tmp_path / "lat.csv"
        assert run(["--gamma-si29=-8.4e6", "--gamma-c13=10.7e6", "lattice", "--radius", "5",
                    "--out", out]) == 0
        constants = json.loads((tmp_path / "lat.csv.manifest.json").read_text())["constants"]
        assert constants["gamma_si29_Hz_per_T"] == -8.4e6
        assert constants["gamma_c13_Hz_per_T"] == 10.7e6

    def test_gamma_flag_printed_by_constants(self, capsys):
        assert run(["--gamma-si29=-8.4e6", "constants"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["gamma_si29_Hz_per_T"] == -8.4e6
        assert data["gamma_c13_Hz_per_T"] == 10.7084e6

    def test_gamma_flag_does_not_leak_into_next_run(self, tmp_path):
        assert run(["--gamma-si29=-8.4e6", "lattice", "--radius", "5",
                    "--out", tmp_path / "lat.csv"]) == 0
        assert run(["place", "--couplings", FIXTURE, "--out", tmp_path / "s.json"]) == 0

    def test_default_lattice_radius_covers_reach(self):
        # the help text's claim: 3 Hz reach at 11 A cluster extent
        assert DEFAULT_LATTICE_RADIUS >= minimum_search_radius(3.0, cluster_extent=11.0)
        subparsers = cli.COMMANDS
        for name in ("place", "synth-cluster", "synth-couplings", "reproduce"):
            assert subparsers[name].get_default("lattice_radius") == DEFAULT_LATTICE_RADIUS


def _nan_coupling_json(path):
    rows = [
        {"spin_a": m.spin_a, "spin_b": m.spin_b, "f_hz": m.f_ij, "sigma_hz": m.sigma,
         "subspace_mode": m.subspace_mode}
        for m in fileio.read_couplings(FIXTURE)
    ]
    rows[2]["f_hz"] = float("nan")  # json writes NaN
    path.write_text(json.dumps({"couplings": rows}))
    return path


@pytest.mark.parametrize("command", ["place", "refine"])
def test_non_finite_json_coupling_names_file_and_row(tmp_path, capsys, command):
    sols = tmp_path / "solutions.json"
    assert run(["place", "--couplings", FIXTURE, "--out", sols]) == 0
    capsys.readouterr()
    bad = _nan_coupling_json(tmp_path / "nan.json")
    out = tmp_path / "out.json"
    args = ["--solution", sols] if command == "refine" else []
    assert run([command, *args, "--couplings", bad, "--out", out]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "input"
    assert err["message"].startswith(f"{bad}: couplings[2]: ")
    assert "must be finite" in err["message"]
    assert not out.exists()


@pytest.fixture(scope="module")
def cli_inputs(tmp_path_factory):
    """One input file of each kind a subcommand reads."""
    d = tmp_path_factory.mktemp("inputs")
    assert run(["place", "--couplings", FIXTURE, "--out", d / "solutions.json"]) == 0
    assert run(["synth", "telegraph", "--out", d / "trace.csv"]) == 0
    _calibration_inputs(d)
    return {"COUPLINGS": FIXTURE, "SOLUTION": d / "solutions.json", "TRACE": d / "trace.csv",
            "FREQS": d / "freqs.json", "DFT": d / "dft.csv", "TRUTH": DATA / "truth_fixture.json"}


# every file-producing subcommand: (manifest command, argv); upper-case words
# are the input files of cli_inputs, and OUT and DOT the outputs
FILE_COMMANDS = [
    ("lattice", ["lattice", "--radius", "5", "--out", "OUT"]),
    ("place", ["place", "--couplings", "COUPLINGS", "--out", "OUT"]),
    ("refine", ["refine", "--solution", "SOLUTION", "--couplings", "COUPLINGS", "--out", "OUT"]),
    ("calibrate", ["calibrate", "--freqs", "FREQS", "--dft", "DFT", "--out", "OUT"]),
    ("telegraph", ["telegraph", "--trace", "TRACE", "--out", "OUT"]),
    ("synth-cluster", ["synth", "cluster", "--seed", "2", "--out", "OUT"]),
    ("synth-couplings", ["synth", "couplings", "--truth", "TRUTH", "--out", "OUT"]),
    ("synth-telegraph", ["synth", "telegraph", "--duration", "20", "--out", "OUT"]),
    ("export-graph", ["export-graph", "--couplings", "COUPLINGS", "--solution", "SOLUTION",
                      "--dot", "DOT", "--out", "OUT"]),
]

INPUT_FILES = ("COUPLINGS", "SOLUTION", "TRACE", "FREQS", "DFT", "TRUTH")
WITH_INPUTS = [c for c in FILE_COMMANDS if set(c[1]) & set(INPUT_FILES)]


def _resolve(argv, inputs, tmp_path):
    files = dict(inputs, OUT=tmp_path / "out", DOT=tmp_path / "out.dot")
    return [str(files.get(a, a)) for a in argv], [str(inputs[a]) for a in argv if a in inputs]


class TestManifests:
    @pytest.mark.parametrize("name, argv", FILE_COMMANDS, ids=[c[0] for c in FILE_COMMANDS])
    def test_same_keys_for_every_command(self, tmp_path, cli_inputs, name, argv):
        argv, inputs = _resolve(argv, cli_inputs, tmp_path)
        assert main(argv) == 0
        manifest = json.loads((tmp_path / "out.manifest.json").read_text())
        expected = vars(build_parser().parse_args(argv))
        assert expected.pop("func") is cli.COMMANDS[name]
        assert manifest["command"] == name
        assert manifest["config"] == expected
        assert manifest["inputs"] == {p: fileio.sha256_file(p) for p in inputs}
        outputs = [str(tmp_path / "out")] + [a for a in argv if a.endswith("out.dot")]
        assert manifest["outputs"] == {p: fileio.sha256_file(p) for p in outputs}

    @pytest.mark.parametrize("name, argv", FILE_COMMANDS, ids=[c[0] for c in FILE_COMMANDS])
    def test_failing_command_writes_no_manifest(self, tmp_path, cli_inputs, monkeypatch,
                                                name, argv):
        def write_then_fail(args, physics):
            fileio.write_json(args.out, {})
            raise InputError("failed after writing its output")

        failing = dataclasses.replace(cli.COMMANDS[name], run=write_then_fail)
        monkeypatch.setitem(cli.COMMANDS, name, failing)
        argv, _ = _resolve(argv, cli_inputs, tmp_path)
        assert main(argv) == 1
        assert (tmp_path / "out").exists()
        assert not (tmp_path / "out.manifest.json").exists()

    @pytest.mark.parametrize("name, argv", WITH_INPUTS, ids=[c[0] for c in WITH_INPUTS])
    def test_missing_input_writes_nothing(self, tmp_path, cli_inputs, capsys, name, argv):
        argv, inputs = _resolve(argv, cli_inputs, tmp_path)
        missing = str(tmp_path / "missing.file")
        argv = [missing if a == inputs[-1] else a for a in argv]
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: input file not found: {missing}\n"
        assert list(tmp_path.iterdir()) == []

    def test_export_graph_hashes_solution(self, tmp_path, cli_inputs):
        out = tmp_path / "g.json"
        sols = cli_inputs["SOLUTION"]
        assert run(["export-graph", "--couplings", FIXTURE, "--solution", sols, "--out", out]) == 0
        manifest = json.loads((tmp_path / "g.json.manifest.json").read_text())
        assert manifest["inputs"] == {
            str(FIXTURE): fileio.sha256_file(FIXTURE), str(sols): fileio.sha256_file(sols),
        }
        assert list(manifest["outputs"]) == [str(out)]

    def test_lattice_config_has_no_func(self, tmp_path):
        assert run(["lattice", "--radius", "5", "--out", tmp_path / "lat.csv"]) == 0
        manifest = json.loads((tmp_path / "lat.csv.manifest.json").read_text())
        assert "func" not in manifest["config"]
        assert manifest["inputs"] == {}


# sha256 of each output file of the FILE_COMMANDS invocations, recorded before
# the output payloads moved from cli into fileio (manifests hold tmp paths and
# are checked by TestManifests)
OUTPUT_SHA256 = {
    "lattice": {"out": "8f05e7027c13f8f6f011f53690be89e9e45fd2126e9d362380d7846ca1678423"},
    "place": {"out": "be3a102bdc0f2d07a2c2b7faf6e5d08d54d63386cb02a1e5a82e467f9ad22d21"},
    "refine": {"out": "b8ae06c2cda13b4ee4f99e8821425e844022762af8b67012b381be84788d6f01"},
    "calibrate": {"out": "b0b9433f63221f43ce13df84c4fe245f3c0fdf37407fb169f78797f82e404a75"},
    "telegraph": {"out": "5475f19f1846d57b8483b07df846a128cdb959065c327eade69797be4728c943"},
    "synth-cluster": {"out": "f1e6e586c6cab1f8d9ebee91660e8edd744c20b9b2abf3372adbcc0a1f00b5ef"},
    "synth-couplings": {"out": "c15283fcfcaa626e65b8838de1f0c3dd2a4cc82a3a64619ca4ba9505c5e11c1d"},
    "synth-telegraph": {"out": "21c6fac6df82f4813405b226da0f10eebb6cb3a39b4a60597b296606f360addd"},
    "export-graph": {"out": "de8db735be136f63946591fae05c6e145fc07dfa412412884edca13953073840",
                     "out.dot": "1de48774609c6f4c8c8a872d29909a54e1f44ce1c0ad9a7ef8c7ec9ba3b2bd95"},
}


@pytest.mark.parametrize("name, argv", FILE_COMMANDS, ids=[c[0] for c in FILE_COMMANDS])
def test_output_bytes_pinned(tmp_path, cli_inputs, name, argv):
    argv, _ = _resolve(argv, cli_inputs, tmp_path)
    assert main(argv) == 0
    written = {p.name: fileio.sha256_file(p) for p in tmp_path.iterdir()
               if not p.name.endswith(".manifest.json")}
    assert written == OUTPUT_SHA256[name]


def test_underdetermined_refine_writes_strict_json(tmp_path):
    # two spins and one measured pair: the Hessian condition number is infinite
    couplings = tmp_path / "c.csv"
    fileio.write_couplings_csv(couplings, [CouplingMeasurement("Si1", "Si2", 40.0, 0.2)])
    sols = tmp_path / "s.json"
    sols.write_text(json.dumps({"solutions": [{"assignment": {
        "Si1": {"position": [0.0, 0.0, 0.0]}, "Si2": {"position": [3.0, 0.5, 1.0]}}}]}))
    out = tmp_path / "refined.json"
    assert run(["refine", "--solution", sols, "--couplings", couplings, "--out", out]) == 0

    def reject(constant):
        raise ValueError(f"non-standard JSON constant {constant}")

    data = json.loads(out.read_text(), parse_constant=reject)
    assert data["underdetermined"] is True
    assert data["hessian_condition"] is None


# vars(parse_args(argv)) of each subcommand, recorded before the subcommands were
# declared as one table each; every entry also has config, gamma_c13 and gamma_si29,
# all None.  (name: (argv, function run, the other values))
PARSER_SNAPSHOT = {
    "constants": (
        ["constants"],
        "cmd_constants",
        {"command": "constants"},
    ),
    "lattice": (
        ["lattice", "--radius", "5"],
        "cmd_lattice",
        {"a": 3.073,
         "c": 10.053,
         "command": "lattice",
         "format": "csv",
         "k_variant": 0,
         "out": "lattice.csv",
         "radius": 5.0,
         "stacking": "ABCB"},
    ),
    "place": (
        ["place", "--couplings", "c.csv"],
        "cmd_place",
        {"a": 3.073,
         "anchor": "Si1",
         "c": 10.053,
         "command": "place",
         "couplings": "c.csv",
         "k_variant": 0,
         "lattice_radius": 28.5,
         "max_branches": 1000000,
         "min_detectable": 3.0,
         "out": "solutions.json",
         "override": None,
         "relative_tolerance": 0.05,
         "stacking": "ABCB",
         "strong_threshold": 35.0,
         "tolerance": 0.6},
    ),
    "refine": (
        ["refine", "--solution", "s.json", "--couplings", "c.csv"],
        "cmd_refine",
        {"anchor": "Si1",
         "command": "refine",
         "couplings": "c.csv",
         "index": 0,
         "out": "refined.json",
         "solution": "s.json"},
    ),
    "calibrate": (
        ["calibrate", "--freqs", "f.json", "--dft", "d.csv"],
        "cmd_calibrate",
        {"command": "calibrate",
         "delta_b_unc": 0.6,
         "dft": "d.csv",
         "freqs": "f.json",
         "g_baseline": -2.0028,
         "grid_span": 5.0,
         "grid_step": 0.01,
         "out": "calibration.json"},
    ),
    "telegraph": (
        ["telegraph", "--trace", "t.csv"],
        "cmd_telegraph",
        {"command": "telegraph",
         "method": "mle",
         "out": "telegraph.json",
         "threshold": 1295.0,
         "trace": "t.csv",
         "window": 5},
    ),
    "ddrf-calc": (
        ["ddrf-calc", "--omega0", "1", "--omega1", "2", "--omega-rf", "3", "--tau", "4"],
        "cmd_ddrf_calc",
        {"command": "ddrf-calc",
         "json": False,
         "omega0": 1.0,
         "omega1": 2.0,
         "omega_rf": 3.0,
         "pulses": 16,
         "rabi": 1000.0,
         "tau": 4.0},
    ),
    "synth-cluster": (
        ["synth", "cluster"],
        "cmd_synth_cluster",
        {"a": 3.073,
         "c": 10.053,
         "clusters": 4,
         "command": "synth",
         "k_variant": 0,
         "lattice_radius": 28.5,
         "min_detectable": 3.0,
         "n_c": 3,
         "n_si": 22,
         "noise": "gaussian",
         "out": "truth.json",
         "seed": 0,
         "sigma": 0.2,
         "size_max": 7,
         "size_min": 5,
         "stacking": "ABCB",
         "synth_command": "cluster"},
    ),
    "synth-couplings": (
        ["synth", "couplings", "--truth", "t.json"],
        "cmd_synth_couplings",
        {"a": 3.073,
         "c": 10.053,
         "command": "synth",
         "k_variant": 0,
         "lattice_radius": 28.5,
         "min_detectable": 3.0,
         "noise": "gaussian",
         "out": "couplings.csv",
         "seed": 0,
         "sigma": 0.2,
         "stacking": "ABCB",
         "synth_command": "couplings",
         "truth": "t.json"},
    ),
    "synth-telegraph": (
        ["synth", "telegraph"],
        "cmd_synth_telegraph",
        {"bright_cps": 3000.0,
         "command": "synth",
         "dark_cps": 600.0,
         "dt": 0.005,
         "duration": 200.0,
         "no_shot_noise": False,
         "out": "trace.csv",
         "rates": "0.18,0.85",
         "seed": 0,
         "synth_command": "telegraph"},
    ),
    "export-graph": (
        ["export-graph", "--couplings", "c.csv"],
        "cmd_export_graph",
        {"command": "export-graph",
         "couplings": "c.csv",
         "cutoff": 1.0,
         "dot": None,
         "out": "graph.json",
         "solution": None},
    ),
    "reproduce": (
        ["reproduce"],
        "cmd_reproduce",
        {"a": 3.073,
         "c": 10.053,
         "command": "reproduce",
         "k_variant": 0,
         "lattice_radius": 28.5,
         "seed": 1,
         "stacking": "ABCB",
         "workdir": "reproduce_out"},
    ),

}


@pytest.mark.parametrize("name", PARSER_SNAPSHOT)
def test_parser_snapshot(name):
    argv, func, values = PARSER_SNAPSHOT[name]
    args = vars(build_parser().parse_args(argv))
    assert args.pop("func").run.__name__ == func
    assert args == dict(values, config=None, gamma_c13=None, gamma_si29=None)


def test_parser_snapshot_covers_every_command():
    assert list(PARSER_SNAPSHOT) == list(cli.COMMANDS)


@pytest.fixture(scope="module")
def seed1_workdir(tmp_path_factory):
    d = tmp_path_factory.mktemp("reproduce") / "r"
    assert run(["reproduce", "--seed", "1", "--workdir", d]) == 0
    return d


class TestReproduce:
    def test_two_runs_byte_identical(self, tmp_path, seed1_workdir):
        d1, d2 = seed1_workdir, tmp_path / "r2"
        assert run(["reproduce", "--seed", "1", "--workdir", d2]) == 0
        files = sorted(p.name for p in d1.iterdir())
        assert files == sorted(p.name for p in d2.iterdir())
        for name in files:
            assert (d1 / name).read_bytes() == (d2 / name).read_bytes()

    def test_outputs_match_recorded_reference(self, seed1_workdir):
        # written by perfbench/record_reference.py; the benchmark checks the same hashes
        reference = json.loads((ROOT / "perfbench" / "reference.json").read_text())
        manifest = json.loads((seed1_workdir / "manifest.json").read_text())
        assert manifest["outputs"] == reference["reproduce_seed1_outputs"]

    def test_symmetry_detected_once(self, tmp_path, monkeypatch):
        # reproduce reads recovery and the class count from the solutions' orbits
        calls = []
        detect = placement._table_symmetry_ops
        for module in (placement, cli):  # a name imported into cli would escape the count
            monkeypatch.setattr(module, "_table_symmetry_ops",
                                lambda table: calls.append(table) or detect(table), raising=False)
        assert run(["reproduce", "--seed", "1", "--workdir", tmp_path / "w"]) == 0
        assert len(calls) == 1

    def test_report_contents(self, seed1_workdir):
        report = json.loads((seed1_workdir / "report.json").read_text())
        assert report["recovered_truth"] is True
        assert report["unique"] is True
        assert report["branch_history"][-1] == 1
