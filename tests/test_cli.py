import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import spinmap
from spinmap import cli, fileio
from spinmap.cli import DEFAULT_LATTICE_RADIUS, build_parser, main
from spinmap.errors import InversionError, NonConvergenceError
from spinmap.placement import minimum_search_radius

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "tests" / "data"
FIXTURE = DATA / "couplings_fixture.csv"


def run(args):
    return main([str(a) for a in args])


class TestExitCodes:
    def test_missing_input_is_usage_error(self, tmp_path, capsys):
        rc = run(["place", "--couplings", tmp_path / "nope.csv", "--out", tmp_path / "s.json"])
        assert rc == 2
        assert "nope.csv" in capsys.readouterr().err

    def test_usage_error_on_unknown_command(self):
        assert run(["frobnicate"]) == 2

    def test_domain_error_is_json_on_stderr(self, tmp_path, capsys):
        bad = tmp_path / "c.csv"
        fileio.write_couplings_csv(
            bad,
            [
                __import__("spinmap.placement", fromlist=["CouplingMeasurement"]).CouplingMeasurement(
                    "Si1", "Si2", 500.0, 0.2
                )
            ],
        )
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
        # no solution's canonical form can equal the truth's
        monkeypatch.setattr(cli, "canonical_assignment", lambda table, idx, ops: object())
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


class TestLazyScipy:
    def test_cli_import_leaves_scipy_optimize_out(self):
        code = (
            "import sys, numpy as np\n"
            "import spinmap.cli\n"
            "assert 'scipy.optimize' not in sys.modules\n"
            "from spinmap.calibrate import bath_center_shift\n"
            "from spinmap.spinphys import SI29, FieldConfig\n"
            "from spinmap.telegraph import fit_rates\n"
            "field = FieldConfig(b_z=1960.9)\n"
            "f = abs(SI29.gyromagnetic_ratio) * field.b_z_tesla + np.linspace(-50, 50, 41)\n"
            "a = np.exp(-0.5 * ((f - f[20] - 5.0) / 8.0) ** 2)\n"
            "df, _ = bath_center_shift(f, a, SI29, field)\n"
            "assert abs(df - 5.0) < 1e-6, df\n"
            "d = np.random.default_rng(0).exponential(2.0, 500)\n"
            "rate = fit_rates(d, 'histogram').rate\n"
            "assert 0.4 < rate < 0.6, rate\n"
            "assert 'scipy.optimize' in sys.modules\n"
        )
        src = str(Path(spinmap.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr


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
        data = json.loads(capsys.readouterr().out)
        assert set(data) >= {"phase_update_rad", "effective_rabi_hz", "rotation_angle_rad"}


class TestCalibrateCommand:
    def test_full_calibration_run(self, tmp_path):
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
        freqs = tmp_path / "freqs.json"
        freqs.write_text(json.dumps({
            "field_gauss": 1960.9,
            "spins": {
                "Si5": {"f_plus": fp5, "f_minus": fm5},
                "Si14": {"f_plus": fp14, "f_minus": fm14},
            },
        }))
        dft = tmp_path / "dft.csv"
        dft.write_text(
            "label,A_zz_Hz,A_perp_Hz\nSi5,-150000.0,700.0\nSi14,210000.0,400.0\n"
        )
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
        subparsers = build_parser()._spinmap_subparsers
        for name in ("place", "synth-cluster", "synth-couplings", "reproduce"):
            assert subparsers[name].get_default("lattice_radius") == DEFAULT_LATTICE_RADIUS


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

    def test_report_contents(self, seed1_workdir):
        report = json.loads((seed1_workdir / "report.json").read_text())
        assert report["recovered_truth"] is True
        assert report["unique"] is True
        assert report["branch_history"][-1] == 1
