import ast
import json
from pathlib import Path

import numpy as np
import pytest

import spinmap
from spinmap import fileio
from spinmap.errors import InputError
from spinmap.lattice import LatticeParams, build_lattice
from spinmap.placement import CouplingMeasurement
from spinmap.telegraph import TimeTrace

MEAS = [
    CouplingMeasurement("Si1", "Si2", 80.0625, 0.2),
    CouplingMeasurement("Si1", "C1", 12.25, 0.2, "ms_plus_3_2"),
    CouplingMeasurement("C1", "Si10", 185.61, 0.5),
]


class TestCouplingsIO:
    def test_csv_roundtrip_bit_exact(self, tmp_path):
        p = tmp_path / "c.csv"
        fileio.write_couplings_csv(p, MEAS)
        got = fileio.read_couplings_csv(p)
        assert got == MEAS

    def test_json_reader_on_literal_file(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text(json.dumps({"couplings": [
            {"spin_a": "Si1", "spin_b": "Si2", "f_hz": 80.0625, "sigma_hz": 0.2},
            {"spin_a": "Si1", "spin_b": "C1", "f_hz": 12.25, "sigma_hz": 0.2,
             "subspace_mode": "ms_plus_3_2"},
            {"spin_a": "C1", "spin_b": "Si10", "f_hz": 185.61, "sigma_hz": 0.5,
             "subspace_mode": "averaged"},
        ]}))
        assert fileio.read_couplings(p) == MEAS

    def test_json_missing_field_rejected(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text('{"couplings": [{"spin_a": "Si1", "spin_b": "Si2", "f_hz": 5.0}]}')
        with pytest.raises(InputError):
            fileio.read_couplings(p)

    def test_json_invalid_row_named(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text('{"couplings": [{"spin_a": "Si1", "spin_b": "Si2", "f_hz": 5.0, '
                     '"sigma_hz": 0.2}, {"spin_a": "Si1", "spin_b": "Si3", "f_hz": Infinity, '
                     '"sigma_hz": 0.2}]}')
        with pytest.raises(InputError, match=r"c\.json: couplings\[1\]: f_ij and sigma"):
            fileio.read_couplings(p)

    def test_bad_header_rejected(self, tmp_path):
        p = tmp_path / "c.csv"
        p.write_text("a,b,f\nSi1,Si2,5\n")
        with pytest.raises(InputError):
            fileio.read_couplings_csv(p)

    def test_bad_row_rejected_with_line_number(self, tmp_path):
        p = tmp_path / "c.csv"
        p.write_text(
            "spin_a,spin_b,f_hz,sigma_hz,subspace_mode\nSi1,Si1,5.0,0.2,averaged\n"
        )
        with pytest.raises(InputError) as err:
            fileio.read_couplings_csv(p)
        assert ":2:" in str(err.value)


class TestLatticeExport:
    def test_csv_columns_and_precision(self, tmp_path):
        lattice = build_lattice(LatticeParams(), 4.0)
        p = tmp_path / "lat.csv"
        fileio.write_lattice_csv(p, lattice)
        lines = p.read_text().splitlines()
        assert lines[0] == "species,i,j,k,basis,x,y,z"
        first = lines[1].split(",")
        assert len(first) == 8
        for v in first[5:]:
            assert len(v.split(".")[1]) == 6  # six decimal places


class TestTraceIO:
    def test_roundtrip(self, tmp_path):
        tr = TimeTrace(np.arange(10) * 0.005, np.linspace(0, 9, 10) * 100.0)
        p = tmp_path / "t.csv"
        fileio.write_trace_csv(p, tr)
        got = fileio.read_trace_csv(p)
        assert (got.timestamps == tr.timestamps).all()
        assert (got.counts == tr.counts).all()


class TestGraphExport:
    def test_cutoff_monotone(self):
        g1 = fileio.coupling_graph(MEAS, cutoff=1.0)
        g2 = fileio.coupling_graph(MEAS, cutoff=2.0)
        g100 = fileio.coupling_graph(MEAS, cutoff=100.0)
        assert len(g1["edges"]) >= len(g2["edges"]) >= len(g100["edges"])
        assert len(g100["edges"]) == 1

    def test_nodes_only_for_empty_edges(self):
        g = fileio.coupling_graph(MEAS, cutoff=1e9)
        assert g["edges"] == []
        assert {n["label"] for n in g["nodes"]} == {"Si1", "Si2", "C1", "Si10"}

    def test_species_metadata(self):
        g = fileio.coupling_graph(MEAS)
        by_label = {n["label"]: n["species"] for n in g["nodes"]}
        assert by_label["Si1"] == "Si"
        assert by_label["C1"] == "C"

    def test_dot_output(self):
        dot = fileio.graph_to_dot(fileio.coupling_graph(MEAS))
        assert "green" in dot and "orange" in dot
        assert '"Si1" -- ' in dot or '"C1" -- ' in dot


class TestConfigParser:
    def test_values_and_sections(self):
        text = """
        # comment
        tolerance = 0.6
        anchor = "Si1"
        [place]
        max_branches = 1000000
        verbose = true
        scale = 1.5e-3
        """
        cfg = fileio.parse_config_text(text)
        assert cfg["tolerance"] == 0.6
        assert cfg["anchor"] == "Si1"
        assert cfg["place.max_branches"] == 1000000
        assert cfg["place.verbose"] is True
        assert cfg["place.scale"] == 1.5e-3

    def test_bad_line_rejected(self):
        with pytest.raises(InputError):
            fileio.parse_config_text("tolerance 0.6")

    def test_bad_value_rejected(self):
        with pytest.raises(InputError):
            fileio.parse_config_text("x = {1,2}")

    def test_hyphenated_section_and_false(self):
        text = '[synth-cluster]\nseed = 7\nverbose = FALSE\nname = "a b"\n'
        assert fileio.parse_config_text(text) == {
            "synth-cluster.seed": 7,
            "synth-cluster.verbose": False,
            "synth-cluster.name": "a b",
        }


class TestManifest:
    def test_deterministic_and_hash_consistent(self, tmp_path):
        f = tmp_path / "in.txt"
        f.write_text("payload")
        m1 = fileio.build_manifest("cmd", {"a": 1}, [f], [f])
        m2 = fileio.build_manifest("cmd", {"a": 1}, [f], [f])
        assert fileio.canonical_json(m1) == fileio.canonical_json(m2)
        assert m1["config_sha256"] == fileio.sha256_text(fileio.canonical_json({"a": 1}))
        assert m1["inputs"][str(f)] == fileio.sha256_file(f)
        assert "constants" in m1 and "version" in m1


class TestSolutionsIO:
    def test_write_and_read_positions(self, tmp_path, table26):
        from spinmap.placement import PlacementSolution

        sol = PlacementSolution(
            {"Si1": table26.site(0), "Si2": table26.site(5)}, 0.25, (1, 2),
            orbit=frozenset({(0, 5), (1, 6), (2, 7)}),
        )
        p = tmp_path / "sol.json"
        fileio.write_solutions_json(p, [sol], ambiguous={"Si2": [table26.site(5)]})
        data = json.loads(p.read_text())
        assert data["n_solutions"] == 1
        assert data["solutions"][0]["residual_hz2"] == 0.25
        assert data["solutions"][0]["symmetry_multiplicity"] == 3
        pos = fileio.read_solution_positions(p)
        assert np.allclose(pos["Si1"], table26.site(0).position)

    def test_read_out_of_range_index(self, tmp_path, table26):
        from spinmap.placement import PlacementSolution

        p = tmp_path / "sol.json"
        fileio.write_solutions_json(
            p, [PlacementSolution({"Si1": table26.site(0)}, 0.0, (1,), orbit=frozenset({(0,)}))]
        )
        with pytest.raises(InputError):
            fileio.read_solution_positions(p, index=4)

    @pytest.mark.parametrize("content", [b"\xff\xfe not text", b"{\"solutions\": [", b"[1, 2]",
                                         b'{"solutions": [{"assignment": {"Si1": {}}}]}'])
    def test_malformed_file_is_input_error(self, tmp_path, content):
        p = tmp_path / "sol.json"
        p.write_bytes(content)
        with pytest.raises(InputError, match="sol.json"):
            fileio.read_solution_positions(p)


FILE_CALLS = {"open", "read_text", "write_text", "read_bytes", "write_bytes"}


def test_only_fileio_touches_files():
    # every file format lives in fileio: no other module opens, reads or writes a file
    for path in sorted(Path(spinmap.__file__).parent.glob("*.py")):
        if path.name == "fileio.py":
            continue
        calls = [
            (n.lineno, name)
            for n in ast.walk(ast.parse(path.read_text()))
            if isinstance(n, ast.Call)
            for name in [getattr(n.func, "id", None) or getattr(n.func, "attr", None)]
            if name in FILE_CALLS
        ]
        assert not calls, f"{path.name}: file access at {calls}"


def _calls(tree, name, arg):
    """(enclosing function, argument arg) of each call of name in tree."""
    calls = []
    for fn in ast.walk(tree):
        if isinstance(fn, ast.FunctionDef):
            for n in ast.walk(fn):
                if isinstance(n, ast.Call) and (
                    getattr(n.func, "id", None) or getattr(n.func, "attr", None)
                ) == name:
                    calls.append((fn.name, ast.unparse(n.args[arg])))
    return calls


def test_cli_writes_only_manifests_itself():
    # every output payload is built in fileio; cli writes JSON only for manifests,
    # and prints canonical JSON only of the constant table
    src = Path(spinmap.__file__).parent
    cli_tree = ast.parse((src / "cli.py").read_text())
    assert _calls(cli_tree, "write_json", 1) == [("cmd_reproduce", "manifest"),
                                                 ("main", "manifest")]
    assert _calls(cli_tree, "canonical_json", 0) == [("cmd_constants",
                                                      "physics.constants_table()")]
    for key in ('"residual_hz2"', '"phase_update_rad"'):
        with_key = sorted(p.name for p in src.glob("*.py") if key in p.read_text())
        assert with_key == ["fileio.py"], key
