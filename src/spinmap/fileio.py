"""File formats: coupling tables, lattice exports, truth clusters, solution
files, refinement results and reports, calibration inputs and results,
traces and telegraph rates, the DDRF gate parameters, graphs, run
manifests, and the flat key=value config format.

All writers are deterministic (sorted keys, fixed float formatting, no
timestamps) so identical inputs give byte-identical outputs.
"""

import csv
import hashlib
import json
import math
import re
from pathlib import Path

import numpy as np

from .errors import InputError
from .lattice import Lattice, LatticeSite
from .placement import CouplingMeasurement
from .spinphys import DEFAULT_PHYSICS, FieldConfig, HyperfineTensor
from .synth import NoiseModel, SyntheticCluster
from .telegraph import TimeTrace

COUPLING_COLUMNS = ["spin_a", "spin_b", "f_hz", "sigma_hz", "subspace_mode"]


# ---------------------------------------------------------------------------
# coupling tables


def write_couplings_csv(path, measurements):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(COUPLING_COLUMNS)
        for m in measurements:
            w.writerow([m.spin_a, m.spin_b, repr(m.f_ij), repr(m.sigma), m.subspace_mode])


def read_csv_rows(path, columns, parse):
    """[parse(row) for each row] of a CSV file with exactly these columns.

    InputError names the file if it is not UTF-8 text or has other columns,
    and the file and line if parse raises ValueError, TypeError (a short
    row) or InputError.
    """
    out = []
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.DictReader(fh)
            if reader.fieldnames != columns:
                raise InputError(f"{path}: expected columns {columns}, got {reader.fieldnames}")
            for row in reader:
                try:
                    out.append(parse(row))
                except (InputError, TypeError, ValueError) as exc:
                    raise InputError(f"{path}:{reader.line_num}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: not a UTF-8 text file: {exc}") from exc
    return out


def read_couplings_csv(path):
    return read_csv_rows(path, COUPLING_COLUMNS, lambda row: CouplingMeasurement(
        row["spin_a"], row["spin_b"], float(row["f_hz"]), float(row["sigma_hz"]),
        row["subspace_mode"],
    ))


def read_json(path):
    """The parsed content of a JSON file; InputError naming the file if it is not JSON."""
    try:
        return json.loads(Path(path).read_text())
    except ValueError as exc:  # JSONDecodeError and UnicodeDecodeError
        raise InputError(f"{path}: not a JSON file: {exc}") from exc


def read_couplings_json(path):
    """The measurements of a JSON coupling table; InputError names the file,
    and the row (couplings[i]) where a measurement is invalid."""
    data = read_json(path)
    out = []
    try:
        for i, r in enumerate(data["couplings"]):
            out.append(CouplingMeasurement(
                r["spin_a"], r["spin_b"], float(r["f_hz"]), float(r["sigma_hz"]),
                r.get("subspace_mode", "averaged"),
            ))
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"{path}: malformed coupling table: {exc}") from exc
    except InputError as exc:
        raise InputError(f"{path}: couplings[{i}]: {exc}") from exc
    return out


def read_couplings(path):
    path = str(path)
    if path.endswith(".json"):
        return read_couplings_json(path)
    return read_couplings_csv(path)


# ---------------------------------------------------------------------------
# lattice exports


def _lattice_rows(lattice: Lattice):
    """(species, cell, basis, position) per site, as plain Python values."""
    return zip(lattice.species.tolist(), lattice.cells.tolist(), lattice.basis.tolist(),
               lattice.positions.tolist())


def write_lattice_csv(path, lattice: Lattice):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["species", "i", "j", "k", "basis", "x", "y", "z"])
        for species, cell, basis, position in _lattice_rows(lattice):
            w.writerow([species, *cell, basis] + [f"{v:.6f}" for v in position])


def write_lattice_json(path, lattice: Lattice):
    rows = [
        {"species": species, "cell": cell, "basis": basis,
         "position": [round(v, 6) for v in position]}
        for species, cell, basis, position in _lattice_rows(lattice)
    ]
    write_json(path, {"sites": rows})


def site_to_dict(site: LatticeSite):
    return {
        "species": site.species,
        "cell": list(site.cell),
        "basis": site.basis,
        "position": [float(v) for v in site.position],
    }


# ---------------------------------------------------------------------------
# truth clusters


def write_truth_json(path, cluster, cluster_of=True):
    """A ground-truth cluster: its seed, label -> site and (if cluster_of)
    label -> cluster id."""
    payload = {
        "seed": list(cluster.seed),
        "truth": {lab: site_to_dict(site) for lab, site in sorted(cluster.truth.items())},
    }
    if cluster_of:
        payload["cluster_of"] = dict(sorted(cluster.cluster_of.items()))
    write_json(path, payload)


def read_truth_json(path, table):
    """The SyntheticCluster of a truth file, its sites looked up in table."""
    data = read_json(path)
    index = {}
    try:
        for lab, entry in data["truth"].items():
            index[lab] = table.index_of_position(np.array(entry["position"], dtype=float))
            if index[lab] is None:
                raise InputError(f"{path}: site for {lab} not on the configured lattice")
        seed = tuple(data.get("seed", (0,)))
    except (AttributeError, LookupError, TypeError, ValueError) as exc:
        raise InputError(f"{path}: malformed truth file: {exc}") from exc
    return SyntheticCluster(table, index, NoiseModel(), seed)


# ---------------------------------------------------------------------------
# solutions, refinement results and the reproduce report


def write_solutions_json(path, solutions, ambiguous=None, meta=None):
    payload = {
        "n_solutions": len(solutions),
        "solutions": [
            {
                "assignment": {
                    lab: site_to_dict(site) for lab, site in sorted(sol.assignment.items())
                },
                "residual_hz2": sol.residual,
                "symmetry_multiplicity": sol.symmetry_multiplicity,
            }
            for sol in solutions
        ],
        "branch_history": list(solutions[0].branch_history) if solutions else [],
        "ambiguous": {
            lab: [site_to_dict(s) for s in sites]
            for lab, sites in (ambiguous or {}).items()
        },
    }
    if meta:
        payload["meta"] = meta
    write_json(path, payload)


def read_solution_positions(path, index: int = 0):
    """Positions (label -> np.ndarray) of one solution in a solutions file."""
    data = read_json(path)
    try:
        sols = data.get("solutions", [])
        if not sols:
            raise InputError(f"{path}: no solutions")
        if not 0 <= index < len(sols):
            raise InputError(f"{path}: solution index {index} out of range")
        return {
            lab: np.array(entry["position"], dtype=float)
            for lab, entry in sols[index]["assignment"].items()
        }
    except (AttributeError, LookupError, TypeError, ValueError) as exc:
        raise InputError(f"{path}: malformed solutions file: {exc}") from exc


def write_refined_json(path, result, short=False):
    """A RefinementResult; short (reproduce's refined.json) writes only the
    positions, residual and displacement summary.  A non-finite Hessian
    condition number (an underdetermined fit) is written as null."""
    d = result.displacements
    payload = {
        "positions": {lab: [float(v) for v in p] for lab, p in sorted(result.positions.items())},
        "residual_hz2": result.residual,
        "displacement_mean_A": d.mean,
        "displacement_max_A": d.max,
    }
    if not short:
        cond = result.hessian_condition
        payload.update({
            "displacements": {lab: list(row) for lab, row in sorted(d.rows.items())},
            "displacement_argmax": d.argmax,
            "hessian_condition": cond if math.isfinite(cond) else None,
            "underdetermined": result.underdetermined,
            "iterations": result.n_iterations,
            "converged_by": result.converged_by,
        })
    write_json(path, payload)


def write_report_json(path, solutions, refined, n_measurements, recovered, n_classes):
    """reproduce's report: truth recovery among n_classes symmetry classes,
    and the placement and refinement residuals of the best solution."""
    best = solutions[0]
    write_json(path, {
        "recovered_truth": recovered,
        "unique": n_classes == 1,
        "n_solutions": len(solutions),
        "n_symmetry_classes": n_classes,
        "n_measurements": n_measurements,
        "branch_history": list(best.branch_history),
        "placement_residual_hz2": best.residual,
        "refined_residual_hz2": refined.residual,
        "displacement_mean_A": refined.displacements.mean,
        "displacement_max_A": refined.displacements.max,
    })


# ---------------------------------------------------------------------------
# calibration inputs and results


def read_frequency_json(path):
    """(field, {label: (f_plus, f_minus, subspaces)}) of a `calibrate --freqs` file."""
    data = read_json(path)
    try:
        field = FieldConfig(float(data["field_gauss"]))
        spins = {}
        for lab, row in data["spins"].items():
            spins[lab] = (
                float(row["f_plus"]),
                float(row["f_minus"]),
                tuple(row.get("subspaces", (1.5, -1.5))),
            )
    except (AttributeError, LookupError, TypeError, ValueError) as exc:
        raise InputError(f"{path}: malformed frequency file: {exc}") from exc
    return field, spins


def read_dft_csv(path):
    """label -> HyperfineTensor of a `calibrate --dft` CSV (label,A_zz_Hz,A_perp_Hz)."""
    rows = read_csv_rows(path, ["label", "A_zz_Hz", "A_perp_Hz"], lambda row: (
        row["label"], HyperfineTensor(float(row["A_zz_Hz"]), float(row["A_perp_Hz"]), 0.0)
    ))
    return dict(rows)


def write_calibration_json(path, result):
    """A CalibrationResult: field correction (G) and g-factor with errors."""
    write_json(path, {
        "delta_b_gauss": result.delta_b,
        "delta_b_uncertainty_gauss": result.delta_b_uncertainty,
        "g_factor": result.g_factor,
        "g_uncertainty": result.g_uncertainty,
        "per_spin_delta_b": result.per_spin,
    })


# ---------------------------------------------------------------------------
# traces and telegraph rates


def write_trace_csv(path, trace: TimeTrace):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["t_s", "counts_per_s"])
        for t, c in zip(trace.timestamps, trace.counts):
            w.writerow([repr(float(t)), repr(float(c))])


def read_trace_csv(path):
    rows = read_csv_rows(path, ["t_s", "counts_per_s"],
                         lambda row: (float(row["t_s"]), float(row["counts_per_s"])))
    return TimeTrace(np.array([t for t, _ in rows]), np.array([c for _, c in rows]))


def write_telegraph_json(path, result):
    """A TelegraphResult: both switching rates, dwell counts and settings."""
    write_json(path, {
        "rate_bright_to_dark_hz": result.rate_bright_to_dark.rate,
        "rate_bright_to_dark_err": result.rate_bright_to_dark.stderr,
        "rate_dark_to_bright_hz": result.rate_dark_to_bright.rate,
        "rate_dark_to_bright_err": result.rate_dark_to_bright.stderr,
        "n_bright_dwells": int(result.bright_dwells.size),
        "n_dark_dwells": int(result.dark_dwells.size),
        "threshold_cps": result.threshold,
        "window_bins": result.smoothing_window,
    })


def ddrf_json(phase_update, effective_rabi, rotation) -> str:
    """`ddrf-calc --json` stdout: phase update (rad), effective Rabi (Hz), RotationAngle."""
    return canonical_json({
        "phase_update_rad": phase_update,
        "effective_rabi_hz": effective_rabi,
        "rotation_angle_rad": rotation.theta,
        "sign_conditional_on_initial_state": rotation.sign_conditional_on_initial_state,
    })


# ---------------------------------------------------------------------------
# graphs


def coupling_graph(measurements, positions=None, cutoff: float = 1.0):
    """Node/edge dict for a spin network; edges below cutoff omitted."""
    if not math.isfinite(cutoff):
        raise InputError(f"cutoff must be finite, got {cutoff}")
    labels = sorted({m.spin_a for m in measurements} | {m.spin_b for m in measurements})
    nodes = []
    for lab in labels:
        node = {"label": lab, "species": "Si" if lab.startswith("Si") else "C"}
        if positions is not None and lab in positions:
            node["position"] = [float(v) for v in positions[lab]]
        nodes.append(node)
    edges = [
        {"a": m.spin_a, "b": m.spin_b, "f_hz": m.f_ij}
        for m in measurements
        if m.f_ij >= cutoff
    ]
    edges.sort(key=lambda e: (e["a"], e["b"]))
    return {"nodes": nodes, "edges": edges, "cutoff_hz": cutoff}


def graph_to_dot(graph):
    lines = ["graph spins {"]
    for n in graph["nodes"]:
        color = "green" if n["species"] == "Si" else "orange"
        lines.append(f'  "{n["label"]}" [color={color}];')
    for e in graph["edges"]:
        lines.append(f'  "{e["a"]}" -- "{e["b"]}" [label="{e["f_hz"]:.2f}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def write_graph(path, measurements, positions, cutoff, dot_path):
    """The coupling graph as JSON at path and, if dot_path, as DOT; returns it."""
    graph = coupling_graph(measurements, positions, cutoff)
    write_json(path, graph)
    if dot_path:
        Path(dot_path).write_text(graph_to_dot(graph))
    return graph


# ---------------------------------------------------------------------------
# json / hashing / manifests


def _json_default(obj):
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    raise TypeError(f"not JSON serializable: {type(obj)}")


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2, default=_json_default) + "\n"


def write_json(path, obj):
    Path(path).write_text(canonical_json(obj))


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def sha256_file(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def build_manifest(command, config, inputs, outputs, physics=DEFAULT_PHYSICS):
    """Reproducibility record: config hash, the constants used (the nuclear
    gammas from physics), versions, file hashes."""
    from . import __version__

    cfg_json = canonical_json(config)
    return {
        "command": command,
        "config": config,
        "config_sha256": sha256_text(cfg_json),
        "constants": physics.constants_table(),
        "version": __version__,
        "inputs": {str(p): sha256_file(p) for p in inputs},
        "outputs": {str(p): sha256_file(p) for p in outputs},
    }


# ---------------------------------------------------------------------------
# flat key=value config files


_CONFIG_LINE = re.compile(r"^([A-Za-z0-9_.\-]+)\s*=\s*(.+)$")


def parse_config_text(text: str) -> dict:
    """Parse a flat `key = value` config (optional [section] prefixes).

    Values: quoted strings, integers, floats, true/false.  Returns a flat
    dict with dotted keys.
    """
    out = {}
    section = ""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            continue
        m = _CONFIG_LINE.match(line)
        if not m:
            raise InputError(f"config line {lineno}: cannot parse {raw!r}")
        key = f"{section}.{m.group(1)}" if section else m.group(1)
        out[key] = _parse_value(m.group(2).strip(), lineno)
    return out


def _parse_value(token: str, lineno: int):
    if token.startswith('"') and token.endswith('"') and len(token) >= 2:
        return token[1:-1]
    low = token.lower()
    if low in ("true", "false"):
        return low == "true"
    try:
        return int(token)
    except ValueError:
        pass
    try:
        return float(token)
    except ValueError:
        raise InputError(f"config line {lineno}: bad value {token!r}") from None


def read_config(path) -> dict:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: not a UTF-8 text file: {exc}") from exc
    return parse_config_text(text)
