"""Command-line interface tying the modules into reproducible pipelines.

Subcommands: lattice, place, refine, calibrate, telegraph, ddrf-calc,
synth, export-graph, reproduce.  Exit codes: 0 ok, 1 domain error
(machine-readable JSON on stderr), 2 usage error.  Every file-producing
run also writes a manifest (config hash, constant table, version, input
and output hashes); identical configs and inputs give byte-identical
outputs.
"""

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import fileio
from .calibrate import calibrate_from_scans, field_scan_min_aperp
from .errors import InputError, RecoveryError, SpinMapError
from .lattice import LatticeParams, SiteTable, build_lattice
from .placement import (
    PlacementConfig,
    ambiguity_report,
    canonical_assignment,
    place_all,
    _table_symmetry_ops,
)
from .refine import RefinementConfig, refine
from .sequences import (
    ddrf_phase_update,
    effective_rabi,
    rotation_angle,
    SequenceParams,
)
from .spinphys import FieldConfig, HyperfineTensor, Physics, species_for_label
from .synth import (
    ClusterStructure,
    NoiseModel,
    emit_couplings,
    emit_telegraph,
    generate_connected_cluster,
)
from .telegraph import analyze_trace

USAGE_ERROR = 2
DOMAIN_ERROR = 1

# Site-generation radius (A) of the commands that build a lattice: at least
# minimum_search_radius(3.0, cluster_extent=11.0) for the default gammas.
DEFAULT_LATTICE_RADIUS = 28.5


def _require_inputs(*paths):
    for p in paths:
        if p is not None and not Path(p).exists():
            raise FileNotFoundError(p)


def _emit_manifest(command, config, inputs, outputs, physics):
    if not outputs:
        return
    manifest = fileio.build_manifest(command, config, inputs, outputs, physics)
    fileio.write_json(str(outputs[0]) + ".manifest.json", manifest)


def _lattice_params(args) -> LatticeParams:
    return LatticeParams(a=args.a, c=args.c, stacking=args.stacking, k_variant=args.k_variant)


def _add_lattice_args(p):
    p.add_argument("--a", type=float, default=3.073, help="in-plane lattice constant (A)")
    p.add_argument("--c", type=float, default=10.053, help="c-axis lattice constant (A)")
    p.add_argument("--stacking", default="ABCB")
    p.add_argument("--k-variant", type=int, default=0, dest="k_variant",
                   help="which quasi-cubic layer hosts the vacancy")


# ---------------------------------------------------------------------------


def cmd_lattice(args, physics):
    params = _lattice_params(args)
    lattice = build_lattice(params, args.radius)
    if args.format == "csv":
        fileio.write_lattice_csv(args.out, lattice)
    else:
        fileio.write_lattice_json(args.out, lattice)
    _emit_manifest("lattice", vars(args) | {"func": None}, [], [args.out], physics)
    print(f"{len(lattice)} sites within {args.radius} A -> {args.out}")
    return 0


def _placement_config(args, physics) -> PlacementConfig:
    overrides = {}
    for spec in args.override or []:
        try:
            pair, val = spec.split("=")
            a, b = pair.split(":")
            overrides[(a, b)] = float(val)
        except ValueError:
            raise InputError(f"bad --override {spec!r}; expected A:B=tol") from None
    return PlacementConfig(
        tolerance_default=args.tolerance,
        tolerance_overrides=overrides,
        relative_tolerance_strong=args.relative_tolerance,
        strong_threshold=args.strong_threshold,
        min_detectable=args.min_detectable,
        max_branches=args.max_branches,
        anchor=args.anchor,
        physics=physics,
    )


def cmd_place(args, physics):
    _require_inputs(args.couplings)
    measurements = fileio.read_couplings(args.couplings)
    params = _lattice_params(args)
    table = SiteTable(build_lattice(params, args.lattice_radius))
    config = _placement_config(args, physics)
    solutions = place_all(measurements, table, config)
    fileio.write_solutions_json(
        args.out,
        solutions,
        ambiguous=ambiguity_report(solutions),
        meta={"n_measurements": len(measurements), "anchor": config.anchor},
    )
    cfg = {k: v for k, v in vars(args).items() if k != "func"}
    _emit_manifest("place", cfg, [args.couplings], [args.out], physics)
    print(f"{len(solutions)} solution(s) -> {args.out}")
    return 0


def cmd_refine(args, physics):
    _require_inputs(args.solution, args.couplings)
    positions = fileio.read_solution_positions(args.solution, args.index)
    measurements = fileio.read_couplings(args.couplings)
    config = RefinementConfig(anchor=args.anchor, physics=physics)
    result = refine(positions, measurements, config)
    payload = {
        "positions": {lab: [float(v) for v in p] for lab, p in sorted(result.positions.items())},
        "residual_hz2": result.residual,
        "displacements": {
            lab: list(row) for lab, row in sorted(result.displacements.rows.items())
        },
        "displacement_mean_A": result.displacements.mean,
        "displacement_max_A": result.displacements.max,
        "displacement_argmax": result.displacements.argmax,
        "hessian_condition": result.hessian_condition,
        "underdetermined": result.underdetermined,
        "iterations": result.n_iterations,
        "converged_by": result.converged_by,
    }
    fileio.write_json(args.out, payload)
    cfg = {k: v for k, v in vars(args).items() if k != "func"}
    _emit_manifest("refine", cfg, [args.solution, args.couplings], [args.out], physics)
    print(
        f"residual {result.residual:.6g} Hz^2, mean shift "
        f"{result.displacements.mean:.3f} A -> {args.out}"
    )
    return 0


def _read_freqs_file(path):
    data = fileio.read_json(path)
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


def _read_dft_csv(path):
    rows = fileio.read_csv_rows(path, ["label", "A_zz_Hz", "A_perp_Hz"], lambda row: (
        row["label"], HyperfineTensor(float(row["A_zz_Hz"]), float(row["A_perp_Hz"]), 0.0)
    ))
    return dict(rows)


def cmd_calibrate(args, physics):
    _require_inputs(args.freqs, args.dft)
    field, spins = _read_freqs_file(args.freqs)
    field = FieldConfig(field.b_z, field.b_x, field.b_y, args.g_baseline)
    dft = _read_dft_csv(args.dft)
    grid = np.arange(-args.grid_span, args.grid_span + 1e-12, args.grid_step)
    scans = {}
    for lab, (fp, fm, subs) in sorted(spins.items()):
        if lab not in dft:
            continue
        scans[lab] = field_scan_min_aperp(
            fp, fm, dft[lab], field, species_for_label(lab, physics), grid, subs
        )
    result = calibrate_from_scans(scans, args.delta_b_unc, field)
    payload = {
        "delta_b_gauss": result.delta_b,
        "delta_b_uncertainty_gauss": result.delta_b_uncertainty,
        "g_factor": result.g_factor,
        "g_uncertainty": result.g_uncertainty,
        "per_spin_delta_b": result.per_spin,
    }
    fileio.write_json(args.out, payload)
    cfg = {k: v for k, v in vars(args).items() if k != "func"}
    _emit_manifest("calibrate", cfg, [args.freqs, args.dft], [args.out], physics)
    print(f"g = {result.g_factor:.4f} +- {result.g_uncertainty:.4f} -> {args.out}")
    return 0


def cmd_telegraph(args, physics):
    _require_inputs(args.trace)
    trace = fileio.read_trace_csv(args.trace)
    result = analyze_trace(trace, args.window, args.threshold, args.method)
    payload = {
        "rate_bright_to_dark_hz": result.rate_bright_to_dark.rate,
        "rate_bright_to_dark_err": result.rate_bright_to_dark.stderr,
        "rate_dark_to_bright_hz": result.rate_dark_to_bright.rate,
        "rate_dark_to_bright_err": result.rate_dark_to_bright.stderr,
        "n_bright_dwells": int(result.bright_dwells.size),
        "n_dark_dwells": int(result.dark_dwells.size),
        "threshold_cps": result.threshold,
        "window_bins": result.smoothing_window,
    }
    fileio.write_json(args.out, payload)
    cfg = {k: v for k, v in vars(args).items() if k != "func"}
    _emit_manifest("telegraph", cfg, [args.trace], [args.out], physics)
    print(
        f"bright->dark {result.rate_bright_to_dark.rate:.3f} Hz, dark->bright "
        f"{result.rate_dark_to_bright.rate:.3f} Hz -> {args.out}"
    )
    return 0


def cmd_ddrf_calc(args, physics):
    phase = ddrf_phase_update(args.omega0, args.omega1, args.omega_rf, args.tau)
    om_eff = effective_rabi(args.rabi, args.omega0, args.omega1, args.omega_rf, args.tau)
    theta = rotation_angle(
        SequenceParams(args.tau, args.pulses, args.rabi, args.omega_rf, args.omega0, args.omega1)
    )
    payload = {
        "phase_update_rad": phase,
        "effective_rabi_hz": om_eff,
        "rotation_angle_rad": theta.theta,
        "sign_conditional_on_initial_state": theta.sign_conditional_on_initial_state,
    }
    if args.json:
        print(fileio.canonical_json(payload), end="")
    else:
        print(f"phase update   : {phase:+.6f} rad")
        print(f"effective Rabi : {om_eff:+.3f} Hz")
        print(f"rotation angle : {theta.theta:+.6f} rad (sign set by initial electron state)")
    return 0


def cmd_synth_cluster(args, physics):
    params = _lattice_params(args)
    table = SiteTable(build_lattice(params, args.lattice_radius))
    structure = ClusterStructure("clustered", args.clusters, args.size_min, args.size_max)
    cluster = generate_connected_cluster(
        table, args.n_si, args.n_c, structure, seed=args.seed,
        noise=NoiseModel(args.noise, args.sigma), min_detectable=args.min_detectable,
        physics=physics,
    )
    payload = {
        "seed": list(cluster.seed),
        "truth": {lab: fileio.site_to_dict(site) for lab, site in sorted(cluster.truth.items())},
        "cluster_of": dict(sorted(cluster.cluster_of.items())),
    }
    fileio.write_json(args.out, payload)
    cfg = {k: v for k, v in vars(args).items() if k != "func"}
    _emit_manifest("synth-cluster", cfg, [], [args.out], physics)
    print(f"{len(cluster.truth)} spins -> {args.out}")
    return 0


def _cluster_from_truth_file(path, table):
    data = fileio.read_json(path)
    from .synth import SyntheticCluster

    truth = {}
    try:
        for lab, entry in data["truth"].items():
            idx = table.index_of_position(np.array(entry["position"], dtype=float))
            if idx is None:
                raise InputError(f"{path}: site for {lab} not on the configured lattice")
            truth[lab] = table.site(idx)
        seed = tuple(data.get("seed", (0,)))
    except (AttributeError, LookupError, TypeError, ValueError) as exc:
        raise InputError(f"{path}: malformed truth file: {exc}") from exc
    return SyntheticCluster(truth, NoiseModel(), seed)


def cmd_synth_couplings(args, physics):
    _require_inputs(args.truth)
    params = _lattice_params(args)
    table = SiteTable(build_lattice(params, args.lattice_radius))
    cluster = _cluster_from_truth_file(args.truth, table)
    measurements = emit_couplings(
        cluster, table, args.min_detectable,
        NoiseModel(args.noise, args.sigma), seed=args.seed, physics=physics,
    )
    fileio.write_couplings_csv(args.out, measurements)
    cfg = {k: v for k, v in vars(args).items() if k != "func"}
    _emit_manifest("synth-couplings", cfg, [args.truth], [args.out], physics)
    print(f"{len(measurements)} couplings -> {args.out}")
    return 0


def cmd_synth_telegraph(args, physics):
    rates = tuple(float(x) for x in args.rates.split(","))
    if len(rates) != 2:
        raise InputError("--rates expects bright_to_dark,dark_to_bright")
    trace = emit_telegraph(
        rates, args.bright_cps, args.dark_cps, not args.no_shot_noise,
        args.duration, args.dt, args.seed,
    )
    fileio.write_trace_csv(args.out, trace)
    cfg = {k: v for k, v in vars(args).items() if k != "func"}
    _emit_manifest("synth-telegraph", cfg, [], [args.out], physics)
    print(f"{trace.counts.size} bins -> {args.out}")
    return 0


def cmd_export_graph(args, physics):
    _require_inputs(args.couplings, args.solution)
    measurements = fileio.read_couplings(args.couplings)
    positions = None
    if args.solution:
        positions = fileio.read_solution_positions(args.solution)
    graph = fileio.coupling_graph(measurements, positions, args.cutoff)
    fileio.write_json(args.out, graph)
    outputs = [args.out]
    if args.dot:
        Path(args.dot).write_text(fileio.graph_to_dot(graph))
        outputs.append(args.dot)
    cfg = {k: v for k, v in vars(args).items() if k != "func"}
    _emit_manifest("export-graph", cfg, [args.couplings], outputs, physics)
    print(f"{len(graph['nodes'])} nodes, {len(graph['edges'])} edges -> {args.out}")
    return 0


def cmd_reproduce(args, physics):
    """synth -> place -> refine -> report, with recovery assertion."""
    workdir = Path(args.workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    params = _lattice_params(args)
    table = SiteTable(build_lattice(params, args.lattice_radius))
    structure = ClusterStructure("clustered", 4, 5, 7)
    cluster = generate_connected_cluster(
        table, 22, 3, structure, seed=args.seed, noise=NoiseModel("gaussian", 0.2, 3.0),
        physics=physics,
    )
    truth_path = workdir / "truth.json"
    fileio.write_json(
        truth_path,
        {
            "seed": list(cluster.seed),
            "truth": {lab: fileio.site_to_dict(s) for lab, s in sorted(cluster.truth.items())},
        },
    )
    measurements = emit_couplings(cluster, table, 3.0, physics=physics)
    couplings_path = workdir / "couplings.csv"
    fileio.write_couplings_csv(couplings_path, measurements)

    solutions = place_all(measurements, table, PlacementConfig(physics=physics))
    solutions_path = workdir / "solutions.json"
    fileio.write_solutions_json(solutions_path, solutions, ambiguity_report(solutions))

    ops = _table_symmetry_ops(table)
    labels = sorted(cluster.truth)
    truth_idx = tuple(table.index_of_site(cluster.truth[lab]) for lab in labels)
    truth_canon = canonical_assignment(table, truth_idx, ops)
    classes = set()
    recovered = False
    for sol in solutions:
        idx = tuple(table.index_of_site(sol.assignment[lab]) for lab in labels)
        canon = canonical_assignment(table, idx, ops)
        classes.add(canon)
        if canon == truth_canon:
            recovered = True

    result = refine(solutions[0], measurements, RefinementConfig(physics=physics))
    refined_path = workdir / "refined.json"
    fileio.write_json(
        refined_path,
        {
            "positions": {lab: [float(v) for v in p] for lab, p in sorted(result.positions.items())},
            "residual_hz2": result.residual,
            "displacement_mean_A": result.displacements.mean,
            "displacement_max_A": result.displacements.max,
        },
    )
    report = {
        "recovered_truth": recovered,
        "unique": len(classes) == 1,
        "n_solutions": len(solutions),
        "n_symmetry_classes": len(classes),
        "n_measurements": len(measurements),
        "branch_history": list(solutions[0].branch_history),
        "placement_residual_hz2": solutions[0].residual,
        "refined_residual_hz2": result.residual,
        "displacement_mean_A": result.displacements.mean,
        "displacement_max_A": result.displacements.max,
    }
    report_path = workdir / "report.json"
    fileio.write_json(report_path, report)
    # manifest is workdir-relative so identical runs compare byte-equal
    cfg = {k: v for k, v in vars(args).items() if k not in ("func", "workdir")}
    outputs = [truth_path, couplings_path, solutions_path, refined_path, report_path]
    manifest = fileio.build_manifest("reproduce", cfg, [], outputs, physics)
    manifest["outputs"] = {Path(p).name: h for p, h in manifest["outputs"].items()}
    fileio.write_json(workdir / "manifest.json", manifest)
    print(
        f"recovered={recovered} unique={report['unique']} "
        f"solutions={len(solutions)} -> {workdir}"
    )
    if not (recovered and report["unique"]):
        raise RecoveryError("reproduce pipeline did not uniquely recover the ground truth")
    return 0


# ---------------------------------------------------------------------------


def cmd_constants(args, physics):
    print(fileio.canonical_json(physics.constants_table()), end="")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="spinmap",
        description="Nuclear-spin localization toolkit for spin-3/2 defects in 4H-SiC",
    )
    parser.add_argument("--config", default=None,
                        help="key=value config file; explicit flags win")
    parser.add_argument("--gamma-si29", type=float, default=None, dest="gamma_si29",
                        help="override the 29Si gyromagnetic ratio (Hz/T)")
    parser.add_argument("--gamma-c13", type=float, default=None, dest="gamma_c13",
                        help="override the 13C gyromagnetic ratio (Hz/T)")
    sub = parser.add_subparsers(dest="command", required=True)
    by_name = {}
    parser._spinmap_subparsers = by_name

    p = sub.add_parser("constants", help="print the physical constant table as JSON")
    p.set_defaults(func=cmd_constants)
    by_name["constants"] = p

    p = sub.add_parser("lattice", help="generate and export lattice sites")
    _add_lattice_args(p)
    p.add_argument("--radius", type=float, required=True)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out", default="lattice.csv")
    p.set_defaults(func=cmd_lattice)
    by_name["lattice"] = p

    p = sub.add_parser("place", help="branch-and-prune spin placement")
    _add_lattice_args(p)
    p.add_argument("--couplings", required=True)
    p.add_argument("--lattice-radius", type=float, default=DEFAULT_LATTICE_RADIUS,
                   dest="lattice_radius",
                   help="site generation radius; default covers 3 Hz reach at 11 A extent")
    p.add_argument("--tolerance", type=float, default=0.6)
    p.add_argument("--override", action="append", metavar="A:B=TOL",
                   help="per-pair tolerance override (repeatable)")
    p.add_argument("--relative-tolerance", type=float, default=0.05, dest="relative_tolerance")
    p.add_argument("--strong-threshold", type=float, default=35.0, dest="strong_threshold")
    p.add_argument("--min-detectable", type=float, default=3.0, dest="min_detectable")
    p.add_argument("--max-branches", type=int, default=1_000_000, dest="max_branches")
    p.add_argument("--anchor", default="Si1")
    p.add_argument("--out", default="solutions.json")
    p.set_defaults(func=cmd_place)
    by_name["place"] = p

    p = sub.add_parser("refine", help="continuous least-squares refinement")
    p.add_argument("--solution", required=True, help="solutions.json from place")
    p.add_argument("--index", type=int, default=0, help="solution index to refine")
    p.add_argument("--couplings", required=True)
    p.add_argument("--anchor", default="Si1")
    p.add_argument("--out", default="refined.json")
    p.set_defaults(func=cmd_refine)
    by_name["refine"] = p

    p = sub.add_parser("calibrate", help="field correction and g-factor estimate")
    p.add_argument("--freqs", required=True, help="JSON with per-spin f_plus/f_minus")
    p.add_argument("--dft", required=True, help="CSV label,A_zz_Hz,A_perp_Hz")
    p.add_argument("--grid-span", type=float, default=5.0, dest="grid_span")
    p.add_argument("--grid-step", type=float, default=0.01, dest="grid_step")
    p.add_argument("--delta-b-unc", type=float, default=0.6, dest="delta_b_unc")
    p.add_argument("--g-baseline", type=float, default=-2.0028, dest="g_baseline",
                   help="assumed electron g-factor during the experiment")
    p.add_argument("--out", default="calibration.json")
    p.set_defaults(func=cmd_calibrate)
    by_name["calibrate"] = p

    p = sub.add_parser("telegraph", help="dwell-time rate extraction from a trace")
    p.add_argument("--trace", required=True, help="CSV t_s,counts_per_s")
    p.add_argument("--threshold", type=float, default=1295.0)
    p.add_argument("--window", type=int, default=5)
    p.add_argument("--method", choices=("mle", "histogram"), default="mle")
    p.add_argument("--out", default="telegraph.json")
    p.set_defaults(func=cmd_telegraph)
    by_name["telegraph"] = p

    p = sub.add_parser("ddrf-calc", help="DDRF gate parameter calculator")
    p.add_argument("--omega0", type=float, required=True, help="Hz")
    p.add_argument("--omega1", type=float, required=True, help="Hz")
    p.add_argument("--omega-rf", type=float, required=True, dest="omega_rf", help="Hz")
    p.add_argument("--tau", type=float, required=True, help="s")
    p.add_argument("--rabi", type=float, default=1000.0, help="bare Rabi, Hz")
    p.add_argument("--pulses", type=int, default=16)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_ddrf_calc)
    by_name["ddrf-calc"] = p

    p = sub.add_parser("synth", help="synthetic data generators")
    synth_sub = p.add_subparsers(dest="synth_command", required=True)

    ps = synth_sub.add_parser("cluster", help="ground-truth cluster")
    _add_lattice_args(ps)
    ps.add_argument("--lattice-radius", type=float, default=DEFAULT_LATTICE_RADIUS,
                    dest="lattice_radius")
    ps.add_argument("--n-si", type=int, default=22, dest="n_si")
    ps.add_argument("--n-c", type=int, default=3, dest="n_c")
    ps.add_argument("--clusters", type=int, default=4)
    ps.add_argument("--size-min", type=int, default=5, dest="size_min")
    ps.add_argument("--size-max", type=int, default=7, dest="size_max")
    ps.add_argument("--seed", type=int, default=0)
    ps.add_argument("--noise", choices=("gaussian", "uniform", "none"), default="gaussian")
    ps.add_argument("--sigma", type=float, default=0.2)
    ps.add_argument("--min-detectable", type=float, default=3.0, dest="min_detectable")
    ps.add_argument("--out", default="truth.json")
    ps.set_defaults(func=cmd_synth_cluster)
    by_name["synth-cluster"] = ps

    ps = synth_sub.add_parser("couplings", help="noisy coupling table from a truth file")
    _add_lattice_args(ps)
    ps.add_argument("--truth", required=True)
    ps.add_argument("--lattice-radius", type=float, default=DEFAULT_LATTICE_RADIUS,
                    dest="lattice_radius")
    ps.add_argument("--noise", choices=("gaussian", "uniform", "none"), default="gaussian")
    ps.add_argument("--sigma", type=float, default=0.2)
    ps.add_argument("--min-detectable", type=float, default=3.0, dest="min_detectable")
    ps.add_argument("--seed", type=int, default=0)
    ps.add_argument("--out", default="couplings.csv")
    ps.set_defaults(func=cmd_synth_couplings)
    by_name["synth-couplings"] = ps

    ps = synth_sub.add_parser("telegraph", help="Markov telegraph photon trace")
    ps.add_argument("--rates", default="0.18,0.85",
                    help="bright_to_dark,dark_to_bright in Hz")
    ps.add_argument("--bright-cps", type=float, default=3000.0, dest="bright_cps")
    ps.add_argument("--dark-cps", type=float, default=600.0, dest="dark_cps")
    ps.add_argument("--no-shot-noise", action="store_true", dest="no_shot_noise")
    ps.add_argument("--duration", type=float, default=200.0)
    ps.add_argument("--dt", type=float, default=0.005)
    ps.add_argument("--seed", type=int, default=0)
    ps.add_argument("--out", default="trace.csv")
    ps.set_defaults(func=cmd_synth_telegraph)
    by_name["synth-telegraph"] = ps

    p = sub.add_parser("export-graph", help="spin network graph export")
    p.add_argument("--couplings", required=True)
    p.add_argument("--solution", default=None, help="optional solutions.json for coordinates")
    p.add_argument("--cutoff", type=float, default=1.0, help="omit edges below this (Hz)")
    p.add_argument("--dot", default=None, help="also write a DOT file")
    p.add_argument("--out", default="graph.json")
    p.set_defaults(func=cmd_export_graph)
    by_name["export-graph"] = p

    p = sub.add_parser("reproduce", help="end-to-end synth->place->refine pipeline")
    _add_lattice_args(p)
    p.add_argument("--lattice-radius", type=float, default=DEFAULT_LATTICE_RADIUS,
                   dest="lattice_radius",
                   help="site generation radius; default covers 3 Hz reach at 11 A extent")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--workdir", default="reproduce_out")
    p.set_defaults(func=cmd_reproduce)
    by_name["reproduce"] = p

    return parser


def _apply_config_defaults(parser, argv):
    """Load --config (if present) and install its values as argument
    defaults, keyed `section.name` by subcommand; explicit flags win."""
    argv = list(sys.argv[1:] if argv is None else argv)
    path = None
    for i, tok in enumerate(argv):
        if tok == "--config" and i + 1 < len(argv):
            path = argv[i + 1]
        elif tok.startswith("--config="):
            path = tok.split("=", 1)[1]
    if path is None:
        return argv
    if not Path(path).exists():
        raise FileNotFoundError(path)
    values = fileio.read_config(path)
    by_name = parser._spinmap_subparsers
    for key, value in values.items():
        section, _, name = key.rpartition(".")
        dest = name.replace("-", "_")
        if not section:
            parser.set_defaults(**{dest: value})
        elif section in by_name:
            by_name[section].set_defaults(**{dest: value})
        else:
            raise InputError(f"config section {section!r} is not a subcommand")
    return argv


def main(argv=None) -> int:
    parser = build_parser()
    try:
        argv = _apply_config_defaults(parser, argv)
    except FileNotFoundError as exc:
        print(f"error: config file not found: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except SpinMapError as exc:
        print(f"error: invalid config: {exc}", file=sys.stderr)
        return USAGE_ERROR
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else USAGE_ERROR
    try:
        return args.func(args, Physics.from_gammas(args.gamma_si29, args.gamma_c13))
    except FileNotFoundError as exc:
        print(f"error: input file not found: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except SpinMapError as exc:
        print(json.dumps(exc.payload()), file=sys.stderr)
        return DOMAIN_ERROR


def entrypoint():
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
