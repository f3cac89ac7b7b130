"""Command-line interface tying the modules into reproducible pipelines.

Subcommands: lattice, place, refine, calibrate, telegraph, ddrf-calc,
synth, export-graph, reproduce, each declared once with `@command`.  Exit
codes: 0 ok, 1 domain error (machine-readable JSON on stderr), 2 usage
error.  `main` writes the manifest of every file-producing run (config
hash, constant table, version, input and output hashes); identical configs
and inputs give byte-identical outputs.
"""

import argparse
import json
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from . import fileio
from .calibrate import (
    GRID_SPAN,
    GRID_STEP,
    calibrate_from_scans,
    field_correction_grid,
    field_scan_min_aperp,
)
from .errors import InputError, RecoveryError, SpinMapError
from .lattice import LatticeParams, SiteTable, build_lattice
from .placement import PlacementConfig, ambiguity_report, place_all, truth_recovery
from .refine import RefinementConfig, refine
from .sequences import (
    ddrf_phase_update,
    effective_rabi,
    rotation_angle,
    SequenceParams,
)
from .spinphys import FieldConfig, Physics, species_for_label
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


@dataclass(frozen=True)
class Command:
    """A subcommand, declared once.  main checks that its input files exist,
    runs it, and writes `<first output>.manifest.json` hashing every input and
    output given; a command that declares no outputs gets no manifest."""

    name: str  # also its --config section; "synth-cluster" is `spinmap synth cluster`
    run: Callable  # run(args, physics)
    help: str
    flags: tuple  # (option strings, add_argument keywords) per flag
    inputs: tuple  # dests of the flags that name input files
    outputs: tuple  # dests of the flags that name output files

    def add_to(self, parser):
        for names, kwargs in self.flags:
            parser.add_argument(*names, **kwargs)
        parser.set_defaults(func=self)
        return parser

    def get_default(self, dest):
        return self.add_to(argparse.ArgumentParser()).get_default(dest)


COMMANDS = {}  # name -> Command, in the order the parser lists them


def command(name, help, *flags, inputs=(), outputs=()):
    """Declare the decorated function as subcommand `name`."""

    def register(run):
        COMMANDS[name] = Command(name, run, help, flags, inputs, outputs)
        return run

    return register


def _flag(*names, **kwargs):
    return names, kwargs


LATTICE_FLAGS = (
    _flag("--a", type=float, default=3.073, help="in-plane lattice constant (A)"),
    _flag("--c", type=float, default=10.053, help="c-axis lattice constant (A)"),
    _flag("--stacking", default="ABCB"),
    _flag("--k-variant", type=int, default=0, dest="k_variant",
          help="which quasi-cubic layer hosts the vacancy"),
)
LATTICE_RADIUS = _flag("--lattice-radius", type=float, default=DEFAULT_LATTICE_RADIUS,
                       dest="lattice_radius",
                       help="site generation radius; default covers 3 Hz reach at 11 A extent")
COUPLINGS = _flag("--couplings", required=True)
ANCHOR = _flag("--anchor", default="Si1")
MIN_DETECTABLE = _flag("--min-detectable", type=float, default=3.0, dest="min_detectable")
SEED = _flag("--seed", type=int, default=0)
NOISE = _flag("--noise", choices=("gaussian", "uniform", "none"), default="gaussian")
SIGMA = _flag("--sigma", type=float, default=0.2)


def _require_inputs(*paths):
    for p in paths:
        if not Path(p).exists():
            raise FileNotFoundError(p)


def _lattice_params(args) -> LatticeParams:
    return LatticeParams(a=args.a, c=args.c, stacking=args.stacking, k_variant=args.k_variant)


def _site_table(args) -> SiteTable:
    return SiteTable(build_lattice(_lattice_params(args), args.lattice_radius))


# ---------------------------------------------------------------------------


@command("constants", "print the physical constant table as JSON")
def cmd_constants(args, physics):
    print(fileio.canonical_json(physics.constants_table()), end="")


@command("lattice", "generate and export lattice sites",
         *LATTICE_FLAGS,
         _flag("--radius", type=float, required=True),
         _flag("--format", choices=("csv", "json"), default="csv"),
         _flag("--out", default="lattice.csv"),
         outputs=("out",))
def cmd_lattice(args, physics):
    lattice = build_lattice(_lattice_params(args), args.radius)
    if args.format == "csv":
        fileio.write_lattice_csv(args.out, lattice)
    else:
        fileio.write_lattice_json(args.out, lattice)
    print(f"{len(lattice)} sites within {args.radius} A -> {args.out}")


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


@command("place", "branch-and-prune spin placement",
         *LATTICE_FLAGS, COUPLINGS, LATTICE_RADIUS,
         _flag("--tolerance", type=float, default=0.6),
         _flag("--override", action="append", metavar="A:B=TOL",
               help="per-pair tolerance override (repeatable)"),
         _flag("--relative-tolerance", type=float, default=0.05, dest="relative_tolerance"),
         _flag("--strong-threshold", type=float, default=35.0, dest="strong_threshold"),
         MIN_DETECTABLE,
         _flag("--max-branches", type=int, default=1_000_000, dest="max_branches"),
         ANCHOR,
         _flag("--out", default="solutions.json"),
         inputs=("couplings",), outputs=("out",))
def cmd_place(args, physics):
    measurements = fileio.read_couplings(args.couplings)
    config = _placement_config(args, physics)
    table = _site_table(args)
    solutions = place_all(measurements, table, config)
    fileio.write_solutions_json(
        args.out,
        solutions,
        ambiguous=ambiguity_report(solutions),
        meta={"n_measurements": len(measurements), "anchor": config.anchor},
    )
    print(f"{len(solutions)} solution(s) -> {args.out}")


@command("refine", "continuous least-squares refinement",
         _flag("--solution", required=True, help="solutions.json from place"),
         _flag("--index", type=int, default=0, help="solution index to refine"),
         COUPLINGS, ANCHOR,
         _flag("--out", default="refined.json"),
         inputs=("solution", "couplings"), outputs=("out",))
def cmd_refine(args, physics):
    positions = fileio.read_solution_positions(args.solution, args.index)
    measurements = fileio.read_couplings(args.couplings)
    config = RefinementConfig(anchor=args.anchor, physics=physics)
    result = refine(positions, measurements, config)
    fileio.write_refined_json(args.out, result)
    print(
        f"residual {result.residual:.6g} Hz^2, mean shift "
        f"{result.displacements.mean:.3f} A -> {args.out}"
    )


@command("calibrate", "field correction and g-factor estimate",
         _flag("--freqs", required=True, help="JSON with per-spin f_plus/f_minus"),
         _flag("--dft", required=True, help="CSV label,A_zz_Hz,A_perp_Hz"),
         _flag("--grid-span", type=float, default=GRID_SPAN, dest="grid_span"),
         _flag("--grid-step", type=float, default=GRID_STEP, dest="grid_step"),
         _flag("--delta-b-unc", type=float, default=0.6, dest="delta_b_unc"),
         _flag("--g-baseline", type=float, default=-2.0028, dest="g_baseline",
               help="assumed electron g-factor during the experiment"),
         _flag("--out", default="calibration.json"),
         inputs=("freqs", "dft"), outputs=("out",))
def cmd_calibrate(args, physics):
    grid = field_correction_grid(args.grid_span, args.grid_step)
    field, spins = fileio.read_frequency_json(args.freqs)
    field = FieldConfig(field.b_z, field.b_x, field.b_y, args.g_baseline)
    dft = fileio.read_dft_csv(args.dft)
    scans = {}
    for lab, (fp, fm, subs) in sorted(spins.items()):
        if lab not in dft:
            continue
        scans[lab] = field_scan_min_aperp(
            fp, fm, dft[lab], field, species_for_label(lab, physics), grid, subs
        )
    result = calibrate_from_scans(scans, args.delta_b_unc, field)
    fileio.write_calibration_json(args.out, result)
    print(f"g = {result.g_factor:.4f} +- {result.g_uncertainty:.4f} -> {args.out}")


@command("telegraph", "dwell-time rate extraction from a trace",
         _flag("--trace", required=True, help="CSV t_s,counts_per_s"),
         _flag("--threshold", type=float, default=1295.0),
         _flag("--window", type=int, default=5),
         _flag("--method", choices=("mle", "histogram"), default="mle"),
         _flag("--out", default="telegraph.json"),
         inputs=("trace",), outputs=("out",))
def cmd_telegraph(args, physics):
    trace = fileio.read_trace_csv(args.trace)
    result = analyze_trace(trace, args.window, args.threshold, args.method)
    fileio.write_telegraph_json(args.out, result)
    print(
        f"bright->dark {result.rate_bright_to_dark.rate:.3f} Hz, dark->bright "
        f"{result.rate_dark_to_bright.rate:.3f} Hz -> {args.out}"
    )


@command("ddrf-calc", "DDRF gate parameter calculator",
         _flag("--omega0", type=float, required=True, help="Hz"),
         _flag("--omega1", type=float, required=True, help="Hz"),
         _flag("--omega-rf", type=float, required=True, dest="omega_rf", help="Hz"),
         _flag("--tau", type=float, required=True, help="s"),
         _flag("--rabi", type=float, default=1000.0, help="bare Rabi, Hz"),
         _flag("--pulses", type=int, default=16),
         _flag("--json", action="store_true"))
def cmd_ddrf_calc(args, physics):
    phase = ddrf_phase_update(args.omega0, args.omega1, args.omega_rf, args.tau)
    om_eff = effective_rabi(args.rabi, args.omega0, args.omega1, args.omega_rf, args.tau)
    theta = rotation_angle(
        SequenceParams(args.tau, args.pulses, args.rabi, args.omega_rf, args.omega0, args.omega1)
    )
    if args.json:
        print(fileio.ddrf_json(phase, om_eff, theta), end="")
    else:
        print(f"phase update   : {phase:+.6f} rad")
        print(f"effective Rabi : {om_eff:+.3f} Hz")
        print(f"rotation angle : {theta.theta:+.6f} rad (sign set by initial electron state)")


@command("synth-cluster", "ground-truth cluster",
         *LATTICE_FLAGS, LATTICE_RADIUS,
         _flag("--n-si", type=int, default=22, dest="n_si"),
         _flag("--n-c", type=int, default=3, dest="n_c"),
         _flag("--clusters", type=int, default=4),
         _flag("--size-min", type=int, default=5, dest="size_min"),
         _flag("--size-max", type=int, default=7, dest="size_max"),
         SEED, NOISE, SIGMA, MIN_DETECTABLE,
         _flag("--out", default="truth.json"),
         outputs=("out",))
def cmd_synth_cluster(args, physics):
    structure = ClusterStructure("clustered", args.clusters, args.size_min, args.size_max)
    cluster = generate_connected_cluster(
        _site_table(args), args.n_si, args.n_c, structure, seed=args.seed,
        noise=NoiseModel(args.noise, args.sigma), min_detectable=args.min_detectable,
        physics=physics,
    )
    fileio.write_truth_json(args.out, cluster)
    print(f"{len(cluster.truth)} spins -> {args.out}")


@command("synth-couplings", "noisy coupling table from a truth file",
         *LATTICE_FLAGS,
         _flag("--truth", required=True),
         LATTICE_RADIUS, NOISE, SIGMA, MIN_DETECTABLE, SEED,
         _flag("--out", default="couplings.csv"),
         inputs=("truth",), outputs=("out",))
def cmd_synth_couplings(args, physics):
    table = _site_table(args)
    cluster = fileio.read_truth_json(args.truth, table)
    measurements = emit_couplings(
        cluster, table, args.min_detectable,
        NoiseModel(args.noise, args.sigma), seed=args.seed, physics=physics,
    )
    fileio.write_couplings_csv(args.out, measurements)
    print(f"{len(measurements)} couplings -> {args.out}")


@command("synth-telegraph", "Markov telegraph photon trace",
         _flag("--rates", default="0.18,0.85", help="bright_to_dark,dark_to_bright in Hz"),
         _flag("--bright-cps", type=float, default=3000.0, dest="bright_cps"),
         _flag("--dark-cps", type=float, default=600.0, dest="dark_cps"),
         _flag("--no-shot-noise", action="store_true", dest="no_shot_noise"),
         _flag("--duration", type=float, default=200.0),
         _flag("--dt", type=float, default=0.005),
         SEED,
         _flag("--out", default="trace.csv"),
         outputs=("out",))
def cmd_synth_telegraph(args, physics):
    try:
        bright_to_dark, dark_to_bright = (float(x) for x in args.rates.split(","))
    except ValueError:  # not two numbers
        raise InputError(f"--rates expects bright_to_dark,dark_to_bright in Hz, "
                         f"got {args.rates!r}") from None
    trace = emit_telegraph(
        (bright_to_dark, dark_to_bright), args.bright_cps, args.dark_cps, not args.no_shot_noise,
        args.duration, args.dt, args.seed,
    )
    fileio.write_trace_csv(args.out, trace)
    print(f"{trace.counts.size} bins -> {args.out}")


@command("export-graph", "spin network graph export",
         COUPLINGS,
         _flag("--solution", default=None, help="optional solutions.json for coordinates"),
         _flag("--cutoff", type=float, default=1.0, help="omit edges below this (Hz)"),
         _flag("--dot", default=None, help="also write a DOT file"),
         _flag("--out", default="graph.json"),
         inputs=("couplings", "solution"), outputs=("out", "dot"))
def cmd_export_graph(args, physics):
    measurements = fileio.read_couplings(args.couplings)
    positions = fileio.read_solution_positions(args.solution) if args.solution else None
    graph = fileio.write_graph(args.out, measurements, positions, args.cutoff, args.dot)
    print(f"{len(graph['nodes'])} nodes, {len(graph['edges'])} edges -> {args.out}")


@command("reproduce", "end-to-end synth->place->refine pipeline",
         *LATTICE_FLAGS, LATTICE_RADIUS,
         _flag("--seed", type=int, default=1),
         _flag("--workdir", default="reproduce_out"))
def cmd_reproduce(args, physics):
    """synth -> place -> refine -> report, with recovery assertion.

    Declares no outputs: it writes its own workdir-relative manifest."""
    table = _site_table(args)
    structure = ClusterStructure("clustered", 4, 5, 7)
    cluster = generate_connected_cluster(
        table, 22, 3, structure, seed=args.seed, noise=NoiseModel("gaussian", 0.2, 3.0),
        physics=physics,
    )
    workdir = Path(args.workdir)  # made after the draw: a bad seed leaves no directory
    workdir.mkdir(parents=True, exist_ok=True)
    truth_path = workdir / "truth.json"
    fileio.write_truth_json(truth_path, cluster, cluster_of=False)
    measurements = emit_couplings(cluster, table, 3.0, physics=physics)
    couplings_path = workdir / "couplings.csv"
    fileio.write_couplings_csv(couplings_path, measurements)

    solutions = place_all(measurements, table, PlacementConfig(physics=physics))
    solutions_path = workdir / "solutions.json"
    fileio.write_solutions_json(solutions_path, solutions, ambiguity_report(solutions))

    recovered, n_classes = truth_recovery(solutions, cluster.index)

    result = refine(solutions[0], measurements, RefinementConfig(physics=physics))
    refined_path = workdir / "refined.json"
    fileio.write_refined_json(refined_path, result, short=True)
    report_path = workdir / "report.json"
    fileio.write_report_json(
        report_path, solutions, result, len(measurements), recovered, n_classes
    )
    # manifest is workdir-relative so identical runs compare byte-equal
    cfg = {k: v for k, v in vars(args).items() if k not in ("func", "workdir")}
    outputs = [truth_path, couplings_path, solutions_path, refined_path, report_path]
    manifest = fileio.build_manifest("reproduce", cfg, [], outputs, physics)
    manifest["outputs"] = {Path(p).name: h for p, h in manifest["outputs"].items()}
    fileio.write_json(workdir / "manifest.json", manifest)
    unique = n_classes == 1
    print(f"recovered={recovered} unique={unique} solutions={len(solutions)} -> {workdir}")
    if not (recovered and unique):
        raise RecoveryError("reproduce pipeline did not uniquely recover the ground truth")


# ---------------------------------------------------------------------------


def build_parser(defaults=None):
    """The spinmap parser.  defaults maps a --config section (a COMMANDS name,
    or "" for the top level) to {dest: value}; explicit flags win."""
    defaults = defaults or {}
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
    parser.set_defaults(**defaults.get("", {}))
    sub = parser.add_subparsers(dest="command", required=True)
    synth = None
    for name, cmd in COMMANDS.items():
        group, leaf = sub, name
        if name.startswith("synth-"):
            if synth is None:
                synth = sub.add_parser("synth", help="synthetic data generators")
                synth = synth.add_subparsers(dest="synth_command", required=True)
            group, leaf = synth, name.removeprefix("synth-")
        cmd.add_to(group.add_parser(leaf, help=cmd.help)).set_defaults(**defaults.get(name, {}))
    return parser


def _config_defaults(argv):
    """argv as a list, and the values of its --config file (if any) as
    {section: {dest: value}} for build_parser."""
    argv = list(sys.argv[1:] if argv is None else argv)
    path = None
    for i, tok in enumerate(argv):
        if tok == "--config" and i + 1 < len(argv):
            path = argv[i + 1]
        elif tok.startswith("--config="):
            path = tok.split("=", 1)[1]
    if path is None:
        return argv, {}
    if not Path(path).exists():
        raise FileNotFoundError(path)
    defaults = {}
    for key, value in fileio.read_config(path).items():
        section, _, name = key.rpartition(".")
        if section and section not in COMMANDS:
            raise InputError(f"config section {section!r} is not a subcommand")
        defaults.setdefault(section, {})[name.replace("-", "_")] = value
    return argv, defaults


def main(argv=None) -> int:
    try:
        argv, defaults = _config_defaults(argv)
    except FileNotFoundError as exc:
        print(f"error: config file not found: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except SpinMapError as exc:
        print(f"error: invalid config: {exc}", file=sys.stderr)
        return USAGE_ERROR
    try:
        args = build_parser(defaults).parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else USAGE_ERROR
    cmd = args.func
    inputs = [getattr(args, d) for d in cmd.inputs if getattr(args, d)]
    outputs = [getattr(args, d) for d in cmd.outputs if getattr(args, d)]
    try:
        physics = Physics.from_gammas(args.gamma_si29, args.gamma_c13)
        _require_inputs(*inputs)
        cmd.run(args, physics)
        if outputs:
            config = {k: v for k, v in vars(args).items() if k != "func"}
            manifest = fileio.build_manifest(cmd.name, config, inputs, outputs, physics)
            fileio.write_json(f"{outputs[0]}.manifest.json", manifest)
    except FileNotFoundError as exc:
        print(f"error: input file not found: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except SpinMapError as exc:
        print(json.dumps(exc.payload()), file=sys.stderr)
        return DOMAIN_ERROR
    return 0


def entrypoint():
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
