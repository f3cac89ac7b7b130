"""Spans recorded around calls into spinmap, installed from outside the program.

A span is a dict with the entry point's name, start and end times
(``time.perf_counter``, which reads the system-wide monotonic clock on Linux, so
times taken in different processes compare), the index of the enclosing span,
the frame (``"setup"`` or ``[pass, input]``) and phase (``setup``, ``op`` or
``check``) it ran in, the name of any exception it raised, and optional
attributes taken from its return value. Spans stay in memory until the run ends.
"""

import functools
import importlib
import time

# Attribute name -> span name.  The part before the first dot is the layer.
SPAN_NAMES = {
    "build_lattice": "lattice.build",
    "SiteTable": "lattice.site_table",
    "_table_symmetry_ops": "lattice.symmetry_ops",
    "generate_connected_cluster": "synth.cluster",
    "generate_cluster": "synth.cluster",
    "emit_couplings": "synth.couplings",
    "place_all": "placement.place_all",
    "ambiguity_report": "placement.ambiguity_report",
    "canonical_assignment": "placement.canonical",
    "_orbit_info": "placement.canonical",
    "refine": "refine.refine",
    "deviation_sweep": "hamiltonian.sweep",
    "sedor_correction_second_order": "hamiltonian.second_order",
    "sedor_frequency_exact": "hamiltonian.exact",
    "label_eigenstates": "hamiltonian.diagonalize",
    "write_json": "fileio.write_json",
    "write_couplings_csv": "fileio.write_couplings_csv",
    "write_solutions_json": "fileio.write_solutions_json",
    "build_manifest": "fileio.build_manifest",
    "main": "cli.main",
}


def _placement_attrs(solutions, args):
    hist = solutions[0].branch_history
    return {"solutions": len(solutions), "partials": sum(hist), "peak": max(hist)}


def _refine_attrs(result, args):
    return {
        "iterations": result.n_iterations,
        "sign_flips": result.sign_flips,
        "converged_by": result.converged_by,
        "residual": result.residual,
        "initial": getattr(args[0], "residual", None),
    }


ATTRS = {
    "lattice.site_table": lambda table, args: {"n": len(table)},
    "synth.couplings": lambda ms, args: {"n": len(ms)},
    "placement.place_all": _placement_attrs,
    "refine.refine": _refine_attrs,
}

# The module attributes the tracer wraps.  The workloads call spinmap through
# these attributes, and spinmap's own modules call each other through them:
# place_all reaches _table_symmetry_ops and, once per solution, the orbit pass
# _orbit_info; the sweep and the exact SEDOR frequency diagonalize through
# label_eigenstates.
SITES = [
    ("spinmap.lattice", "build_lattice"),
    ("spinmap.lattice", "SiteTable"),
    ("spinmap.placement", "_table_symmetry_ops"),
    ("spinmap.synth", "generate_connected_cluster"),
    ("spinmap.synth", "generate_cluster"),
    ("spinmap.synth", "emit_couplings"),
    ("spinmap.placement", "place_all"),
    ("spinmap.placement", "ambiguity_report"),
    ("spinmap.placement", "canonical_assignment"),
    ("spinmap.placement", "_orbit_info"),
    ("spinmap.refine", "refine"),
    ("spinmap.hamiltonian", "deviation_sweep"),
    ("spinmap.hamiltonian", "sedor_correction_second_order"),
    ("spinmap.hamiltonian", "sedor_frequency_exact"),
    ("spinmap.hamiltonian", "label_eigenstates"),
    ("spinmap.fileio", "write_json"),
    ("spinmap.fileio", "write_couplings_csv"),
    ("spinmap.fileio", "write_solutions_json"),
    ("spinmap.fileio", "build_manifest"),
]


def cli_sites():
    """SITES plus the same functions where ``spinmap.cli`` imported them by name."""
    import spinmap.cli as cli

    bound = [("spinmap.cli", attr) for mod, attr in SITES
             if getattr(cli, attr, None) is getattr(importlib.import_module(mod), attr)]
    return SITES + bound


class Tracer:
    def __init__(self):
        self.spans = []
        self.frame = "setup"
        self.phase = "setup"
        self._stack = []
        self._saved = []

    def add(self, name, t0, t1, parent=None, error=None, attrs=None):
        self.spans.append({
            "name": name, "t0": t0, "t1": t1, "parent": parent, "frame": self.frame,
            "phase": self.phase, "error": error, "attrs": attrs,
        })
        return len(self.spans) - 1

    def wrap(self, fn, name):
        attrs = ATTRS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            idx = self.add(name, time.perf_counter(), None, parent)
            span = self.spans[idx]
            self._stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span["error"] = type(exc).__name__
                raise
            finally:
                span["t1"] = time.perf_counter()
                self._stack.pop()
            if attrs is not None:
                span["attrs"] = attrs(result, args)
            return result

        return traced

    def install(self, sites):
        """Replace each (object or module name, attribute) with a traced wrapper."""
        for owner, attr in sites:
            if isinstance(owner, str):
                owner = importlib.import_module(owner)
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self.wrap(original, SPAN_NAMES[attr]))

    def uninstall(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved = []


def layer_of(name):
    return name.split(".", 1)[0]


def self_times(spans):
    """Duration of each span minus the time covered by its direct children."""
    child = [0.0] * len(spans)
    for s in spans:
        if s["parent"] is not None:
            child[s["parent"]] += s["t1"] - s["t0"]
    return [s["t1"] - s["t0"] - c for s, c in zip(spans, child)]


def percentile(values, pct):
    """Linear-interpolated percentile; the value itself for a single sample."""
    values = sorted(values)
    if len(values) == 1:
        return values[0]
    pos = (len(values) - 1) * pct / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(values) - 1)
    return values[lo] + (values[hi] - values[lo]) * (pos - lo)


def _median(values):
    return percentile(values, 50) if values else 0.0


def outermost(spans):
    """For each span, True when no enclosing span has the same name.

    ``generate_connected_cluster`` calls ``generate_cluster`` and
    ``canonical_assignment`` calls ``_orbit_info``; time and counts are taken
    from the outermost span so that such calls are not counted twice.
    """
    out = []
    for s in spans:
        p = s["parent"]
        while p is not None and spans[p]["name"] != s["name"]:
            p = spans[p]["parent"]
        out.append(p is None)
    return out


def layer_metrics(spans, tail_pct):
    """Per-layer metrics from the spans of a traced run.

    Spans of the untimed checks are left out.  A ``*_s`` metric without a
    percentile is the median, over the frames (set-up or one input of one pass)
    that call the entry point, of the time spent in it per frame.  Counts cover
    the first pass over the inputs only, so they repeat exactly between runs of
    the same code.  A layer a workload never calls reads 0.
    """
    timed = [(s, st, top) for s, st, top in zip(spans, self_times(spans), outermost(spans))
             if s["phase"] != "check"]

    def dur(s):
        return s["t1"] - s["t0"]

    def per_frame(pred, self_time=False):
        totals = {}
        for s, st, top in timed:
            if pred(s) and (self_time or top):
                key = str(s["frame"])
                totals[key] = totals.get(key, 0.0) + (st if self_time else dur(s))
        return _median(list(totals.values()))

    def named(name):
        return lambda s: s["name"] == name

    def first_pass(s):
        return s["frame"] == "setup" or s["frame"][0] == 0

    def calls(name, first=False):
        return [s for s, _, top in timed
                if top and s["name"] == name and (not first or first_pass(s))]

    def tail(values):
        return percentile(values, tail_pct) if values else 0.0

    place = calls("placement.place_all")
    place0 = [s["attrs"] for s in calls("placement.place_all", True) if s["attrs"]]
    refine = [s for s in calls("refine.refine") if s["attrs"]]
    refine0 = [s["attrs"] for s in calls("refine.refine", True) if s["attrs"]]
    tables = [s["attrs"]["n"] for s in calls("lattice.site_table") if s["attrs"]]
    partials = sum(a["partials"] for a in place0)
    solutions = sum(a["solutions"] for a in place0)
    diag = calls("hamiltonian.diagonalize")
    return {
        "import.cli_s": per_frame(named("import.cli")),
        "lattice.build_s": per_frame(named("lattice.build")),
        "lattice.site_table_s": per_frame(named("lattice.site_table")),
        "lattice.symmetry_ops_s": per_frame(named("lattice.symmetry_ops")),
        "lattice.sites": tables[0] if tables else 0,
        "synth.cluster_s": per_frame(named("synth.cluster")),
        "synth.couplings_s": per_frame(named("synth.couplings")),
        "synth.measurements": sum(s["attrs"]["n"] for s in calls("synth.couplings", True)
                                  if s["attrs"]),
        "placement.place_s_p50": _median([dur(s) for s in place]),
        "placement.place_s_tail": tail([dur(s) for s in place]),
        "placement.frontier_peak": max((a["peak"] for a in place0), default=0),
        "placement.partials_total": partials,
        "placement.solutions": solutions,
        "placement.survival_ratio": solutions / partials if partials else 0.0,
        "placement.capacity_errors": sum(s["error"] == "CapacityError"
                                         for s in calls("placement.place_all", True)),
        "placement.time_to_error_s": _median([dur(s) for s in place if s["error"]]),
        "placement.canonical_s": per_frame(named("placement.canonical")),
        "placement.ambiguity_report_s": per_frame(named("placement.ambiguity_report")),
        "refine.refine_s_p50": _median([dur(s) for s in refine]),
        "refine.refine_s_tail": tail([dur(s) for s in refine]),
        "refine.iterations": sum(a["iterations"] for a in refine0),
        "refine.s_per_iteration": _median([dur(s) / s["attrs"]["iterations"] for s in refine
                                           if s["attrs"]["iterations"]]),
        "refine.sign_flips": sum(a["sign_flips"] for a in refine0),
        **{f"refine.converged_by.{how}": sum(a["converged_by"] == how for a in refine0)
           for how in ("gradient", "step", "cost")},
        "refine.residual_ratio": _median([a["residual"] / a["initial"] for a in refine0
                                          if a["initial"]]),
        "hamiltonian.sweep_s": per_frame(named("hamiltonian.sweep")),
        "hamiltonian.diagonalizations": sum(1 for s in diag if first_pass(s)),
        "hamiltonian.us_per_diagonalization": 1e6 * _median([dur(s) for s in diag]),
        "hamiltonian.second_order_s": per_frame(named("hamiltonian.second_order")),
        "hamiltonian.exact_s": per_frame(named("hamiltonian.exact")),
        "fileio.write_s": per_frame(lambda s: layer_of(s["name"]) == "fileio", self_time=True),
        "cli.self_s": per_frame(named("cli.main"), self_time=True),
    }


COUNTERS = (
    "lattice.sites", "synth.measurements", "placement.partials_total", "placement.frontier_peak",
    "placement.solutions", "placement.capacity_errors", "refine.iterations", "refine.sign_flips",
    "hamiltonian.diagonalizations", "fileio.bytes_written",
)


def layer_self_table(spans, denominator):
    """Self time per layer over set-up and operations, plus what no span covers."""
    table = {}
    for s, st in zip(spans, self_times(spans)):
        if s["phase"] in ("setup", "op"):
            layer = layer_of(s["name"])
            table[layer] = table.get(layer, 0.0) + st
    covered = sum(s["t1"] - s["t0"] for s in spans
                  if s["parent"] is None and s["phase"] in ("setup", "op"))
    table["(no span)"] = denominator - covered
    return table, covered / denominator
