"""One workload process: set-up, the closed loop, the checks; prints one JSON line.

Started by run.py with --spawned-at set to the parent's ``time.perf_counter()``
just before the process was created, so set-up time includes interpreter start.

The host's speed drifts: on the shared 2-CPU VM the benchmark was built on, the
same operation ran up to 1.6 times slower for minutes at a time.  So a fixed
probe, unrelated to spinmap, runs before every operation, and each gated
operation time is scaled by PROBE_REF_S / (median of the five probes nearest
to it): it reads as seconds at the probe speed PROBE_REF_S.  Set-up time is
scaled the same way by the median of SETUP_PROBES probes run straight after
set-up in the same process.  The raw times are reported next to them.
"""

import argparse
import json
import math
import resource
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np

# Median probe time measured on the reference machine (2-CPU shared VM,
# Python 3.11.7, numpy 2.4.6, one BLAS thread).
PROBE_REF_S = 0.0040
SETUP_PROBES = 9
_PROBE_MATRIX = np.arange(256.0).reshape(16, 16)
_PROBE_MATRIX = _PROBE_MATRIX + _PROBE_MATRIX.T


def speed_probe():
    """Time a fixed mix of interpreted arithmetic and small eigen-solves."""
    t0 = time.perf_counter()
    s = 0.0
    for k in range(10000):
        s += math.sqrt(k)
    for _ in range(50):
        np.linalg.eigh(_PROBE_MATRIX)
    return time.perf_counter() - t0


def scaled_to_reference(walls, probes, window=5):
    """Each wall time times PROBE_REF_S over the median of the nearest probes."""
    half = window // 2
    out = []
    for k, wall in enumerate(walls):
        lo = max(0, min(k - half, len(probes) - window))
        near = sorted(probes[lo:lo + window])
        out.append(wall * PROBE_REF_S / near[len(near) // 2])
    return out


def traced_op(workload, tracer, i, p):
    """Run input i once with the tracer installed; returns (seconds, outcome)."""
    tracer.frame, tracer.phase = [p, i], "op"
    tracer.install(workload.trace_sites)
    try:
        return workload.run_op(i, tracer, False)
    finally:
        tracer.uninstall()
        tracer.phase = "idle"


def parse_args():
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--spawned-at", type=float, required=True, dest="spawned_at")
    p.add_argument("--setup-only", action="store_true", dest="setup_only")
    return p.parse_args()


def main():
    args = parse_args()
    import workloads as wl  # imports spinmap.cli
    import tracer as tr

    t_import = time.perf_counter()
    tracer = tr.Tracer() if args.trace else None
    workload = wl.WORKLOADS[args.workload]()
    if tracer:
        tracer.add("import.cli", args.spawned_at, t_import)
        tracer.install(workload.trace_sites)
    workload.setup(args.seed, tracer)
    if tracer:
        tracer.uninstall()
    t_setup = time.perf_counter()
    setup_wall_s = t_setup - args.spawned_at
    setup_probe_s = sorted(speed_probe() for _ in range(SETUP_PROBES))[SETUP_PROBES // 2]
    setup = {"setup_s": setup_wall_s * PROBE_REF_S / setup_probe_s,
             "setup_wall_s": setup_wall_s, "setup_probe_s": setup_probe_s}
    if args.setup_only:
        print(json.dumps(setup))
        return 0
    t_ready = time.perf_counter()

    n = len(workload.inputs)
    times = [[] for _ in range(n)]
    order, walls = [], []
    traced_walls = []
    untraced_walls = []
    first_keys = [None] * n
    probes = []
    outcomes = Counter()
    errors = []
    attempted = failed = succeeded = 0
    work = bytes_written = 0
    k = 0
    t_end = t_ready + args.seconds
    while k < n or time.perf_counter() < t_end:
        i, p = k % n, k // n
        k += 1
        probes.append(speed_probe())
        if tracer and k % 2 == 0:
            # every other input runs traced first, so that neither run always
            # meets the caches the other left warm
            twall, toc = traced_op(workload, tracer, i, p)
        wall, oc = workload.run_op(i, None, p == 0)
        times[i].append(wall)
        order.append(i)
        walls.append(wall)
        attempted += 1
        failed += not oc["success"]
        succeeded += oc["success"]
        outcomes[oc["failure"] or "solved"] += 1
        work += oc.get("work", 1) if oc["success"] else 0
        if oc["incorrect"]:
            errors.append(oc["incorrect"])
        if p == 0:
            first_keys[i] = oc["key"]
            bytes_written += oc.get("bytes", 0)
        elif oc["key"] != first_keys[i]:
            errors.append(f"input {i}: pass {p} differs from pass 0")
        if tracer:
            if k % 2 == 1:
                twall, toc = traced_op(workload, tracer, i, p)
            traced_walls.append(twall)
            untraced_walls.append(wall)
            if toc["key"] != oc["key"]:
                errors.append(f"input {i}: traced output differs from untraced output")
    errors += workload.final_checks()

    per_input = [tr.percentile(t, 50) for t in times]
    op_time = sum(sum(t) for t in times)
    wall_p50 = tr.percentile(per_input, 50)
    wall_tail = tr.percentile(per_input, workload.tail_pct)
    scaled = [[] for _ in range(n)]
    for i, t in zip(order, scaled_to_reference(walls, probes)):
        scaled[i].append(t)
    scaled_per_input = [tr.percentile(t, 50) for t in scaled]
    usage = resource.getrusage(
        resource.RUSAGE_CHILDREN if args.workload == "reproduce-cold" else resource.RUSAGE_SELF)
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "correct": not errors,
        "errors": errors[:20],
        "attempted": attempted,
        "failed": failed,
        "outcomes": dict(outcomes),
        "inputs": n,
        "passes": k / n,
        **setup,
        "op_s_p50": tr.percentile(scaled_per_input, 50),
        "op_s_tail": tr.percentile(scaled_per_input, workload.tail_pct),
        "op_wall_s_p50": wall_p50,
        "op_wall_s_tail": wall_tail,
        "probe_s": tr.percentile(probes, 50),
        "tail_pct": workload.tail_pct,
        "tail_samples_beyond": sum(t > wall_tail for t in per_input),
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "ops_per_s": succeeded / op_time,
        "work_per_s": work / op_time,
        "failed_frac": failed / attempted,
    }
    if tracer:
        covered_wall = setup_wall_s + sum(traced_walls)
        layers = tr.layer_metrics(tracer.spans, workload.tail_pct)
        layers["fileio.bytes_written"] = bytes_written
        self_table, coverage = tr.layer_self_table(tracer.spans, covered_wall)
        overhead = sum(traced_walls) - sum(untraced_walls)
        layers["trace.coverage"] = coverage
        layers["trace.overhead_frac"] = overhead / sum(untraced_walls)
        # a negative difference is noise of the host, not a tracing overhead
        overhead_resolved = overhead > 0
        result.update(
            per_layer=layers,
            counters={name: layers[name] for name in tr.COUNTERS},
            layer_self_s=self_table,
            trace_overhead_s=overhead,
            trace_overhead_resolved=overhead_resolved,
        )
        out = Path(".bench_build/perfbench/spans") / f"{args.workload}-seed{args.seed}.json"
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps({
            "workload": args.workload, "seed": args.seed, "wall_covered_s": covered_wall,
            "coverage": coverage, "overhead_s": overhead,
            "overhead_resolved": overhead_resolved, "layer_self_s": self_table,
            "spans": tracer.spans,
        }))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
