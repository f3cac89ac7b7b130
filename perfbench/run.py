"""spinmap benchmark: cold CLI runs, the placement ensemble, sparse tables and the oracle.

Run from the repository root:

    python3 perfbench/run.py --workload ensemble --seed 0 --seconds 10 --trace 0

Each workload runs in child processes, one at a time, with one thread for the
BLAS libraries.  Set-up is timed in SETUP_RUNS fresh processes and its median
is reported; the last of them then runs the closed loop for at least --seconds
and at least one full pass over its inputs.  With --trace 0 the last line of
standard output is a JSON object with the end-to-end metrics; with --trace 1 it
has the per-layer metrics of a traced run, and the spans are written under
.bench_build/perfbench/spans/.  Every run is appended to
.bench_build/perfbench/runs.jsonl with the versions, nproc and seed, and its
work counters are compared with the last run of the same code and seed.
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
WORKLOADS = ("reproduce-cold", "ensemble", "sparse", "oracle")
SETUP_RUNS = 4
RUN_LIMIT_S = 175.0
OUT = ROOT / ".bench_build" / "perfbench"


def child_env():
    env = dict(os.environ)
    # imports read cached bytecode, as a user's do; the first set-up in a fresh
    # checkout writes it under src/spinmap/__pycache__
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env.update(
        PYTHONPATH=str(ROOT / "src"),
        PYTHONHASHSEED="0",
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    return env


def code_sha():
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "spinmap").glob("*.py")) + sorted(HERE.glob("*.py")):
        h.update(path.name.encode() + path.read_bytes())
    return h.hexdigest()[:16]


def environment():
    return {
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
    }


def run_child(args, setup_only, deadline):
    """Start one workload process and return its JSON result, or None on failure."""
    cmd = [
        sys.executable, str(HERE / "child.py"), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    if setup_only:
        cmd.append("--setup-only")
    spawned = time.perf_counter()
    cmd += ["--spawned-at", repr(spawned)]
    try:
        proc = subprocess.run(cmd, env=child_env(), stdout=subprocess.PIPE, text=True,
                              timeout=max(deadline - time.perf_counter(), 1.0))
    except subprocess.TimeoutExpired:
        print(f"error: {args.workload} did not finish in time", file=sys.stderr)
        return None
    if proc.returncode != 0 or not proc.stdout.strip():
        print(f"error: {args.workload} process exited with {proc.returncode}", file=sys.stderr)
        return None
    return json.loads(proc.stdout.strip().splitlines()[-1])


def compare_counters(record):
    """Flag work counters that differ from the last run of the same code and seed."""
    log = OUT / "runs.jsonl"
    if not log.exists():
        return None
    same = [r for r in map(json.loads, log.read_text().splitlines())
            if r.get("counters") and (r["workload"], r["seed"], r["code_sha"])
            == (record["workload"], record["seed"], record["code_sha"])]
    if not same:
        return None
    before = same[-1]["counters"]
    return {k: [before.get(k), v] for k, v in record["counters"].items() if before.get(k) != v}


def report(record, result):
    err = sys.stderr
    print(f"== {record['workload']} seed {record['seed']} trace {record['trace']} "
          f"code {record['code_sha']} env {record['env']}", file=err)
    print(f"   correct {result['correct']}  attempted {result['attempted']}  failed "
          f"{result['failed']} ({result['failed_frac']:.1%})  outcomes {result['outcomes']}",
          file=err)
    for e in result["errors"]:
        print(f"   CHECK FAILED: {e}", file=err)
    print(f"   setup_s {record['setup_s']:.4f} (median of {len(record['setup_runs'])} set-ups; raw "
          f"wall {' '.join(f'{s:.3f}' for s in record['setup_wall_runs'])} s)", file=err)
    print(f"   op_s_p50 {result['op_s_p50']:.4f}  op_s_tail {result['op_s_tail']:.4f} "
          f"(p{result['tail_pct']} of {result['inputs']} inputs, "
          f"{result['tail_samples_beyond']} beyond; {result['passes']:.2f} passes)  "
          f"peak_rss_mb {result['peak_rss_mb']:.1f}", file=err)
    print(f"   raw wall: op p50 {result['op_wall_s_p50']:.4f} s, tail {result['op_wall_s_tail']:.4f} s; "
          f"speed probe median {result['probe_s'] * 1e3:.3f} ms  ops_per_s "
          f"{result['ops_per_s']:.4f}  work_per_s {result['work_per_s']:.4f}", file=err)
    if "per_layer" in result:
        total = sum(result["layer_self_s"].values())
        overhead = (f"tracing overhead {result['trace_overhead_s']:+.4f} s = "
                    f"{result['per_layer']['trace.overhead_frac']:+.2%}")
        if not result["trace_overhead_resolved"]:
            overhead += " (unresolved: traced ran faster, so the overhead is below the noise)"
        print(f"   self time per layer (coverage {result['per_layer']['trace.coverage']:.1%}, "
              f"{overhead}):", file=err)
        for layer, s in sorted(result["layer_self_s"].items(), key=lambda kv: -kv[1]):
            print(f"     {layer:<12} {s:10.4f} s {s / total:7.1%}", file=err)
        print(f"   counters {result['counters']}", file=err)
        if record.get("counters_changed"):
            print(f"   COUNTERS DIFFER from the last run of the same code: "
                  f"{record['counters_changed']}", file=err)


def run_workload(args, spec):
    deadline = time.perf_counter() + RUN_LIMIT_S
    setups = []
    for _ in range(SETUP_RUNS - 1):
        res = run_child(args, True, deadline)
        if res is None:
            return None
        setups.append(res)
    result = run_child(args, False, deadline)
    if result is None:
        return None
    setups.append(result)
    record = {
        "time": time.time(), "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "code_sha": code_sha(), "env": environment(),
        "setup_s": statistics.median(r["setup_s"] for r in setups),
        "setup_runs": [r["setup_s"] for r in setups],
        "setup_wall_runs": [r["setup_wall_s"] for r in setups],
        "setup_probe_runs": [r["setup_probe_s"] for r in setups],
        "result": {k: v for k, v in result.items() if k != "per_layer"},
    }
    if "counters" in result:
        record["counters"] = result["counters"]
        record["counters_changed"] = compare_counters(record)
    OUT.mkdir(parents=True, exist_ok=True)
    with open(OUT / "runs.jsonl", "a") as fh:
        fh.write(json.dumps(record) + "\n")
    report(record, result)

    values = dict(result.get("per_layer", {}))
    values.update(setup_s=record["setup_s"], **{k: result[k] for k in
                                                 ("op_s_p50", "op_s_tail", "peak_rss_mb")})
    group = "per_layer" if args.trace else "end_to_end"
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec[group]}
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if not (ROOT / "src" / "spinmap" / "cli.py").is_file():
        print(f"error: run from the repository root; {ROOT / 'src/spinmap'} not found",
              file=sys.stderr)
        return 2
    if args.seed < 0:
        p.error("--seed must be >= 0")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    code = 0
    for name in WORKLOADS if args.workload == "all" else (args.workload,):
        args.workload = name
        out = run_workload(args, spec)
        if out is None:
            return 3
        print(json.dumps(out), flush=True)
        code = code or (0 if out["correct"] else 1)
    return code


if __name__ == "__main__":
    sys.exit(main())
