"""Write reference.json: the values the correctness checks compare against.

The file is recorded once from the unchanged seed code and then kept fixed, so
that a later change that alters any of these outputs fails the benchmark.  Run
from the repository root:

    PYTHONPATH=src python3 perfbench/record_reference.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import workloads as wl


def main():
    workdir = Path(".bench_build/perfbench/reference-run")
    shutil.rmtree(workdir, ignore_errors=True)
    subprocess.run([sys.executable, "-m", "spinmap.cli", "reproduce", "--seed", "1",
                    "--workdir", str(workdir)], check=True)
    manifest = json.loads((workdir / "manifest.json").read_text())
    ref = {
        "reproduce_seed1_outputs": manifest["outputs"],
        "oracle": wl.oracle_reference(),
    }
    (wl.HERE / "reference.json").write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
    shutil.rmtree(workdir)


if __name__ == "__main__":
    main()
