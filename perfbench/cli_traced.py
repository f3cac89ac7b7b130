"""Run the spinmap CLI with spans around the names spinmap.cli calls.

Usage: python cli_traced.py SPANS_OUT SPAWNED_AT <spinmap arguments>

SPAWNED_AT is the caller's ``time.perf_counter()`` just before it started this
process, so the ``import.cli`` span covers interpreter start plus
``import spinmap.cli``.  The spans are written to SPANS_OUT as JSON.  The exit
code is the CLI's.
"""

import json
import sys
import time

from tracer import Tracer, cli_sites

import spinmap.cli  # noqa: E402  (inside the import span)


def main():
    spans_out, spawned, argv = sys.argv[1], float(sys.argv[2]), sys.argv[3:]
    tracer = Tracer()
    tracer.add("import.cli", spawned, time.perf_counter())
    tracer.install(cli_sites())
    try:
        code = tracer.wrap(spinmap.cli.main, "cli.main")(argv)
    finally:
        tracer.uninstall()
        with open(spans_out, "w") as fh:
            json.dump(tracer.spans, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
