"""Run one ``lipkit`` command in this process and record where its time went.

Usage: child.py RECORD_JSON TRACE(0|1) [lipkit arguments ...]

Reads the monotonic clock (shared by all processes on the host) once
``import lipkit.cli`` has finished and around ``lipkit.cli.main``, then
writes them, the environment and, with TRACE=1, the span aggregates to
RECORD_JSON. The exit code is the CLI's. With no lipkit arguments it only
imports and records (a warm-up and environment probe).
"""

import json
import sys
import time


def main():
    record_path, trace, argv = sys.argv[1], sys.argv[2] == "1", sys.argv[3:]
    import lipkit.cli

    imported = time.monotonic()
    tracer = None
    if trace:
        import spans  # sits next to this file, so it is on sys.path

        tracer = spans.install()
    code = 0
    start = time.monotonic()
    if argv:
        code = lipkit.cli.main(argv)
    end = time.monotonic()
    sys.stdout.flush()

    import numpy
    import scipy
    import networkx
    from lipkit import _kernels

    record = {
        "imported": imported,
        "main_start": start,
        "main_end": end,
        "env": {
            "backend": _kernels.backend_name(),
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "networkx": networkx.__version__,
        },
    }
    if tracer is not None:
        record["trace"] = tracer.report()
    with open(record_path, "w") as fh:
        json.dump(record, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
