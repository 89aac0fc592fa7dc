"""Run the `wcilinks` command line under the tracer.

    python3 bench/traced_cli.py TRACE_OUT [wcilinks arguments ...]

Behaves like `wcilinks [arguments ...]` (same standard output and exit
code) and writes the tracer's spans, kernels and counters to TRACE_OUT
as JSON.  The package must be importable, e.g. with PYTHONPATH=src.
"""

import json
import sys

from tracer import Tracer

import wcilinks.cli


def main():
    out_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    try:
        code = wcilinks.cli.main(argv)
    finally:
        tracer.uninstall()
        sys.stdout.flush()
        with open(out_path, "w", encoding="utf-8") as handle:
            json.dump(tracer.dump(), handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
