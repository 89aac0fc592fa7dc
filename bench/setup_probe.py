"""Time the set-up a fresh interpreter pays before its first result.

    python3 bench/setup_probe.py

Prints one JSON object: `import_s`, the import of the command-line
module (which imports the whole package), and `lazy_init_s`, the first
square root modulo the default prime, which triggers the package's lazy
imports.  The package must be importable, e.g. with PYTHONPATH=src.
"""

import time

start = time.perf_counter()
import wcilinks.cli  # noqa: E402
imported = time.perf_counter()
from wcilinks.qpoly import GF  # noqa: E402

GF().sqrt(2)
ready = time.perf_counter()

import json  # noqa: E402

print(json.dumps({"import_s": imported - start,
                  "lazy_init_s": ready - imported}))
