"""Self-test of the benchmark's traced run.

    python3 bench/selftest.py

Runs every workload traced twice with seed SEED and requires that both
runs pass their output checks and report identical counts (call counts,
term products, points per square root, non-square ratio).  Also pins a
fact of the current pipeline: `verify-paper` runs normal_form_X1214
twice per operation, once itself and once inside classify_links.
Exits 0 when every check holds.  Run it from the root of a checkout.
"""

import json
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"
WORKLOADS = ("verify-cold", "classify-warm")
SEED = 3
COUNT_SUFFIXES = (".calls", ".term_products", ".points_per_sqrt",
                  ".nonsquare_ratio")


def traced(workload):
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed",
         str(SEED), "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, timeout=600, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main():
    problems = []
    for workload in WORKLOADS:
        first, second = traced(workload), traced(workload)
        for n, result in enumerate((first, second), 1):
            if not result["correct"] or result["failed"]:
                problems.append(f"{workload} run {n}: {result['failed']}"
                                f" of {result['attempted']} checks failed")
        counts = sorted(k for k in first["metrics"]
                        if k.endswith(COUNT_SUFFIXES))
        for name in counts:
            a = first["metrics"][name]["value"]
            b = second["metrics"][name]["value"]
            if a != b:
                problems.append(f"{workload} {name}: {a} then {b}")
        print(f"{workload}: {len(counts)} counts compared", flush=True)
        if workload == "verify-cold":
            calls = first["metrics"]["links.normal_form_X1214.calls"]["value"]
            if calls != 2:
                problems.append("verify-cold links.normal_form_X1214.calls"
                                f" is {calls}, expected 2")
    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
