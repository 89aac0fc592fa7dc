"""List the member seeds the benchmark must not draw.

    python3 bench/screen_members.py

A small share of seeded members is too special for the pipeline's
genericity certificates, and classify_links rejects them with a
CertificateError naming the failed gate (exit 2 on the command line).
The benchmark's workloads are meant to measure accepted members, so
this script runs classify_links on every member seed 1..MEMBER_SEEDS of
each kind the benchmark uses and writes MEMBER_SEEDS and the rejected
seeds, with the reason, to bench/rejected_members.json, from which the
benchmark draws its members.  Run it from the root of a checkout.
"""

import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

from run import CLASSIFY_SAMPLES, build_member  # noqa: E402
from wcilinks.links import CertificateError, classify_links  # noqa: E402

MEMBER_SEEDS = 1500


def main():
    rejected = {}
    for kind in ("dense", "coupled", "uncoupled"):
        rejected[kind] = {}
        for seed in range(1, MEMBER_SEEDS + 1):
            try:
                classify_links(*build_member(kind, seed),
                               samples=CLASSIFY_SAMPLES, seed=seed)
            except CertificateError as exc:
                rejected[kind][str(seed)] = str(exc)
        print(f"{kind}: {len(rejected[kind])} of {MEMBER_SEEDS} rejected",
              flush=True)
    out = BENCH / "rejected_members.json"
    out.write_text(json.dumps({"seeds": MEMBER_SEEDS, "rejected": rejected},
                              indent=1, sort_keys=True) + "\n",
                   encoding="utf-8")


if __name__ == "__main__":
    main()
