"""Benchmark of the wcilinks pipeline: two workloads and a traced run.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout: the package is imported from
`src/` as it stands (nothing is installed), and scratch files go to
`.bench_build/`.

Load is a closed loop with one client: the next operation starts when
the previous one has finished.  Each workload draws a fixed set of
inputs from `--seed` and runs them in rounds, the same order every
round, for as many whole rounds (at least two) as fit in `--seconds`.
Every output is checked, and a repeated input must print the same bytes
as the first time.
Members come from the seeds bench/screen_members.py found accepted by
the genericity certificates.

Workloads, and why each is here:

* verify-cold - a fresh `wcilinks verify-paper --seed S` process per
  operation, default settings.  This is what a user runs: it pays the
  package import, the lazy import behind the first modular square root,
  the pipeline with its sampling over F_p, and the second pipeline
  inside its classify_links call.
* classify-warm - in-process `classify_links(F1, F2, samples=20,
  seed=S)` after one warm-up call, on a stream cycling through a dense
  random member, a sparse member with the y*z*v coupling (lambda != 0)
  and one without it (lambda = 0, the one-link branch).  No import or
  lazy set-up; the time is exact arithmetic over Q.

With `--trace 0` the last line reports the end-to-end metrics, measured
untraced.  On a 2-vCPU VM of a shared host the same operation was seen
to run up to half again slower for stretches of seconds to a minute,
whatever the program does.  So the time of an input is the best of its
rounds, which lie seconds apart:

* `setup_s` - the best, over fresh interpreters spread evenly through
  the run, of the package import plus the first modular square root;
* `wall_p50_s` - the median over inputs of their best wall time;
* `wall_tail_s` - the highest percentile, with ten operations beyond
  it, of the wall time of every operation: the slow operations a user
  meets, interference included;
* `members_per_s` and `samples_per_s` - inputs and their verified
  sampled points per second of the inputs' summed best wall times;
* `peak_rss_mb` - peak resident memory.

With `--trace 1` it reports per-layer metrics: the workload runs
untraced for `--seconds`, then a fixed number of operations runs under
the tracer (bench/tracer.py), so that counts repeat exactly for a seed.
Traced operations must print the same bytes as untraced ones.  Spans
are written to `.bench_build/spans-WORKLOAD-SEED.jsonl`.  The traced
run of verify-cold also times `wcilinks qsmooth` of its first member on
2000 points over F_p, serially and with `--parallel 2`.

Failed checks are counted in `failed` of the last line and printed as
`fail_ratio` above it.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from importlib import metadata
from pathlib import Path

from tracer import Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
BUILD = ROOT / ".bench_build"
ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(
    p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p))

PRIME = 2**31 - 1
SETUP_PROBES = 16
# distinct inputs per round; rounds repeat them, so each gets several tries
INPUTS = {"verify-cold": 8, "classify-warm": 24}
OP_TIMEOUT_S = 150
CLASSIFY_SAMPLES = 20
PARALLEL_PROBE_SAMPLES = 2000
PARALLEL_PROBE_REPEATS = 2
# operations run under the tracer; fixed so that counts repeat exactly
TRACED_OPS = {"verify-cold": 4, "classify-warm": 9}

VERIFY_STEPS = [
    "normal-form", "census", "extraction-discrepancy", "link-sigma",
    "model-equation", "census-model", "germ-table", "exclusion-blowups",
    "curve-exclusion", "deck-involution", "involution-sampled",
    "classification",
]

# the monomial support of the README example member
SPARSE_F1 = ["w*x", "y^6", "y^4*t", "y^2*t^2", "t^3", "y*z*v", "z^4",
             "z^2*y^3", "z^2*y*t", "x^12"]
SPARSE_F2 = ["w*z", "v^2", "y^7", "y*t^3", "x^14", "x^2*z^4"]
COUPLING = "y*z*v"

LINK_STAGES = [
    "normal_form_X1214", "singularity_census_X", "construct_link_sigma",
    "singularity_census_hatX", "condition_check", "run_exclusion_blowups",
    "exclude_degree_one_curves", "build_involutions", "verify_involution",
    "classify_links",
]
SINGULAR_TIMED = ["classify_quotient_singularity", "discrepancy_chart_oracle",
                  "analyze_cE6_germ", "quadratic_involution_test"]
AMBIENT_TIMED = ["transport_equation", "run_two_ray_game", "cone_calculus",
                 "certify_stratum_empty"]


# ---------------------------------------------------------------------------
# running the command line


def run_cli(argv, trace_path=None):
    """(wall seconds, exit code, stdout bytes) of one wcilinks process."""
    if trace_path is None:
        cmd = [sys.executable, "-m", "wcilinks.cli", *argv]
    else:
        cmd = [sys.executable, str(BENCH / "traced_cli.py"), str(trace_path),
               *argv]
    start = time.perf_counter()
    proc = subprocess.run(cmd, env=ENV, cwd=ROOT, capture_output=True,
                          timeout=OP_TIMEOUT_S)
    return time.perf_counter() - start, proc.returncode, proc.stdout


def setup_probe():
    """(import, lazy-init) seconds of one fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, str(BENCH / "setup_probe.py")], env=ENV,
        cwd=ROOT, capture_output=True, timeout=OP_TIMEOUT_S, check=True)
    probe = json.loads(proc.stdout)
    return probe["import_s"], probe["lazy_init_s"]


def setup_best(probes):
    """Best set-up, import and lazy-init seconds of the probes.

    A run too short to take SETUP_PROBES of them is topped up here.
    """
    while len(probes) < SETUP_PROBES:
        probes.append(setup_probe())
    return (min(a + b for a, b in probes), min(a for a, _ in probes),
            min(b for _, b in probes))


# ---------------------------------------------------------------------------
# workloads


class Workload:
    """Inputs drawn from the seed, one operation, and its output check.

    Operation i runs input i % INPUTS[name].  run(op, trace) returns
    (wall seconds, exit code, output bytes, trace data or None);
    check(op, code, output) returns the number of sampled points the
    output verifies, or None when the output is wrong.
    """

    name = ""

    def __init__(self, seed):
        self.rng = random.Random(f"{self.name}/{seed}")
        self.inputs = INPUTS[self.name]
        self.ops = []

    def op(self, i):
        while len(self.ops) <= i % self.inputs:
            self.ops.append(self.make_op(len(self.ops)))
        return self.ops[i % self.inputs]

    def prepare(self):
        """Work done once before timing starts."""

    def close(self):
        """Undo anything prepare() or a traced run left behind."""


class VerifyCold(Workload):
    name = "verify-cold"

    def __init__(self, seed):
        super().__init__(seed)
        self.members = member_seeds("dense", self.rng)

    def make_op(self, i):
        seed = self.members[i % len(self.members)]
        return {"label": f"verify-paper --seed {seed}",
                "argv": ["verify-paper", "--seed", str(seed)]}

    def run(self, op, trace):
        if not trace:
            wall, code, out = run_cli(op["argv"])
            return wall, code, out, None
        path = BUILD / f"op-trace-{self.name}.json"
        wall, code, out = run_cli(op["argv"], trace_path=path)
        with open(path, encoding="utf-8") as handle:
            data = json.load(handle)
        path.unlink()
        return wall, code, out, data

    def check(self, op, code, out):
        if code != 0:
            return None
        report = json.loads(out)
        steps = report.get("steps", [])
        ok = (report.get("status") == "ok"
              and report.get("result") == "all checks passed"
              and [s.get("name") for s in steps] == VERIFY_STEPS
              and all(s.get("passed") is True for s in steps))
        if not ok:
            return None
        sampled = steps[VERIFY_STEPS.index("involution-sampled")]["detail"]
        passed, _, rest = sampled.partition("/")
        if not passed.isdigit() or rest.split()[:1] != [passed]:
            return None
        return int(passed)

    def parallel_speedup(self, tally):
        """Median serial over `--parallel 2` wall of one large qsmooth run.

        The input is a `member: "random"` document over F_(2^31-1) for the
        first member; both modes must verify every point and print the
        same bytes.
        """
        member = self.members[0]
        path = BUILD / "parallel-probe.json"
        path.write_text(json.dumps({
            "ambient": {"weights": [1, 2, 3, 4, 7, 11],
                        "vars": ["x", "y", "z", "t", "v", "w"]},
            "degrees": [12, 14],
            "member": "random",
            "field": {"Fp": PRIME},
            "seed": member,
        }), encoding="utf-8")
        argv = ["qsmooth", str(path), "--samples", str(PARALLEL_PROBE_SAMPLES),
                "--seed", str(member)]
        walls = {"1": [], "2": []}
        outputs = set()
        try:
            for rep in range(PARALLEL_PROBE_REPEATS):
                for jobs in ("1", "2") if rep % 2 == 0 else ("2", "1"):
                    extra = [] if jobs == "1" else ["--parallel", jobs]
                    wall, code, out = run_cli(argv + extra)
                    walls[jobs].append(wall)
                    outputs.add(out)
                    tally.record(qsmooth_ok(code, out, PARALLEL_PROBE_SAMPLES),
                                 f"qsmooth member {member} --parallel {jobs}")
        finally:
            path.unlink(missing_ok=True)
        tally.record(len(outputs) == 1,
                     f"qsmooth member {member}: output differs under"
                     " --parallel 2")
        print(f"parallel probe: qsmooth of {PARALLEL_PROBE_SAMPLES} points,"
              f" serial {walls['1']} s, --parallel 2 {walls['2']} s")
        return statistics.median(walls["1"]) / statistics.median(walls["2"])


def qsmooth_ok(code, out, samples):
    """Whether a qsmooth report verifies all `samples` points over F_p."""
    if code != 0:
        return False
    steps = json.loads(out).get("steps", [])
    if len(steps) != 2:
        return False
    points, sampled = steps
    return (points.get("non_quasismooth") == []
            and sampled.get("field") == f"F_{PRIME}"
            and sampled.get("samples") == samples
            and sampled.get("quasismooth_samples") == samples
            and sampled.get("all_quasismooth") is True)


class ClassifyWarm(Workload):
    name = "classify-warm"
    KINDS = ("dense", "coupled", "uncoupled")

    def __init__(self, seed):
        super().__init__(seed)
        self.members = {kind: member_seeds(kind, self.rng)
                        for kind in self.KINDS}
        self.tracer = None

    def prepare(self):
        sys.path.insert(0, str(SRC))
        from wcilinks import links

        self.links = links
        links.classify_links(*links.random_member(0),
                             samples=CLASSIFY_SAMPLES, seed=0)

    def make_op(self, i):
        kind = self.KINDS[i % len(self.KINDS)]
        member = self.members[kind][i // len(self.KINDS)
                                    % len(self.members[kind])]
        return {"label": f"{kind} member {member}", "kind": kind,
                "member": member, "seed": self.rng.randrange(1, 10**6)}

    def run(self, op, trace):
        F1, F2 = build_member(op["kind"], op["member"])
        if trace and self.tracer is None:
            self.tracer = Tracer()
            self.tracer.install()
        if self.tracer is not None:
            self.tracer.op = op["index"]
        start = time.perf_counter()
        try:
            cls = self.links.classify_links(F1, F2, samples=CLASSIFY_SAMPLES,
                                            seed=op["seed"])
        except Exception as exc:  # noqa: BLE001 - a failed operation
            wall = time.perf_counter() - start
            return wall, 3, repr(exc).encode(), None
        wall = time.perf_counter() - start
        return wall, 0, _classification_bytes(cls), None

    def trace_data(self):
        data = self.tracer.dump()
        self.close()
        return data

    def close(self):
        if self.tracer is not None:
            self.tracer.uninstall()
            self.tracer = None

    def check(self, op, code, out):
        if code != 0:
            return None
        got = json.loads(out)
        lam_nonzero = got["lambda"] != "0"
        if op["kind"] != "dense" and lam_nonzero != (op["kind"] == "coupled"):
            return None
        expected = [2, 4] if lam_nonzero else [1, 3]
        inv_passed, inv_samples = got["involution"]
        ok = (got["solid"] is True
              and [got["elementary_from_qhat"], got["germ_count"]] == expected
              and inv_passed == inv_samples == CLASSIFY_SAMPLES)
        return inv_passed if ok else None


def _classification_bytes(cls):
    """A canonical serialisation of a LinkClassification."""
    nf = cls.normal_form
    return json.dumps({
        "F1": str(nf.F1), "F2": str(nf.F2),
        "lambda": str(nf.lam), "mu": str(nf.mu),
        "model": str(cls.sigma.hat.F),
        "reports": [[r.name, r.center, r.verdict.kind, r.verdict.detail,
                     str(r.verdict.target)] for r in cls.reports],
        "germ_rows": [[r.name, str(r.multiplicity), str(r.discrepancy)]
                      for r in cls.hat_census.germ.rows],
        "germ_count": cls.germ_count,
        "divisor_links": cls.divisor_links,
        "elementary_from_qhat": cls.elementary_from_qhat,
        "involution": [cls.involution_check.passed,
                       cls.involution_check.samples],
        "citations": list(cls.citations),
        "solid": cls.solid,
        "summary": cls.summary,
    }, sort_keys=True).encode()


def member_seeds(kind, rng):
    """The accepted member seeds of one kind, in an order drawn from rng."""
    with open(BENCH / "rejected_members.json", encoding="utf-8") as handle:
        screened = json.load(handle)
    rejected = screened["rejected"][kind]
    # the file records how many seeds bench/screen_members.py screened
    seeds = [s for s in range(1, screened["seeds"] + 1)
             if str(s) not in rejected]
    rng.shuffle(seeds)
    return seeds


def build_member(kind, seed):
    """The (F1, F2) pair of a dense, coupled or uncoupled member."""
    from wcilinks import links

    if kind == "dense":
        return links.random_member(seed)
    rng = random.Random(seed)
    amb = links.X_WPS.ambient()

    def poly(monomials):
        f = amb.zero()
        for mono in monomials:
            c = 0
            while c == 0:
                c = rng.randint(-9, 9)
            # the parser takes no signed coefficients: scale instead
            f = f + amb.parse(mono).scale(c)
        return f

    f1 = SPARSE_F1 if kind == "coupled" else [
        m for m in SPARSE_F1 if m != COUPLING]
    return poly(f1), poly(SPARSE_F2)


WORKLOADS = {w.name: w for w in (VerifyCold, ClassifyWarm)}


# ---------------------------------------------------------------------------
# measurement


class Tally:
    """Outcome of every output check in a run."""

    def __init__(self):
        self.verified = 0
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def record(self, ok, label):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(label)


def run_op(workload, i, tally, trace=False):
    """Run and check operation i; returns (wall, output, trace data)."""
    op = dict(workload.op(i), index=i)
    try:
        wall, code, out, data = workload.run(op, trace)
        verified = workload.check(op, code, out)
    except (OSError, ValueError, KeyError, subprocess.SubprocessError) as exc:
        tally.record(False, f"{op['label']}: {exc!r}")
        return None, None, None
    tally.record(verified is not None, op["label"])
    if verified is not None:
        tally.verified += verified
    return wall, out, data


def closed_loop(workload, tally, seconds=None, count=None, trace=False,
                expected=None, probes=None):
    """Operations 0, 1, ...: `count` of them, or whole rounds of inputs.

    Without `count`, a round starts while it is expected to end within
    `seconds`, and at least two rounds run.  An operation must print the
    bytes of `expected` at its index or, without `expected`, those of
    the same input in the round before.  When `probes` is a list, set-up
    probes are appended to it between operations, SETUP_PROBES of them
    spread evenly over `seconds`.  Returns the walls (None where the
    operation failed) and outputs of the operations, and the merged
    trace data.
    """
    walls, outputs = [], []
    merged = {"spans": [], "kernels": {}, "counts": Counter()}
    n = workload.inputs
    start = time.perf_counter()
    i = 0
    while True:
        elapsed = time.perf_counter() - start
        rounds = i // n
        if count is not None and i >= count:
            break
        if count is None and i % n == 0 and rounds >= 2 and (
                elapsed * (rounds + 1) > seconds * rounds):
            break
        if probes is not None and len(probes) < SETUP_PROBES and (
                len(probes) * seconds <= elapsed * SETUP_PROBES):
            probes.append(setup_probe())
        wall, out, data = run_op(workload, i, tally, trace)
        reference = (expected[i] if expected is not None
                     else outputs[i - n] if i >= n else None)
        if reference is not None:
            tally.record(out == reference,
                         f"{workload.op(i)['label']}: output differs")
        walls.append(wall)
        if data is not None:
            _merge(merged, data, i)
        outputs.append(out)
        i += 1
    return walls, outputs, merged


def _merge(merged, data, op_index):
    base = len(merged["spans"])
    for sid, name, start, end, parent, _, kernel_s in data["spans"]:
        merged["spans"].append([base + sid, name, start, end,
                                None if parent is None else base + parent,
                                op_index, kernel_s])
    for name, (calls, total, own) in data["kernels"].items():
        agg = merged["kernels"].setdefault(name, [0, 0.0, 0.0])
        agg[0] += calls
        agg[1] += total
        agg[2] += own
    merged["counts"].update(data["counts"])


def tail(walls):
    """(value, percentile): the highest percentile with ten samples beyond.

    Under twenty samples that percentile would lie below the median, so
    the median is reported instead.
    """
    ordered = sorted(walls)
    n = len(ordered)
    if n < 20:
        return statistics.median(ordered), 50.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def peak_rss_mb(workload):
    who = (resource.RUSAGE_SELF if isinstance(workload, ClassifyWarm)
           else resource.RUSAGE_CHILDREN)
    return resource.getrusage(who).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# per-layer metrics


def layer_metrics(trace, ops):
    """Per-operation times and counts from the merged trace data."""
    spans, kernels = trace["spans"], trace["kernels"]
    counts = Counter(trace["counts"])
    total = defaultdict(float)
    calls = Counter()
    covered = defaultdict(float)
    for sid, name, start, end, parent, _, _ in spans:
        total[name] += end - start
        calls[name] += 1
        if parent is not None:
            covered[parent] += end - start
    own = defaultdict(float)
    for sid, name, start, end, _, _, kernel_s in spans:
        own[name.split(".")[0]] += end - start - covered[sid] - kernel_s
    for name, (_, _, kernel_own) in kernels.items():
        own[name.split(".")[0]] += kernel_own

    def kernel(name, field):
        calls_, time_, _ = kernels.get(name, (0, 0.0, 0.0))
        return (calls_ if field == "calls" else time_) / ops

    out = {
        "cli.inner_classify_s": total["cli.inner_classify"] / ops,
        "cli.emit_s": total["cli.emit"] / ops,
    }
    for stage in LINK_STAGES:
        out[f"links.{stage}.s"] = total[f"links.{stage}"] / ops
        out[f"links.{stage}.calls"] = calls[f"links.{stage}"] / ops
    attempts = counts["links.draw.sqrt_attempts"]
    out["links.points_per_sqrt"] = (counts["links.draw.points"] / attempts
                                    if attempts else 0.0)
    out["singular.quasismooth_at_sample.s"] = (
        total["singular.quasismooth_at_sample"] / ops)
    out["singular.quasismooth_at_sample.calls"] = (
        calls["singular.quasismooth_at_sample"] / ops)
    for fn in SINGULAR_TIMED:
        out[f"singular.{fn}.s"] = total[f"singular.{fn}"] / ops
    for fn in AMBIENT_TIMED:
        out[f"ambient.{fn}.s"] = total[f"ambient.{fn}"] / ops
    for name in ("mul", "add", "substitute", "evaluate", "sqrt"):
        out[f"qpoly.{name}.calls"] = kernel(f"qpoly.{name}", "calls")
        out[f"qpoly.{name}.s"] = kernel(f"qpoly.{name}", "s")
    out["qpoly.mul.term_products"] = counts["qpoly.mul.term_products"] / ops
    sqrt_calls = kernels.get("qpoly.sqrt", (0,))[0]
    out["qpoly.sqrt.nonsquare_ratio"] = (
        counts["qpoly.sqrt.nonsquare"] / sqrt_calls if sqrt_calls else 0.0)
    out["qpoly.resultant.s"] = total["qpoly.resultant"] / ops
    for module in ("cli", "links", "singular", "ambient", "qpoly"):
        out[f"{module}.self_s"] = own[module] / ops
    return out


def write_spans(trace, path):
    with open(path, "w", encoding="utf-8") as handle:
        for sid, name, start, end, parent, op, kernel_s in trace["spans"]:
            handle.write(json.dumps({
                "id": sid, "name": name, "start": start, "end": end,
                "parent": parent, "op": op, "kernel_s": kernel_s}) + "\n")
        for name, (calls, total, own) in sorted(trace["kernels"].items()):
            handle.write(json.dumps({"kernel": name, "calls": calls,
                                     "s": total, "self_s": own}) + "\n")


# ---------------------------------------------------------------------------
# entry point


UNITS = {
    "setup_s": "s", "wall_p50_s": "s", "wall_tail_s": "s",
    "members_per_s": "1/s", "samples_per_s": "1/s", "peak_rss_mb": "MB",
}


def per_layer_unit(name):
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith(("_ratio", "_per_sqrt", "_speedup")):
        return "ratio"
    return "count"


def machine_info():
    try:
        sympy_version = metadata.version("sympy")
    except metadata.PackageNotFoundError:
        sympy_version = "absent"
    return {"python": platform.python_version(), "sympy": sympy_version,
            "nproc": os.cpu_count(),
            "loadavg_start": list(os.getloadavg())}


def end_to_end(workload, tally, seconds):
    probes = []
    walls, _, _ = closed_loop(workload, tally, seconds=seconds,
                              probes=probes)
    done = [w for w in walls if w is not None]
    n = workload.inputs
    best = [min(w for w in walls[j::n] if w is not None)
            for j in range(n) if any(w is not None for w in walls[j::n])]
    if not best:
        sys.exit("error: no operation completed")
    value, pct = tail(done)
    print(f"operations: {len(walls)} ({len(walls) // n} rounds of {n}"
          f" inputs); wall_tail_s is p{pct:.1f} of {len(done)} samples")
    members_per_s = len(best) / sum(best)
    return {
        "setup_s": setup_best(probes)[0],
        "wall_p50_s": statistics.median(best),
        "wall_tail_s": value,
        "members_per_s": members_per_s,
        # every operation verifies the same number of points
        "samples_per_s": tally.verified / len(done) * members_per_s,
        "peak_rss_mb": peak_rss_mb(workload),
    }


def per_layer(workload, tally, seconds, spans_path):
    probes = []
    untraced, outputs, _ = closed_loop(workload, tally, seconds=seconds,
                                       probes=probes)
    _, import_s, lazy_s = setup_best(probes)
    traced, _, trace = closed_loop(workload, tally, trace=True,
                                   count=TRACED_OPS[workload.name],
                                   expected=outputs)
    if isinstance(workload, ClassifyWarm):
        trace = workload.trace_data()
    ops = max(len(traced), 1)
    metrics = layer_metrics(trace, ops)
    metrics["cli.import_s"] = import_s
    metrics["cli.lazy_init_s"] = lazy_s
    # traced operation i runs the same input as untraced operation i
    pairs = [(t, u) for t, u in zip(traced, untraced)
             if t is not None and u is not None]
    metrics["trace.overhead_s"] = (
        statistics.median(t for t, _ in pairs)
        - statistics.median(u for _, u in pairs) if pairs else 0.0)
    metrics["cli.parallel2_speedup"] = (
        workload.parallel_speedup(tally) if isinstance(workload, VerifyCold)
        else 0.0)
    write_spans(trace, spans_path)
    print(f"traced operations: {len(traced)}; spans: {len(trace['spans'])}"
          f" -> {spans_path.relative_to(ROOT)}")
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "wcilinks" / "cli.py").is_file():
        sys.exit(f"error: no package source at {SRC / 'wcilinks'};"
                 " run from the root of a wcilinks checkout")
    BUILD.mkdir(exist_ok=True)
    print(f"machine: {json.dumps(machine_info(), sort_keys=True)}")

    workload = WORKLOADS[args.workload](args.seed)
    workload.prepare()
    tally = Tally()
    try:
        if args.trace:
            spans_path = BUILD / f"spans-{workload.name}-{args.seed}.jsonl"
            metrics = per_layer(workload, tally, args.seconds, spans_path)
            units = {name: per_layer_unit(name) for name in metrics}
        else:
            metrics = end_to_end(workload, tally, args.seconds)
            units = UNITS
    finally:
        workload.close()

    fail_ratio = tally.failed / tally.attempted
    print(f"fail_ratio: {fail_ratio} ({tally.failed}/{tally.attempted})")
    for label in tally.failures:
        print(f"  failed: {label}")
    for name in sorted(metrics):
        print(f"{name}: {metrics[name]} {units[name]}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in sorted(metrics)},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
