"""Command-line front end for the link-certification pipeline.

Subcommands: analyze (ambient invariants and coordinate-point census),
qsmooth (quasismoothness verdicts with sampled evidence), blowup (weighted
blowup discrepancy record with the chart cross-check), two-ray (two-ray
game trace and cone certificates), link (construction of the elementary
link from the 1/11 point), classify (the full link classification), and
verify-paper (the whole verification battery on a seeded member).

Input is a JSON document; reports are emitted as byte-deterministic JSON
(stable key order, exact rationals rendered as "p/q") or as plain text.
Exit codes: 0 success, 1 invalid input, 2 the member fails a genericity
certificate, 3 internal inconsistency.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
from fractions import Fraction
from itertools import islice

from .ambient import WCISpec, WPS, blowup_game
from .links import (
    CertificateError,
    InconsistencyError,
    X_DEGREES,
    X_NAMES,
    X_WEIGHTS,
    X_WPS,
    _Sampler,
    classify_links,
    link_stages,
    random_member,
)
from .qpoly import DEFAULT_PRIME, GF, QQ
from .singular import blowup_at_point, classify_quotient_singularity

__all__ = ["build_parser", "emit", "load_input", "main"]

SCHEMA = 1

# The census types each coordinate point by loops over every residue
# below its weight, so a document's weights bound its work: a weight
# above _MAX_WEIGHT is refused.
_MAX_WEIGHT = 1000


class CliError(ValueError):
    """Invalid input document or flag combination."""


# ---------------------------------------------------------------------------
# input documents


def _is_int(value):
    """A JSON integer: Python's bool is an int, but true is no count."""
    return isinstance(value, int) and not isinstance(value, bool)


class InputSpec:
    """A validated input document: ambient, member, field, seed."""

    def __init__(self, wps, equations, degrees, field, seed, member):
        self.wps = wps
        self.equations = equations
        self.degrees = degrees
        self.field = field
        self.seed = seed
        self.member = member


def load_input(document):
    """Validate a parsed input JSON document into an InputSpec."""
    if not isinstance(document, dict):
        raise CliError("input document must be a JSON object")
    amb_doc = document.get("ambient")
    if not isinstance(amb_doc, dict):
        raise CliError('input document needs an "ambient" object')
    weights = amb_doc.get("weights")
    names = amb_doc.get("vars")
    if (not isinstance(weights, list) or not weights
            or not all(_is_int(w) and w > 0 for w in weights)):
        raise CliError("ambient.weights must be positive integers")
    if max(weights) > _MAX_WEIGHT:
        raise CliError(f"ambient weight {max(weights)} is above the limit"
                       f" {_MAX_WEIGHT}")
    if (not isinstance(names, list) or len(names) != len(weights)
            or not all(isinstance(n, str) and n for n in names)
            or len(set(names)) != len(names)):
        raise CliError("ambient.vars must be distinct names, one per weight")
    wps = WPS(tuple(weights), tuple(names))

    field_doc = document.get("field", {"Fp": DEFAULT_PRIME})
    if field_doc == "Q":
        field = QQ
    elif isinstance(field_doc, dict) and set(field_doc) == {"Fp"}:
        try:
            field = GF(field_doc["Fp"])
        except ValueError as exc:
            raise CliError(f"field: {exc}") from exc
    else:
        raise CliError('field must be "Q" or {"Fp": prime}')

    seed = document.get("seed", 0)
    if not _is_int(seed):
        raise CliError("seed must be an integer")

    degrees = document.get("degrees")
    if degrees is not None:
        if (not isinstance(degrees, list)
                or not all(_is_int(d) and d > 0 for d in degrees)):
            raise CliError("degrees must be positive integers")
        degrees = tuple(degrees)
    if field != QQ and field.p <= max(weights + list(degrees or ())):
        raise CliError(f"the field prime {field.p} must exceed every weight"
                       " and every degree")

    member = document.get("member", "explicit")
    if member not in ("explicit", "random"):
        raise CliError('member must be "explicit" or "random"')
    if member == "random":
        if (wps.weights, wps.names) != (X_WEIGHTS, X_NAMES):
            raise CliError("random members exist only for the standard"
                           " ambient P(1,2,3,4,7,11) with vars"
                           " (x,y,z,t,v,w)")
        if degrees not in (None, X_DEGREES):
            raise CliError("random members have degrees (12, 14)")
        return InputSpec(X_WPS, random_member(seed), X_DEGREES, field,
                         seed, member)

    equations = document.get("equations")
    if equations is not None:
        if (not isinstance(equations, list)
                or not all(isinstance(e, str) for e in equations)):
            raise CliError("equations must be strings")
        amb = wps.ambient()
        try:
            equations = tuple(amb.parse(e) for e in equations)
        except ValueError as exc:
            raise CliError(f"cannot parse equation: {exc}") from exc
        wv = wps.weight_vector()
        got = [f.quasi_homogeneous_degree(wv) for f in equations]
        if None in got:
            raise CliError("equation is not quasi-homogeneous for the"
                           " ambient")
        if degrees is not None:
            if len(degrees) != len(equations):
                raise CliError("degrees must match the equation count")
            for g, d in zip(got, degrees):
                if g != d:
                    raise CliError(
                        f"equation of stated degree {d} has degree {g}")
        equations = tuple(equations)
    return InputSpec(wps, equations, degrees, field, seed, member)


def _read_document(path):
    try:
        if path == "-":
            return json.load(sys.stdin)
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except json.JSONDecodeError as exc:
        raise CliError(f"invalid JSON input: {exc}") from exc
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}") from exc


def _spec_from_args(args, need_equations=False):
    """The input spec selected by the positional path or --random.

    --field, which only the sampling commands take, replaces the field
    of the spec when given; otherwise a document keeps its own field and
    a --random member gets F_(2^31-1).
    """
    if args.random is not None:
        if args.input is not None:
            raise CliError("give an input file or --random, not both")
        spec = InputSpec(X_WPS, random_member(args.random), X_DEGREES,
                         GF(DEFAULT_PRIME), args.random, "random")
    elif args.input is None:
        raise CliError("an input file (or --random SEED) is required")
    else:
        spec = load_input(_read_document(args.input))
    if getattr(args, "field", None) is not None:
        spec.field = QQ if args.field == "q" else GF(DEFAULT_PRIME)
    if need_equations and spec.equations is None:
        raise CliError("this command needs equations in the input")
    return spec


def _standard_member(spec):
    """The (F1, F2) pair of a standard-family input, validated."""
    if (spec.wps.weights, spec.wps.names) != (X_WEIGHTS, X_NAMES):
        raise CliError("this command works on the standard ambient"
                       " P(1,2,3,4,7,11) with vars (x,y,z,t,v,w)")
    if spec.equations is None or len(spec.equations) != 2:
        raise CliError("this command needs the two defining equations")
    return spec.equations


# ---------------------------------------------------------------------------
# serialization


def _rat(x):
    return str(Fraction(x))


def _point_step(report):
    out = {
        "point": report.point,
        "on_variety": report.on_variety,
        "quasismooth": report.quasismooth,
    }
    if report.quotient is not None:
        out["type"] = report.quotient.type_label()
        out["terminal"] = report.quotient.is_terminal()
    if report.notes:
        out["notes"] = list(report.notes)
    return out


def _cone(c):
    return [list(c.ray1), list(c.ray2)]


def _trace_step(trace):
    return {
        "models": trace.nmodels,
        "chambers": [_cone(c) for c in trace.chambers],
        "walls": [
            {"ray": list(w.ray), "vars": list(w.wall_vars),
             "contracts": list(w.plus_vars)}
            for w in trace.walls
        ],
        "end": {"kind": trace.end.kind,
                "contracted": trace.end.contracted},
        "entry": {"kind": trace.entry.kind,
                  "contracted": trace.entry.contracted},
    }


def _cones_step(cones):
    return {
        "bidegrees": [[d.a, d.b] for d in cones.bidegrees],
        "anticanonical": [cones.anticanonical.a, cones.anticanonical.b],
        "nef_cones": [_cone(c) for c in cones.nef_cones],
        "movable_cone": _cone(cones.mov),
        "walls": [
            {"ray": list(r.ray), "isomorphism": r.isomorphism}
            for r in cones.wall_reports
        ],
        "anticanonical_position": (
            "interior" if cones.anticanonical_in_mov_interior
            else "boundary" if cones.anticanonical_on_mov_boundary
            else "outside"),
    }


def _record_step(record, charts, agree):
    return {
        "weights": {"nums": list(record.weights.nums),
                    "den": record.weights.den},
        "orders": [_rat(o) for o in record.orders],
        "discrepancy": _rat(record.discrepancy),
        "exceptional_equations": [str(e)
                                  for e in record.exceptional_equations],
        "charts": [{"chart": c.chart, "orders": [_rat(o) for o in c.orders]}
                   for c in charts],
        "chart_agreement": agree,
    }


def build_report(command, steps, status="ok", assumptions=None):
    report = {"schema": SCHEMA, "command": command, "status": status,
              "steps": steps}
    if assumptions is not None:
        report["assumptions"] = assumptions
    return report


def emit(report, fmt="json"):
    """Serialize a report: stable-key JSON or indented plain text."""
    if fmt == "json":
        return json.dumps(report, sort_keys=True, indent=2) + "\n"
    lines = [f"{report.get('command', 'report')}: "
             f"{report.get('status', '')}".rstrip()]
    for step in report.get("steps", ()):
        name = step.get("name", "step") if isinstance(step, dict) else "step"
        lines.append(f"== {name} ==")
        lines.extend(_text_lines(step, 1, skip={"name"}))
    for key in report:
        if key in ("schema", "command", "status", "steps"):
            continue
        lines.append(f"== {key} ==")
        lines.extend(_text_lines(report[key], 1))
    return "\n".join(lines) + "\n"


def _text_lines(value, depth, skip=()):
    pad = "  " * depth
    lines = []
    if isinstance(value, dict):
        for k, v in value.items():
            if k in skip:
                continue
            if isinstance(v, (dict, list)):
                lines.append(f"{pad}{k}:")
                lines.extend(_text_lines(v, depth + 1))
            else:
                lines.append(f"{pad}{k}: {v}")
    elif isinstance(value, list):
        for v in value:
            if isinstance(v, (dict, list)):
                lines.append(f"{pad}-")
                lines.extend(_text_lines(v, depth + 1))
            else:
                lines.append(f"{pad}- {v}")
    else:
        lines.append(f"{pad}{value}")
    return lines


# ---------------------------------------------------------------------------
# parallel sampling helpers

_CHUNK = 25


def _batches(total, seed):
    offset = 0
    while offset < total:
        count = min(_CHUNK, total - offset)
        yield count, seed * 100003 + offset
        offset += count


def _run_batches(worker, payloads, jobs):
    if jobs > 1:
        # imported here: only qsmooth --parallel pays for it
        import concurrent.futures

        with concurrent.futures.ProcessPoolExecutor(max_workers=jobs) as ex:
            return list(ex.map(worker, payloads))
    return [worker(p) for p in payloads]


def _qsmooth_batches(payload):
    """(quasismooth points, points) over the batches of one job.

    The batches of a job share one sampler, so its Jacobian is derived
    once; each batch draws from its own seed, so the points do not
    depend on how the batches are shared out among the jobs.
    """
    equations, wps, field, batches = payload
    sampler = _Sampler(equations, wps, field)
    good = total = 0
    for count, seed in batches:
        rng = random.Random(seed)
        good += sum(1 for _ in range(count)
                    if sampler.quasismooth(sampler.draw(rng)))
        total += count
    return good, total


# ---------------------------------------------------------------------------
# subcommands


def cmd_analyze(args):
    spec = _spec_from_args(args)
    steps = []
    amb_step = {
        "name": "ambient",
        "weights": list(spec.wps.weights),
        "vars": list(spec.wps.names),
        "well_formed": spec.wps.is_well_formed(),
        "ambient_dimension": spec.wps.dim,
    }
    if spec.degrees:
        wci = WCISpec(spec.wps, spec.degrees)
        amb_step.update({
            "variety": str(wci),
            "degrees": list(spec.degrees),
            "dimension": wci.dimension,
            "codimension": wci.codimension,
            "fano_index": wci.fano_index,
            "amplitude": _rat(wci.amplitude),
        })
    steps.append(amb_step)
    if spec.equations:
        points = [_point_step(classify_quotient_singularity(
                      spec.equations, spec.wps, n))
                  for n in spec.wps.names]
        steps.append({"name": "census", "points": points})
    return build_report("analyze", steps), 0


def cmd_qsmooth(args):
    spec = _spec_from_args(args, need_equations=True)
    if not spec.equations:
        raise CliError("qsmooth needs at least one equation")
    points = [_point_step(classify_quotient_singularity(
                  spec.equations, spec.wps, n))
              for n in spec.wps.names]
    bad = [p["point"] for p in points
           if p["on_variety"] and not p["quasismooth"]]
    steps = [{"name": "coordinate-points", "points": points,
              "non_quasismooth": bad}]

    batches = list(_batches(args.samples, args.seed))
    # the pool starts every worker at once: no more than the CPUs
    jobs = min(args.parallel, len(batches), os.cpu_count() or 1)
    payloads = [(spec.equations, spec.wps, spec.field, batches[k::jobs])
                for k in range(jobs)]
    results = _run_batches(_qsmooth_batches, payloads, jobs)
    good = sum(g for g, _ in results)
    total = sum(c for _, c in results)
    steps.append({
        "name": "sampled",
        "field": "Q" if spec.field == QQ else f"F_{spec.field.p}",
        "samples": total,
        "quasismooth_samples": good,
        "all_quasismooth": good == total,
    })
    return build_report("qsmooth", steps), 0


def _parse_weight_flags(args, spec):
    if not args.center:
        raise CliError("--center is required")
    if args.center not in spec.wps.names:
        raise CliError(f"unknown center {args.center!r}")
    if not args.weights:
        raise CliError("--weights is required (name=int pairs)")
    weights = {}
    for item in args.weights.split(","):
        if "=" not in item:
            raise CliError("--weights expects name=int pairs separated"
                           " by commas")
        key, _, val = item.partition("=")
        key = key.strip()
        if key not in spec.wps.names or key == args.center:
            raise CliError(f"bad blowup weight name {key!r}")
        if key in weights:
            raise CliError(f"blowup weight {key!r} given twice")
        try:
            weights[key] = int(val)
        except ValueError as exc:
            raise CliError(f"bad blowup weight value {val!r}") from exc
    missing = [n for n in spec.wps.names
               if n != args.center and n not in weights]
    if missing:
        raise CliError(f"missing blowup weights for {missing}")
    return weights


def cmd_blowup(args):
    spec = _spec_from_args(args, need_equations=True)
    weights = _parse_weight_flags(args, spec)
    record, charts, agree = blowup_at_point(spec.wps, spec.equations,
                                            args.center, weights)
    step = {"name": "blowup", "center": args.center,
            "quotient_order": record.germ.r}
    step.update(_record_step(record, charts, agree))
    return build_report("blowup", [step]), 0


def cmd_two_ray(args):
    spec = _spec_from_args(args)
    weights = _parse_weight_flags(args, spec)
    trace, _, cones = blowup_game(spec.wps, spec.equations, args.center,
                                  weights)
    toric = trace.toric
    steps = [{
        "name": "toric",
        "vars": list(toric.names),
        "columns": [list(toric.column(n)) for n in toric.names],
    }]
    game = {"name": "game"}
    game.update(_trace_step(trace))
    steps.append(game)
    if cones is not None:
        cone_step = {"name": "cones"}
        cone_step.update(_cones_step(cones))
        steps.append(cone_step)
    return build_report("two-ray", steps), 0


def cmd_link(args):
    spec = _spec_from_args(args)
    F1, F2 = _standard_member(spec)
    stages = link_stages(F1, F2, samples=args.samples, seed=args.seed,
                         field=spec.field)
    (_, nf), (_, census), (_, link) = islice(stages, 3)
    steps = [
        {"name": "normal-form",
         "F1": str(nf.F1), "F2": str(nf.F2),
         "lambda": _rat(nf.lam), "mu": _rat(nf.mu),
         "resultant": _rat(nf.resultant),
         "steps": [label for label, _ in nf.steps]},
        {"name": "census",
         "fano_index": census.fano_index,
         "singular_points": {p: q.type_label()
                             for p, q in census.singular.items()},
         "samples": census.samples},
    ]
    ext = {"name": "extraction"}
    ext.update(_record_step(link.extraction, (), True))
    ext.pop("charts")
    steps.append(ext)
    game = {"name": "game"}
    game.update(_trace_step(link.trace))
    steps.append(game)
    cones = {"name": "cones"}
    cones.update(_cones_step(link.cones))
    steps.append(cones)
    steps.append({
        "name": "model",
        "target": str(link.report.verdict.target),
        "equation": str(link.hat.F),
        "lambda": _rat(link.hat.lam),
        "sigma": [str(e) for e in link.sigma],
        "sigma_inverse": [str(e) for e in link.sigma_inverse],
        "verdict": link.report.verdict.kind,
    })
    return build_report("link", steps), 0


def cmd_classify(args):
    spec = _spec_from_args(args)
    F1, F2 = _standard_member(spec)
    cls = classify_links(F1, F2, samples=args.samples, seed=args.seed,
                         field=spec.field)
    steps = [{"name": "normal-form",
              "lambda": _rat(cls.normal_form.lam),
              "mu": _rat(cls.normal_form.mu)}]
    for rep in cls.reports:
        entry = {
            "name": rep.name,
            "center": rep.center,
            "verdict": rep.verdict.kind,
            "detail": rep.verdict.detail,
        }
        if rep.verdict.target is not None:
            entry["target"] = str(rep.verdict.target)
        if rep.verdict.reference:
            entry["reference"] = rep.verdict.reference
        steps.append(entry)
    steps.append({
        "name": "germ-table",
        "rows": [{"divisor": r.name,
                  "multiplicity": None if r.multiplicity is None
                  else _rat(r.multiplicity),
                  "discrepancy": _rat(r.discrepancy)}
                 for r in cls.hat_census.germ.rows],
        "low_discrepancy_count": cls.germ_count,
        "divisor_links": dict(cls.divisor_links),
    })
    steps.append({
        "name": "summary",
        "solid": cls.solid,
        "elementary_links_from_model": cls.elementary_from_qhat,
        "involution_samples": cls.involution_check.samples,
        "involution_passed": cls.involution_check.passed,
        "text": cls.summary,
    })
    return build_report("classify", steps,
                        assumptions=list(cls.citations)), 0


# the steps verify-paper reports for each stage of link_stages, as
# (name, detail) pairs, the detail a string or a function of the stage's
# artifact.  Each stage raises on a failed gate, so every step of a stage
# that completes has passed.
_PAPER_STEPS = {
    "normal-form": [
        ("normal-form", lambda nf: f"lambda={nf.lam} mu={nf.mu}"
         f" resultant={nf.resultant}")],
    "census": [
        ("census", "Fano index 2; one singular point of type 1/11(1,2,9)")],
    "sigma": [
        ("extraction-discrepancy",
         "weights (6,1,7,2,9)/11 give discrepancy 1/11, chart cross-checked"),
        ("link-sigma",
         "two-ray game ends on a degree-7 hypersurface in P(1,1,1,2,3)"),
        ("model-equation", "v^2*u present; y*z^2*v*u coefficient equals the"
         " transported lambda")],
    "hat-census": [
        ("census-model",
         "points 1/2(1,1,1) and 1/3(1,1,2) plus the compound E6 point"),
        ("germ-table", lambda census: f"{census.germ.low_discrepancy_count}"
         " divisors of discrepancy one over the compound E6 point")],
    "exclusions": [
        ("exclusion-blowups", "both discrepancy-one blowups leave the"
         " anticanonical class on the movable-cone boundary")],
    "curves": [
        ("curve-exclusion",
         "no curve of degree one passes through the compound E6 point")],
    "involutions": [
        ("deck-involution",
         "the deck involution fixes the model equation exactly")],
    "involution-check": [
        ("involution-sampled", lambda check: f"{check.passed}/{check.samples}"
         " sampled points verified")],
    "classification": [
        ("classification", lambda cls: f"{1 + cls.elementary_from_qhat}"
         " elementary links, four cited exclusions, member is birationally"
         " solid")],
}


def cmd_verify_paper(args):
    if args.input is None:
        # a seeded member: --random or --seed picks it, and the same seed
        # drives the sampled checks
        if args.random is None:
            args.random = args.seed or 0
        elif args.seed is not None:
            raise CliError("give --random or --seed, not both")
        args.seed = args.random
    elif args.seed is None:
        args.seed = 0
    spec = _spec_from_args(args)
    F1, F2 = _standard_member(spec)
    steps = []
    fmt = args.format

    status = "ok"
    code = 0
    try:
        for stage, art in link_stages(F1, F2, samples=args.samples,
                                      seed=args.seed, field=spec.field):
            for name, detail in _PAPER_STEPS.get(stage, ()):
                if not isinstance(detail, str):
                    detail = detail(art)
                steps.append({"name": name, "passed": True,
                              "detail": detail})
    except CertificateError as exc:
        steps.append({"name": "rejected", "passed": False,
                      "detail": str(exc)})
        status, code = "rejected", 2
    except InconsistencyError as exc:
        steps.append({"name": "inconsistency", "passed": False,
                      "detail": str(exc)})
        status, code = "failed", 3

    report = build_report("verify-paper", steps, status=status)
    report["result"] = ("all checks passed" if code == 0
                        else "checks failed")
    if fmt == "text":
        lines = [f"verify-paper (seed {args.seed})"]
        for step in steps:
            mark = "PASS" if step.get("passed") else "FAIL"
            detail = step.get("detail", "")
            lines.append(f"  [{mark}] {step['name']}"
                         + (f": {detail}" if detail else ""))
        lines.append(report["result"])
        return {"_text": "\n".join(lines) + "\n", "report": report}, code
    return report, code


# ---------------------------------------------------------------------------
# parser and entry point


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _add_common(sub):
    sub.add_argument("input", nargs="?", default=None,
                     help="input JSON document ('-' for stdin)")
    sub.add_argument("--random", type=int, metavar="SEED", default=None,
                     help="use a dense random member of the standard"
                          " degree-(12,14) family instead of a file")
    sub.add_argument("--format", choices=("json", "text"),
                     default="json", help="output format")


def _positive_int(text):
    """argparse type of a count: a positive integer, else exit 1."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"{text!r} is not a positive integer")
    return value


def _add_sampling(sub, samples_default=100):
    sub.add_argument("--field", choices=("fp", "q"), default=None,
                     help="field for sampled checks: fp is F_(2^31-1);"
                          " q is exact but point sampling over Q"
                          " rarely succeeds")
    sub.add_argument("--seed", type=int, default=0,
                     help="seed for sampled checks (default 0)")
    sub.add_argument("--samples", type=_positive_int,
                     default=samples_default,
                     help=f"sampled points for spot checks"
                          f" (default {samples_default})")


def build_parser():
    parser = _Parser(
        prog="wcilinks",
        description="Exact certification of elementary links for the"
                    " degree-(12,14) complete intersections in"
                    " P(1,2,3,4,7,11).")
    subs = parser.add_subparsers(dest="command", required=True,
                                 parser_class=_Parser)

    sub = subs.add_parser("analyze",
                          help="ambient invariants and coordinate-point"
                               " census")
    _add_common(sub)
    sub.set_defaults(func=cmd_analyze)

    sub = subs.add_parser("qsmooth",
                          help="quasismoothness verdicts with sampled"
                               " evidence")
    _add_common(sub)
    _add_sampling(sub)
    sub.add_argument("--parallel", type=_positive_int, default=1,
                     metavar="N",
                     help="fan sampled batches over N worker processes,"
                          " at most one per CPU (default 1)")
    sub.set_defaults(func=cmd_qsmooth)

    sub = subs.add_parser("blowup",
                          help="weighted-blowup discrepancy with the"
                               " chart cross-check")
    _add_common(sub)
    sub.add_argument("--center", help="coordinate point to blow up")
    sub.add_argument("--weights",
                     help="blowup weights as name=int pairs, e.g."
                          " y=4,z=1,t=2,w=1")
    sub.set_defaults(func=cmd_blowup)

    sub = subs.add_parser("two-ray",
                          help="two-ray game trace and cone certificates")
    _add_common(sub)
    sub.add_argument("--center", help="coordinate point to blow up")
    sub.add_argument("--weights",
                     help="blowup weights as name=int pairs")
    sub.set_defaults(func=cmd_two_ray)

    sub = subs.add_parser("link",
                          help="construct the elementary link from the"
                               " 1/11 point")
    _add_common(sub)
    _add_sampling(sub)
    sub.set_defaults(func=cmd_link)

    sub = subs.add_parser("classify",
                          help="the full elementary-link classification")
    _add_common(sub)
    _add_sampling(sub, samples_default=40)
    sub.set_defaults(func=cmd_classify)

    sub = subs.add_parser("verify-paper",
                          help="run the whole verification battery on a"
                               " seeded member")
    _add_common(sub)
    _add_sampling(sub)
    # no default seed, so that cmd_verify_paper can refuse --seed with
    # --random; it reads an absent --seed as 0
    sub.set_defaults(func=cmd_verify_paper, seed=None)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        result, code = args.func(args)
    except CliError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except CertificateError as exc:
        sys.stderr.write(f"member rejected: {exc}\n")
        return 2
    except InconsistencyError as exc:
        sys.stderr.write(f"internal inconsistency: {exc}\n")
        return 3
    except ValueError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except Exception as exc:  # noqa: BLE001 - report and map to exit 3
        sys.stderr.write(f"unexpected failure: {exc}\n")
        return 3
    if isinstance(result, dict) and "_text" in result:
        sys.stdout.write(result["_text"])
    else:
        sys.stdout.write(emit(result, args.format))
    return code


if __name__ == "__main__":
    sys.exit(main())
