"""In-memory call tracer for the wcilinks modules.

The tracer wraps public functions of `wcilinks.cli`, `links`, `singular`,
`ambient` and `qpoly` from outside the package: every module-level name
bound to a traced function is rebound to a wrapper, and traced methods
are replaced on their class.  Nothing in the package is modified.

Two kinds of call are traced:

* spans - pipeline stages and checks, called at most a few thousand times
  per operation.  Each call is kept as a record [id, name, start, end,
  parent id, op id, kernel_s] and written out when the benchmark ends;
  kernel_s is the time of its direct kernel children.
* kernels - polynomial and field arithmetic, called up to millions of
  times per operation.  A record per call would cost more memory than
  the run itself, so kernels are aggregated into calls, total time and
  self time, and their time is charged to the enclosing span.

Self time is a call's duration minus the time its traced children cover.
"""

from __future__ import annotations

import importlib
import time
from collections import Counter

MODULES = ("cli", "links", "singular", "ambient", "qpoly")

# (module, attribute) -> span name
SPANS = {
    ("cli", "main"): "cli.main",
    ("cli", "emit"): "cli.emit",
    ("links", "normal_form_X1214"): "links.normal_form_X1214",
    ("links", "singularity_census_X"): "links.singularity_census_X",
    ("links", "construct_link_sigma"): "links.construct_link_sigma",
    ("links", "singularity_census_hatX"): "links.singularity_census_hatX",
    ("links", "condition_check"): "links.condition_check",
    ("links", "run_exclusion_blowups"): "links.run_exclusion_blowups",
    ("links", "exclude_degree_one_curves"): "links.exclude_degree_one_curves",
    ("links", "build_involutions"): "links.build_involutions",
    ("links", "verify_involution"): "links.verify_involution",
    ("links", "classify_links"): "links.classify_links",
    ("singular", "quasismooth_at_sample"): "singular.quasismooth_at_sample",
    ("singular", "classify_quotient_singularity"):
        "singular.classify_quotient_singularity",
    ("singular", "discrepancy_chart_oracle"):
        "singular.discrepancy_chart_oracle",
    ("singular", "analyze_cE6_germ"): "singular.analyze_cE6_germ",
    ("singular", "quadratic_involution_test"):
        "singular.quadratic_involution_test",
    ("ambient", "transport_equation"): "ambient.transport_equation",
    ("ambient", "run_two_ray_game"): "ambient.run_two_ray_game",
    ("ambient", "cone_calculus"): "ambient.cone_calculus",
    ("ambient", "certify_stratum_empty"): "ambient.certify_stratum_empty",
    ("qpoly", "resultant"): "qpoly.resultant",
}

# (module, attribute) -> kernel name; a dotted attribute is a method
KERNELS = {
    ("qpoly", "QPolynomial.__mul__"): "qpoly.mul",
    ("qpoly", "QPolynomial.__add__"): "qpoly.add",
    ("qpoly", "Substitution.__call__"): "qpoly.substitute",
    ("qpoly", "evaluate"): "qpoly.evaluate",
    ("qpoly", "PrimeField.sqrt"): "qpoly.sqrt",
    ("links", "_Sampler.draw"): "links.draw",
}

# `verify-paper` runs the pipeline stage by stage and then calls
# classify_links again through this binding; a span around the binding
# alone times that second pipeline.
INNER_CLASSIFY = ("cli", "classify_links", "cli.inner_classify")


def _term_count(x):
    terms = getattr(x, "terms", None)
    if terms is not None:
        return len(terms)
    return 0 if x == 0 else 1


def _mul_hook(counts, stack, args, out):
    # the product loop runs |a| * |b| times
    counts["qpoly.mul.term_products"] += (_term_count(args[0])
                                          * _term_count(args[1]))


def _sqrt_hook(counts, stack, args, out):
    if out is None:
        counts["qpoly.sqrt.nonsquare"] += 1
    if stack and stack[-1][0] == "links.draw":
        counts["links.draw.sqrt_attempts"] += 1


def _draw_hook(counts, stack, args, out):
    counts["links.draw.points"] += 1


HOOKS = {"qpoly.mul": _mul_hook, "qpoly.sqrt": _sqrt_hook,
         "links.draw": _draw_hook}


class Tracer:
    """Wraps the traced calls, records spans and aggregates kernels."""

    def __init__(self):
        self.op = 0
        self.spans = []
        self.kernels = {}          # name -> [calls, total_s, self_s]
        self.counts = Counter()
        self._stack = []           # open calls: [name, span record, child_s]
        self._undo = []

    def _span(self, name, fn):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            parent = next((f[1][0] for f in reversed(stack)
                           if f[1] is not None), None)
            rec = [len(spans), name, 0.0, 0.0, parent, self.op, 0.0]
            spans.append(rec)
            frame = [name, rec, 0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                rec[2], rec[3] = start, end
                if stack:
                    stack[-1][2] += end - start

        return traced

    def _kernel(self, name, fn):
        stats = self.kernels.setdefault(name, [0, 0.0, 0.0])
        stack, counts = self._stack, self.counts
        hook = HOOKS.get(name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            frame = [name, None, 0.0]
            stack.append(frame)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                dur = clock() - start
                stack.pop()
                stats[0] += 1
                stats[1] += dur
                stats[2] += dur - frame[2]
                if stack:
                    parent = stack[-1]
                    parent[2] += dur
                    if parent[1] is not None:
                        parent[1][6] += dur
            if hook is not None:
                hook(counts, stack, args, out)
            return out

        return traced

    def install(self):
        """Rebind every traced name in the five modules to its wrapper."""
        mods = {m: importlib.import_module(f"wcilinks.{m}") for m in MODULES}
        for (mod, attr), name in KERNELS.items():
            self._wrap(mods, mod, attr, lambda fn, n=name: self._kernel(n, fn))
        for (mod, attr), name in SPANS.items():
            self._wrap(mods, mod, attr, lambda fn, n=name: self._span(n, fn))
        mod, attr, name = INNER_CLASSIFY
        self._rebind(mods[mod], attr,
                     self._span(name, getattr(mods[mod], attr)))

    def _wrap(self, mods, mod, attr, make):
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(mods[mod], cls_name)
            self._rebind(cls, meth, make(cls.__dict__[meth]))
            return
        original = getattr(mods[mod], attr)
        wrapper = make(original)
        for module in mods.values():
            for key, value in list(vars(module).items()):
                if value is original:
                    self._rebind(module, key, wrapper)

    def _rebind(self, owner, key, value):
        self._undo.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def uninstall(self):
        """Restore every binding that install() replaced."""
        while self._undo:
            owner, key, value = self._undo.pop()
            setattr(owner, key, value)

    def dump(self):
        """A JSON-serialisable snapshot: spans, kernels and counters."""
        return {"spans": self.spans, "kernels": self.kernels,
                "counts": dict(self.counts)}
