"""Singularity analysis: quotient types, weighted blowups, discrepancies.

Coordinate points of quasismooth weighted complete intersections are
cyclic quotient singularities; classify_quotient_singularity finds the
type by an exact Jacobian rank computation and coordinate elimination.
weighted_blowup_discrepancy computes the discrepancy of a weighted blowup
of a (quotient of a) complete intersection germ from the weighted orders
of its equations, and discrepancy_chart_oracle re-derives the same orders
by explicit chart substitutions, with cross-chart agreement checks;
blowup_at_point runs both on the chart germ of a coordinate point.

Two germ analyzers build complete low-discrepancy tables: one for
compound A-type double point quotients x*y + g(z, t) over Z/2, one for
compound E6-type hypersurface germs.  Each raises on a failed gate and
returns discrepancy rows verified against the blowup engine, with an
irreducibility verdict for the first exceptional model.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd

from ._records import record
from .qpoly import (
    Ambient,
    IrreducibilityVerdict,
    QPolynomial,
    Substitution,
    WeightVector,
    _eliminate,
    divexact,
    divides,
    irreducibility_verdict,
    jacobian,
    matrix_rank_at,
    resultant,
    substitute,
    toric_transform,
)

__all__ = [
    "CertificateError",
    "DiscrepancyRecord",
    "Germ",
    "GermAnalysis",
    "GermRow",
    "InconsistencyError",
    "QuadraticInvolutionResult",
    "QuotientSingularity",
    "SingularityReport",
    "analyze_cA2_germ",
    "analyze_cE6_germ",
    "blowup_at_point",
    "classify_quotient_singularity",
    "discrepancy_chart_oracle",
    "quadratic_involution_test",
    "quasismooth_at_sample",
    "quasismooth_on_stratum",
    "weighted_blowup_discrepancy",
]


class InconsistencyError(RuntimeError):
    """Two independent computations of the same quantity disagree."""


class CertificateError(ValueError):
    """The member fails a genericity gate; the pipeline rejects it."""


def _require(flag, message, error=InconsistencyError):
    if not flag:
        raise error(message)


# ---------------------------------------------------------------------------
# cyclic quotient singularities


@record
class QuotientSingularity:
    """A cyclic quotient 1/r(a_1, ..., a_n) with ordered residues."""

    r: int
    residues: tuple

    def __post_init__(self):
        if self.r < 1:
            raise ValueError("order must be positive")
        object.__setattr__(
            self, "residues", tuple(a % self.r for a in self.residues)
        )

    def is_isolated(self):
        return all(gcd(a, self.r) == 1 for a in self.residues)

    def canonical_residues(self):
        """Lexicographically smallest sorted unit multiple of the residues."""
        if self.r == 1:
            return tuple(0 for _ in self.residues)
        best = None
        for k in range(1, self.r):
            if gcd(k, self.r) != 1:
                continue
            cand = tuple(sorted(k * a % self.r for a in self.residues))
            if best is None or cand < best:
                best = cand
        return best

    def is_terminal(self):
        """Age criterion: every nontrivial element has age above one.

        Complete for isolated quotient points, which is the case used here.
        """
        r = self.r
        if r == 1:
            return True
        for k in range(1, r):
            if sum((k * a) % r for a in self.residues) <= r:
                return False
        return True

    def type_label(self):
        if self.r == 1:
            return "smooth"
        body = ",".join(str(a) for a in self.canonical_residues())
        return f"1/{self.r}({body})"

    def __str__(self):
        return self.type_label()


@record
class SingularityReport:
    """What happens to a complete intersection at a coordinate point."""

    point: str
    on_variety: bool
    quasismooth: bool
    rank: int | None
    eliminated: tuple
    quotient: QuotientSingularity | None
    notes: tuple = ()


def _pure_power_coefficient(f, wps, i, degree):
    """Coefficient of the pure power of coordinate i of a given degree."""
    a = wps.weights[i]
    if degree % a != 0:
        return f.ambient.field.zero()
    e = [0] * f.ambient.nvars
    e[f.ambient.index(wps.names[i])] = degree // a
    return f.coefficient(tuple(e))


def classify_quotient_singularity(equations, wps, point):
    """Classify a coordinate point of a weighted complete intersection.

    Checks membership (no pure power of the coordinate in any equation),
    quasismoothness (the partial-derivative matrix at the point has rank
    equal to the codimension), then eliminates one variable per equation
    to read off the residual cyclic quotient action.
    """
    i = wps.index(point)
    r = wps.weights[i]
    amb = equations[0].ambient
    field = amb.field
    c = len(equations)
    degrees = []
    for f in equations:
        d = f.quasi_homogeneous_degree(wps.weight_vector())
        if d is None:
            raise ValueError("equation is not quasi-homogeneous for the ambient")
        degrees.append(int(d))

    # membership: a pure power of the coordinate forces the point off X
    for f, d in zip(equations, degrees):
        if not field.is_zero(_pure_power_coefficient(f, wps, i, d)):
            return SingularityReport(
                point=point,
                on_variety=False,
                quasismooth=True,
                rank=None,
                eliminated=(),
                quotient=None,
                notes=(f"a pure power of {point} appears with nonzero coefficient",),
            )

    # Jacobian at the point: only monomials point^s * x_k contribute
    cols = {}
    for k, name in enumerate(wps.names):
        if k == i:
            continue
        col = []
        for f, d in zip(equations, degrees):
            s_num = d - wps.weights[k]
            if s_num < 0 or s_num % r != 0:
                col.append(field.zero())
                continue
            e = [0] * amb.nvars
            e[amb.index(point)] = s_num // r
            e[amb.index(name)] += 1
            col.append(f.coefficient(tuple(e)))
        cols[name] = col

    def rank_of(names):
        if not names:
            return 0
        rows = [[cols[n][j] for n in names] for j in range(c)]
        return _eliminate(rows, field)[0]

    # greedy full-rank subset in ambient coordinate order
    eliminated = []
    for name in wps.names:
        if name == point or name not in cols:
            continue
        if rank_of(eliminated + [name]) > len(eliminated):
            eliminated.append(name)
        if len(eliminated) == c:
            break
    rank = len(eliminated)
    if rank < c:
        return SingularityReport(
            point=point,
            on_variety=True,
            quasismooth=False,
            rank=rank,
            eliminated=tuple(eliminated),
            quotient=None,
            notes=("partial-derivative matrix is rank deficient at the point",),
        )
    residual = tuple(
        n for n in wps.names if n != point and n not in eliminated
    )
    quotient = QuotientSingularity(
        r, tuple(wps.weight(n) % r for n in residual)
    )
    return SingularityReport(
        point=point,
        on_variety=True,
        quasismooth=True,
        rank=rank,
        eliminated=tuple(eliminated),
        quotient=quotient,
        notes=(f"residual coordinates {residual}",),
    )


def quasismooth_at_sample(equations, point):
    """Exact Jacobian rank equals the codimension at a sample point."""
    return matrix_rank_at(equations, point) == len(equations)


def quasismooth_on_stratum(equations, stratum_vars):
    """Restrict the Jacobian to a coordinate stratum.

    Returns the list of restricted nonzero entries; the variety is
    quasismooth along the open part of the stratum where they do not all
    vanish simultaneously with rank defect.
    """
    amb = equations[0].ambient
    restricted = [[e.restrict(zeros=stratum_vars) for e in row]
                  for row in jacobian(equations)]
    entries = [
        (j, amb.names[k], e)
        for j, row in enumerate(restricted)
        for k, e in enumerate(row)
        if not e.is_zero()
    ]
    return restricted, entries


# ---------------------------------------------------------------------------
# germs and weighted blowup discrepancies


@record
class Germ:
    """A complete intersection germ at the origin of A^n / (Z/r).

    equations may be empty (a pure quotient germ).  residues give the
    group action; r = 1 means no quotient.
    """

    ambient: Ambient
    equations: tuple
    r: int
    residues: tuple

    def __post_init__(self):
        if self.r < 1:
            raise ValueError("quotient order must be positive")
        residues = tuple(a % self.r for a in self.residues)
        if len(residues) != self.ambient.nvars:
            raise ValueError("one residue per coordinate is required")
        object.__setattr__(self, "residues", residues)
        object.__setattr__(self, "equations", tuple(self.equations))
        for f in self.equations:
            if f.ambient != self.ambient:
                raise ValueError("equation ambient mismatch")
            if f.is_zero():
                raise ValueError("zero equation in germ")

    @property
    def dim(self):
        return self.ambient.nvars - len(self.equations)


@record
class DiscrepancyRecord:
    """One weighted blowup of a germ and its discrepancy."""

    germ: Germ
    weights: WeightVector
    lattice_multiplier: int
    orders: tuple
    discrepancy: Fraction
    exceptional_equations: tuple


def _lattice_multiplier(germ, b):
    """k with b = k * residues mod r, certifying b lies in the germ lattice."""
    r = germ.r
    for k in range(r):
        if all((n - k * a) % r == 0 for n, a in zip(b.nums, germ.residues)):
            return k
    raise ValueError(
        f"weights {b.nums} are not congruent to a multiple of the residues"
        f" {germ.residues} mod {r}"
    )


def weighted_blowup_discrepancy(germ, b):
    """Discrepancy of the weighted blowup with weight vector b.

    For a complete intersection germ the adjunction along the blowup gives
    discrepancy sum(b_i) - sum(ord_b(f_j)) - 1 in the orbifold scale.
    """
    if b.den != germ.r:
        raise ValueError("weight denominator must equal the quotient order")
    if len(b.nums) != germ.ambient.nvars:
        raise ValueError("one weight per coordinate is required")
    if any(n < 1 for n in b.nums):
        raise ValueError("blowup weights must be positive")
    k = _lattice_multiplier(germ, b)
    orders = tuple(f.weight_of(b) for f in germ.equations)
    a = Fraction(sum(b.nums), b.den) - sum(orders, Fraction(0)) - 1
    exceptional = tuple(
        f.w_component(b, o) for f, o in zip(germ.equations, orders)
    )
    return DiscrepancyRecord(
        germ=germ,
        weights=b,
        lattice_multiplier=k,
        orders=orders,
        discrepancy=a,
        exceptional_equations=exceptional,
    )


@record
class ChartCheck:
    chart: str
    orders: tuple


@lru_cache(maxsize=8)
def _chart_maps(amb, nums):
    """(name, chart substitution) of each chart of the weighted blowup.

    In the chart of coordinate x_i the blowup with weights nums sends
    x_j -> x_j * x_i^nums[j] and x_i -> x_i^nums[i].  The maps depend on
    the ambient and the weights alone, and the pipeline blows up the
    same few germ ambients with the same weights for every member, so
    they are built once per (ambient, weights).  Every image is one
    term, so a map keeps no expansion from one call to the next.
    """
    maps = []
    for i, name in enumerate(amb.names):
        mapping = {}
        for j, other in enumerate(amb.names):
            if j == i:
                mapping[other] = amb.var(other) ** nums[i]
            else:
                mapping[other] = amb.var(other) * amb.var(name) ** nums[j]
        maps.append((name, Substitution(amb, amb, mapping)))
    return tuple(maps)


def discrepancy_chart_oracle(germ, b):
    """Re-derive blowup orders by explicit chart substitutions.

    In the chart of coordinate i the blowup substitutes x_j -> x_j * x_i^b_j
    and x_i -> x_i^b_i; the exceptional multiplicity of an equation is its
    exact order in x_i after substitution.  The exponent map is injective,
    so no cancellation can occur and the order is reliable.  All charts must
    agree with each other and with the weight filtration.  The chart maps
    come from _chart_maps, built once per ambient and weights; every
    equation is substituted into every chart on each call.
    """
    record = weighted_blowup_discrepancy(germ, b)
    expected = tuple(b.den * o for o in record.orders)
    checks = tuple(
        ChartCheck(chart=name, orders=tuple(
            Fraction(sub(f).order_in(name)) for f in germ.equations))
        for name, sub in _chart_maps(germ.ambient, b.nums))
    agreement = all(c.orders == expected for c in checks)
    return record, checks, agreement


def blowup_at_point(wps, equations, point, weights):
    """Weighted blowup of a coordinate point, in the point's chart.

    The chart point = 1 of wps is the quotient germ 1/r(a_i) at the
    origin, with r the weight of the point and a_i the other weights mod
    r.  weights maps each other coordinate to its blowup weight; the
    blowup is their WeightVector over r.  Returns
    discrepancy_chart_oracle's (record, charts, agreement).
    """
    amb = equations[0].ambient if equations else wps.ambient()
    rest = tuple(n for n in wps.names if n != point)
    chart = Ambient(rest, amb.field)
    r = wps.weight(point)
    eqs = tuple(f.restrict(ones=(point,)).rename(chart)
                for f in equations)
    germ = Germ(chart, eqs, r, tuple(wps.weight(n) % r for n in rest))
    return discrepancy_chart_oracle(
        germ, WeightVector(tuple(weights[n] for n in rest), r))


# ---------------------------------------------------------------------------
# germ analyzers


@record
class GermRow:
    """One exceptional divisor row in a germ's discrepancy table."""

    name: str
    weights: WeightVector
    discrepancy_on_blowup: Fraction
    multiplicity: Fraction | None
    discrepancy: Fraction


@record
class GermAnalysis:
    """Result of a germ analysis: parameters, table rows, E's verdict."""

    kind: str
    parameters: dict
    rows: tuple
    low_discrepancy_count: int
    e_verdict: IrreducibilityVerdict

    def row(self, name):
        for r in self.rows:
            if r.name == name:
                return r
        raise KeyError(name)


def analyze_cA2_germ(g):
    """Discrepancy table of the germ x*y + g(z, t) = 0 over Z/2(1,1,1,0).

    g is a polynomial in two variables z, t.  Gates: g has only even powers
    of z (even_in_z), order exactly six for the doubled scale z -> 1,
    t -> 2 (order_six), and the monomial t^3 occurs (t_cubed_present); a
    failed gate raises CertificateError naming it.  The half-weight
    blowup (5,1,1,2)/2 extracts a single divisor of discrepancy 1/2 with
    an irreducible exceptional surface; its chart at the first coordinate
    is the terminal quotient point 1/5(1,2,4), whose own blowups
    contribute the remaining low rows.  A row's discrepancy on the germ
    is its blowup discrepancy plus its multiplicity times that of E.
    """
    zt = g.ambient
    if zt.nvars != 2:
        raise ValueError("expected a polynomial in two variables z, t")
    zn, tn = zt.names
    scale = WeightVector((1, 2), 1)
    for gate, ok in (
            ("even_in_z", all(m[0] % 2 == 0 for m, _ in g.items())),
            ("order_six", g.weight_of(scale) == 6),
            ("t_cubed_present", not zt.field.is_zero(g.coefficient((0, 3))))):
        _require(ok, f"cA/2 gate failed: {gate}", CertificateError)

    amb = Ambient(("x", "y", zn, tn), zt.field)
    f = amb.var("x") * amb.var("y") + g.rename(amb)
    germ = Germ(amb, (f,), 2, (1, 1, 1, 0))
    b = WeightVector((5, 1, 1, 2), 2)
    record, charts, agreement = discrepancy_chart_oracle(germ, b)
    _require(agreement, "the cA/2 chart orders disagree with the weights")
    g6 = g.w_component(scale, 6)
    e_model = amb.var("x") * amb.var("y") + g6.rename(amb)
    _require(record.exceptional_equations[0] == e_model,
             "the cA/2 exceptional equation differs from x*y + g6")
    verdict = irreducibility_verdict(e_model)
    rows = [
        GermRow(
            name="E",
            weights=b,
            discrepancy_on_blowup=record.discrepancy,
            multiplicity=None,
            discrepancy=record.discrepancy,
        )
    ]

    # chart at the first coordinate: the germ is linear in the second, so
    # it is a smooth hypersurface in A^4 / (Z/5)(1,2,2,4); eliminating the
    # linear coordinate leaves the quotient point 1/5(1,2,4)
    chart_eq = toric_transform(f, b, "e").restrict(ones=("x",))
    _require(chart_eq.degree_in("y") == 1
             and chart_eq.coefficient_of_power("y", 1).is_constant(),
             "the cA/2 chart equation is not linear in y")

    chart_amb = Ambient(("e", zn, tn), zt.field)
    chart_germ = Germ(chart_amb, (), 5, (1, 2, 4))
    aE = record.discrepancy
    count = 1
    for i in (1, 2, 3, 4):
        bi = WeightVector(tuple((i * a) % 5 for a in (3, 1, 2)), 5)
        rec_i = weighted_blowup_discrepancy(chart_germ, bi)
        mult = Fraction(bi.nums[0], 5)  # order of the e-coordinate
        total = rec_i.discrepancy + mult * aE
        rows.append(
            GermRow(
                name=f"F{i}",
                weights=bi,
                discrepancy_on_blowup=rec_i.discrepancy,
                multiplicity=mult,
                discrepancy=total,
            )
        )
        if total == aE:
            count += 1

    return GermAnalysis(
        kind="cA/2",
        parameters={"g6": g6},
        rows=tuple(rows),
        low_discrepancy_count=count,
        e_verdict=verdict,
    )


_CE6_W6_SUPPORT = {
    (2, 0, 0, 0),  # x^2
    (1, 0, 1, 1),  # x z t
    (1, 1, 1, 0),  # x z y
    (1, 0, 3, 0),  # x z^3
    (0, 3, 0, 0),  # y^3
    (0, 2, 2, 0),  # y^2 z^2
    (0, 1, 4, 0),  # y z^4
    (0, 0, 6, 0),  # z^6
}


def analyze_cE6_germ(f):
    """Discrepancy table of a compound E6 hypersurface germ.

    f lives in coordinates (x, y, z, t) with filtration weights (3,2,1,2).
    Its weight-six part, scaled so that x^2 has coefficient one, is
    x^2 + x z(lam t + g2) + g6 with g2 linear in (y, z^2) and g6 a binary
    cubic in (y, z^2).  The table lists the weight-six blowup E
    (discrepancy one) and three half-integral blowups of the quotient
    chart germ; the count of discrepancy-one divisors is four in general
    and three when the coefficient of x z t vanishes.  Completeness of
    the divisor list over the germ is cited, not recomputed.

    One gate can fail on a member: the binary cubic g6 in (y, z^2),
    corrected by the square of z*g2 when lam = 0, must have simple roots
    (cubic_simple_roots).  It raises CertificateError.

    Every other gate is forced on the germ at qhat of a model that
    links.construct_link_sigma built, so a failure there raises
    InconsistencyError.  That germ is the model at z = 1 in coordinates
    (x, y, z, t) = (u, t, y, v), where sigma's reassembly identity
    F = z*W + u*v^2 + y*c6 + u*R, W = a6 + lam*y*z*v*u + z^4*u^2
    + z^2*y*u*b2 (R is the model's g6), reads

        f = x^2 + lam*x*z*t + x*z*b2 + a6 + x*t^2 + z*c6 + x*R,

    with a6, b2, c6 (forms in sigma's y, t) and R renamed to the germ
    coordinates.  By sigma's chart identity a monomial x^a*y^b*z^c*t^d
    of g14 gives the monomial u^(7-s)*y^b*z^c*t^d of u*R, with
    s = b + c + 2*d <= 6 since construct_link_sigma divides u*R by u
    exactly.  At z = 1 it has x-degree 7 - s >= 1 and weight
    3*(7 - s) + b + 2*d = 7 + a >= 7.  Hence:

      * the weight-six part is x^2 + lam*x*z*t + x*z*b2 + a6, so g2 = b2
        and g6 = a6 (order_six, x_squared_present), and its monomials
        lie in _CE6_W6_SUPPORT (weight_six_support): b2 gives z^2 and y,
        a6 gives z^6, z^4*y, z^2*y^2 and y^3;
      * the y^3 coefficient is the t^3 coefficient of a6, the normal
        form's mu != 0 (mu_nonzero);
      * the x-free part above weight six is z*c6 (tail_in_y_z);
      * the coefficient c_t of x*t^2 is one, from u*v^2 (t_squared_unit);
      * h, what is left of f/x after x + z*(lam*t + g2) + c_t*t^2, is R,
        of weight at least 4 (h_order_at_least_four);
      * the chart orders of E agree with the filtration for every germ,
        as discrepancy_chart_oracle shows (chart_oracle_agrees).
    """
    amb = f.ambient
    if amb.nvars != 4:
        raise ValueError("expected a germ in four coordinates")
    xn, yn, zn, tn = amb.names
    field = amb.field
    w = WeightVector((3, 2, 1, 2), 1)

    def forced(ok, gate):
        _require(ok, f"forced compound E6 gate failed: {gate}")

    w6 = f.w_component(w, 6)
    x2 = w6.coefficient((2, 0, 0, 0))
    forced(f.weight_of(w) == 6, "order_six")
    forced(all(m in _CE6_W6_SUPPORT for m, _ in w6.items()),
           "weight_six_support")
    forced(not field.is_zero(x2), "x_squared_present")
    f = f.scale(field.inv(x2))
    w6 = f.w_component(w, 6)

    lam = w6.coefficient((1, 0, 1, 1))
    a_c = w6.coefficient((1, 1, 1, 0))
    b_c = w6.coefficient((1, 0, 3, 0))
    y, z, t, x = amb.var(yn), amb.var(zn), amb.var(tn), amb.var(xn)
    g2 = amb.const(a_c) * y + amb.const(b_c) * z * z
    mu = w6.coefficient((0, 3, 0, 0))
    forced(not field.is_zero(mu), "mu_nonzero")

    # split off the x-free tail, then divide everything else by x; the
    # quotient may itself contain x when the germ has x-degree above two
    tail = f.coefficient_of_power(xn, 0) - w6.coefficient_of_power(xn, 0)
    forced(tail.variables() <= {yn, zn}, "tail_in_y_z")
    q = divexact(f - f.coefficient_of_power(xn, 0), x)
    c_t = q.coefficient((0, 0, 0, 2))
    forced(not field.is_zero(c_t), "t_squared_unit")
    h = q - x - z * (t.scale(lam) + g2) - t.scale(c_t) * t
    forced(h.is_zero() or h.weight_of(w) >= 4, "h_order_at_least_four")

    # binary cubic certificate: the form in (y, z^2), corrected by the
    # square of z*g2 when the t-slot is absent, must have simple roots
    YZ = Ambient(("Y", "Z"), field)
    Yv, Zv = YZ.var("Y"), YZ.var("Z")
    G = (
        YZ.const(mu) * Yv**3
        + YZ.const(w6.coefficient((0, 2, 2, 0))) * Yv**2 * Zv
        + YZ.const(w6.coefficient((0, 1, 4, 0))) * Yv * Zv**2
        + YZ.const(w6.coefficient((0, 0, 6, 0))) * Zv**3
    )
    if field.is_zero(lam):
        quarter = field.inv(field.coerce(4))
        corr = YZ.const(a_c) * Yv + YZ.const(b_c) * Zv
        G = G - Zv * corr * corr.scale(quarter)
    p = G.restrict(ones=("Z",))
    _require(not resultant(p, p.derivative("Y"), "Y").is_zero(),
             "compound E6 gates failed at qhat: ['cubic_simple_roots']",
             CertificateError)

    # row E: the weight-six blowup of the hypersurface germ
    germ = Germ(amb, (f,), 1, (0, 0, 0, 0))
    record, charts, agreement = discrepancy_chart_oracle(germ, w)
    forced(agreement, "chart_oracle_agrees")
    e_verdict = irreducibility_verdict(w6)
    rows = [
        GermRow(
            name="E",
            weights=w,
            discrepancy_on_blowup=record.discrepancy,
            multiplicity=None,
            discrepancy=record.discrepancy,
        )
    ]
    aE = record.discrepancy

    # chart of the t-coordinate: substitute, divide by t^6, re-embed with
    # s = x + (coefficient of x); the chart carries a Z/2(1,0,1,1,1) action
    lifted = toric_transform(f, w, "T")
    chart_amb = Ambient((xn, yn, zn, tn, "s"), field)
    chart_f = lifted.restrict(ones=(tn,)).rename(
        chart_amb, {"T": tn}
    )
    c0 = chart_f.coefficient_of_power(xn, 0)
    c1 = chart_f.coefficient_of_power(xn, 1)
    s_expr = divexact(chart_f - c0, chart_amb.var(xn))
    sv = chart_amb.var("s")
    eq1 = sv * chart_amb.var(xn) + c0
    eq2 = sv - s_expr
    # exact re-embedding: eliminating s recovers the chart equation
    _require(substitute(eq1, {"s": s_expr}, chart_amb) == chart_f,
             "eliminating s does not recover the cE6 chart equation")
    chart_germ = Germ(chart_amb, (eq1, eq2), 2, (1, 0, 1, 1, 1))

    count = 1 if aE == 1 else 0
    for i in (1, 3, 5):
        bi = WeightVector((i, 2, 1, 1, 6 - i), 2)
        rec_i = weighted_blowup_discrepancy(chart_germ, bi)
        # on the chart germ, t times a unit equals the second equation
        # plus the t-divisible remainder of the x-linear coefficient
        rhs = (
            eq2
            + c1
            - chart_amb.var(zn).scale(lam)
            - chart_amb.var(zn) * g2.rename(chart_amb)
        )
        low2 = rec_i.exceptional_equations[1]
        tcoeff = low2.coefficient_of_power(tn, 1)
        if not tcoeff.is_constant():
            raise ValueError("pivot coefficient is not a unit")
        tinv = field.inv(tcoeff.constant_coefficient())
        t_image = chart_amb.var(tn) - low2.scale(tinv)
        mult = None
        for d in sorted({bi.weight(m) for m, _ in rhs.items()}):
            cand = rhs.w_component(bi, d)
            red = substitute(cand, {tn: t_image}, chart_amb)
            if not red.is_zero():
                if d >= rec_i.orders[0]:
                    raise ValueError("multiplicity check needs both lows")
                mult = d
                break
        if mult is None:
            raise ValueError("the exceptional multiplicity did not resolve")
        total = rec_i.discrepancy + mult * aE
        rows.append(
            GermRow(
                name=f"F{i}",
                weights=bi,
                discrepancy_on_blowup=rec_i.discrepancy,
                multiplicity=mult,
                discrepancy=total,
            )
        )
        if total == 1:
            count += 1

    return GermAnalysis(
        kind="cE6",
        parameters={"lambda": lam, "mu": mu, "c_t": c_t},
        rows=tuple(rows),
        low_discrepancy_count=count,
        e_verdict=e_verdict,
    )


# ---------------------------------------------------------------------------
# quadratic involution test


@record
class QuadraticInvolutionResult:
    """Outcome of projecting away from a coordinate appearing quadratically."""

    kind: str               # "NotMaximal" | "SelfLink"
    double_cover: QPolynomial | None


def quadratic_involution_test(F, point):
    """Analyze the projection from a coordinate point of a hypersurface.

    Writing F = w^2 * ell + w * f_mid + f_low in the coordinate w of the
    point, the projection away from the point is generically two-to-one.
    If ell divides f_mid the point is not a maximal center (the projection
    untwists nothing); otherwise the double cover model s^2 + s*f_mid +
    ell*f_low carries the deck involution s -> -s - f_mid and the
    projection is a self-link.  The deck involution fixes the model for
    every F, since (s + f_mid)^2 - (s + f_mid)*f_mid = s^2 + s*f_mid, so
    a failure of that identity raises InconsistencyError.
    """
    amb = F.ambient
    uni = F.as_univariate(point)
    if max(uni) != 2:
        raise ValueError(f"{point} must appear with degree exactly two")
    ell = uni.get(2)
    f_mid = uni.get(1, amb.zero())
    f_low = uni.get(0, amb.zero())
    if ell.is_zero():
        raise ValueError("the quadratic coefficient vanishes")
    if f_mid.is_zero() or divides(ell, f_mid):
        return QuadraticInvolutionResult(
            kind="NotMaximal", double_cover=None)
    ext = amb.extended(("s_",))
    s = ext.var("s_")
    Z = s * s + s * f_mid.rename(ext) + ell.rename(ext) * f_low.rename(ext)
    _require(substitute(Z, {"s_": -s - f_mid.rename(ext)}, ext) == Z,
             "the deck involution does not fix the double cover model")
    return QuadraticInvolutionResult(
        kind="SelfLink", double_cover=Z)
