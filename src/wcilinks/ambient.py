"""Weighted projective spaces, rank-two toric ambients, two-ray games.

A weighted blowup of a coordinate point of a weighted projective space P
produces a projective toric variety T of Picard rank two.  T is encoded by
a 2 x n integer matrix: one column per Cox coordinate, with the original
degree in the first row and the blowup filtration order in the second.
Variation of GIT on T is governed by the fan of column rays in the plane:
each chamber between adjacent rays is a model, and crossing a wall either
modifies the model in codimension two, contracts a divisor, or ends in a
fibration.  run_two_ray_game walks the chambers counterclockwise and
records the whole trace.

cone_calculus then restricts equations to the wall loci, tries to certify
those loci empty on the variety (in which case the wall crossing is an
isomorphism), and assembles nef cones, the mobile cone, and the
anticanonical class.  It is the one caller of certify_stratum_empty,
whose rules hold for bihomogeneous equations on columns in a pointed
cone: cone_calculus reads every equation's bidegree first, and the game
has refused any other columns.  blowup_game runs the whole chain for one
weighted blowup of a coordinate point.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cmp_to_key, lru_cache
from math import gcd, prod

from ._records import record
from .qpoly import (
    Ambient,
    QQ,
    WeightVector,
    _univariate_gcd,
    toric_transform,
)

__all__ = [
    "ConeReport",
    "ConeZ2",
    "DivisorClass",
    "EmptinessCertificate",
    "GameEnd",
    "LinkTrace",
    "Rank2Toric",
    "WallCrossing",
    "WCISpec",
    "WPS",
    "blowup_ambient",
    "blowup_game",
    "blowup_weight_vector",
    "cone_calculus",
    "run_two_ray_game",
    "transport_equation",
]


# ---------------------------------------------------------------------------
# plane lattice helpers


def _primitive(v):
    a, b = v
    if a == 0 and b == 0:
        raise ValueError("zero vector has no primitive representative")
    g = gcd(abs(a), abs(b))
    return (a // g, b // g)

def _cross(u, v):
    return u[0] * v[1] - u[1] * v[0]

def _dot(u, v):
    return u[0] * v[0] + u[1] * v[1]

def _half(v):
    """0 for rays with angle in [0, pi), 1 for [pi, 2 pi)."""
    a, b = v
    return 0 if (b > 0 or (b == 0 and a > 0)) else 1

def _angle_cmp(u, v):
    hu, hv = _half(u), _half(v)
    if hu != hv:
        return -1 if hu < hv else 1
    c = _cross(u, v)
    if c > 0:
        return -1
    if c < 0:
        return 1
    return 0


# ---------------------------------------------------------------------------
# divisor classes and cones


@record
class DivisorClass:
    """An element of the rank-two divisor class lattice."""

    a: int
    b: int

    def coords(self):
        return (self.a, self.b)

    def __add__(self, other):
        return DivisorClass(self.a + other.a, self.b + other.b)

    def __sub__(self, other):
        return DivisorClass(self.a - other.a, self.b - other.b)

    def __neg__(self):
        return DivisorClass(-self.a, -self.b)

    def __rmul__(self, k):
        return DivisorClass(k * self.a, k * self.b)

    def is_zero(self):
        return self.a == 0 and self.b == 0

    def ray(self):
        return _primitive((self.a, self.b))

    def proportional_to(self, other):
        """Same ray: positively proportional."""
        u = self.coords()
        v = other.coords() if isinstance(other, DivisorClass) else tuple(other)
        return _cross(u, v) == 0 and _dot(u, v) > 0

    def __str__(self):
        return f"({self.a},{self.b})"


def _coords(d):
    if isinstance(d, DivisorClass):
        return d.coords()
    return tuple(d)


@record
class ConeZ2:
    """A strictly convex two-dimensional cone between two lattice rays."""

    ray1: tuple
    ray2: tuple

    def __post_init__(self):
        r1 = _primitive(tuple(self.ray1))
        r2 = _primitive(tuple(self.ray2))
        if _cross(r1, r2) <= 0:
            raise ValueError(f"rays {r1}, {r2} do not span a positive cone")
        object.__setattr__(self, "ray1", r1)
        object.__setattr__(self, "ray2", r2)

    def contains(self, d):
        v = _coords(d)
        return _cross(self.ray1, v) >= 0 and _cross(v, self.ray2) >= 0

    def strictly_contains(self, d):
        v = _coords(d)
        return _cross(self.ray1, v) > 0 and _cross(v, self.ray2) > 0

    def on_boundary(self, d):
        return self.contains(d) and not self.strictly_contains(d)

    def boundary_ray(self, d):
        """Which boundary ray d lies on: 1, 2, or None."""
        v = _coords(d)
        if _cross(self.ray1, v) == 0 and _dot(self.ray1, v) > 0:
            return 1
        if _cross(self.ray2, v) == 0 and _dot(self.ray2, v) > 0:
            return 2
        return None

    def __str__(self):
        return f"cone<{self.ray1}, {self.ray2}>"


# ---------------------------------------------------------------------------
# weighted projective spaces


@record
class WPS:
    """A weighted projective space with named coordinates."""

    weights: tuple
    names: tuple

    def __post_init__(self):
        weights = tuple(int(w) for w in self.weights)
        names = tuple(self.names)
        if len(weights) != len(names):
            raise ValueError("weights and names must have the same length")
        if any(w < 1 for w in weights):
            raise ValueError("weights must be positive")
        if len(set(names)) != len(names):
            raise ValueError("duplicate coordinate names")
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "names", names)

    @property
    def nvars(self):
        return len(self.weights)

    @property
    def dim(self):
        return len(self.weights) - 1

    def index(self, name):
        try:
            return self.names.index(name)
        except ValueError:
            raise KeyError(f"no coordinate {name!r} in {self}") from None

    def weight(self, name):
        return self.weights[self.index(name)]

    def ambient(self, field=QQ):
        return Ambient(self.names, field)

    def weight_vector(self):
        return WeightVector(self.weights, 1)

    def is_well_formed(self):
        n = len(self.weights)
        for i in range(n):
            rest = [w for j, w in enumerate(self.weights) if j != i]
            if gcd(*rest) != 1:
                return False
        return True

    def __str__(self):
        return "P(" + ",".join(str(w) for w in self.weights) + ")"


@record
class WCISpec:
    """A complete intersection of given degrees in a WPS."""

    wps: WPS
    degrees: tuple

    def __post_init__(self):
        object.__setattr__(self, "degrees", tuple(int(d) for d in self.degrees))
        if any(d < 1 for d in self.degrees):
            raise ValueError("degrees must be positive")

    @property
    def codimension(self):
        return len(self.degrees)

    @property
    def dimension(self):
        return self.wps.dim - self.codimension

    @property
    def fano_index(self):
        return sum(self.wps.weights) - sum(self.degrees)

    @property
    def amplitude(self):
        return Fraction(prod(self.degrees), prod(self.wps.weights))

    def __str__(self):
        degs = ",".join(str(d) for d in self.degrees)
        return f"X_{degs} in {self.wps}"


# ---------------------------------------------------------------------------
# rank-two toric ambients


@record
class Rank2Toric:
    """A Picard-rank-two toric variety given by a 2 x n weight matrix.

    Columns are indexed by Cox coordinates.  The first group1_size
    coordinates cut out one component of the irrelevant locus, the rest
    the other: a point is stable when each group has a nonzero entry.
    """

    names: tuple
    columns: tuple
    group1_size: int

    def __post_init__(self):
        names = tuple(self.names)
        columns = tuple((int(a), int(b)) for a, b in self.columns)
        if len(names) != len(columns):
            raise ValueError("names and columns must have the same length")
        if len(set(names)) != len(names):
            raise ValueError("duplicate coordinate names")
        if not 1 <= self.group1_size < len(names):
            raise ValueError("group sizes must be positive")
        object.__setattr__(self, "names", names)
        object.__setattr__(self, "columns", columns)

    @property
    def nvars(self):
        return len(self.names)

    def index(self, name):
        try:
            return self.names.index(name)
        except ValueError:
            raise KeyError(f"no coordinate {name!r}") from None

    def column(self, name):
        return self.columns[self.index(name)]

    def ray(self, name):
        return _primitive(self.column(name))

    def group1(self):
        return self.names[: self.group1_size]

    def group2(self):
        return self.names[self.group1_size :]

    def ambient(self, field=QQ):
        return Ambient(self.names, field)

    def bidegree(self, f):
        """Common bidegree of a bihomogeneous polynomial, as DivisorClass."""
        if f.is_zero():
            raise ValueError("zero polynomial has no bidegree")
        amb = f.ambient
        idx = [self.index(n) for n in amb.names]
        seen = set()
        for m, _ in f.items():
            a = sum(e * self.columns[idx[i]][0] for i, e in enumerate(m))
            b = sum(e * self.columns[idx[i]][1] for i, e in enumerate(m))
            seen.add((a, b))
        if len(seen) != 1:
            raise ValueError(f"polynomial is not bihomogeneous: degrees {sorted(seen)}")
        return DivisorClass(*seen.pop())


# the name of the exceptional coordinate of every blowup ambient
_EXCEPTIONAL = "u"


def blowup_ambient(wps, center, weights):
    """Rank-two toric ambient of a weighted blowup of a coordinate point.

    weights maps every non-center coordinate name to its positive blowup
    weight.  Columns are ordered: exceptional coordinate, center, then the
    remaining coordinates by increasing slope of (degree, weight), ties in
    original order.  Contracting the exceptional divisor recovers wps.
    The exceptional coordinate is named u, which wps must not use.
    """
    ci = wps.index(center)
    r = wps.weights[ci]
    rest = []
    for i, n in enumerate(wps.names):
        if n == center:
            continue
        if n not in weights:
            raise ValueError(f"missing blowup weight for {n!r}")
        b = int(weights[n])
        if b < 1:
            raise ValueError(f"blowup weight for {n!r} must be positive")
        rest.append((n, wps.weights[i], b, i))
    if len(weights) != len(rest):
        extra = set(weights) - {n for n, _, _, _ in rest}
        raise ValueError(f"unexpected blowup weights for {sorted(extra)}")
    if _EXCEPTIONAL in wps.names:
        raise ValueError(f"coordinate name {_EXCEPTIONAL!r} already in use")
    rest.sort(key=lambda t: (Fraction(t[2], t[1]), t[3]))
    names = [_EXCEPTIONAL, center] + [t[0] for t in rest]
    cols = [(0, -r), (r, 0)] + [(t[1], t[2]) for t in rest]
    return Rank2Toric(tuple(names), tuple(cols), 2)


def blowup_weight_vector(wps, center, weights):
    """Filtration weights of the blowup on the original coordinates.

    The center gets weight zero and every other coordinate its blowup
    weight; the common denominator is the center's degree.
    """
    ci = wps.index(center)
    nums = []
    for i, n in enumerate(wps.names):
        nums.append(0 if i == ci else int(weights[n]))
    return WeightVector(tuple(nums), wps.weights[ci])


def transport_equation(f, wps, center, weights, toric):
    """Insert the exceptional coordinate into f and order for the toric.

    Applies the graded transform along the blowup filtration (dividing by
    the largest possible power of the exceptional coordinate) and renames
    the result into the toric ambient's coordinate order.
    """
    w = blowup_weight_vector(wps, center, weights)
    lifted = toric_transform(f, w, _EXCEPTIONAL)
    return lifted.rename(toric.ambient(f.ambient.field))


# ---------------------------------------------------------------------------
# the two-ray game


@record
class WallCrossing:
    """A small modification between adjacent chambers."""

    ray: tuple
    wall_vars: tuple
    plus_vars: tuple    # contracted locus V(plus_vars) on the earlier model
    minus_vars: tuple   # extracted locus V(minus_vars) on the later model


@record
class GameEnd:
    """How the chamber walk terminates on one side."""

    kind: str           # "divisorial" | "fibration" | "small"
    ray: tuple
    wall_vars: tuple
    contracted: str | None
    functional: tuple
    target: WPS | None
    image_dim: int | None


@record
class LinkTrace:
    """The full record of a two-ray game."""

    toric: Rank2Toric
    models: tuple
    chambers: tuple
    walls: tuple
    end: GameEnd
    entry: GameEnd

    @property
    def nmodels(self):
        return len(self.models)


def _sorted_rays(toric):
    """Distinct primitive column rays in counterclockwise game order.

    Validates that all columns fit in a strictly convex (pointed) cone and
    starts the cyclic order just after the unique reflex gap.
    """
    distinct = []
    for col in toric.columns:
        r = _primitive(col)
        if r not in distinct:
            distinct.append(r)
    distinct.sort(key=cmp_to_key(_angle_cmp))
    n = len(distinct)
    if n == 1:
        return distinct
    start = None
    for i in range(n):
        a, b = distinct[i], distinct[(i + 1) % n]
        c = _cross(a, b)
        if c == 0 and _dot(a, b) < 0:
            raise ValueError(
                f"columns contain the line through {a}: cone is not pointed"
            )
        if c < 0:
            # the gap from distinct[i] to the next ray exceeds a half turn
            if start is not None:
                raise ValueError("columns positively span the plane")
            start = (i + 1) % n
    if start is None:
        raise ValueError("columns positively span the plane: cone is not pointed")
    return distinct[start:] + distinct[:start]


def _vars_on(toric, ray):
    return tuple(n for n in toric.names if toric.ray(n) == ray)


def _contraction(toric, order, ray_index, side):
    """Classify the crossing at order[ray_index] walking away from it.

    side +1 looks counterclockwise (vars with larger angle vanish), side -1
    clockwise.  Returns (kind, beyond_vars).
    """
    if side == 1:
        beyond = [r for r in order[ray_index + 1 :]]
    else:
        beyond = [r for r in order[:ray_index]]
    beyond_vars = tuple(
        n for n in toric.names if toric.ray(n) in beyond
    )
    if len(beyond_vars) >= 2:
        return "small", beyond_vars
    if len(beyond_vars) == 1:
        return "divisorial", beyond_vars
    return "fibration", beyond_vars


def _positive_functional(col, toric):
    """Primitive L with L(col) = 0 and L >= 0 on all columns."""
    a, b = col
    for L in ((b, -a), (-b, a)):
        vals = [L[0] * c[0] + L[1] * c[1] for c in toric.columns]
        if all(v >= 0 for v in vals):
            return _primitive(L)
    raise ValueError("no nonnegative functional vanishing on the column")


def _end_data(toric, order, ray_index, side):
    ray = order[ray_index]
    wall_vars = _vars_on(toric, ray)
    kind, beyond = _contraction(toric, order, ray_index, side)
    if kind == "small":
        return GameEnd(
            kind="small",
            ray=ray,
            wall_vars=wall_vars,
            contracted=None,
            functional=(0, 0),
            target=None,
            image_dim=None,
        )
    if kind == "divisorial":
        b = beyond[0]
        L = _positive_functional(toric.column(b), toric)
        vals = {
            n: L[0] * c[0] + L[1] * c[1]
            for n, c in zip(toric.names, toric.columns)
        }
        keep = [n for n in toric.names if n != b]
        g = gcd(*[vals[n] for n in keep])
        target = WPS(tuple(vals[n] // g for n in keep), tuple(keep))
        return GameEnd(
            kind="divisorial",
            ray=ray,
            wall_vars=wall_vars,
            contracted=b,
            functional=L,
            target=target,
            image_dim=len(wall_vars) - 1,
        )
    # fibration: project along the wall ray
    L = _positive_functional(ray, toric)
    vals = {
        n: L[0] * c[0] + L[1] * c[1]
        for n, c in zip(toric.names, toric.columns)
    }
    keep = [n for n in toric.names if vals[n] > 0]
    g = gcd(*[vals[n] for n in keep])
    target = WPS(tuple(vals[n] // g for n in keep), tuple(keep))
    return GameEnd(
        kind="fibration",
        ray=ray,
        wall_vars=wall_vars,
        contracted=None,
        functional=L,
        target=target,
        image_dim=None,
    )


@lru_cache(maxsize=8)
def run_two_ray_game(toric):
    """Walk the chamber structure counterclockwise from the initial model.

    The initial chamber is spanned by the last group-one ray and the first
    group-two ray.  Walls with at least two coordinates beyond them are
    small modifications and the walk continues; a single coordinate beyond
    stops the game with a divisorial contraction, none with a fibration.

    The game reads the toric ambient alone, a frozen record, so the
    result is memoised on it: the pipeline plays the same three games
    (sigma's blowup and the two exclusion blowups) for every member.
    Callers share the returned LinkTrace, which is frozen throughout.
    """
    if not 2 <= toric.group1_size <= toric.nvars - 2:
        raise ValueError("each irrelevant group needs at least two coordinates")
    order = _sorted_rays(toric)
    pos = {r: i for i, r in enumerate(order)}
    g1 = toric.group1()
    g2 = toric.group2()
    lo = max(pos[toric.ray(n)] for n in g1)
    hi = min(pos[toric.ray(n)] for n in g2)
    if lo >= hi:
        raise ValueError(
            "irrelevant groups are not separated: no initial chamber"
        )
    if hi != lo + 1:
        raise ValueError("a column ray lies strictly inside the initial chamber")

    models = []
    chambers = []
    walls = []
    k = lo
    while True:
        chamber = ConeZ2(order[k], order[k + 1])
        group1_names = [n for n in toric.names if pos[toric.ray(n)] <= k]
        group2_names = [n for n in toric.names if pos[toric.ray(n)] > k]
        model = Rank2Toric(
            tuple(group1_names + group2_names),
            tuple(toric.column(n) for n in group1_names + group2_names),
            len(group1_names),
        )
        models.append(model)
        chambers.append(chamber)
        wall_index = k + 1
        kind, beyond = _contraction(toric, order, wall_index, 1)
        if kind == "small":
            ray = order[wall_index]
            before = tuple(
                n for n in toric.names if pos[toric.ray(n)] < wall_index
            )
            walls.append(
                WallCrossing(
                    ray=ray,
                    wall_vars=_vars_on(toric, ray),
                    plus_vars=beyond,
                    minus_vars=before,
                )
            )
            k += 1
            continue
        end = _end_data(toric, order, wall_index, 1)
        break

    entry = _end_data(toric, order, lo, -1)
    return LinkTrace(
        toric=toric,
        models=tuple(models),
        chambers=tuple(chambers),
        walls=tuple(walls),
        end=end,
        entry=entry,
    )


# ---------------------------------------------------------------------------
# emptiness certificates for wall loci


@record
class EmptinessCertificate:
    """Whether a locus has no stable points, with the rule that decided."""

    empty: bool
    reason: str


# how many branchings deep certify_stratum_empty goes before it gives up
_STRATUM_DEPTH = 16


def certify_stratum_empty(equations, dead, left, right):
    """Try to prove a coordinate stratum has no stable solutions.

    equations live on an ambient containing all coordinates; dead is the
    set of names forced to zero; left and right are the two irrelevant
    groups (a stable point has a nonzero coordinate in each).  Sound rules
    only; on failure the certificate reports empty=False.  The rules: a
    vanishing group is unstable; branching stops at _STRATUM_DEPTH; a
    monomial equation forces a coordinate of its support to vanish; and
    equations in two coordinates p < q alone are read on the chart p = 1.
    A common root there has p nonzero.  Without one, every root has p = 0;
    an equation that keeps a term there reads c*q^k, k >= 1, by (b) and
    (e), so q = 0 too ("origin"), and if none does the branch p = 0
    decides ("no root with p nonzero").

    Precondition: the equations, at least one, are nonzero and
    bihomogeneous for toric columns that are nonzero and lie in a pointed
    cone, so only constants have bidegree (0, 0).  cone_calculus, the one
    caller, reads each equation's Rank2Toric.bidegree, which raises
    otherwise, on a trace whose columns run_two_ray_game's _sorted_rays
    accepted, and setting coordinates to zero keeps the property.  So no
    other rule is needed:
    (a) a nonzero constant is a monomial of empty support, which the
        monomial rule certifies without a branch;
    (b) an equation in one coordinate p is c*p^k, as col_p is nonzero,
        and its one branch p = 0 is the monomial rule's;
    (c) the chart rule scales a root with p nonzero to p = 1, so it
        needs positive weights on (p, q) for which every equation is
        quasi-homogeneous.  They exist: each equation is one monomial if
        p and q lie on different rays, and if they share a ray the
        lengths of their columns on it are such weights;
    (d) p = 1 merges p^a*q^b with p^a'*q^b only at one bidegree, so
        a = a' and no equation vanishes on the chart;
    (e) a nonzero constant at p = 0 is a constant term, of bidegree
        (0, 0), so the equation is a constant, which (a) decides.
    """
    names = equations[0].ambient.names

    def recurse(dead, depth):
        dead = frozenset(dead)
        if left <= dead:
            return EmptinessCertificate(
                True, f"all of the first group {sorted(left)} vanish: unstable"
            )
        if right <= dead:
            return EmptinessCertificate(
                True, f"all of the second group {sorted(right)} vanish: unstable"
            )
        eqs = [r for r in (eq.restrict(zeros=dead) for eq in equations)
               if not r.is_zero()]
        if depth <= 0:
            return EmptinessCertificate(False, "branching depth exhausted")
        # a monomial equation forces some coordinate in its support to zero
        for eq in eqs:
            if eq.is_monomial():
                occurring = eq.variables()
                support = [n for n in names if n in occurring]
                if all(recurse(dead | {v}, depth - 1).empty
                       for v in support):
                    return EmptinessCertificate(
                        True,
                        f"monomial equation {eq} forces a coordinate of"
                        f" {support} to vanish",
                    )
        if not eqs:
            return EmptinessCertificate(
                False, "no equations restrict nontrivially: stable points remain"
            )
        used = set().union(*(eq.variables() for eq in eqs))
        if len(used) == 2:
            p, q = sorted(used)
            g = _univariate_gcd([eq.restrict(ones=(p,)) for eq in eqs], q)
            if not g.is_constant():
                return EmptinessCertificate(
                    False,
                    f"equations in ({p},{q}) share a root with {p} nonzero"
                    f" (common factor {g})",
                )
            if any(not eq.restrict(zeros=(p,)).is_zero() for eq in eqs):
                if recurse(dead | {p, q}, depth - 1).empty:
                    return EmptinessCertificate(
                        True,
                        f"scale-invariant equations in ({p},{q})"
                        f" only vanish at the origin",
                    )
            elif recurse(dead | {p}, depth - 1).empty:
                return EmptinessCertificate(
                    True,
                    f"scale-invariant equations in ({p},{q}) have"
                    f" no root with {p} nonzero",
                )
        return EmptinessCertificate(False, "no certification rule applies")

    return recurse(frozenset(dead), _STRATUM_DEPTH)


# ---------------------------------------------------------------------------
# cone calculus on a trace


@record
class WallReport:
    """Certification outcome for one wall of the trace."""

    ray: tuple
    plus_certificate: EmptinessCertificate
    minus_certificate: EmptinessCertificate

    @property
    def isomorphism(self):
        return self.plus_certificate.empty and self.minus_certificate.empty


@record
class ConeReport:
    """Nef and mobile cones of the variety cut out inside the trace."""

    trace: LinkTrace
    bidegrees: tuple
    anticanonical: DivisorClass
    nef_cones: tuple
    mov: ConeZ2
    wall_reports: tuple

    @property
    def anticanonical_on_mov_boundary(self):
        return self.mov.on_boundary(self.anticanonical)

    @property
    def anticanonical_in_mov_interior(self):
        return self.mov.strictly_contains(self.anticanonical)

    def mov_boundary_ray_vars(self):
        """Coordinates whose ray carries the anticanonical class, if on
        the mov boundary."""
        side = self.mov.boundary_ray(self.anticanonical)
        if side is None:
            return ()
        ray = self.mov.ray1 if side == 1 else self.mov.ray2
        return _vars_on(self.trace.toric, ray)


def cone_calculus(trace, equations):
    """Certify wall crossings and assemble the cone data of the variety.

    equations are the defining polynomials on the toric ambient's Cox
    coordinates (any coordinate order).  Each wall locus is restricted and
    checked for stable solutions; certified-empty walls on both sides glue
    adjacent chambers into one nef cone.
    """
    toric = trace.toric
    if not equations:
        raise ValueError("at least one defining equation is required")
    amb = toric.ambient(equations[0].ambient.field)
    eqs = [eq.rename(amb) for eq in equations]
    bidegs = tuple(toric.bidegree(eq) for eq in eqs)
    total = DivisorClass(
        sum(c[0] for c in toric.columns), sum(c[1] for c in toric.columns)
    )
    minus_k = total
    for d in bidegs:
        minus_k = minus_k - d
    wall_reports = []
    for i, wall in enumerate(trace.walls):
        cw = trace.models[i]
        ccw = trace.models[i + 1]
        plus = certify_stratum_empty(
            eqs,
            dead=set(wall.plus_vars),
            left=frozenset(cw.group1()),
            right=frozenset(cw.group2()),
        )
        minus = certify_stratum_empty(
            eqs,
            dead=set(wall.minus_vars),
            left=frozenset(ccw.group1()),
            right=frozenset(ccw.group2()),
        )
        wall_reports.append(
            WallReport(ray=wall.ray, plus_certificate=plus, minus_certificate=minus)
        )
    # merge chambers across isomorphism walls
    n = trace.nmodels
    nef = []
    for i in range(n):
        lo = i
        while lo > 0 and wall_reports[lo - 1].isomorphism:
            lo -= 1
        hi = i
        while hi < n - 1 and wall_reports[hi].isomorphism:
            hi += 1
        nef.append(ConeZ2(trace.chambers[lo].ray1, trace.chambers[hi].ray2))
    mov = ConeZ2(trace.chambers[0].ray1, trace.chambers[-1].ray2)
    return ConeReport(
        trace=trace,
        bidegrees=bidegs,
        anticanonical=minus_k,
        nef_cones=tuple(nef),
        mov=mov,
        wall_reports=tuple(wall_reports),
    )


def blowup_game(wps, equations, center, weights):
    """The two-ray game of a weighted blowup of a coordinate point.

    Builds the toric ambient of the blowup, runs its game, transports
    the equations and certifies the walls, in that order.  Returns
    (trace, transported, cones); the toric ambient is trace.toric, and
    without equations transported is () and cones is None.
    """
    trace = run_two_ray_game(blowup_ambient(wps, center, weights))
    if not equations:
        return trace, (), None
    transported = tuple(
        transport_equation(f, wps, center, weights, trace.toric)
        for f in equations)
    return trace, transported, cone_calculus(trace, transported)
