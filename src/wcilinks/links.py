"""Sarkisov-link certification for X_{12,14} in P(1,2,3,4,7,11).

This module drives the whole pipeline for a quasismooth member
X = X_{12,14} of P(1,2,3,4,7,11) with coordinates (x, y, z, t, v, w):

* put the defining pair (F1, F2) into the normal form

      F1 = -x*w + S12,   S12 = a12(y,t) + lam*y*z*v + z^4 + z^2*y*b4(y,t),
      F2 =  z*w + v^2 + y*c12(y,t) + g14(x,y,z,t),

  by a chain of coordinate steps, each certified a graded automorphism
  as it is applied, requiring mu != 0 and c12 != 0 and recording the
  resultant Res_t(a12, c12), which must be nonzero;
* census the coordinate points of X: exactly one singular point, of
  terminal type 1/11(1,2,9) at the weight-11 coordinate;
* run the two-ray game of the (6,1,7,2,9)/11 blowup of that point and
  extract the elementary link sigma to a degree-7 hypersurface
  hatX = X_7 in P(1,1,1,2,3), verified by exact chart identities;
* census hatX: a 1/2(1,1,1) point, a 1/3(1,1,2) point, and a compound
  E6 point qhat where the model is not quasismooth, together with the
  discrepancy table of the qhat germ;
* certify that the two exceptional weighted blowups at qhat, with
  weights (4,1,2,1) and (2,1,2,1,4) after re-embedding, both lead to
  two-ray games whose anticanonical class lies on the boundary of the
  movable cone, so neither starts an elementary link;
* exclude curves of low degree through qhat by exact parameter counts;
* build the biregular involution of hatX and the induced birational
  involution of X, verifying both by exact polynomial identities;
* assemble the elementary links of X into a classification, with every
  remaining candidate center excluded by a computed certificate or by a
  cited external statement.

All core computation is exact over Q; sampled spot checks run over a
large prime field.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import lru_cache

from ._records import record
from .ambient import (
    ConeZ2,
    DivisorClass,
    WCISpec,
    WPS,
    blowup_game,
    blowup_weight_vector,
)
from .qpoly import (
    Ambient,
    DEFAULT_PRIME,
    Evaluator,
    ExactDivisionError,
    GF,
    JacobianRank,
    QQ,
    QPolynomial,
    Substitution,
    WeightVector,
    divexact,
    irreducibility_verdict,
    resultant,
    substitute,
)
from .singular import (
    CertificateError,
    InconsistencyError,
    _require,
    analyze_cE6_germ,
    blowup_at_point,
    classify_quotient_singularity,
    quadratic_involution_test,
    quasismooth_on_stratum,
)

__all__ = [
    "CENSUS_SAMPLES",
    "CITATIONS",
    "CensusHatX",
    "CensusX",
    "CertificateError",
    "CurveExclusion",
    "HAT_WPS",
    "InconsistencyError",
    "InvolutionCheck",
    "InvolutionData",
    "LinkClassification",
    "LinkReport",
    "NormalFormHatX",
    "NormalFormX1214",
    "SigmaLink",
    "Verdict",
    "X_SPEC",
    "X_WPS",
    "build_involutions",
    "classify_links",
    "condition_check",
    "construct_link_sigma",
    "exclude_degree_one_curves",
    "involution_tuple",
    "link_stages",
    "normal_form_X1214",
    "random_member",
    "run_exclusion_blowups",
    "singularity_census_X",
    "singularity_census_hatX",
    "verify_involution",
]


# ---------------------------------------------------------------------------
# the fixed geometry

X_WEIGHTS = (1, 2, 3, 4, 7, 11)
X_NAMES = ("x", "y", "z", "t", "v", "w")
X_DEGREES = (12, 14)
X_WPS = WPS(X_WEIGHTS, X_NAMES)
X_SPEC = WCISpec(X_WPS, X_DEGREES)

# weights of the unique discrepancy-1/11 extraction over the 1/11(1,2,9)
# point: 6*(1,2,3,4,7) reduced mod 11, over the quotient order 11
KAWAMATA_WEIGHTS = {"x": 6, "y": 1, "z": 7, "t": 2, "v": 9}

HAT_WPS = WPS((1, 1, 1, 2, 3), ("u", "y", "z", "t", "v"))
HAT_SPEC = WCISpec(HAT_WPS, (7,))

# external statements taken as inputs by the classification; everything
# else in the pipeline is recomputed and certified here
CITATIONS = (
    "[DG23 Cor 7.2, 7.11]",
    "[OkSolid Lem 4.5, 4.9]",
    "[OkII Lem 2.9]",
    "[OkSolid Prop 3.16]",
)


# ---------------------------------------------------------------------------
# member generation


def _exponents(weights, degree):
    """All exponent tuples of the given weighted degree."""
    if not weights:
        if degree == 0:
            yield ()
        return
    head = weights[0]
    for e in range(degree // head + 1):
        for rest in _exponents(weights[1:], degree - e * head):
            yield (e,) + rest


def random_member(seed):
    """A dense random member of the degree-(12, 14) family over Q.

    Every monomial of each degree receives a nonzero integer coefficient
    drawn from -9..9, so all genericity gates hold for typical seeds.
    """
    rng = random.Random(seed)
    amb = X_WPS.ambient()

    def draw():
        c = 0
        while c == 0:
            c = rng.randint(-9, 9)
        return c

    eqs = []
    for d in X_DEGREES:
        f = amb.zero()
        for e in _exponents(X_WEIGHTS, d):
            f = f + amb.monomial(e, draw())
        eqs.append(f)
    return tuple(eqs)


@record
class NormalFormX1214:
    """The member in normal coordinates, with the pieces split off."""

    spec: WCISpec
    F1: QPolynomial
    F2: QPolynomial
    S12: QPolynomial
    a12: QPolynomial
    lam: Fraction
    b4: QPolynomial
    c12: QPolynomial
    mu: Fraction
    resultant: Fraction
    steps: tuple


# weights of the extraction over the 1/11 point, used to grade g14
_BW = blowup_weight_vector(X_WPS, "w", KAWAMATA_WEIGHTS)
# weight one on x and z: order at least two is membership in (x, z)^2
_XZ = WeightVector((1, 0, 1, 0, 0, 0))
_WV = X_WPS.weight_vector()


def _require_graded_automorphism(mapping):
    """Refuse a coordinate step that is not a graded automorphism.

    Each moved generator n must go to c*n + h, with c a nonzero constant,
    h free of every generator the step moves, and c*n + h quasi-homogeneous
    of the weight of n.  Raises InconsistencyError naming the first
    generator that fails.
    """
    for n, img in mapping.items():
        amb = img.ambient
        c = img.coefficient(n)
        _require(not QQ.is_zero(c), f"the step scales {n} by zero")
        h = img - amb.var(n).scale(c)
        _require(not h.variables() & mapping.keys(),
                 f"the shift of {n} involves a coordinate the step moves")
        weight = X_WEIGHTS[amb.index(n)]
        _require(img.quasi_homogeneous_degree(_WV) == weight,
                 f"the image of {n} is not quasi-homogeneous of weight"
                 f" {weight}")


def normal_form_X1214(F1, F2):
    """Normalize a degree-(12, 14) pair to the split shape.

    The chain: scale v^2 to 1; complete the square in v; recenter z so
    the coefficient of w in F2 is a multiple of z; absorb the x-divisible
    part of F1 into w; repeat until stable; then rescale coordinates so
    the coefficients of x*w, z^4 and z*w are -1, 1, 1.

    Each coordinate step is certified as it is applied: it sends every
    generator n it moves to c*n + h, where c is a nonzero constant, h
    involves no generator the step moves, and c*n + h is quasi-homogeneous
    of the weight of n.  Such a substitution is a graded automorphism of
    the coordinate ring, so of P(1,2,3,4,7,11): the substitution
    n -> (n - h)/c, fixing the other generators, undoes it, because h
    involves only generators both maps fix.  The normalized pair is
    computed by applying these substitutions in order, so it is the image
    of (F1, F2) under their composite, up to the two nonzero equation
    scalars.  steps records each (label, mapping) in that order, with {}
    for the two equation rescalings.

    A member whose a12 and c12 share a root (y0:t0) is not quasismooth:
    y0 != 0 since mu != 0, and P = (0:y0:0:t0:0:0) lies on X.  At P both
    gradients lie in the (y, t)-plane, since g14 is in (x, z)^2, and by
    Euler's relation both are orthogonal to (2*y0, 4*t0), so the
    Jacobian has rank at most one there.

    Raises ValueError for a pair of the wrong coordinates or degrees,
    CertificateError when a required monomial is missing or a
    nondegeneracy condition fails, and InconsistencyError when a step is
    not a graded automorphism or the split shape does not read off.  The
    coefficients of w*x, z^4, w*z and v^2 that the entry gates require
    survive every step, since by weight no step can cancel them, so
    their loss inside the chain is an InconsistencyError too.
    """
    amb = F1.ambient
    _require(amb.names == X_NAMES, "expected coordinates (x,y,z,t,v,w)",
             ValueError)
    _require(F1.quasi_homogeneous_degree(_WV) == 12,
             "first equation is not quasi-homogeneous of degree 12",
             ValueError)
    _require(F2.quasi_homogeneous_degree(_WV) == 14,
             "second equation is not quasi-homogeneous of degree 14",
             ValueError)
    for mono, f, label in (
        ("w*x", F1, "w*x in F1"),
        ("z^4", F1, "z^4 in F1"),
        ("w*z", F2, "w*z in F2"),
        ("v^2", F2, "v^2 in F2"),
    ):
        _require(not QQ.is_zero(f.coefficient(mono)),
                 f"member is too special: no {label}", CertificateError)

    x, y, z, t, v, w = (amb.var(n) for n in X_NAMES)
    f1, f2 = F1, F2
    steps = []

    def apply(mapping, label):
        nonlocal f1, f2
        _require_graded_automorphism(mapping)
        sub = Substitution(amb, amb, mapping)
        f1, f2 = sub(f1), sub(f2)
        steps.append((label, mapping))

    f2 = f2.scale(QQ.inv(f2.coefficient("v^2")))
    steps.append(("scale F2 so v^2 has coefficient 1", {}))

    for _ in range(12):
        q7 = f2.coefficient_of_power("v", 1)
        zeta = f2.coefficient_of_power("w", 1)
        zeta_rest = zeta - z.scale(zeta.coefficient("z"))
        rest1 = f1.coefficient_of_power("w", 0)
        xpart = rest1 - rest1.coefficient_of_power("x", 0)
        wc = f1.coefficient_of_power("w", 1)
        if not q7.is_zero():
            apply({"v": v + q7.scale(Fraction(-1, 2))},
                  "complete the square in v")
        elif not zeta_rest.is_zero():
            az = zeta.coefficient("z")
            _require(not QQ.is_zero(az), "w*z coefficient vanished while"
                     " normalizing")
            apply({"z": z - zeta_rest.scale(QQ.inv(az))},
                  "recenter z against the w-coefficient of F2")
        elif not xpart.is_zero() or wc != x.scale(Fraction(-1)):
            c1 = wc.coefficient("x")
            _require(wc == x.scale(c1) and not QQ.is_zero(c1),
                     "the w-coefficient of F1 is not a multiple of x")
            apply({"w": (w + divexact(xpart, x)).scale(QQ.inv(-c1))},
                  "absorb the x-divisible part of F1 into w")
        else:
            break
    else:
        raise InconsistencyError("normalization loop did not stabilize")

    s4 = f1.coefficient("z^4")
    c2 = f2.coefficient("w*z")
    _require(not QQ.is_zero(s4), "z^4 coefficient vanished while normalizing")
    _require(not QQ.is_zero(c2), "w*z coefficient vanished while normalizing")
    apply({"x": x.scale(s4 * c2), "w": w.scale(QQ.inv(c2))},
          "rescale x and w")
    f1 = f1.scale(QQ.inv(s4))
    steps.append(("scale F1 so z^4 has coefficient 1", {}))

    # read off the split shape; each step checks the structural claim
    # before trusting it
    S12 = f1 + x * w
    _require(S12.variables() <= {"y", "z", "t", "v"},
             "the non-w part of F1 still involves x or w")
    slots = S12.as_univariate("z")
    _require(set(slots) <= {0, 1, 2, 4}, "unexpected z-powers in S12")
    a12 = slots.get(0, amb.zero())
    _require(a12.variables() <= {"y", "t"}, "a12 is not a form in (y, t)")
    lam = S12.coefficient((0, 1, 1, 0, 1, 0))
    _require(slots.get(1, amb.zero()) == (y * v).scale(lam),
             "the z-linear slot of S12 is not lam*y*v")
    b4 = divexact(slots.get(2, amb.zero()), y)
    _require(b4.variables() <= {"y", "t"}, "b4 is not a form in (y, t)")
    _require(slots.get(4, amb.zero()) == amb.one(),
             "z^4 is not normalized to coefficient 1")
    _require(
        S12 == a12 + (y * z * v).scale(lam) + z**4 + (z**2 * y) * b4,
        "S12 does not reassemble from its pieces",
    )

    _require(f2.degree_in("w") == 1 and f2.coefficient_of_power("w", 1) == z,
             "the w-part of F2 is not exactly z*w")
    _require(f2.coefficient_of_power("v", 1).is_zero(),
             "F2 still has a v-linear part")
    _require(f2.coefficient_of_power("v", 2) == amb.one(),
             "v^2 is not normalized to coefficient 1")
    r14 = f2 - w * z - v**2
    _require(r14.variables() <= {"x", "y", "z", "t"},
             "the residual part of F2 involves v or w")
    pure = r14.coefficient_of_power("x", 0).coefficient_of_power("z", 0)
    c12 = divexact(pure, y)
    _require(c12.variables() <= {"y", "t"}, "c12 is not a form in (y, t)")
    g14 = r14 - y * c12
    if not g14.is_zero():
        _require(g14.weight_of(_XZ) >= 2,
                 "g14 has a term outside the square of the (x, z) ideal")
        _require(g14.weight_of(_BW) >= Fraction(18, 11),
                 "g14 has a term of extraction weight below 18/11")

    mu = a12.coefficient((0, 0, 0, 3, 0, 0))
    _require(not QQ.is_zero(mu),
             "member is too special: a12 has no t^3", CertificateError)
    _require(not c12.is_zero(),
             "member is too special: c12 vanishes", CertificateError)
    a_aff, c_aff = a12.restrict(ones=("y",)), c12.restrict(ones=("y",))
    res = resultant(a_aff, c_aff, "t")
    _require(res.is_constant(), "resultant of univariate forms not constant")
    rval = res.constant_coefficient()
    _require(not QQ.is_zero(rval),
             "member is not quasismooth: a12 and c12 share a root",
             CertificateError)

    return NormalFormX1214(
        spec=X_SPEC, F1=f1, F2=f2, S12=S12, a12=a12, lam=lam, b4=b4,
        c12=c12, mu=mu, resultant=rval, steps=tuple(steps),
    )


# ---------------------------------------------------------------------------
# sampling points


class _Sampler:
    """Draw exact points on the member (or the degree-7 model).

    Both shapes end with a coordinate appearing quadratically; the
    complete intersection additionally has a final coordinate appearing
    linearly in both equations, which is eliminated first.  A draw picks
    the free coordinates at random, solves the quadratic when its
    discriminant is a square in the field, and back-substitutes.  The
    polynomials a draw evaluates are lowered once, into Evaluators.
    The Jacobian rank reads the linear and the quadratic coordinate's
    columns first (see quasismooth).

    points(n, seed) keeps the points drawn for a seed, so checks that
    share a sampler and a seed read the same points and draw each once.
    """

    def __init__(self, equations, wps, field):
        amb = wps.ambient(field)
        eqs = tuple(f.rename(amb) for f in equations)
        self.amb, self.eqs, self.field = amb, eqs, field
        names = amb.names
        if len(eqs) == 2:
            self.lin = names[-1]
            quad = names[-2]
            f1, f2 = eqs
            if f1.degree_in(self.lin) != 1 or f2.degree_in(self.lin) != 1:
                raise ValueError(
                    "expected both equations linear in the last coordinate")
            lin_coeff = f1.coefficient_of_power(self.lin, 1)
            lin_rest = f1.coefficient_of_power(self.lin, 0)
            self.linear = Evaluator((lin_coeff, lin_rest))
            g = (f2.coefficient_of_power(self.lin, 0) * lin_coeff
                 - f2.coefficient_of_power(self.lin, 1) * lin_rest)
        elif len(eqs) == 1:
            self.lin = None
            quad = names[-1]
            g = eqs[0]
        else:
            raise ValueError("expected one or two equations")
        if g.degree_in(quad) != 2:
            raise ValueError(
                f"the eliminated equation is not quadratic in {quad}")
        self.quad = quad
        self.quadratic = Evaluator(g.coefficient_of_power(quad, k)
                                   for k in (2, 1, 0))
        self.eqs_at = Evaluator(eqs)
        self.vslot = amb.index(quad)
        self.wslot = amb.index(self.lin) if self.lin else None
        self.free = [i for i in range(amb.nvars)
                     if i != self.vslot and i != self.wslot]
        self._rank = JacobianRank(
            eqs, (self.lin, quad) if self.lin else (quad,))
        self._drawn = {}

    def draw(self, rng, tries=600):
        F = self.field
        two = F.coerce(2)
        four = F.coerce(4)
        for _ in range(tries):
            pt = [F.zero()] * self.amb.nvars
            for i in self.free:
                pt[i] = F.random(rng)
            a, b, c = self.quadratic(pt)
            if F.is_zero(a):
                continue
            disc = F.sub(F.mul(b, b), F.mul(four, F.mul(a, c)))
            root = F.sqrt(disc)
            if root is None:
                continue
            pt[self.vslot] = F.mul(F.sub(root, b), F.inv(F.mul(two, a)))
            if self.wslot is not None:
                lc, rest = self.linear(pt)
                if F.is_zero(lc):
                    continue
                pt[self.wslot] = F.neg(F.mul(rest, F.inv(lc)))
            pt = tuple(pt)
            _require(all(F.is_zero(v) for v in self.eqs_at(pt)),
                     "sampled point fails the exact membership check")
            return pt
        raise CertificateError(
            "failed to sample a point on the variety within the budget")

    def points(self, n, seed=0):
        """Yield the first n points drawn with random.Random(seed).

        Points already drawn for the seed are yielded again; the rest
        are drawn, from the same generator, as they are needed.
        """
        rng, drawn = self._drawn.setdefault(seed, (random.Random(seed), []))
        for i in range(n):
            if i == len(drawn):
                drawn.append(self.draw(rng))
            yield drawn[i]

    def quasismooth(self, pt):
        """Exact Jacobian rank equals the codimension at pt.

        The rank reads the columns of the linear (w) and the quadratic
        (v) coordinate first, and the others only if those two fall
        short of full row rank.  For the normal form (F1, F2) of X they
        are (-x, z) and (lam*y*z, 2*v), of determinant
        -(2*x*v + lam*y*z^2), and for the degree-7 model the v column is
        u*(2*v + lam*y*z^2), so at almost every point no other column is
        read.  Each column is derived once per sampler, when first read.
        """
        return self._rank(pt) == len(self.eqs)


# ---------------------------------------------------------------------------
# census of X


@record
class CensusX:
    """Singular locus of the member, with sampled smoothness evidence."""

    spec: WCISpec
    singular: dict
    samples: int

    @property
    def fano_index(self):
        return self.spec.fano_index


# the sampled quasismoothness evidence of the census of X needs few
# points: the coordinate points and the singular stratum are certified
# exactly, so link_stages caps the census draws at this count
CENSUS_SAMPLES = 20


def singularity_census_X(nf, samples=CENSUS_SAMPLES, seed=0, sampler=None):
    """Classify all coordinate points of the member and its strata.

    Expects exactly one singular coordinate point, of terminal type
    1/11(1,2,9), and spot-checks quasismoothness at the first samples
    points that sampler draws for seed: at each of them the Jacobian of
    (F1, F2) has exact rank 2, so the member is quasismooth there.
    link_stages passes the sampler of the involution check, so these
    are the first min(samples, CENSUS_SAMPLES) involution points;
    without one, the census draws its own over F_(2^31-1).

    Only the x-point can fail for a normal form: the y-point lies on X
    only if a12 and c12 share a root, z^4, t^3 (mu != 0) and v^2 keep
    the z-, t- and v-points off X, and x*w and z*w fix the type of the
    w-point.  So a census with another singular point or another type is
    an InconsistencyError.

    The only positive-dimensional singular stratum of the ambient, the
    (y, t)-locus x = z = v = w = 0, misses the member by the gates of
    normal_form_X1214.  On it F1 = -x*w + S12 restricts to a12, since
    S12 reassembles as a12 + lam*y*z*v + z^4 + z^2*y*b4, and F2 = z*w
    + v^2 + y*c12 + g14 restricts to y*c12, since g14 lies in (x, z)^2.
    A point (y0:t0) of the stratum on the member has y0 != 0, because
    a12(0, t0) = mu*t0^3 with mu != 0, so it is a common root of a12
    and c12, which the nonzero resultant Res_t(a12, c12) excludes.
    """
    wps = nf.spec.wps
    eqs = (nf.F1, nf.F2)
    reports = tuple(classify_quotient_singularity(eqs, wps, n)
                    for n in wps.names)
    singular = {}
    for rep in reports:
        if not rep.on_variety:
            continue
        _require(rep.quasismooth,
                 f"coordinate point at {rep.point} lies on the member"
                 " but is not quasismooth", CertificateError)
        if rep.quotient is not None and rep.quotient.r > 1:
            singular[rep.point] = rep.quotient
    _require(set(singular) == {"w"},
             "expected the weight-11 coordinate point to be the only"
             f" singular coordinate point, found {sorted(singular)}")
    quot = singular["w"]
    _require(quot.type_label() == "1/11(1,2,9)",
             f"unexpected quotient type {quot.type_label()} at the"
             " weight-11 point")
    _require(quot.is_terminal(), "the 1/11 point is not terminal")

    sampler = sampler or _Sampler(eqs, wps, GF(DEFAULT_PRIME))
    for pt in sampler.points(samples, seed):
        _require(sampler.quasismooth(pt),
                 "a sampled point of the member is not quasismooth",
                 CertificateError)

    return CensusX(spec=nf.spec, singular=singular, samples=samples)


# ---------------------------------------------------------------------------
# the link sigma to the degree-7 model


@record
class NormalFormHatX:
    """The degree-7 model in P(1,1,1,2,3), split into named pieces."""

    F: QPolynomial
    W: QPolynomial
    a6: QPolynomial
    b2: QPolynomial
    c6: QPolynomial
    g6: QPolynomial
    lam: Fraction
    mu: Fraction


@record
class Verdict:
    """Outcome for one candidate center."""

    kind: str                   # ElementaryLink | NotSarkisov | NotMaximal
    detail: str = ""            # | CitedExclusion
    target: WCISpec | None = None
    reference: str | None = None


@record
class LinkReport:
    """Everything recorded about one candidate center."""

    name: str
    center: str
    verdict: Verdict
    extraction: object | None = None
    trace: object | None = None
    cones: object | None = None
    exceptional: object | None = None


@record
class SigmaLink:
    """The elementary link from the 1/11 point, fully certified."""

    trace: object
    cones: object
    extraction: object
    hat: NormalFormHatX
    sigma: tuple
    sigma_inverse: tuple
    report: LinkReport


def construct_link_sigma(nf):
    """Run the two-ray game of the 1/11-point blowup and extract hatX.

    The game must end with a divisorial contraction of the x-coordinate
    divisor onto the degree-7 hypersurface model; the first wall must be
    an isomorphism for the member (certified by restricting the
    equations to the wall locus), and the anticanonical class must lie
    strictly inside the movable cone.  The resulting model is read off
    exactly and cross-checked against affine chart identities.

    No gate here can reject a member that passed normal_form_X1214, so
    each failure is an InconsistencyError.  The game itself, its wall
    pattern included, is played on the toric blowup of P(1,2,3,4,7,11)
    alone and never reads the equations.  The first wall, (y, t), is an
    isomorphism for every normal form: on both of its sides, v = z = x
    = 0 and u = w = 0, the transported F1 and F2 restrict to a12(y, t)
    and y*c12(y, t), since every other monomial involves x, z or v on
    the first side and w or a positive power of u on the second.
    certify_stratum_empty decides that binary pair.  On t = 1 the two
    share no root: y = 0 is not a root of a12, since mu != 0, and any
    other common root is a root of Res_t(a12, c12), which the normal
    form requires nonzero.  On t = 0 they are the y^6 term of a12 and
    the y^7 term of F2; both vanish only if a12(1, 0) = c12(1, 0) = 0,
    which also makes the resultant vanish, so one is a nonzero monomial
    in y, and y = t = 0 is unstable.
    """
    amb = nf.F1.ambient
    # discrepancy record of the extraction, cross-checked chartwise
    record, _, agree = blowup_at_point(
        X_WPS, (nf.F1, nf.F2), "w", KAWAMATA_WEIGHTS)
    _require(agree, "chart orders disagree with the weight filtration")
    _require(record.orders == (Fraction(6, 11), Fraction(7, 11)),
             f"unexpected extraction orders {record.orders}")
    _require(record.discrepancy == Fraction(1, 11),
             f"unexpected extraction discrepancy {record.discrepancy}")

    trace, (t1, t2), cones = blowup_game(
        X_WPS, (nf.F1, nf.F2), "w", KAWAMATA_WEIGHTS)
    _require(cones.bidegrees == (DivisorClass(12, 6), DivisorClass(14, 7)),
             "unexpected bidegrees for the transported F1 and F2")
    _require(trace.nmodels == 3, "expected a trace of three models")
    _require(tuple(wc.wall_vars for wc in trace.walls) == (("y", "t"), ("v",)),
             "unexpected wall pattern in the two-ray game")
    _require(trace.walls[1].plus_vars == ("z", "x"),
             "the second wall does not contract the (z, x)-locus")
    _require(trace.end.kind == "divisorial" and trace.end.contracted == "x",
             "the game does not end with a divisorial contraction of x")
    _require(trace.entry.kind == "divisorial"
             and trace.entry.contracted == "u",
             "the game does not start by contracting the exceptional"
             " divisor")
    _require(cones.wall_reports[0].isomorphism,
             "the member meets the first wall locus (v = z = x = 0);"
             " its small modification is not an isomorphism there")
    _require(not cones.wall_reports[1].isomorphism,
             "the second wall unexpectedly certifies as an isomorphism")
    _require(cones.anticanonical == DivisorClass(2, 1),
             f"unexpected anticanonical class {cones.anticanonical}")
    _require(cones.anticanonical_in_mov_interior,
             "the anticanonical class is not inside the movable cone")

    # read off the degree-7 model: on the last chart x = 1 the first
    # equation solves w = W and the second becomes the hypersurface
    tamb = t1.ambient
    _require(t1.coefficient_of_power("w", 1) == tamb.var("x").scale(-1),
             "the transported F1 is not of the shape -x*w + W")
    Wt = t1.coefficient_of_power("w", 0).restrict(ones=("x",))
    hat_amb = HAT_WPS.ambient()
    W = Wt.rename(hat_amb)
    F = substitute(t2, {"x": tamb.one(), "w": Wt}, tamb).rename(hat_amb)
    hat_wv = HAT_WPS.weight_vector()
    _require(F.quasi_homogeneous_degree(hat_wv) == 7,
             "the extracted model is not a degree-7 hypersurface")

    u, yh, zh, th, vh = (hat_amb.var(n) for n in HAT_WPS.names)
    a6 = nf.a12.rename(hat_amb)
    b2 = nf.b4.rename(hat_amb)
    c6 = nf.c12.rename(hat_amb)
    expected_W = (a6 + (yh * zh * vh * u).scale(nf.lam) + zh**4 * u**2
                  + (zh**2 * yh * u) * b2)
    _require(W == expected_W,
             "the solved w does not match a6 + lam*y*z*v*u + z^4*u^2"
             " + z^2*y*u*b2")
    g6 = divexact(F - zh * W - yh * c6 - vh**2 * u, u)
    _require("v" not in g6.variables(), "g6 involves v")
    _require(F == zh * W + u * vh**2 + yh * c6 + u * g6,
             "the degree-7 model does not reassemble from its pieces")

    # affine chart identities pinning sigma: on x = 1 the hypersurface
    # equation is F2 with w replaced by S12, and W restricts to S12
    chartX = substitute(nf.F2, {"x": amb.one(), "w": nf.S12},
                        amb).rename(hat_amb)
    _require(chartX == F.restrict(ones=("u",)),
             "chart identity fails: F(u=1) != F2(x=1, w=S12)")
    _require(W.restrict(ones=("u",)).rename(amb) == nf.S12,
             "chart identity fails: W(u=1) != S12")

    x, y, z, t, v, w = (amb.var(n) for n in X_NAMES)
    sigma = (x**3, x * y, z, x**2 * t, x**2 * v)
    sigma_inverse = (u, u * yh, u**2 * zh, u**2 * th, u**4 * vh,
                     W * u**5)
    xwv = X_WPS.weight_vector()
    for entry, hw in zip(sigma, HAT_WPS.weights):
        _require(entry.quasi_homogeneous_degree(xwv) == 3 * hw,
                 "sigma is not graded with factor 3")
    for entry, xw in zip(sigma_inverse, X_WEIGHTS):
        _require(entry.quasi_homogeneous_degree(hat_wv) == xw,
                 "the inverse of sigma is not graded with factor 1")

    hat = NormalFormHatX(F=F, W=W, a6=a6, b2=b2, c6=c6, g6=g6, lam=nf.lam,
                         mu=nf.mu)
    report = LinkReport(
        name="sigma",
        center="the 1/11(1,2,9) point of X",
        verdict=Verdict(
            kind="ElementaryLink",
            detail="divisorial extraction with weights (6,1,7,2,9)/11,"
                   " two-ray game ending in a divisorial contraction onto"
                   " a degree-7 hypersurface in P(1,1,1,2,3)",
            target=HAT_SPEC,
        ),
        extraction=record,
        trace=trace,
        cones=cones,
    )
    return SigmaLink(trace=trace, cones=cones, extraction=record, hat=hat,
                     sigma=sigma, sigma_inverse=sigma_inverse, report=report)


# ---------------------------------------------------------------------------
# census of the degree-7 model


@record
class CensusHatX:
    """Singular locus of the degree-7 model, with the germ table."""

    reports: dict
    singular: dict
    germ: object


def singularity_census_hatX(hat):
    """Classify the coordinate points and the qhat germ of the model.

    Expected census: the two weight-1 points off the model, a terminal
    1/2(1,1,1) point, a terminal 1/3(1,1,2) point, and the point qhat at
    the z-coordinate, the image of the divisor sigma contracts, where the
    model is not quasismooth.  That last check cannot fail, so it is an
    InconsistencyError: by sigma's reassembly identity the model has no
    monomial z^7, z^6*u, z^6*y, z^5*t or z^4*v.  The curve
    (u = y = t = 0) lies on the model and is quasismooth away from qhat.
    The germ at qhat is compound E6; its discrepancy table determines
    how many divisors of discrepancy one lie over it.
    """
    F = hat.F
    hat_amb = F.ambient
    reports = {n: classify_quotient_singularity((F,), HAT_WPS, n)
               for n in HAT_WPS.names}
    for n in ("u", "y"):
        _require(not reports[n].on_variety,
                 f"member too special: the {n}-coordinate point lies on"
                 " the degree-7 model", CertificateError)
    for n, label in (("t", "1/2(1,1,1)"), ("v", "1/3(1,1,2)")):
        rep = reports[n]
        _require(rep.on_variety and rep.quasismooth,
                 f"the {n}-coordinate point is not a quasismooth point"
                 " of the model")
        _require(rep.quotient.type_label() == label,
                 f"unexpected quotient {rep.quotient.type_label()} at"
                 f" the {n}-coordinate point")
        _require(rep.quotient.is_terminal(),
                 f"the {n}-coordinate point is not terminal")
    singular = {n: reports[n].quotient for n in ("t", "v")}
    _require(reports["z"].on_variety and not reports["z"].quasismooth,
             "the image of the contracted divisor is not the expected"
             " non-quasismooth point at the z-coordinate")

    # the coordinate curve u = y = t = 0 lies on the model; along it the
    # only nonvanishing restricted derivative is v^2 in the u-slot, so
    # the model is quasismooth there away from qhat = (v = 0)
    on_curve = F.restrict(zeros=("u", "y", "t"))
    _require(on_curve.is_zero(),
             "the coordinate curve (u = y = t = 0) is not on the model")
    _, entries = quasismooth_on_stratum((F,), ("u", "y", "t"))
    _require(len(entries) == 1 and entries[0][1] == "u"
             and entries[0][2] == hat_amb.monomial((0, 0, 0, 0, 2), 1),
             "the restricted derivative along the curve is not exactly"
             " v^2 in the u-slot")

    # the germ at qhat in the affine chart z = 1, in filtration
    # coordinates (x, y, z, t) = (u, t, y, v) of weights (3, 2, 1, 2)
    amb4 = Ambient(("x", "y", "z", "t"))
    f_germ = F.restrict(ones=("z",)).rename(
        amb4, {"u": "x", "t": "y", "y": "z", "v": "t"})
    analysis = analyze_cE6_germ(f_germ)
    e_verdict = analysis.e_verdict
    _require(e_verdict.is_irreducible,
             "the exceptional divisor E over qhat is not certified"
             f" irreducible ({e_verdict.kind})", CertificateError)
    _require(analysis.parameters["lambda"] == hat.lam,
             "the germ coupling does not match the member's lam")
    expected = 4 if hat.lam != 0 else 3
    _require(analysis.low_discrepancy_count == expected,
             f"expected {expected} divisors of discrepancy one over"
             f" qhat, found {analysis.low_discrepancy_count}")

    return CensusHatX(reports=reports, singular=singular, germ=analysis)


# ---------------------------------------------------------------------------
# the exclusion condition at qhat

_COND_WPS = WPS((1, 1, 1, 2, 3), ("y", "z", "x", "t", "w"))

# the two discrepancy-one blowups of qhat, the x-coordinate point of
# _COND_WPS; the second weights the re-embedding coordinate s too
_WEIGHTS1 = {"y": 4, "z": 1, "t": 2, "w": 1}
_WEIGHTS2 = {"y": 2, "z": 1, "t": 2, "w": 1, "s": 4}


def condition_check(hat):
    """The model at qhat in exclusion coordinates, and h = (F4 + F5)/y.

    The coordinates (y, z, x, t, w) rename (u, y, z, t, v), so that qhat
    is the x-coordinate point.  Returns (F, h): F the renamed model, and
    y*h the sum F4 + F5 of its parts of weight four and five for
    w2 = (2,1,0,2,1), the weights of the (2,1,2,1,4) blowup, which
    run_exclusion_blowups re-embeds by s = h.

    Nothing here can fail on a model that construct_link_sigma accepted.
    Its reassembly identity reads, in these coordinates,

        F = x*a6(z,t) + z*c6(z,t) + y*w^2 + lam*x^2*y*z*w + x^5*y^2
            + x^3*y*z*b2(z,t) + y*g6,

    and by its chart identity a monomial x^a*y^b*z^c*t^d of g14 gives
    the monomial y^(7-s)*z^b*x^c*t^d of y*g6, with s = b + c + 2*d.  Here
    s <= 6, since construct_link_sigma divides u*g6 by u exactly (the
    normal form's bound on g14), and a = 14 - 2*b - 3*c - 4*d >= 0 gives
    c <= 4, with c = 4 only if b + 2*d <= 1.  So a monomial of y*g6 has
    weight 28 - 3*s - c >= 7 for w1 = (4,1,0,2,1), the weights of the
    (4,1,2,1) blowup, and weight 14 - s - c >= 5 for w2.  Hence:

      * the w1-part of weight six is F6 = y*w^2 + lam*x^2*y*z*w + x*a6,
        and F6 at x = 1 is the exceptional equation of the (4,1,2,1)
        blowup;
      * the w2-part of weight four is y*w^2 + x^5*y^2 + lam*x^2*y*z*w;
        x*a6 and z*c6 have w2-weights 6 and 7, and every other term is
        divisible by y, so y divides F4 + F5.
    """
    camb = _COND_WPS.ambient(hat.F.ambient.field)
    F = hat.F.rename(
        camb, {"u": "y", "y": "z", "z": "x", "t": "t", "v": "w"})
    w2 = blowup_weight_vector(_COND_WPS, "x", _WEIGHTS2)
    low = F.w_component(w2, 4) + F.w_component(w2, 5)
    try:
        h = divexact(low, camb.var("y"))
    except ExactDivisionError:
        h = None
    _require(h is not None,
             "the weight-four and weight-five parts at qhat are not"
             " divisible by y")
    return F, h


# ---------------------------------------------------------------------------
# exclusion games at qhat


def _not_a_link(center, rec, agree, cones, exceptional):
    """Certify that a discrepancy-one blowup at qhat starts no link.

    The chart orders must agree, the discrepancy must be one, the game
    must end by contracting the y-divisor, the movable cone must be
    <(1,0), (1,1)> with -K = (1,1) on its boundary, and the exceptional
    divisor must be certified irreducible.  The blowup is named by its
    weights, for example (4,1,2,1).
    """
    label = str(rec.weights)
    _require(agree, f"chart orders disagree for the {label} blowup")
    _require(rec.discrepancy == 1,
             f"unexpected discrepancy {rec.discrepancy} for the {label}"
             " blowup")
    end = cones.trace.end
    _require(end.kind == "divisorial" and end.contracted == "y",
             f"the {label} game does not end by contracting the"
             " y-divisor")
    _require(cones.mov == ConeZ2((1, 0), (1, 1)),
             f"unexpected movable cone {cones.mov} for the {label} game")
    _require(cones.anticanonical == DivisorClass(1, 1),
             f"unexpected anticanonical class for the {label} game")
    _require(cones.anticanonical_on_mov_boundary,
             "the anticanonical class is not on the movable-cone"
             f" boundary for the {label} game")
    _require(exceptional.is_irreducible,
             f"the exceptional divisor of the {label} blowup is not"
             f" certified irreducible ({exceptional.kind})",
             CertificateError)
    detail = (
        "the anticanonical class lies on the boundary of the movable"
        " cone, on the ray of the divisor class of"
        f" {cones.mov_boundary_ray_vars()};"
        " the game never reaches an anticanonically positive second leg"
    )
    return LinkReport(
        name="blowup-" + "-".join(map(str, rec.weights.nums)),
        center=center,
        verdict=Verdict(kind="NotSarkisov", detail=detail),
        extraction=rec, trace=cones.trace, cones=cones,
        exceptional=exceptional,
    )


def run_exclusion_blowups(hat):
    """Certify the two exceptional weighted blowups at qhat.

    The (4,1,2,1) blowup runs directly; the (2,1,2,1,4) blowup needs the
    re-embedding F = y*s + G, s = h with h = (F4 + F5)/y from
    condition_check, verified exactly.  For both, the discrepancy is one
    (cross-checked against blowup charts), the exceptional divisor is
    irreducible, and the two-ray game of the blowup puts the
    anticanonical class on the boundary of the movable cone, which rules
    the blowup out as the start of an elementary link.
    """
    Fc, h = condition_check(hat)
    camb = Fc.ambient
    field = camb.field
    center = "qhat, the compound E6 point of the degree-7 model"

    # first blowup: directly, in the chart x = 1.  Every verdict of the
    # pipeline is decided by one of the two rules of
    # irreducibility_verdict on a member past the normal form's gates.  The exceptional equation here is
    # y*w^2 + lam*y*z*w + a6(z, t) (see condition_check): quadratic in w
    # with coprime coefficients, and its discriminant has t-degree
    # exactly 3, with t^3 coefficient -4*mu*y and mu != 0.  The
    # exceptional model of the (2,1,2,1,4) blowup is linear in s.  The
    # cE6 E-part at qhat is linear in t with coefficient lam*x*z when
    # lam != 0, and for lam = 0 it is quadratic in x with a discriminant
    # of y-degree 3.
    rec1, _, agree1 = blowup_at_point(_COND_WPS, (Fc,), "x", _WEIGHTS1)
    exc1 = irreducibility_verdict(rec1.exceptional_equations[0])
    _, _, cones1 = blowup_game(_COND_WPS, (Fc,), "x", _WEIGHTS1)
    _require(cones1.bidegrees == (DivisorClass(7, 6),),
             "unexpected bidegree for the (4,1,2,1) transport")
    report1 = _not_a_link(center, rec1, agree1, cones1, exc1)

    # second blowup: after re-embedding by s = h
    yv = camb.var("y")
    G = Fc - yv * h
    ext_wps = WPS((1, 1, 1, 2, 3, 6), ("y", "z", "x", "t", "w", "s"))
    eamb = ext_wps.ambient(field)
    sv = eamb.var("s")
    F1e = eamb.var("y") * sv + G.rename(eamb)
    F2e = sv - h.rename(eamb)
    _require(substitute(F1e, {"s": h.rename(eamb)}, eamb) == Fc.rename(eamb),
             "eliminating s does not recover the model equation")
    ewv = ext_wps.weight_vector()
    _require(F1e.quasi_homogeneous_degree(ewv) == 7
             and F2e.quasi_homogeneous_degree(ewv) == 6,
             "the re-embedded pair does not have degrees (7, 6)")

    rec2, _, agree2 = blowup_at_point(ext_wps, (F1e, F2e), "x", _WEIGHTS2)
    _require(rec2.orders == (Fraction(6), Fraction(2)),
             f"unexpected blowup orders {rec2.orders} for the"
             " (2,1,2,1,4) blowup")

    # exceptional model: eliminate y from the second lowest-weight
    # equation s - h, whose y-coefficient is -1, from the x^5*y of h
    low1, low2 = rec2.exceptional_equations
    ycoeff = low2.coefficient_of_power("y", 1)
    _require(low2.degree_in("y") <= 1 and ycoeff.is_constant()
             and not field.is_zero(ycoeff.constant_coefficient()),
             "cannot eliminate y from the exceptional equations")
    yimg = low2.coefficient_of_power("y", 0).scale(
        field.neg(field.inv(ycoeff.constant_coefficient())))
    e_model = substitute(low1, {"y": yimg}, low1.ambient)
    _require("y" not in e_model.variables(),
             "the exceptional model still involves y")
    exc2 = irreducibility_verdict(e_model)

    trace2, _, cones2 = blowup_game(ext_wps, (F1e, F2e), "x", _WEIGHTS2)
    _require(cones2.bidegrees == (DivisorClass(7, 6), DivisorClass(6, 2)),
             "unexpected bidegrees for the (2,1,2,1,4) transport")
    _require(tuple(wc.wall_vars for wc in trace2.walls) == (("w",), ("s",)),
             "unexpected wall pattern in the (2,1,2,1,4) game")
    _require(cones2.wall_reports[0].isomorphism,
             "the w-wall of the (2,1,2,1,4) game is not certified an"
             " isomorphism")
    _require(cones2.nef_cones[0] == ConeZ2((1, 0), (3, 2)),
             "unexpected nef cone after merging the w-wall")
    report2 = _not_a_link(center, rec2, agree2, cones2, exc2)
    return report1, report2


# ---------------------------------------------------------------------------
# curves of low degree through qhat


@record
class CurveExclusion:
    """The computed values of the degree-one curve exclusion."""

    section: QPolynomial        # the (u = y = 0) section, mu*z*t^3
    alpha: Fraction             # the u^2*z^5 coefficient of the model


@lru_cache(maxsize=2)
def _curve_maps(hat_amb):
    """The maps exclude_degree_one_curves applies, on one model ambient.

    None depends on the member: the general graph t = T(u,y,z),
    v = V(u,y,z) into the ambient of its 14 parameters, the candidate
    graphs t = a*z^2 + b*y*z + c*y^2 on the surface (u = 0), and the
    binary chart y = 1, t = c.  They are built once per model ambient,
    and each Substitution keeps the powers and products it has
    expanded, so every member after the first reuses the expansion of
    the graph.
    """
    field = hat_amb.field
    params = ("a1", "a2", "a3", "a4", "a5",
              "b1", "b2", "b3", "b4", "b5", "b6", "b7", "b8", "b9")
    ext = Ambient(("u", "y", "z") + params, field)
    ue, ye, ze = ext.var("u"), ext.var("y"), ext.var("z")
    a = {k: ext.var(f"a{k}") for k in range(1, 6)}
    b = {k: ext.var(f"b{k}") for k in range(1, 10)}
    T = ze * (a[1] * ue + a[2] * ye) + (
        a[3] * ue**2 + a[4] * ue * ye + a[5] * ye**2)
    V = (ze**2 * (b[1] * ue + b[2] * ye)
         + ze * (b[3] * ue**2 + b[4] * ue * ye + b[5] * ye**2)
         + (b[6] * ue**3 + b[7] * ue**2 * ye + b[8] * ue * ye**2
            + b[9] * ye**3))
    ext3 = Ambient(("y", "z", "a", "b", "c"), field)
    ya, za = ext3.var("y"), ext3.var("z")
    av, bv, cv = ext3.var("a"), ext3.var("b"), ext3.var("c")
    return (
        Substitution(hat_amb, ext, {"t": T, "v": V}),
        Substitution(hat_amb, ext3,
                     {"t": av * za**2 + bv * ya * za + cv * ya**2}),
        Substitution(hat_amb, ext3, {"y": ext3.one(), "t": cv}),
    )


def exclude_degree_one_curves(hat):
    """Certify that no curve of degree one passes through qhat.

    Three exact computations: (i) the section of the model by
    (u = y = 0) is the monomial mu*z*t^3, so it splits into coordinate
    lines; (ii) substituting the general graph t = T(u,y,z),
    v = V(u,y,z) of admissible degrees into the model leaves
    alpha*u^2 * z^5 as the entire top z-bucket, so any such graph on the
    model lies inside (u = 0); (iii) on the surface (u = 0) the
    candidate graphs t = a*z^2 + b*y*z + c*y^2 force a = 0 then b = 0
    by the cubes mu*a^3 and mu*b^3*y^3, leaving y^6 times the binary
    pair z*a6(1, c) + c6(1, c).  It vanishes identically only at a common
    root c of a6(1, t) and c6(1, t).  a6 and c6 are a12 and c12 renamed,
    and the gate "a12 and c12 share a root" of normal_form_X1214, which
    requires Res_t(a12, c12) != 0, certifies that there is none.
    """
    F = hat.F
    hat_amb = F.ambient
    field = hat_amb.field

    section = F.restrict(zeros=("u", "y"))
    _require(section == hat_amb.monomial((0, 0, 1, 3, 0), hat.mu),
             "the section of the model by (u = y = 0) is not mu*z*t^3")

    graph, surface_graph, binary = _curve_maps(hat_amb)
    ext = graph.target
    phi = graph(F)
    buckets = phi.as_univariate("z")
    alpha = F.coefficient((2, 0, 5, 0, 0))
    _require(max(buckets) == 5
             and buckets[5] == ext.monomial(
                 (2,) + (0,) * (ext.nvars - 1), alpha)
             and not field.is_zero(alpha),
             "the graph substitution does not isolate alpha*u^2 in the"
             " top z-bucket")

    surface_eq = F.restrict(zeros=("u",))
    yh, zh = hat_amb.var("y"), hat_amb.var("z")
    _require(surface_eq == zh * hat.a6 + yh * hat.c6,
             "the surface (u = 0) is not z*a6 + y*c6")
    ext3 = binary.target
    ya, za = ext3.var("y"), ext3.var("z")
    s2 = surface_graph(surface_eq)
    s3 = s2.restrict(zeros=("a",))
    s4 = s3.restrict(zeros=("b",))
    a_c, c_c = binary(hat.a6), binary(hat.c6)
    _require(s2.coefficient_of_power("z", 7)
             == ext3.monomial((0, 0, 3, 0, 0), hat.mu)
             and s3.coefficient_of_power("z", 4)
             == ext3.monomial((3, 0, 0, 3, 0), hat.mu)
             and s4 == ya**6 * (za * a_c + ya * c_c),
             "the surface parameter count does not reduce to the binary"
             " pair")
    return CurveExclusion(section=section, alpha=alpha)


# ---------------------------------------------------------------------------
# involutions


@record
class InvolutionData:
    """The biregular involution of the model and its lift to X.

    chi is the deck involution's image of v; it fixes u, y, z and t.
    """

    chi: QPolynomial
    iota: tuple
    scale_degree: int
    valuations: tuple


def involution_tuple(nf, sigma_inverse, lam=None):
    """The candidate birational involution of X with coupling lam.

    Composes the inverse of sigma with the twisted copy of sigma whose
    v-image is -x^2*v - lam*x*y*z^2, reduces the w-entry modulo F1, and
    divides out the common x-power.  No verification happens here; pass
    a wrong lam to produce a negative control.
    """
    if lam is None:
        lam = nf.lam
    amb = nf.F1.ambient
    x, y, z, t, v, w = (amb.var(n) for n in X_NAMES)
    hat_amb = sigma_inverse[0].ambient
    ximg = {
        "u": x**3,
        "y": x * y,
        "z": z,
        "t": x**2 * t,
        "v": (x**2 * v).scale(Fraction(-1)) - (x * y * z**2).scale(lam),
    }
    sub = Substitution(hat_amb, amb, ximg)
    raw = [sub(entry) for entry in sigma_inverse]
    raw[5] = raw[5] - x**21 * nf.F1
    k = min(entry.order_in("x") // wt
            for entry, wt in zip(raw, X_WEIGHTS))
    return tuple(divexact(entry, x**(k * wt)) if k else entry
                 for entry, wt in zip(raw, X_WEIGHTS))


def build_involutions(nf, sigma_link):
    """Build and exactly verify the involutions attached to the link.

    chi is the deck involution v -> -v - lam*y*z^2 of the degree-7
    model; it preserves the model equation exactly and squares to the
    identity.  Composing sigma, chi and the inverse of sigma yields the
    involution iota of X, verified by the exact equivariance
    F1(iota) = x^(12m)*F1 and F2(iota) = x^(14m)*F2 with m + 1 the
    grading degree of iota, and by squaring to the identity on the
    chart x = 1.  For lam != 0 the composite has grading degree two and
    is genuinely birational; for lam = 0 it reduces all the way to the
    biregular coordinate involution negating v, because the two
    extractions over qhat coincide.  Distinctness is also witnessed by
    the valuations of v along the germ filtration at qhat.
    """
    hat = sigma_link.hat
    hat_amb = hat.F.ambient
    uh, yh, zh, th, vh = (hat_amb.var(n) for n in HAT_WPS.names)
    vimg = vh.scale(Fraction(-1)) - (yh * zh**2).scale(hat.lam)
    chi = Substitution(hat_amb, hat_amb, {"v": vimg})
    _require(chi(hat.F) == hat.F,
             "the deck involution does not preserve the model")
    _require(substitute(vimg, {"v": vimg}, hat_amb) == vh,
             "the deck involution does not square to the identity")

    amb = nf.F1.ambient
    x = amb.var("x")
    iota = involution_tuple(nf, sigma_link.sigma_inverse)
    imap = dict(zip(X_NAMES, iota))
    xwv = X_WPS.weight_vector()
    scale_degree = int(iota[0].quasi_homogeneous_degree(xwv))
    _require(scale_degree == (2 if nf.lam != 0 else 1),
             "the grading degree of the composite does not match the"
             " vanishing of lam")
    m = scale_degree - 1
    apply_iota = Substitution(amb, amb, imap)
    _require(apply_iota(nf.F1) == nf.F1 * x**(12 * m),
             "the involution is not equivariant on F1")
    _require(apply_iota(nf.F2) == nf.F2 * x**(14 * m),
             "the involution is not equivariant on F2")
    chart = {n: e.restrict(ones=("x",)) for n, e in imap.items()}
    apply_chart = Substitution(amb, amb, chart)
    _require(all(apply_chart(chart[n]) == amb.var(n) for n in X_NAMES[1:])
             and apply_chart(chart["x"]) == amb.one(),
             "the involution does not square to the identity on the chart"
             " x = 1")

    # germ filtration at qhat in the chart z = 1: weights (3,1,0,2,2)
    # on (u,y,z,t,v); v has valuation 2, its chi-image has valuation 1
    # exactly when lam != 0
    wq = WeightVector((3, 1, 0, 2, 2), 1)
    val_v = vh.weight_of(wq)
    val_chi = vimg.weight_of(wq)
    _require((val_v != val_chi) == (hat.lam != 0),
             "the valuation witness disagrees with the vanishing of lam")

    return InvolutionData(chi=vimg, iota=iota, scale_degree=scale_degree,
                          valuations=(val_v, val_chi))


@record
class InvolutionCheck:
    """Sampled verification of a candidate automorphism tuple."""

    samples: int
    passed: int


def verify_involution(equations, wps, images, samples=100, seed=0,
                      sampler=None):
    """Check an involution tuple on sampled points of the variety.

    At each of the first samples points that sampler draws for seed,
    the tuple must map the point to a point of the variety, and applying
    it twice must return the starting point up to the weighted
    coordinate scaling: at those points the tuple is defined, lands on
    the variety and is its own inverse.  sampler must sample equations
    in wps; without one, the check draws its own over F_(2^31-1).
    link_stages passes the sampler of the census of X, so the first
    min(samples, CENSUS_SAMPLES) points are the ones the census checked
    for quasismoothness.  Returns a report instead of
    raising, so wrong tuples (negative controls) simply fail.
    """
    sampler = sampler or _Sampler(equations, wps, GF(DEFAULT_PRIME))
    field = sampler.field
    entries = Evaluator(f.rename(sampler.amb) for f in images)
    passed = 0
    for pt in sampler.points(samples, seed):
        image = entries(pt)
        good = all(field.is_zero(v) for v in sampler.eqs_at(image))
        if good:
            twice = entries(image)
            if field.is_zero(pt[0]) or field.is_zero(twice[0]):
                good = False
            else:
                scale = field.mul(twice[0], field.inv(pt[0]))
                good = all(
                    twice[j] == field.mul(field.pow(scale, wt), pt[j])
                    for j, wt in enumerate(wps.weights))
        if good:
            passed += 1
    return InvolutionCheck(samples=samples, passed=passed)


# ---------------------------------------------------------------------------
# the classification


@record
class LinkClassification:
    """All candidate centers of the member, each settled.

    The census of X, the curve exclusion and the involutions are read
    from their link_stages artifacts; the hatX-curves report holds the
    curve exclusion.
    """

    normal_form: NormalFormX1214
    sigma: SigmaLink
    hat_census: CensusHatX
    exclusions: tuple
    involution_check: InvolutionCheck
    reports: tuple
    germ_count: int
    divisor_links: dict
    elementary_from_qhat: int
    citations: tuple
    solid: bool
    summary: str


def link_stages(F1, F2, samples=40, seed=0, field=None):
    """Run the pipeline on a degree-(12, 14) member, one stage at a time.

    Yields (name, artifact) as each stage completes, in this order:
    "normal-form", "census", "sigma", "hat-census", "exclusions",
    "curves", "involutions", "involution-check", and last
    "classification", whose artifact is the assembled
    LinkClassification.  A consumer that stops early skips the later
    stages; a stage that fails raises, so the stages seen before it are
    the ones that passed.  seed drives the sampled checks over field,
    by default F_(2^31-1).  One sampler draws samples points on X, each
    once: the census of X checks that X is quasismooth at the first
    min(samples, CENSUS_SAMPLES) of them, and the involution check that
    the birational involution maps every one of them to X and is its own
    inverse there.

    Exactly one elementary link leaves X (from the 1/11 point, to the
    degree-7 model); on the model, the qhat germ carries one link back
    for lam = 0 and additionally its twist by the deck involution for
    lam != 0, all other centers being excluded by computed certificates
    or cited statements.  The number of links at qhat is 1 + (lam != 0),
    and singularity_census_hatX requires the germ's count of
    discrepancy-one divisors to be 3 + (lam != 0), one per link at qhat
    and one per exclusion blowup.
    """
    nf = normal_form_X1214(F1, F2)
    yield "normal-form", nf
    sampler = _Sampler((nf.F1, nf.F2), X_WPS, field or GF(DEFAULT_PRIME))
    census = singularity_census_X(nf, samples=min(samples, CENSUS_SAMPLES),
                                  seed=seed, sampler=sampler)
    yield "census", census
    sigma = construct_link_sigma(nf)
    yield "sigma", sigma
    hat = sigma.hat
    hat_census = singularity_census_hatX(hat)
    yield "hat-census", hat_census
    exclusions = run_exclusion_blowups(hat)
    yield "exclusions", exclusions
    curves = exclude_degree_one_curves(hat)
    yield "curves", curves
    involutions = build_involutions(nf, sigma)
    yield "involutions", involutions
    inv_check = verify_involution((nf.F1, nf.F2), X_WPS, involutions.iota,
                                  samples=samples, seed=seed, sampler=sampler)
    _require(inv_check.passed == inv_check.samples,
             "the birational involution fails on sampled points")
    yield "involution-check", inv_check

    qit = quadratic_involution_test(hat.F, "v")
    _require(qit.kind == "NotMaximal",
             "projection from the 1/3 point did not certify exclusion")

    lam = nf.lam
    center_q = "qhat, the compound E6 point of the degree-7 model"
    reports = [sigma.report]
    reports.append(LinkReport(
        name="X-smooth-centers",
        center="nonsingular points and curves of X",
        verdict=Verdict(kind="CitedExclusion",
                        detail="excluded for all quasismooth members of"
                               " the family by the cited statement",
                        reference=CITATIONS[0]),
    ))
    reports.append(LinkReport(
        name="hatX-smooth-centers",
        center="nonsingular points and the 1/2(1,1,1) point of the"
               " degree-7 model",
        verdict=Verdict(kind="CitedExclusion",
                        detail="excluded for degree-7 hypersurfaces in"
                               " P(1,1,1,2,3) by the cited statement",
                        reference=CITATIONS[1]),
    ))
    reports.append(LinkReport(
        name="hatX-third-point",
        center="the 1/3(1,1,2) point of the degree-7 model",
        verdict=Verdict(
            kind="NotMaximal",
            detail="the projection from the point is quadratic with"
                   " leading coefficient u dividing the middle"
                   " coefficient, so the point is not a maximal center",
        ),
        exceptional=qit,
    ))
    reports.append(LinkReport(
        name="hatX-curves",
        center="curves of low degree on the degree-7 model",
        verdict=Verdict(kind="CitedExclusion",
                        detail="curves of degree at least two are"
                               " excluded by the cited statement;"
                               " degree-one curves are excluded by the"
                               " exact parameter counts recorded here",
                        reference=CITATIONS[2]),
        exceptional=curves,
    ))
    reports.append(LinkReport(
        name="sigma-inverse",
        center=center_q,
        verdict=Verdict(
            kind="ElementaryLink",
            detail="the weight-six germ blowup initiates the inverse"
                   " of sigma, landing back on X",
            target=X_SPEC,
        ),
        extraction=hat_census.germ.row("E"),
    ))
    reports.extend(exclusions)
    if lam != 0:
        reports.append(LinkReport(
            name="sigma-prime-inverse",
            center=center_q,
            verdict=Verdict(
                kind="ElementaryLink",
                detail="the twist of the inverse of sigma by the deck"
                       " involution; distinct from sigma-inverse because"
                       " the two extractions have different valuations"
                       " on v",
                target=X_SPEC,
            ),
        ))

    germ_count = hat_census.germ.low_discrepancy_count
    divisor_links = {
        "E": "sigma-inverse",
        "exceptional-of-(4,1,2,1)": "blowup-4-1-2-1",
        "exceptional-of-(2,1,2,1,4)": "blowup-2-1-2-1-4",
    }
    if lam != 0:
        divisor_links["E-twisted"] = "sigma-prime-inverse"
    elementary_from_qhat = 1 + (1 if lam != 0 else 0)

    citations = CITATIONS
    summary = (
        "the member is birationally solid: it is not birational to any"
        " Mori fiber space other than itself and the degree-7 model;"
        f" the degree-7 model carries {elementary_from_qhat} elementary"
        " link(s) back, every other candidate center being excluded"
        " by the computed certificates or the cited statements"
    )
    yield "classification", LinkClassification(
        normal_form=nf, sigma=sigma, hat_census=hat_census,
        exclusions=exclusions, involution_check=inv_check,
        reports=tuple(reports),
        germ_count=germ_count, divisor_links=divisor_links,
        elementary_from_qhat=elementary_from_qhat, citations=citations,
        solid=True, summary=summary,
    )


def classify_links(F1, F2, samples=40, seed=0, field=None):
    """Classify the elementary links of a degree-(12, 14) member.

    Runs every stage of link_stages and returns the assembled
    LinkClassification, one report per candidate center.
    """
    for _, artifact in link_stages(F1, F2, samples, seed, field):
        pass
    return artifact
