"""Tests for weighted projective spaces, blowup ambients, and two-ray games."""

import hashlib
import random
from fractions import Fraction

import pytest

from wcilinks.ambient import (
    ConeZ2,
    DivisorClass,
    Rank2Toric,
    WCISpec,
    WPS,
    blowup_ambient,
    blowup_game,
    blowup_weight_vector,
    certify_stratum_empty,
    cone_calculus,
    run_two_ray_game,
    transport_equation,
)
from wcilinks.qpoly import GF, QQ, Ambient, QPolynomial, WeightVector, substitute


@pytest.fixture
def P61():
    return WPS((1, 2, 3, 4, 7, 11), ("x", "y", "z", "t", "v", "w"))


@pytest.fixture
def T61(P61):
    return blowup_ambient(P61, "w", {"x": 6, "y": 1, "z": 7, "t": 2, "v": 9})


def synthetic_equations(T61):
    """Bihomogeneous equations with the transported hypersurface shape."""
    amb = T61.ambient(QQ)
    f1 = amb.parse(
        "-w*x + y^6 + y^4*t + y^2*t^2 + t^3 + y*z*v*u + z^4*u^2"
        " + z^2*y*(y^2 + t)*u"
    )
    f2 = amb.parse("w*z + y*(y^6 + 2*t^3) + v^2*u + x^2*y^6*u")
    return [f1, f2]


# ---------------------------------------------------------------------------
# weighted projective spaces and numerics


def test_wps_basics(P61):
    assert P61.dim == 5
    assert P61.weight("w") == 11
    assert str(P61) == "P(1,2,3,4,7,11)"
    assert P61.is_well_formed()
    assert not WPS((2, 2, 3), ("x", "y", "z")).is_well_formed()


def test_wci_numerics(P61):
    spec = WCISpec(P61, (12, 14))
    assert spec.dimension == 3
    assert spec.codimension == 2
    assert spec.fano_index == 2
    assert spec.amplitude == Fraction(1, 11)
    assert str(spec) == "X_12,14 in P(1,2,3,4,7,11)"
    assert spec.wps.is_well_formed()


# ---------------------------------------------------------------------------
# divisor classes and cones


def test_divisor_class_arithmetic():
    d = DivisorClass(2, 1)
    e = DivisorClass(1, 0)
    assert (d + e).coords() == (3, 1)
    assert (d - e).coords() == (1, 1)
    assert (3 * e).coords() == (3, 0)
    assert DivisorClass(4, 2).proportional_to(DivisorClass(2, 1))
    assert not DivisorClass(-4, -2).proportional_to(DivisorClass(2, 1))
    assert not DivisorClass(1, 1).proportional_to(DivisorClass(2, 1))


def test_cone_z2():
    c = ConeZ2((1, 0), (1, 1))
    assert c.contains((2, 1))
    assert c.strictly_contains((2, 1))
    assert c.contains((1, 0)) and not c.strictly_contains((1, 0))
    assert c.on_boundary(DivisorClass(3, 3))
    assert c.boundary_ray((5, 5)) == 2
    assert c.boundary_ray((3, 0)) == 1
    assert c.boundary_ray((2, 1)) is None
    assert not c.contains((0, 1))
    with pytest.raises(ValueError):
        ConeZ2((1, 0), (2, 0))
    with pytest.raises(ValueError):
        ConeZ2((1, 1), (1, 0))


# ---------------------------------------------------------------------------
# blowup ambient construction


def test_blowup_ambient_column_order(T61):
    assert T61.names == ("u", "w", "y", "t", "v", "z", "x")
    assert T61.columns == (
        (0, -11),
        (11, 0),
        (2, 1),
        (4, 2),
        (7, 9),
        (3, 7),
        (1, 6),
    )
    assert T61.group1() == ("u", "w")


def test_blowup_ambient_slope_tie_break():
    P = WPS((1, 1, 1, 2, 3), ("y", "z", "x", "t", "w"))
    T = blowup_ambient(P, "x", {"y": 4, "z": 1, "t": 2, "w": 1})
    # z and t both have slope 1; z comes first in the original order
    assert T.names == ("u", "x", "w", "z", "t", "y")
    assert T.columns == ((0, -1), (1, 0), (3, 1), (1, 1), (2, 2), (1, 4))


def test_blowup_ambient_validation(P61):
    with pytest.raises(ValueError, match="missing blowup weight"):
        blowup_ambient(P61, "w", {"x": 6})
    with pytest.raises(ValueError, match="positive"):
        blowup_ambient(P61, "w", {"x": 0, "y": 1, "z": 7, "t": 2, "v": 9})


def test_blowup_weight_vector(P61):
    w = blowup_weight_vector(P61, "w", {"x": 6, "y": 1, "z": 7, "t": 2, "v": 9})
    assert w.nums == (6, 1, 7, 2, 9, 0)
    assert w.den == 11


def test_transport_round_trip(P61, T61):
    amb = P61.ambient(QQ)
    f = amb.parse("w*x + y^6 + t^3")
    weights = {"x": 6, "y": 1, "z": 7, "t": 2, "v": 9}
    lifted = transport_equation(f, P61, "w", weights, T61)
    # setting u = 1 recovers f in the toric coordinate order
    from wcilinks.qpoly import substitute

    toric_amb = lifted.ambient
    back = substitute(lifted, {"u": toric_amb.one()}, toric_amb)
    assert back == f.rename(toric_amb)
    assert T61.bidegree(lifted).coords() == (12, 6)


def test_bidegree_validation(T61):
    amb = T61.ambient(QQ)
    with pytest.raises(ValueError, match="bihomogeneous"):
        T61.bidegree(amb.parse("w*x + y^2"))


# ---------------------------------------------------------------------------
# two-ray games


def test_game_main_family(T61):
    tr = run_two_ray_game(T61)
    assert tr.nmodels == 3
    assert [(c.ray1, c.ray2) for c in tr.chambers] == [
        ((1, 0), (2, 1)),
        ((2, 1), (7, 9)),
        ((7, 9), (3, 7)),
    ]
    assert len(tr.walls) == 2
    w1, w2 = tr.walls
    assert w1.wall_vars == ("y", "t")
    assert w1.plus_vars == ("v", "z", "x")
    assert w1.minus_vars == ("u", "w")
    assert w2.wall_vars == ("v",)
    assert tr.end.kind == "divisorial"
    assert tr.end.contracted == "x"
    assert tr.end.functional == (6, -1)
    assert tr.end.target.weights == (1, 6, 1, 2, 3, 1)
    assert tr.end.target.names == ("u", "w", "y", "t", "v", "z")
    assert tr.end.wall_vars == ("z",)
    assert tr.end.image_dim == 0  # contracted to the point where only z survives
    assert tr.entry.kind == "divisorial"
    assert tr.entry.contracted == "u"
    assert set(zip(tr.entry.target.names, tr.entry.target.weights)) == {
        ("x", 1), ("y", 2), ("z", 3), ("t", 4), ("v", 7), ("w", 11),
    }


def test_game_first_exclusion():
    P = WPS((1, 1, 1, 2, 3), ("y", "z", "x", "t", "w"))
    T = blowup_ambient(P, "x", {"y": 4, "z": 1, "t": 2, "w": 1})
    tr = run_two_ray_game(T)
    assert tr.nmodels == 2
    assert len(tr.walls) == 1
    assert tr.walls[0].wall_vars == ("w",)
    assert tr.end.kind == "divisorial"
    assert tr.end.contracted == "y"
    assert tr.end.functional == (4, -1)
    assert tr.end.target.weights == (1, 4, 11, 3, 6)
    assert tr.end.wall_vars == ("z", "t")
    assert tr.end.image_dim == 1  # image is the curve where z, t survive


def test_game_second_exclusion():
    P = WPS((1, 1, 1, 2, 3, 6), ("y", "z", "x", "t", "w", "s"))
    T = blowup_ambient(P, "x", {"y": 2, "z": 1, "t": 2, "w": 1, "s": 4})
    tr = run_two_ray_game(T)
    assert tr.nmodels == 3
    assert [w.wall_vars for w in tr.walls] == [("w",), ("s",)]
    assert tr.end.kind == "divisorial"
    assert tr.end.contracted == "y"
    assert tr.end.functional == (2, -1)
    assert tr.end.target.weights == (1, 2, 5, 8, 1, 2)
    assert tr.end.image_dim == 1


def test_game_ordinary_blowup_fibration():
    P2 = WPS((1, 1, 1), ("x0", "x1", "x2"))
    T = blowup_ambient(P2, "x0", {"x1": 1, "x2": 1})
    tr = run_two_ray_game(T)
    assert tr.nmodels == 1
    assert len(tr.walls) == 0
    assert tr.end.kind == "fibration"
    assert tr.end.functional == (1, -1)
    assert tr.end.target.weights == (1, 1)
    assert set(tr.end.target.names) == {"u", "x0"}
    assert tr.entry.kind == "divisorial"
    assert tr.entry.contracted == "u"
    assert tr.entry.target.weights == (1, 1, 1)


def test_game_weighted_fibration():
    # the blowup of the z-point of P(1,2,5) fibres over P(1,2) with
    # coordinates u and z: x and y share the ray (1,2), and no column
    # lies beyond it
    P = WPS((1, 2, 5), ("x", "y", "z"))
    tr, transported, cones = blowup_game(P, (), "z", {"x": 2, "y": 4})
    assert (transported, cones) == ((), None)
    assert tr.toric.columns == ((0, -5), (5, 0), (1, 2), (2, 4))
    assert tr.nmodels == 1
    assert tr.walls == ()
    assert tr.end.kind == "fibration"
    assert tr.end.ray == (1, 2)
    assert tr.end.wall_vars == ("x", "y")
    assert tr.end.contracted is None
    assert tr.end.functional == (2, -1)
    assert tr.end.target == WPS((1, 2), ("u", "z"))
    assert tr.end.image_dim is None
    assert tr.entry.kind == "divisorial"
    assert tr.entry.contracted == "u"


def test_game_rejects_unpointed():
    T = Rank2Toric(
        ("a", "b", "c", "d"),
        ((1, 0), (0, 1), (-1, 0), (0, -1)),
        2,
    )
    with pytest.raises(ValueError, match="pointed|line"):
        run_two_ray_game(T)


def test_game_rejects_bad_split():
    # group separation fails: group1 contains the largest ray
    T = Rank2Toric(
        ("a", "b", "c", "d"),
        ((1, 2), (1, 0), (2, 1), (1, 1)),
        2,
    )
    with pytest.raises(ValueError, match="separated|inside"):
        run_two_ray_game(T)


# ---------------------------------------------------------------------------
# emptiness certification and cone calculus


@pytest.mark.parametrize("field", [QQ, GF(101)], ids=["QQ", "GF101"])
def test_restrict_is_substituting_zeros(T61, field):
    # setting coordinates to 0, to 1, or some to 0 and others to 1 by
    # exponents gives the substitution of those constants, term order
    # included; a name off the ambient is ignored, as the substitution
    # ignores it.  Exponents up to 2 and coefficients in -5..5 make
    # colliding terms, and cancelling ones, common.
    amb = T61.ambient(field)
    rng = random.Random(f"restrict/{field!r}")
    for trial in range(300):
        f = QPolynomial(amb, {
            tuple(rng.randint(0, 2) for _ in amb.names):
                field.coerce(rng.randint(-5, 5))
            for _ in range(rng.randint(0, 12))})
        chosen = rng.sample(amb.names + ("s",), rng.randint(0, 4))
        # by thirds: zeros only, ones only, then a mixed split
        cut = (len(chosen), 0, rng.randint(0, len(chosen)))[trial % 3]
        zeros, ones = set(chosen[:cut]), set(chosen[cut:])
        mapping = {n: 0 for n in zeros} | {n: amb.one() for n in ones}
        want = substitute(
            f, {n: c for n, c in mapping.items() if n in amb.names}, amb)
        got = f.restrict(zeros=zeros, ones=ones)
        assert got.ambient == amb
        assert list(got.items()) == list(want.items())


def test_certify_unstable_stratum(T61):
    amb = T61.ambient(QQ)
    eqs = [amb.parse("w*z + v^2*u")]
    cert = certify_stratum_empty(
        eqs,
        dead={"y", "t", "v", "z", "x"},
        left=frozenset({"u", "w"}),
        right=frozenset({"y", "t", "v", "z", "x"}),
    )
    assert cert.empty
    assert "unstable" in cert.reason


def test_certify_binary_form_wall(T61):
    eqs = synthetic_equations(T61)
    cert = certify_stratum_empty(
        eqs,
        dead={"v", "z", "x"},
        left=frozenset({"u", "w"}),
        right=frozenset({"y", "t", "v", "z", "x"}),
    )
    assert cert.empty, cert.reason


def test_certify_reports_failure(T61):
    amb = T61.ambient(QQ)
    # no equations restrict: the stratum clearly has stable points
    eqs = [amb.parse("x*w")]
    cert = certify_stratum_empty(
        eqs,
        dead={"x"},
        left=frozenset({"u", "w"}),
        right=frozenset({"y", "t", "v", "z", "x"}),
    )
    assert not cert.empty


def test_cone_calculus_main_family(T61):
    eqs = synthetic_equations(T61)
    tr = run_two_ray_game(T61)
    report = cone_calculus(tr, eqs)
    assert [d.coords() for d in report.bidegrees] == [(12, 6), (14, 7)]
    assert report.anticanonical.coords() == (2, 1)
    assert report.wall_reports[0].isomorphism
    assert not report.wall_reports[1].isomorphism
    assert report.nef_cones[0] == ConeZ2((1, 0), (7, 9))
    assert report.nef_cones[1] == ConeZ2((1, 0), (7, 9))
    assert report.nef_cones[2] == ConeZ2((7, 9), (3, 7))
    assert report.mov == ConeZ2((1, 0), (3, 7))
    assert report.anticanonical_in_mov_interior
    assert not report.anticanonical_on_mov_boundary


def test_cone_calculus_degenerate_member_keeps_walls_genuine(T61):
    # drop the binary forms: the wall locus is no longer certifiably empty
    amb = T61.ambient(QQ)
    eqs = [
        amb.parse("-w*x + y^6 + z^4*u^2"),
        amb.parse("w*z + y^7 + v^2*u"),
    ]
    tr = run_two_ray_game(T61)
    report = cone_calculus(tr, eqs)
    assert not report.wall_reports[0].isomorphism
    assert report.nef_cones[0] == ConeZ2((1, 0), (2, 1))


def _random_monomial(rng, weights, degree):
    """An exponent tuple of the given weighted degree, or None when 20
    draws find none: exponents are drawn in a random variable order and
    the last one must fill the rest of the degree."""
    for _ in range(20):
        order = rng.sample(range(len(weights)), len(weights))
        exps = [0] * len(weights)
        rest = degree
        for i in order[:-1]:
            exps[i] = rng.randint(0, rest // weights[i])
            rest -= exps[i] * weights[i]
        if rest % weights[order[-1]] == 0:
            exps[order[-1]] = rest // weights[order[-1]]
            return tuple(exps)
    return None


def _random_blowup_game(seed):
    """A seeded blowup of a coordinate point with random equations.

    4-6 coordinates of weight 1-6; one or two quasi-homogeneous equations
    of degree 2-14, each of 1-6 drawn terms with coefficients in
    {-2, -1, 1, 2, 3} (colliding terms add, so an equation can cancel to
    zero); a random centre and blowup weights 1-5.  Returns the end and
    entry kinds and each wall's (plus, minus) emptiness verdicts, or
    "invalid" when the blowup or its game refuses the input.
    """
    rng = random.Random(f"wall-game/{seed}")
    names = tuple("abcdef"[:rng.randint(4, 6)])
    wps = WPS(tuple(rng.randint(1, 6) for _ in names), names)
    amb = wps.ambient(QQ)
    equations = []
    for _ in range(rng.randint(1, 2)):
        degree = rng.randint(2, 14)
        terms = {}
        for _ in range(rng.randint(1, 6)):
            mono = _random_monomial(rng, wps.weights, degree)
            if mono is not None:
                terms[mono] = (terms.get(mono, 0)
                               + rng.choice((-2, -1, 1, 2, 3)))
        equations.append(QPolynomial(
            amb, {m: QQ.coerce(c) for m, c in terms.items()}))
    center = rng.choice(names)
    weights = {n: rng.randint(1, 5) for n in names if n != center}
    try:
        trace, _, cones = blowup_game(wps, equations, center, weights)
    except ValueError:
        return "invalid"
    return (trace.end.kind, trace.entry.kind,
            tuple((r.plus_certificate.empty, r.minus_certificate.empty)
                  for r in cones.wall_reports))


def test_random_blowup_game_walls_are_frozen():
    # every wall verdict of 1000 seeded games, frozen: a change to the
    # emptiness rules that keeps the verdicts keeps this digest.  The
    # corpus has 433 valid games, 719 walls (39 isomorphisms, 676 walls
    # certified on neither side) and 61 fibration ends.
    games = [_random_blowup_game(seed) for seed in range(1000)]
    digest = hashlib.sha256(repr(games).encode()).hexdigest()[:16]
    valid = [g for g in games if g != "invalid"]
    walls = [w for g in valid for w in g[2]]
    assert len(valid) >= 400
    assert walls.count((True, True)) >= 30
    assert walls.count((False, False)) >= 600
    assert sum(g[0] == "fibration" for g in valid) >= 50
    assert digest == "3f0fb0d9bf710dc6"
