"""Acceptance battery: the nine headline checks, each exact and timed.

Every test covers one numbered criterion and emits a single PASS/FAIL
line (visible with -s; pytest -v shows one PASSED/FAILED line per
criterion either way).  All arithmetic is exact — rationals and finite
fields only — so "tolerance" everywhere means equality on the nose; the
stated bounds are wall-clock limits.
"""

import random
import time
from contextlib import contextmanager
from fractions import Fraction
from functools import lru_cache

from wcilinks.links import (
    X_WPS,
    build_involutions,
    classify_links,
    construct_link_sigma,
    normal_form_X1214,
    random_member,
    run_exclusion_blowups,
    singularity_census_X,
    singularity_census_hatX,
    verify_involution,
)
from wcilinks.qpoly import (
    Ambient,
    GF,
    QQ,
    WeightVector,
    resultant,
    substitute,
    toric_transform,
)
from wcilinks.singular import analyze_cA2_germ, discrepancy_chart_oracle

MAIN_F1 = ("w*x + y^6 + y^4*t + y^2*t^2 + t^3 + y*z*v + z^4"
           " + z^2*y*(y^2 + t) + x^12")
MAIN_F2 = "w*z + v^2 + y*(y^6 + 2*t^3) + x^14 + x^2*z^4"
# the same member with the y*z*v coupling removed: lambda = 0
LAM0_F1 = ("w*x + y^6 + y^4*t + y^2*t^2 + t^3 + z^4"
           " + z^2*y*(y^2 + t) + x^12")


@contextmanager
def criterion(label, bound=None):
    start = time.monotonic()
    ok = False
    try:
        yield
        ok = True
    finally:
        elapsed = time.monotonic() - start
        timely = bound is None or elapsed < bound
        status = "PASS" if ok and timely else "FAIL"
        print(f"{status}: {label} ({elapsed:.2f}s)")
    if bound is not None:
        assert elapsed < bound, (
            f"{label}: took {elapsed:.2f}s, bound {bound}s")


@lru_cache(maxsize=None)
def _member(lam0=False):
    amb = X_WPS.ambient()
    return (amb.parse(LAM0_F1 if lam0 else MAIN_F1), amb.parse(MAIN_F2))


@lru_cache(maxsize=None)
def _nf(lam0=False):
    return normal_form_X1214(*_member(lam0))


@lru_cache(maxsize=None)
def _sigma(lam0=False):
    return construct_link_sigma(_nf(lam0))


@lru_cache(maxsize=None)
def _exclusions():
    return run_exclusion_blowups(_sigma().hat)


def test_criterion_1_census_of_random_members():
    """Three seeded random members: Fano index 2, one 1/11(1,2,9) point."""
    with criterion("1. census: 3 random members each have Fano index 2"
                   " and exactly one singular point, of type 1/11(1,2,9)"
                   " (exact, <10s per seed)"):
        for seed in (101, 202, 303):
            start = time.monotonic()
            nf = normal_form_X1214(*random_member(seed))
            census = singularity_census_X(nf, samples=5, seed=seed)
            assert census.fano_index == 2
            labels = {p: q.type_label()
                      for p, q in census.singular.items()}
            assert labels == {"w": "1/11(1,2,9)"}
            assert census.singular["w"].is_terminal()
            assert census.samples == 5
            assert time.monotonic() - start < 10


def test_criterion_2_link_to_the_degree_seven_model():
    """The two-ray game lands on X_7 in P(1,1,1,2,3), term-for-term."""
    with criterion("2. link: the game from the 1/11 point ends on a"
                   " degree-7 hypersurface in P(1,1,1,2,3) whose"
                   " equation matches the expected display"
                   " term-for-term (exact, <30s)", bound=30):
        nf = _nf()
        link = _sigma()
        assert str(link.report.verdict.target) == "X_7 in P(1,1,1,2,3)"
        expected = (
            "u^7 + y^7 + u^6*z + y^6*z + u*y^3*z^3 + u^3*z^4 + u^2*z^5"
            " + y^4*z*t + u*y*z^3*t + y^2*z*t^2 + u*y*z^2*v + 2*y*t^3"
            " + z*t^3 + u*v^2")
        assert str(link.hat.F) == expected
        # ambient order (u, y, z, t, v): v^2*u present, and the
        # coefficient of y*z^2*v*u equals the transported lambda
        assert link.hat.F.coefficient((1, 0, 0, 0, 2)) == 1
        assert link.hat.F.coefficient((1, 1, 2, 0, 1)) == nf.lam
        hat_census = singularity_census_hatX(link.hat)
        assert hat_census.reports["z"].point == "z"
        assert not hat_census.reports["z"].quasismooth


def test_criterion_3_census_of_the_model():
    """Exactly 1/2(1,1,1) at p_t, 1/3(1,1,2) at p_v, and compound E6."""
    with criterion("3. model census: exactly the points 1/2(1,1,1) at"
                   " p_t, 1/3(1,1,2) at p_v, and a compound E6 point"
                   " (exact)"):
        census = singularity_census_hatX(_sigma().hat)
        labels = {p: q.type_label() for p, q in census.singular.items()}
        assert labels == {"t": "1/2(1,1,1)", "v": "1/3(1,1,2)"}
        assert all(q.is_terminal() for q in census.singular.values())
        qhat = census.reports["z"]
        assert qhat.on_variety and not qhat.quasismooth
        assert census.germ.kind == "cE6"
        assert census.germ.row("E").discrepancy == 1


def test_criterion_4_germ_discrepancy_tables():
    """cA/2 table (1/2,1/2,1,1); cE6 divisor count 4 or 3 by lambda."""
    with criterion("4. germ tables: the cA/2 analyzer returns"
                   " discrepancies (1/2,1/2,1,1) for F1..F4; the"
                   " compound E6 analyzer counts 4 divisors for"
                   " lambda != 0 and 3 for lambda = 0, with a(F3) in"
                   " {1,2} accordingly (exact)"):
        zt = Ambient(("z", "t"), QQ)
        table = analyze_cA2_germ(zt.parse("t^3 + z^6 + z^2*t^2"))
        assert table.row("E").discrepancy == Fraction(1, 2)
        assert [table.row(f"F{i}").discrepancy for i in (1, 2, 3, 4)] \
            == [Fraction(1, 2), Fraction(1, 2), Fraction(1), Fraction(1)]

        generic = singularity_census_hatX(_sigma().hat).germ
        assert generic.parameters["lambda"] != 0
        assert generic.low_discrepancy_count == 4
        assert generic.row("F3").discrepancy == 1

        degenerate = singularity_census_hatX(_sigma(True).hat).germ
        assert degenerate.parameters["lambda"] == 0
        assert degenerate.low_discrepancy_count == 3
        assert degenerate.row("F3").discrepancy == 2


def test_criterion_5_discrepancy_engine_with_chart_oracle():
    """a=1 for both exclusion blowups, a=1/11 at the quotient point."""
    with criterion("5. discrepancies: 1 for weights (4,1,2,1), 1 for"
                   " (2,1,2,1,4) after re-embedding, 1/11 for the"
                   " weighted blowup of the 1/11 point, each matching"
                   " the independent chart oracle (exact, <5s)",
                   bound=5):
        r1, r2 = _exclusions()
        kawamata = _sigma().extraction
        expected = [
            (r1.extraction, (4, 1, 2, 1), 1, Fraction(1)),
            (r2.extraction, (2, 1, 2, 1, 4), 1, Fraction(1)),
            (kawamata, (6, 1, 7, 2, 9), 11, Fraction(1, 11)),
        ]
        for record, nums, den, value in expected:
            assert record.weights == WeightVector(nums, den)
            assert record.discrepancy == value
            redone, charts, agree = discrepancy_chart_oracle(
                record.germ, record.weights)
            assert agree
            assert redone.discrepancy == value
            assert len(charts) == len(nums)


def test_criterion_6_cone_certificates():
    """Both exclusion games: mov = cone(D_x, D_z), -K ~ D_z on boundary."""
    with criterion("6. cones: for both exclusion blowups the movable"
                   " cone is spanned by the classes of x and z and the"
                   " anticanonical class sits on the z-boundary, so"
                   " neither blowup starts an elementary link (exact)"):
        for report in _exclusions():
            cones = report.cones
            assert tuple(cones.mov.ray1) == (1, 0)
            assert tuple(cones.mov.ray2) == (1, 1)
            assert cones.anticanonical.coords() == (1, 1)
            assert cones.anticanonical_on_mov_boundary
            assert not cones.anticanonical_in_mov_interior
            assert "z" in cones.mov_boundary_ray_vars()
            assert report.verdict.kind == "NotSarkisov"


def test_criterion_7_involutions():
    """Deck involution fixes the model exactly; 100 sampled points."""
    with criterion("7. involutions: the deck involution fixes the model"
                   " equation as an exact polynomial identity, and the"
                   " induced involution of X passes 100 sampled-point"
                   " checks (exact, <5s)", bound=5):
        nf = _nf()
        link = _sigma()
        inv = build_involutions(nf, link)
        hat = link.hat
        hamb = hat.F.ambient
        assert substitute(hat.F, {"v": inv.chi}, hamb) == hat.F
        amb = nf.F1.ambient
        x = amb.var("x")
        imap = dict(zip(amb.names, inv.iota))
        m = inv.scale_degree - 1
        assert substitute(nf.F1, imap, amb) == nf.F1 * x**(12 * m)
        assert substitute(nf.F2, imap, amb) == nf.F2 * x**(14 * m)
        out = verify_involution((nf.F1, nf.F2), X_WPS, inv.iota,
                                samples=100, seed=0)
        assert out.passed == out.samples == 100


def test_criterion_8_classification_and_bookkeeping():
    """2 links back from the model (1 when lambda=0); 4 cited exclusions."""
    with criterion("8. classification: two elementary links from the"
                   " model for lambda != 0 and one for lambda = 0, the"
                   " divisor bookkeeping matching the germ count, and"
                   " exactly the four cited exclusions listed (exact)"):
        F1, F2 = _member()
        cls = classify_links(F1, F2, samples=10)
        assert cls.solid
        assert cls.elementary_from_qhat == 2
        assert cls.germ_count == 4
        assert set(cls.divisor_links) == {
            "E", "E-twisted",
            "exceptional-of-(4,1,2,1)", "exceptional-of-(2,1,2,1,4)"}
        assert len(cls.divisor_links) == cls.germ_count
        assert cls.citations == (
            "[DG23 Cor 7.2, 7.11]",
            "[OkSolid Lem 4.5, 4.9]",
            "[OkII Lem 2.9]",
            "[OkSolid Prop 3.16]",
        )

        G1, G2 = _member(True)
        deg = classify_links(G1, G2, samples=10)
        assert deg.solid
        assert deg.elementary_from_qhat == 1
        assert deg.germ_count == 3
        assert set(deg.divisor_links) == {
            "E", "exceptional-of-(4,1,2,1)",
            "exceptional-of-(2,1,2,1,4)"}


def _random_poly(rng, amb, nterms=6, maxexp=3):
    f = amb.zero()
    for _ in range(nterms):
        exps = tuple(rng.randint(0, maxexp) for _ in amb.names)
        coeff = Fraction(rng.choice([c for c in range(-9, 10) if c]))
        f = f + amb.monomial(exps, coeff)
    return f


def test_criterion_9_property_suites():
    """Filtration, substitution, toric scaling, resultant brute force."""
    with criterion("9. property suites: weight filtration identity and"
                   " substitution homomorphism on 1000 random"
                   " polynomials, the u=1/u=0 laws of the toric"
                   " transform, and resultant-vs-root-product agreement"
                   " on 200 random binary-form pairs over F_101"
                   " (exact, <60s total)", bound=60):
        rng = random.Random(9)
        amb = Ambient(("x", "y", "z", "t"), QQ)

        # weight filtration: f is the exact sum of its graded pieces,
        # each piece quasi-homogeneous of its degree (1000 polynomials)
        for _ in range(1000):
            f = _random_poly(rng, amb)
            w = WeightVector(tuple(rng.randint(1, 8) for _ in amb.names),
                             rng.randint(1, 3))
            degrees = sorted({w.weight(m) for m, _ in f.items()})
            pieces = [f.w_component(w, d) for d in degrees]
            total = amb.zero()
            for d, piece in zip(degrees, pieces):
                assert piece.is_zero() or \
                    piece.quasi_homogeneous_degree(w) == d
                total = total + piece
            assert total == f

        # substitution is a ring homomorphism (500 random pairs)
        for _ in range(500):
            f = _random_poly(rng, amb, nterms=4, maxexp=2)
            g = _random_poly(rng, amb, nterms=4, maxexp=2)
            mapping = {n: _random_poly(rng, amb, nterms=2, maxexp=1)
                       for n in amb.names}
            sf = substitute(f, mapping, amb)
            sg = substitute(g, mapping, amb)
            assert substitute(f + g, mapping, amb) == sf + sg
            assert substitute(f * g, mapping, amb) == sf * sg

        # toric transform: u=1 recovers f, u=0 keeps the initial part
        for _ in range(200):
            f = _random_poly(rng, amb)
            if f.is_zero():
                continue
            w = WeightVector(tuple(rng.randint(1, 8) for _ in amb.names))
            lifted = toric_transform(f, w, "u")
            ext = lifted.ambient
            at_one = substitute(lifted, {"u": ext.one()}, ext).rename(amb)
            at_zero = substitute(lifted, {"u": ext.zero()},
                                 ext).rename(amb)
            assert at_one == f
            assert at_zero == f.w_component(w, f.weight_of(w))

        # resultant of split binary forms equals the root product
        field = GF(101)
        forms = Ambient(("X", "Y"), field)
        X = forms.parse("X")
        Y = forms.parse("Y")

        def split(roots):
            f = forms.one()
            for r in roots:
                f = f * (X - Y.scale(field.coerce(r)))
            return f

        for k in range(200):
            d1, d2 = rng.randint(2, 4), rng.randint(2, 4)
            a = [rng.randrange(101) for _ in range(d1)]
            b = [rng.randrange(101) for _ in range(d2)]
            if k % 5 == 0:
                b[0] = a[0]  # plant a common root
            res = resultant(split(a), split(b), "X")
            brute = 1
            for ai in a:
                for bj in b:
                    brute = brute * (ai - bj) % 101
            assert res == forms.monomial((0, d1 * d2),
                                         field.coerce(brute))
            assert res.is_zero() == (brute == 0)
