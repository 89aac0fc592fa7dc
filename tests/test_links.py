"""End-to-end tests of the link-certification pipeline."""

import hashlib
import json
import random
import re
from fractions import Fraction
from types import SimpleNamespace

import pytest
import sympy

from wcilinks import ambient, links, qpoly, singular
from wcilinks.ambient import ConeZ2, DivisorClass, blowup_weight_vector
from wcilinks.links import (
    CENSUS_SAMPLES,
    CITATIONS,
    CertificateError,
    HAT_WPS,
    InconsistencyError,
    X_SPEC,
    X_WPS,
    build_involutions,
    classify_links,
    condition_check,
    construct_link_sigma,
    exclude_degree_one_curves,
    involution_tuple,
    link_stages,
    normal_form_X1214,
    random_member,
    run_exclusion_blowups,
    singularity_census_X,
    singularity_census_hatX,
    verify_involution,
)
from wcilinks.qpoly import GF, evaluate, substitute


MAIN_F1 = ("w*x + y^6 + y^4*t + y^2*t^2 + t^3 + y*z*v + z^4"
           " + z^2*y*(y^2 + t) + x^12")
MAIN_F2 = "w*z + v^2 + y*(y^6 + 2*t^3) + x^14 + x^2*z^4"


def _drop(f, *monomials):
    """f without the given monomials."""
    for mono in monomials:
        f = f - f.ambient.parse(mono).scale(f.coefficient(mono))
    return f


@pytest.fixture(scope="module")
def amb():
    return X_WPS.ambient()


@pytest.fixture(scope="module")
def main_member(amb):
    return amb.parse(MAIN_F1), amb.parse(MAIN_F2)


@pytest.fixture(scope="module")
def nf(main_member):
    return normal_form_X1214(*main_member)


@pytest.fixture(scope="module")
def sigma(nf):
    return construct_link_sigma(nf)


@pytest.fixture(scope="module")
def lam0_member(amb):
    f1 = amb.parse("w*x + y^6 + y^4*t + y^2*t^2 + t^3 + z^4"
                   " + z^2*y*(y^2 + t) + x^12")
    return f1, amb.parse(MAIN_F2)


@pytest.fixture(scope="module")
def scrambled_member(nf, amb):
    # the normal form pushed through a messy coordinate change of the kind
    # the normalization removes (shears plus x- and w-scalings)
    x, y, z, t, v, w = (amb.var(n) for n in amb.names)
    fwd = {
        "v": v + (x * y * t).scale(Fraction(2, 5)),
        "z": z - x**3 + (y * x).scale(Fraction(7)),
        "w": w.scale(Fraction(-2, 3)) + x**11 - z**2 * t * x,
        "x": x.scale(Fraction(5)),
    }
    return substitute(nf.F1, fwd, amb), substitute(nf.F2, fwd, amb)


def _sympy(f, ring):
    """f in a sympy polynomial ring over QQ, its variables matched by name."""
    names = [str(g) for g in ring.gens]
    slots = [names.index(n) for n in f.ambient.names]

    def mono(m):
        e = [0] * ring.ngens
        for i, k in zip(slots, m):
            e[i] = k
        return tuple(e)

    return ring.from_dict({mono(m): sympy.QQ(c.numerator, c.denominator)
                           for m, c in f.items()})


def _proportional(p, q):
    """Whether p = k*q for a nonzero rational k."""
    k = p.LC / q.LC
    return k != 0 and p == q.mul_ground(k)


# ---------------------------------------------------------------------------
# normal form


class TestNormalForm:
    def test_main_member_shape(self, nf, amb):
        x, w = amb.var("x"), amb.var("w")
        assert nf.F1 + x * w == nf.S12
        assert nf.lam == 1
        assert nf.mu == 1
        assert str(nf.a12) == "y^6 + y^4*t + y^2*t^2 + t^3"
        assert str(nf.b4) == "y^2 + t"
        assert str(nf.c12) == "y^6 + 2*t^3"
        assert nf.resultant == -5

    def test_round_trip_is_recorded(self, amb, main_member, lam0_member,
                                    scrambled_member):
        # sympy, outside the kernel, composes the recorded steps into the
        # forward chain and, from n -> (n - h)/c, the inverse chain; each
        # carries one pair of equations to a multiple of the other, and
        # inverse after forward is the identity on the generators
        ring, *gens = sympy.ring(",".join(amb.names), sympy.QQ)
        members = [main_member, lam0_member, scrambled_member]
        members += [random_member(seed) for seed in range(1, 7)]
        for F1, F2 in members:
            out = normal_form_X1214(F1, F2)
            forward, inverse = list(gens), list(gens)
            for _, mapping in out.steps:
                step, undo = [], dict(zip(gens, gens))
                for name, img in mapping.items():
                    n, img = gens[amb.index(name)], _sympy(img, ring)
                    c = img.coeff(n)
                    step.append((n, img))
                    undo[n] = (n - (img - n * c)).quo_ground(c)
                forward = [f.compose(step) for f in forward]
                inverse = [undo[g].compose(list(zip(gens, inverse)))
                           for g in gens]
            for old, new in ((F1, out.F1), (F2, out.F2)):
                old, new = _sympy(old, ring), _sympy(new, ring)
                assert _proportional(old.compose(list(zip(gens, forward))),
                                     new)
                assert _proportional(new.compose(list(zip(gens, inverse))),
                                     old)
            back = [f.compose(list(zip(gens, inverse))) for f in forward]
            assert back == gens

    def test_scrambled_member_normalizes_back(self, nf, scrambled_member):
        # renormalizing the scrambled member recovers the same split data
        back = normal_form_X1214(*scrambled_member)
        assert back.a12 == nf.a12
        assert back.b4 == nf.b4
        assert back.c12 == nf.c12
        assert back.lam == nf.lam
        assert back.resultant == nf.resultant

    def test_residual_v_scaling_gauge(self, nf, amb):
        # scaling v is the residual coordinate freedom: it multiplies
        # lam by the scale and divides c12 by its square
        v = amb.var("v")
        G1 = substitute(nf.F1, {"v": v.scale(Fraction(3))}, amb)
        G2 = substitute(nf.F2, {"v": v.scale(Fraction(3))}, amb)
        back = normal_form_X1214(G1, G2)
        assert back.a12 == nf.a12
        assert back.b4 == nf.b4
        assert back.lam == 3 * nf.lam
        assert back.c12 == nf.c12.scale(Fraction(1, 9))

    def test_random_members_normalize(self):
        for seed in (0, 1, 2):
            F1, F2 = random_member(seed)
            out = normal_form_X1214(F1, F2)
            assert out.mu != 0
            assert not out.c12.is_zero()
            assert out.resultant != 0
            assert out.F2.coefficient("v^2") == 1
            assert out.F1.coefficient("z^4") == 1
            assert out.F1.coefficient("w*x") == -1

    def test_wrong_degrees_rejected(self, amb):
        with pytest.raises(ValueError):
            normal_form_X1214(amb.parse("x^11"), amb.parse("v^2"))

    def test_missing_monomial_rejected(self, amb):
        # no w*x in F1: the member cannot be normalized
        f1 = amb.parse("z^4 + t^3 + y^6 + x^12")
        f2 = amb.parse("w*z + v^2 + y^7 + x^14")
        with pytest.raises(CertificateError):
            normal_form_X1214(f1, f2)

    def test_missing_v_squared_rejected(self, amb):
        f1 = amb.parse("w*x + z^4 + t^3 + y^6")
        f2 = amb.parse("w*z + y^7 + x^14")
        with pytest.raises(CertificateError):
            normal_form_X1214(f1, f2)

    def test_shared_root_rejected(self, amb):
        # a12 = t^3 + ... and c12 chosen with the common root t = -y^2
        f1 = amb.parse("w*x + (t + y^2)^3 + y*z*v + z^4 + x^12")
        f2 = amb.parse("w*z + v^2 + y*(t + y^2)^3 + x^14")
        with pytest.raises(CertificateError):
            normal_form_X1214(f1, f2)

    def test_shared_root_is_not_quasismooth(self, amb):
        # seed 38: a12 and c12 share the root t = y^2
        with pytest.raises(CertificateError, match="member is not"
                           " quasismooth: a12 and c12 share a root"):
            normal_form_X1214(*random_member(38))
        # a simple shared root t = -y^2: both equations vanish at
        # (0:1:0:-1:0:0), where the Jacobian has rank one
        eqs = (amb.parse("w*x + (t + y^2)*(t^2 + y^4) + y*z*v + z^4"
                         " + x^12"),
               amb.parse("w*z + v^2 + y*(t + y^2)*(2*t^2 + y^4) + x^14"))
        point = (0, 1, 0, -1, 0, 0)
        assert [evaluate(f, point) for f in eqs] == [0, 0]
        assert qpoly.matrix_rank_at(eqs, point) == 1
        with pytest.raises(CertificateError, match="not quasismooth"):
            normal_form_X1214(*eqs)

    @pytest.mark.parametrize("seed", [7, 11, 23])
    def test_vanishing_c12_rejected(self, seed):
        # a boundary member: the normal form without y*c12 in F2
        nf = normal_form_X1214(*random_member(seed))
        F2 = _drop(nf.F2, "y^7", "y^5*t", "y^3*t^2", "y*t^3")
        with pytest.raises(CertificateError, match="c12 vanishes"):
            normal_form_X1214(nf.F1, F2)

    @pytest.mark.parametrize("mapping, refusal", [
        ({"x": "0*x"}, "scales x by zero"),
        ({"z": "z + x*y", "x": "2*x"}, "shift of z involves"),
        ({"v": "v + x"}, "image of v is not quasi-homogeneous of weight 7"),
        ({"v": "v + 2/5*x*y*t - y*z*x^2"}, None),
        ({"z": "z - x^3 + 7*x*y"}, None),
        ({"w": "-2/3*w + x^11 - z^2*t*x + v*y*x^2"}, None),
        ({"x": "5*x", "w": "1/3*w"}, None),
    ], ids=["zero-scale", "shift-moves", "wrong-weight", "v-square",
            "z-recenter", "w-absorb", "xw-rescale"])
    def test_step_is_a_graded_automorphism(self, amb, mapping, refusal):
        # each coordinate step is checked as it is applied: a refusal is
        # an internal inconsistency (exit 3)
        mapping = {n: amb.parse(img) for n, img in mapping.items()}
        if refusal is None:
            links._require_graded_automorphism(mapping)
        else:
            with pytest.raises(InconsistencyError, match=refusal):
                links._require_graded_automorphism(mapping)


# ---------------------------------------------------------------------------
# sampling and the census of X


class TestCensusX:
    def test_sample_point_lands_on_member(self, nf):
        field = GF(2**31 - 1)
        amb = X_WPS.ambient(field)
        eqs = (nf.F1.rename(amb), nf.F2.rename(amb))
        pt = links._Sampler((nf.F1, nf.F2), X_WPS, field).draw(
            random.Random(5))
        assert all(field.is_zero(evaluate(f, pt)) for f in eqs)

    def test_census_main(self, nf):
        census = singularity_census_X(nf, samples=10, seed=0)
        assert census.fano_index == 2
        assert sorted(census.singular) == ["w"]
        quot = census.singular["w"]
        assert quot.type_label() == "1/11(1,2,9)"
        assert quot.is_terminal()
        assert census.samples == 10
        # the (y, t)-stratum: F1 and F2 restrict to a12 and y*c12, whose
        # only common zero is y = t = 0
        amb = nf.F1.ambient
        stratum = {"x": 0, "z": 0, "v": 0, "w": 0}
        assert substitute(nf.F1, stratum, amb) == nf.a12
        assert substitute(nf.F2, stratum, amb) == amb.var("y") * nf.c12
        assert nf.mu != 0 and nf.resultant != 0

    def test_census_derives_the_jacobian_once(self, nf, monkeypatch):
        # the sampler derives a Jacobian column, one partial derivative
        # per equation, the first time the rank reads it: w and v first,
        # and at these 20 points of a generic member no other column
        derived = []
        derivative = qpoly.QPolynomial.derivative

        def counted(f, name):
            derived.append(name)
            return derivative(f, name)

        monkeypatch.setattr(qpoly.QPolynomial, "derivative", counted)
        census = singularity_census_X(nf, samples=20)
        assert census.samples == 20
        assert derived == ["w", "w", "v", "v"]

    def test_census_random(self):
        F1, F2 = random_member(3)
        out = normal_form_X1214(F1, F2)
        census = singularity_census_X(out, samples=5, seed=1)
        assert sorted(census.singular) == ["w"]
        assert census.singular["w"].type_label() == "1/11(1,2,9)"

    @pytest.mark.parametrize("seed", [7, 11, 23])
    def test_singular_x_point_rejected(self, seed):
        # a boundary member: without x^12 in F1 the x-point lies on X,
        # and without x^14, x^12*y, x^11*z and x^10*t in F2 the gradient
        # of F2 vanishes there
        nf = normal_form_X1214(*random_member(seed))
        F1 = _drop(nf.F1, "x^12")
        F2 = _drop(nf.F2, "x^14", "x^12*y", "x^11*z", "x^10*t")
        with pytest.raises(CertificateError, match="coordinate point at x"
                           " lies on the member but is not quasismooth"):
            singularity_census_X(normal_form_X1214(F1, F2), samples=1)

    def test_special_member_rejected(self, amb):
        # t^3 missing from a12: the (y, t)-stratum meets the member
        f1 = amb.parse("w*x + y^6 + y*z*v + z^4 + x^12")
        f2 = amb.parse("w*z + v^2 + y^7 + 2*y*t^3 + x^14")
        with pytest.raises(CertificateError):
            normal_form_X1214(f1, f2)


# ---------------------------------------------------------------------------
# the link sigma


class TestSigmaLink:
    def test_game_shape(self, sigma):
        assert sigma.trace.nmodels == 3
        assert sigma.trace.end.kind == "divisorial"
        assert sigma.trace.end.contracted == "x"
        assert [w.wall_vars for w in sigma.trace.walls] == [("y", "t"),
                                                            ("v",)]

    def test_cones(self, sigma):
        cones = sigma.cones
        assert cones.anticanonical == DivisorClass(2, 1)
        assert cones.anticanonical_in_mov_interior
        assert cones.wall_reports[0].isomorphism
        assert not cones.wall_reports[1].isomorphism

    @pytest.mark.parametrize("seed", [7, 11, 23])
    @pytest.mark.parametrize("index, monomial", [(0, "y^6"), (1, "y^7")],
                             ids=["F1-y6", "F2-y7"])
    def test_first_wall_on_boundary_members(self, seed, index, monomial):
        # a boundary member: on t = 0 the first wall's binary pair a12,
        # y*c12 keeps only F2's y^7 or F1's y^6, which forces y = 0 too
        nf = normal_form_X1214(*random_member(seed))
        pair = [nf.F1, nf.F2]
        pair[index] = _drop(pair[index], monomial)
        link = construct_link_sigma(normal_form_X1214(*pair))
        wall = link.cones.wall_reports[0]
        for cert in (wall.plus_certificate, wall.minus_certificate):
            assert cert.empty
            assert cert.reason == ("scale-invariant equations in (t,y)"
                                   " only vanish at the origin")

    def test_extraction_discrepancy(self, sigma):
        assert sigma.extraction.discrepancy == Fraction(1, 11)
        assert sigma.extraction.orders == (Fraction(6, 11),
                                           Fraction(7, 11))

    def test_hat_model_display(self, sigma, nf):
        hat = sigma.hat
        hamb = hat.F.ambient
        u, y, z, t, v = (hamb.var(n) for n in HAT_WPS.names)
        expected_W = (hat.a6 + (y * z * v * u).scale(nf.lam)
                      + z**4 * u**2 + (z**2 * y * u) * hat.b2)
        assert hat.W == expected_W
        assert hat.F == z * hat.W + u * v**2 + y * hat.c6 + u * hat.g6
        assert hat.F.coefficient((1, 0, 0, 0, 2)) == 1      # u*v^2
        assert hat.F.coefficient((1, 1, 2, 0, 1)) == nf.lam  # u*y*z^2*v
        assert "v" not in hat.g6.variables()

    def test_chart_identity(self, sigma, nf):
        hat = sigma.hat
        hamb = hat.F.ambient
        amb = nf.F1.ambient
        chart = substitute(nf.F2, {"x": amb.one(), "w": nf.S12}, amb)
        assert chart.rename(hamb) == substitute(
            hat.F, {"u": hamb.one()}, hamb)

    def test_sigma_inverse_lifts_w(self, sigma, nf):
        # the weight-11 entry of the inverse restricts to S12 on u = 1
        hamb = sigma.hat.F.ambient
        entry = sigma.sigma_inverse[5]
        rest = substitute(entry, {"u": hamb.one()}, hamb)
        assert rest.rename(nf.F1.ambient) == nf.S12

    def test_verdict(self, sigma):
        assert sigma.report.verdict.kind == "ElementaryLink"
        assert str(sigma.report.verdict.target) == "X_7 in P(1,1,1,2,3)"


# ---------------------------------------------------------------------------
# census of the degree-7 model


def _boundary_model(seed, index, monomial):
    """The model of the normal form of seed without one monomial."""
    nf = normal_form_X1214(*random_member(seed))
    pair = [nf.F1, nf.F2]
    if monomial is not None:
        pair[index] = _drop(pair[index], monomial)
    return construct_link_sigma(normal_form_X1214(*pair)).hat


# the normal form itself (index 0, no monomial dropped) and four boundary
# members, each without one monomial of F1 or F2
_BOUNDARY_MEMBERS = pytest.mark.parametrize("index, monomial", [
    (0, None), (0, "y*z*v"), (0, "z^2*y*t"), (1, "y*z^4"),
    (1, "x^2*z^4")], ids=["member", "F1-yzv", "F1-z2yt", "F2-yz4",
                          "F2-x2z4"])


class TestCensusHatX:
    def test_main(self, sigma):
        census = singularity_census_hatX(sigma.hat)
        assert not census.reports["u"].on_variety
        assert not census.reports["y"].on_variety
        qhat = census.reports["z"]
        assert qhat.on_variety and not qhat.quasismooth
        labels = {n: q.type_label() for n, q in census.singular.items()}
        assert labels == {"t": "1/2(1,1,1)", "v": "1/3(1,1,2)"}
        # the curve u = y = t = 0 lies on the model, and along it the
        # only nonvanishing restricted derivative is v^2 in the u-slot
        hamb = sigma.hat.F.ambient
        assert substitute(sigma.hat.F, {"u": 0, "y": 0, "t": 0},
                          hamb).is_zero()
        _, entries = singular.quasismooth_on_stratum(
            (sigma.hat.F,), ("u", "y", "t"))
        assert [e[1:] for e in entries] == [("u", hamb.parse("v^2"))]

    @pytest.mark.parametrize("seed", [156, 741, 880])
    def test_u_point_on_model_rejected(self, seed):
        # dense members whose normalized F2 has no x^14: the u-point lies
        # on the model.  Whether such members are solid is still open,
        # so the gate stays.
        nf = normal_form_X1214(*random_member(seed))
        assert nf.F2.coefficient("x^14") == 0
        link = construct_link_sigma(nf)
        with pytest.raises(CertificateError, match="the u-coordinate point"
                           " lies on the degree-7 model"):
            singularity_census_hatX(link.hat)

    @pytest.mark.parametrize("seed", [7, 11, 23])
    def test_y_point_on_model_rejected(self, seed):
        # a boundary member: without y^7 in F2, c12 has no y^6 and the
        # y-point lies on the model
        nf = normal_form_X1214(*random_member(seed))
        link = construct_link_sigma(
            normal_form_X1214(nf.F1, _drop(nf.F2, "y^7")))
        with pytest.raises(CertificateError, match="the y-coordinate point"
                           " lies on the degree-7 model"):
            singularity_census_hatX(link.hat)

    def test_uncertified_E_divisor_rejects(self, sigma, monkeypatch):
        # E, the extraction of the sigma-inverse link, must be certified
        # irreducible like the exclusion divisors
        monkeypatch.setattr(
            singular, "irreducibility_verdict",
            lambda f: qpoly.IrreducibilityVerdict("unknown", "patched"))
        message = "exceptional divisor E over qhat is not certified"
        with pytest.raises(CertificateError, match=message):
            singularity_census_hatX(sigma.hat)

    def test_germ_table_lambda_nonzero(self, sigma):
        census = singularity_census_hatX(sigma.hat)
        germ = census.germ
        assert germ.kind == "cE6"
        assert germ.parameters["lambda"] == sigma.hat.lam
        assert germ.low_discrepancy_count == 4
        assert germ.row("E").discrepancy == 1
        for name in ("F1", "F3", "F5"):
            assert germ.row(name).multiplicity == Fraction(1, 2)
            assert germ.row(name).discrepancy == 1

    def test_germ_table_lambda_zero(self, lam0_member):
        out = normal_form_X1214(*lam0_member)
        assert out.lam == 0
        link = construct_link_sigma(out)
        census = singularity_census_hatX(link.hat)
        germ = census.germ
        assert germ.low_discrepancy_count == 3
        assert germ.row("F3").multiplicity == Fraction(3, 2)
        assert germ.row("F3").discrepancy == 2

    @pytest.mark.parametrize("seed", [7, 11, 23])
    @_BOUNDARY_MEMBERS
    def test_germ_shape(self, seed, index, monomial):
        # what replaced the forced gates of analyze_cE6_germ: the germ at
        # qhat, the model at z = 1 in coordinates (x, y, z, t) =
        # (u, t, y, v), has weight-six part x^2 + lam*x*z*t + x*z*b2 + a6,
        # the coefficient c_t = 1 at x*t^2 and the x-free tail z*c6; the
        # rest is x*g6, of weight at least seven
        hat = _boundary_model(seed, index, monomial)
        hamb = hat.F.ambient
        amb4 = qpoly.Ambient(("x", "y", "z", "t"))
        names = {"u": "x", "t": "y", "y": "z", "v": "t"}
        f, a6, b2, c6 = (
            substitute(p, {"z": hamb.one()}, hamb).rename(amb4, names)
            for p in (hat.F, hat.a6, hat.b2, hat.c6))
        x, z, t = (amb4.var(n) for n in "xzt")
        w = qpoly.WeightVector((3, 2, 1, 2), 1)
        w6 = f.w_component(w, 6)
        assert f.weight_of(w) == 6
        assert w6 == x**2 + (x * z * t).scale(hat.lam) + x * z * b2 + a6
        assert f.coefficient("x*t^2") == 1
        assert f.coefficient_of_power("x", 0) - a6 == z * c6
        rest = f - w6 - x * t**2 - z * c6
        assert qpoly.divides(x, rest) and rest.weight_of(w) >= 7
        germ = singularity_census_hatX(hat).germ
        assert germ.parameters["c_t"] == 1
        assert germ.parameters["mu"] == hat.mu


# ---------------------------------------------------------------------------
# the condition and the exclusion blowups


class TestExclusions:
    def test_condition_gates(self, sigma):
        # the one gate left guards the division by y, which sigma's
        # reassembly identity makes exact, so it fails only as an
        # internal inconsistency: here on a model given the term y^4*z^3,
        # which is z^4*x^3 at qhat, of w2-weight four and prime to y
        F = sigma.hat.F + sigma.hat.F.ambient.parse("y^4*z^3")
        with pytest.raises(InconsistencyError, match="not divisible by y"):
            condition_check(SimpleNamespace(F=F))

    def test_condition_h(self, sigma):
        F, h = condition_check(sigma.hat)
        camb = F.ambient
        assert camb.names == ("y", "z", "x", "t", "w")
        assert F == sigma.hat.F.rename(
            camb, {"u": "y", "y": "z", "z": "x", "t": "t", "v": "w"})
        assert h == camb.parse("x^5*y + w^2 + x^2*z*w + x^3*z^3 + x^3*z*t")

    @pytest.mark.parametrize("seed", [7, 11, 23])
    @_BOUNDARY_MEMBERS
    def test_filtration_shape(self, seed, index, monomial):
        # what replaced the gates of condition_check: the model splits as
        # x*a6 + z*c6 + y*R, its w1-part of weight six is
        # y*w^2 + lam*x^2*y*z*w + x*a6 (so alpha = beta = 1 and the
        # w1-order is six), and that part at x = 1 is the exceptional
        # equation of the (4,1,2,1) blowup
        hat = _boundary_model(seed, index, monomial)
        F, h = condition_check(hat)
        camb = F.ambient
        y, z, x, w = (camb.var(n) for n in "yzxw")
        names = {"u": "y", "y": "z", "z": "x", "t": "t", "v": "w"}
        a6, c6 = (p.rename(camb, names) for p in (hat.a6, hat.c6))
        assert qpoly.divides(y, F - x * a6 - z * c6)
        assert F.coefficient("x^5*y^2") == F.coefficient("y*w^2") == 1
        w1 = blowup_weight_vector(links._COND_WPS, "x", links._WEIGHTS1)
        w2 = blowup_weight_vector(links._COND_WPS, "x", links._WEIGHTS2)
        F6 = F.w_component(w1, 6)
        assert F6 == y * w**2 + (x**2 * y * z * w).scale(hat.lam) + x * a6
        assert F.weight_of(w1) == 6 and F.weight_of(w2) == 4
        assert y * h == F.w_component(w2, 4) + F.w_component(w2, 5)
        r1, _ = run_exclusion_blowups(hat)
        exceptional = r1.extraction.exceptional_equations[0]
        assert substitute(F6, {"x": camb.one()}, camb).rename(
            exceptional.ambient) == exceptional

    def test_blowup_4121(self, sigma):
        r1, _ = run_exclusion_blowups(sigma.hat)
        assert r1.verdict.kind == "NotSarkisov"
        assert r1.extraction.discrepancy == 1
        assert r1.cones.mov == ConeZ2((1, 0), (1, 1))
        assert r1.cones.anticanonical == DivisorClass(1, 1)
        assert r1.cones.anticanonical_on_mov_boundary
        assert r1.exceptional.is_irreducible

    def test_blowup_21214(self, sigma):
        _, r2 = run_exclusion_blowups(sigma.hat)
        assert r2.verdict.kind == "NotSarkisov"
        assert r2.extraction.discrepancy == 1
        assert r2.extraction.orders == (Fraction(6), Fraction(2))
        assert r2.cones.nef_cones[0] == ConeZ2((1, 0), (3, 2))
        assert r2.cones.mov == ConeZ2((1, 0), (1, 1))
        assert r2.cones.anticanonical_on_mov_boundary
        assert r2.exceptional.is_irreducible

    def test_blowups_on_random_member(self):
        F1, F2 = random_member(5)
        out = normal_form_X1214(F1, F2)
        link = construct_link_sigma(out)
        r1, r2 = run_exclusion_blowups(link.hat)
        assert r1.verdict.kind == "NotSarkisov"
        assert r2.verdict.kind == "NotSarkisov"

    @pytest.mark.parametrize("failing, blowup",
                             [(0, "(4,1,2,1)"), (1, "(2,1,2,1,4)")])
    def test_uncertified_exceptional_divisor_rejects(
            self, sigma, monkeypatch, failing, blowup):
        # the report notes an irreducible exceptional divisor only when
        # the verdict certifies it
        real = links.irreducibility_verdict
        calls = []

        def verdict(f):
            calls.append(f)
            if len(calls) == failing + 1:
                return qpoly.IrreducibilityVerdict("unknown", "patched")
            return real(f)

        monkeypatch.setattr(links, "irreducibility_verdict", verdict)
        message = re.escape(f"{blowup} blowup is not certified")
        with pytest.raises(CertificateError, match=message):
            run_exclusion_blowups(sigma.hat)
        assert len(calls) == failing + 1

    @pytest.mark.parametrize("lam0, e_witness", [
        (False, "linear in t with coprime coefficient and remainder"),
        (True, "quadratic in x, discriminant not a square"
               " (odd degree 3 in y)"),
    ], ids=["lambda-nonzero", "lambda-zero"])
    def test_verdict_witnesses(self, sigma, lam0_member, lam0, e_witness):
        # the rule that decides each verdict, as run_exclusion_blowups
        # states: the (4,1,2,1) divisor by its discriminant in w, the
        # (2,1,2,1,4) divisor as linear in s, and E by lam
        hat = (construct_link_sigma(normal_form_X1214(*lam0_member)).hat
               if lam0 else sigma.hat)
        assert hat.lam == (0 if lam0 else 1)
        r1, r2 = run_exclusion_blowups(hat)
        germ = singularity_census_hatX(hat).germ
        assert [r1.exceptional.witness, r2.exceptional.witness,
                germ.e_verdict.witness] == [
            "quadratic in w, discriminant not a square (odd degree 3 in t)",
            "linear in s with coprime coefficient and remainder",
            e_witness,
        ]


# ---------------------------------------------------------------------------
# curves


class TestCurves:
    def test_main(self, nf, sigma):
        out = exclude_degree_one_curves(sigma.hat)
        hamb = sigma.hat.F.ambient
        assert out.section == hamb.parse("z*t^3").scale(nf.mu)
        assert out.alpha == 1
        # a6 and c6 are a12 and c12 renamed: the normal form's resultant
        # certifies that they share no root
        assert sigma.hat.a6.rename(nf.F1.ambient) == nf.a12
        assert sigma.hat.c6.rename(nf.F1.ambient) == nf.c12
        assert nf.resultant != 0

    def test_random(self):
        F1, F2 = random_member(9)
        out = normal_form_X1214(F1, F2)
        link = construct_link_sigma(out)
        curves = exclude_degree_one_curves(link.hat)
        hamb = link.hat.F.ambient
        assert curves.section == hamb.parse("z*t^3").scale(out.mu)
        assert curves.alpha == link.hat.F.coefficient("u^2*z^5") != 0


# ---------------------------------------------------------------------------
# involutions


class TestInvolutions:
    def test_chi_and_iota(self, nf, sigma):
        data = build_involutions(nf, sigma)
        hat = sigma.hat
        hamb = hat.F.ambient
        # chi sends v to data.chi and fixes u, y, z, t
        assert data.chi == -hamb.var("v") - hamb.parse("y*z^2").scale(
            nf.lam)
        chi = {"v": data.chi}
        assert substitute(hat.F, chi, hamb) == hat.F
        assert substitute(data.chi, chi, hamb) == hamb.var("v")
        assert data.scale_degree == 2
        # the two extractions over qhat differ: v and its chi-image have
        # different valuations
        assert data.valuations == (Fraction(2), Fraction(1))
        amb = nf.F1.ambient
        x = amb.var("x")
        imap = dict(zip(amb.names, data.iota))
        assert substitute(nf.F1, imap, amb) == nf.F1 * x**12
        assert substitute(nf.F2, imap, amb) == nf.F2 * x**14
        on_chart = {n: substitute(e, {"x": 1}, amb)
                    for n, e in imap.items()}
        assert [substitute(on_chart[n], on_chart, amb)
                for n in amb.names] == [amb.one()] + [
                    amb.var(n) for n in amb.names[1:]]
        expected = (
            amb.parse("x^2"), amb.parse("x^2*y"), amb.parse("x^3*z"),
            amb.parse("x^4*t"), amb.parse("-x^7*v - x^6*y*z^2"),
            amb.parse("x^11*w - 2*x^10*y*z*v - x^9*y^2*z^3"),
        )
        assert data.iota == expected

    def test_iota_lambda_zero_is_biregular(self, lam0_member):
        out = normal_form_X1214(*lam0_member)
        link = construct_link_sigma(out)
        data = build_involutions(out, link)
        amb = out.F1.ambient
        assert data.scale_degree == 1
        assert data.valuations == (Fraction(2), Fraction(2))
        assert data.iota == (amb.parse("x"), amb.parse("y"),
                             amb.parse("z"), amb.parse("t"),
                             amb.parse("-v"), amb.parse("w"))

    def test_sampled_verification(self, nf, sigma):
        data = build_involutions(nf, sigma)
        out = verify_involution((nf.F1, nf.F2), X_WPS, data.iota,
                                samples=25, seed=3)
        assert out.passed == out.samples == 25

    def test_wrong_coupling_fails_sampling(self, nf, sigma):
        bad = involution_tuple(nf, sigma.sigma_inverse, lam=nf.lam + 1)
        out = verify_involution((nf.F1, nf.F2), X_WPS, bad,
                                samples=10, seed=3)
        assert out.samples == 10
        assert out.passed < 10

    def test_identities_in_sympy(self, main_member, lam0_member):
        # sympy, outside the kernel, re-checks what the link and the
        # involutions certify with qpoly; hatX's u, y, z, t, v share one
        # ring with X's x, ..., w, which compose substitutes at once
        ring, x, *_, u = sympy.ring("x,y,z,t,v,w,u", sympy.QQ)
        gens = dict(zip(map(str, ring.gens), ring.gens))

        def mapping(names, images):
            return [(gens[n], _sympy(e, ring)) for n, e in zip(names, images)]

        members = [main_member, lam0_member]
        members += [random_member(seed) for seed in range(1, 5)]
        for F1, F2 in members:
            nf = normal_form_X1214(F1, F2)
            link = construct_link_sigma(nf)
            f1, f2 = _sympy(nf.F1, ring), _sympy(nf.F2, ring)
            fhat = _sympy(link.hat.F, ring)
            sigma = mapping(HAT_WPS.names, link.sigma)
            sigma_inv = mapping(X_WPS.names, link.sigma_inverse)
            assert f1.compose(sigma_inv) == 0
            assert f2.compose(sigma_inv) == u**7 * fhat
            # fhat(sigma) = x^7*F2 + q*F1 for a polynomial q: one divisor
            # is a Groebner basis, so a zero remainder is divisibility
            _, rem = (fhat.compose(sigma) - x**7 * f2).div(f1)
            assert rem == 0

            data = build_involutions(nf, link)
            # chi sends v to data.chi and fixes u, y, z, t
            fixed = [link.hat.F.ambient.var(n) for n in HAT_WPS.names[:-1]]
            chi = mapping(HAT_WPS.names, fixed + [data.chi])
            assert fhat.compose(chi) == fhat
            assert [img.compose(chi) for _, img in chi] == [
                gens[n] for n in HAT_WPS.names]
            iota = mapping(X_WPS.names, data.iota)
            m = data.scale_degree - 1
            assert f1.compose(iota) == x**(12 * m) * f1
            assert f2.compose(iota) == x**(14 * m) * f2

    def test_wrong_coupling_fails_exactly(self, nf, sigma):
        # a wrong coupling still satisfies the F1 equivariance (the
        # cross terms cancel) but breaks it on F2, which is what the
        # sampled check detects
        amb = nf.F1.ambient
        x = amb.var("x")
        bad = involution_tuple(nf, sigma.sigma_inverse, lam=nf.lam + 1)
        imap = dict(zip(amb.names, bad))
        assert substitute(nf.F1, imap, amb) == nf.F1 * x**12
        assert substitute(nf.F2, imap, amb) != nf.F2 * x**14


# ---------------------------------------------------------------------------
# the classification


class TestClassification:
    def test_main(self, main_member):
        cls = classify_links(*main_member, samples=10)
        assert cls.solid
        assert cls.elementary_from_qhat == 2
        assert cls.germ_count == 4
        assert cls.citations == CITATIONS
        kinds = {r.name: r.verdict.kind for r in cls.reports}
        assert kinds == {
            "sigma": "ElementaryLink",
            "X-smooth-centers": "CitedExclusion",
            "hatX-smooth-centers": "CitedExclusion",
            "hatX-third-point": "NotMaximal",
            "hatX-curves": "CitedExclusion",
            "sigma-inverse": "ElementaryLink",
            "blowup-4-1-2-1": "NotSarkisov",
            "blowup-2-1-2-1-4": "NotSarkisov",
            "sigma-prime-inverse": "ElementaryLink",
        }
        assert cls.sigma.report.verdict.target is not None
        back = [r for r in cls.reports if r.name == "sigma-inverse"][0]
        assert back.verdict.target == X_SPEC

    def test_lambda_zero(self, lam0_member):
        cls = classify_links(*lam0_member, samples=5)
        assert cls.solid
        assert cls.elementary_from_qhat == 1
        assert cls.germ_count == 3
        names = [r.name for r in cls.reports]
        assert "sigma-prime-inverse" not in names

    def test_divisor_bookkeeping(self, main_member):
        cls = classify_links(*main_member, samples=5)
        assert len(cls.divisor_links) == cls.germ_count

    def test_stages_land_on_the_classification(self, main_member):
        stages = list(link_stages(*main_member, samples=5))
        assert [name for name, _ in stages] == [
            "normal-form", "census", "sigma", "hat-census", "exclusions",
            "curves", "involutions", "involution-check", "classification"]
        art = dict(stages)
        cls = art["classification"]
        assert cls.normal_form is art["normal-form"]
        assert cls.sigma is art["sigma"]
        assert cls.involution_check is art["involution-check"]
        assert cls.exclusions is art["exclusions"]
        assert cls.hat_census is art["hat-census"]
        # the census, the curve exclusion and the involutions are read
        # from their stages; a report holds the curve exclusion
        curves = [r for r in cls.reports if r.name == "hatX-curves"]
        assert curves[0].exceptional is art["curves"]
        assert art["census"].singular["w"].type_label() == "1/11(1,2,9)"
        assert art["involutions"].scale_degree == 2
        assert art["census"].samples == 5
        assert art["involution-check"].samples == 5

    def test_memos_carry_no_member_state(self, lam0_member):
        # the three two-ray games, the maps of the curve exclusion and the
        # blowup chart maps are kept for the process: members A, B, A
        # classified with them warm give the records of calls made with
        # them cleared; A and B differ in lam, a12 and c12
        def fresh(member):
            ambient.run_two_ray_game.cache_clear()
            links._curve_maps.cache_clear()
            singular._chart_maps.cache_clear()
            return vars(classify_links(*member, samples=5, seed=1))

        members = (lam0_member, random_member(4), lam0_member)
        want = [fresh(member) for member in members]
        got = [vars(classify_links(*member, samples=5, seed=1))
               for member in members]
        assert got == want
        assert ambient.run_two_ray_game.cache_info().hits == 9
        assert links._curve_maps.cache_info().hits == 3
        # four blowups per member: sigma's, the cE6 germ's E and the two
        # exclusion blowups
        charts = singular._chart_maps.cache_info()
        assert (charts.hits, charts.currsize) == (12, 4)

    def test_census_draws_are_capped(self, main_member):
        # the involution check draws every requested point, the census
        # of X at most CENSUS_SAMPLES
        art = dict(link_stages(*main_member, samples=30))
        assert art["census"].samples == CENSUS_SAMPLES == 20
        assert art["involution-check"].samples == 30
        assert art["involution-check"].passed == 30

    def test_each_point_is_drawn_once(self, main_member, nf, monkeypatch):
        # the census reads the first CENSUS_SAMPLES involution points
        expected = list(links._Sampler((nf.F1, nf.F2), X_WPS, GF())
                        .points(30, seed=0))
        drawn, read = [], []
        draw, points = links._Sampler.draw, links._Sampler.points

        def counted_draw(self, rng, tries=600):
            drawn.append(draw(self, rng, tries))
            return drawn[-1]

        def recorded_points(self, n, seed=0):
            read.append([])
            for pt in points(self, n, seed):
                read[-1].append(pt)
                yield pt

        monkeypatch.setattr(links._Sampler, "draw", counted_draw)
        monkeypatch.setattr(links._Sampler, "points", recorded_points)
        art = dict(link_stages(*main_member, samples=30))
        assert art["involution-check"].passed == 30
        assert drawn == expected
        census, involution = read
        assert census == expected[:CENSUS_SAMPLES]
        assert involution == expected

    def test_failed_draw_fails_in_the_stage_that_needs_it(
            self, main_member, monkeypatch):
        # draw 25 is past the census's 20, so the involution check fails
        class Budget(Exception):
            pass

        draws = []
        draw = links._Sampler.draw

        def failing_draw(self, rng, tries=600):
            draws.append(None)
            if len(draws) == 25:
                raise Budget
            return draw(self, rng, tries)

        monkeypatch.setattr(links._Sampler, "draw", failing_draw)
        seen = []
        with pytest.raises(Budget):
            for name, _ in link_stages(*main_member, samples=30):
                seen.append(name)
        assert "census" in seen
        assert seen[-1] == "involutions"

    def test_random_seeds(self):
        # the sampled checks run over the given field, by default F_(2^31-1)
        for seed, field in ((1, None), (4, None), (7, GF(1000003))):
            F1, F2 = random_member(seed)
            cls = classify_links(F1, F2, samples=5, field=field)
            assert cls.solid
            assert cls.citations == CITATIONS


# ---------------------------------------------------------------------------
# the member space


# the monomial supports of the sparse members of the benchmark; the
# coupled member keeps y*z*v (lambda != 0), the uncoupled one drops it
SPARSE_F1 = ["w*x", "y^6", "y^4*t", "y^2*t^2", "t^3", "y*z*v", "z^4",
             "z^2*y^3", "z^2*y*t", "x^12"]
SPARSE_F2 = ["w*z", "v^2", "y^7", "y*t^3", "x^14", "x^2*z^4"]
COUPLING = "y*z*v"


def _member(kind, seed):
    """The (F1, F2) pair of a dense, coupled or uncoupled member."""
    if kind == "dense":
        return random_member(seed)
    rng = random.Random(seed)
    amb = X_WPS.ambient()

    def poly(monomials):
        f = amb.zero()
        for mono in monomials:
            c = 0
            while c == 0:
                c = rng.randint(-9, 9)
            f = f + amb.parse(mono).scale(c)
        return f

    f1 = SPARSE_F1 if kind == "coupled" else [
        m for m in SPARSE_F1 if m != COUPLING]
    return poly(f1), poly(SPARSE_F2)


def _classification_bytes(cls):
    """The fields of a classification the benchmark serialises."""
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


@pytest.mark.parametrize("kind, rejected, digest", [
    ("dense", [38], "afd3e2c865eea3f4"),
    ("coupled", [], "69911ca22ccaac84"),
    ("uncoupled", [], "d75d14d781a8e4f4"),
], ids=["dense", "coupled", "uncoupled"])
def test_member_space_is_frozen(kind, rejected, digest):
    # seeds 1-40 of each kind, classified with samples=20 and seed=s:
    # the classification of each accepted member and "type: message" of
    # each rejection, frozen.  A change that keeps the mathematics and
    # the bytes keeps these digests.
    h = hashlib.sha256()
    refused = []
    for seed in range(1, 41):
        try:
            cls = classify_links(*_member(kind, seed), samples=20, seed=seed)
            out = _classification_bytes(cls)
        except CertificateError as exc:
            refused.append(seed)
            out = f"{type(exc).__name__}: {exc}".encode()
        h.update(out + b"\n")
    assert refused == rejected
    assert h.hexdigest()[:16] == digest
