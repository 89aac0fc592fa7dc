"""Tests for quotient singularity classification and discrepancy tables."""

import re
from fractions import Fraction

import pytest

from wcilinks.ambient import WPS
from wcilinks.qpoly import Ambient, QQ, WeightVector, parse
from wcilinks.singular import (
    CertificateError,
    Germ,
    InconsistencyError,
    QuotientSingularity,
    analyze_cA2_germ,
    analyze_cE6_germ,
    classify_quotient_singularity,
    discrepancy_chart_oracle,
    quadratic_involution_test,
    quasismooth_at_sample,
    quasismooth_on_stratum,
    weighted_blowup_discrepancy,
)

P61 = WPS((1, 2, 3, 4, 7, 11), ("x", "y", "z", "t", "v", "w"))


def main_family_member():
    amb = P61.ambient(QQ)
    f1 = parse(
        "w*x + y^6 + y^4*t + y^2*t^2 + t^3 + y*z*v + z^4"
        " + z^2*y*(y^2 + t) + x^12",
        amb,
    )
    f2 = parse("w*z + v^2 + y*(y^6 + 2*t^3) + x^14 + x^2*z^4", amb)
    return amb, [f1, f2]


# ---------------------------------------------------------------------------
# quotient singularity types


def test_quotient_type_canonical_form():
    q = QuotientSingularity(11, (2, 4, 7))
    assert q.canonical_residues() == (1, 2, 9)
    assert q.type_label() == "1/11(1,2,9)"
    assert q.is_terminal()
    assert q.is_isolated()


def test_quotient_type_unit_equivalence():
    # multiplying by a unit does not change the canonical form
    a = QuotientSingularity(5, (3, 2, 1))
    b = QuotientSingularity(5, (1, 2, 4))
    assert a.canonical_residues() == b.canonical_residues() == (1, 2, 3)
    assert a.is_terminal() and b.is_terminal()


def test_quotient_type_terminal_examples():
    assert QuotientSingularity(2, (1, 1, 1)).is_terminal()
    assert QuotientSingularity(3, (1, 1, 2)).is_terminal()
    assert QuotientSingularity(4, (1, 1, 3)).is_terminal()
    # age one at the generator: canonical but not terminal
    assert not QuotientSingularity(3, (1, 1, 1)).is_terminal()
    # a fixed curve: not isolated, not terminal
    q = QuotientSingularity(2, (1, 1, 0))
    assert not q.is_isolated()
    assert not q.is_terminal()


def test_quotient_type_smooth():
    q = QuotientSingularity(1, (0, 0, 0))
    assert q.type_label() == "smooth"
    assert q.is_terminal()


# ---------------------------------------------------------------------------
# coordinate point classification


def test_classify_eleventh_weight_point():
    amb, eqs = main_family_member()
    rep = classify_quotient_singularity(eqs, P61, "w")
    assert rep.on_variety and rep.quasismooth
    assert rep.rank == 2
    assert rep.eliminated == ("x", "z")
    assert rep.quotient.r == 11
    assert rep.quotient.residues == (2, 4, 7)
    assert rep.quotient.type_label() == "1/11(1,2,9)"
    assert rep.quotient.is_terminal()


@pytest.mark.parametrize("point", ["x", "y", "z", "t", "v"])
def test_classify_points_off_the_variety(point):
    amb, eqs = main_family_member()
    rep = classify_quotient_singularity(eqs, P61, point)
    assert not rep.on_variety


def test_classify_rank_deficient_point():
    wps = WPS((1, 1, 1), ("x", "y", "z"))
    amb = wps.ambient(QQ)
    f = parse("x^2*y + z^3", amb)
    rep = classify_quotient_singularity([f], wps, "y")
    assert rep.on_variety
    assert not rep.quasismooth
    assert rep.rank == 0


def test_classify_smooth_point():
    wps = WPS((1, 1, 1, 1), ("x", "y", "z", "w"))
    amb = wps.ambient(QQ)
    f = parse("w^2*x + y^3 + z^3", amb)
    rep = classify_quotient_singularity([f], wps, "w")
    assert rep.on_variety and rep.quasismooth
    assert rep.eliminated == ("x",)
    assert rep.quotient.type_label() == "smooth"


def test_quasismooth_at_sample_and_on_stratum():
    wps = WPS((1, 1, 1), ("x", "y", "z"))
    amb = wps.ambient(QQ)
    f = parse("x^3 + y^3 + z^3", amb)
    assert quasismooth_at_sample([f], (1, 0, 0))
    assert not quasismooth_at_sample([f], (0, 0, 0))
    restricted, entries = quasismooth_on_stratum([f], ("x", "y"))
    names = {name for (_, name, _) in entries}
    assert names == {"z"}


# ---------------------------------------------------------------------------
# weighted blowup discrepancies


def test_discrepancy_quotient_point_weight_eleven():
    amb = Ambient(("y", "t", "v"), QQ)
    germ = Germ(amb, (), 11, (2, 4, 7))
    b = WeightVector((1, 2, 9), 11)
    rec = weighted_blowup_discrepancy(germ, b)
    assert rec.discrepancy == Fraction(1, 11)
    assert rec.lattice_multiplier == 6


def test_discrepancy_ambient_model_weight_eleven():
    # same discrepancy computed before eliminating two coordinates
    amb = Ambient(("x", "y", "z", "t", "v"), QQ)
    f1 = parse(
        "x + y^6 + y^4*t + y^2*t^2 + t^3 + y*z*v + z^4 + z^2*y*(y^2 + t)",
        amb,
    )
    f2 = parse("z + v^2 + y*(y^6 + 2*t^3)", amb)
    germ = Germ(amb, (f1, f2), 11, (1, 2, 3, 4, 7))
    b = WeightVector((6, 1, 7, 2, 9), 11)
    rec, charts, agree = discrepancy_chart_oracle(germ, b)
    assert rec.orders == (Fraction(6, 11), Fraction(7, 11))
    assert rec.discrepancy == Fraction(1, 11)
    assert agree
    assert len(charts) == 5


def test_discrepancy_half_point():
    amb = Ambient(("x", "y", "z", "t"), QQ)
    f = parse("x*y + t^3 + z^6", amb)
    germ = Germ(amb, (f,), 2, (1, 1, 1, 0))
    b = WeightVector((5, 1, 1, 2), 2)
    rec, charts, agree = discrepancy_chart_oracle(germ, b)
    assert rec.orders == (Fraction(3),)
    assert rec.discrepancy == Fraction(1, 2)
    assert agree


def test_discrepancy_lattice_validation():
    amb = Ambient(("x", "y", "z", "t"), QQ)
    f = parse("x*y + t^3 + z^6", amb)
    germ = Germ(amb, (f,), 2, (1, 1, 1, 0))
    with pytest.raises(ValueError, match="not congruent"):
        weighted_blowup_discrepancy(germ, WeightVector((1, 1, 1, 1), 2))
    with pytest.raises(ValueError, match="denominator"):
        weighted_blowup_discrepancy(germ, WeightVector((1, 1, 1, 1), 3))


# ---------------------------------------------------------------------------
# the half-index compound point analyzer


def census_cA2_g():
    zt = Ambient(("z", "t"), QQ)
    return parse("t^3 + z^6 + z^2*t^2", zt)


def test_cA2_table():
    res = analyze_cA2_germ(census_cA2_g())
    assert res.parameters["g6"] == census_cA2_g()
    assert [r.name for r in res.rows] == ["E", "F1", "F2", "F3", "F4"]
    e = res.row("E")
    assert e.weights == WeightVector((5, 1, 1, 2), 2)
    assert e.discrepancy == Fraction(1, 2)
    assert res.e_verdict.is_irreducible
    expected = {
        "F1": ((3, 1, 2), Fraction(1, 5), Fraction(3, 5), Fraction(1, 2)),
        "F2": ((1, 2, 4), Fraction(2, 5), Fraction(1, 5), Fraction(1, 2)),
        "F3": ((4, 3, 1), Fraction(3, 5), Fraction(4, 5), Fraction(1)),
        "F4": ((2, 4, 3), Fraction(4, 5), Fraction(2, 5), Fraction(1)),
    }
    for name, (nums, ay, mult, ax) in expected.items():
        row = res.row(name)
        assert row.weights == WeightVector(nums, 5)
        assert row.discrepancy_on_blowup == ay
        assert row.multiplicity == mult
        assert row.discrepancy == ax
    assert res.low_discrepancy_count == 3


def test_cA2_composition_law():
    res = analyze_cA2_germ(census_cA2_g())
    aE = res.row("E").discrepancy
    for row in res.rows[1:]:
        assert row.discrepancy == row.discrepancy_on_blowup + row.multiplicity * aE


def test_cA2_verdict_witness():
    # E, x*y + g6(z, t), is linear in x, and its coefficient y does not
    # occur in g6
    res = analyze_cA2_germ(census_cA2_g())
    assert res.e_verdict.witness == (
        "linear in x with coprime coefficient and remainder")


def test_cA2_gates():
    zt = Ambient(("z", "t"), QQ)
    for g, gate in (("t^3 + z^5", "even_in_z"), ("t^2 + z^6", "order_six"),
                    ("z^6 + z^2*t^2 + z^4*t", "t_cubed_present")):
        with pytest.raises(CertificateError, match=f"cA/2 gate failed: {gate}"):
            analyze_cA2_germ(parse(g, zt))


# ---------------------------------------------------------------------------
# the compound E6 analyzer


def cE6_germ(lam):
    amb = Ambient(("x", "y", "z", "t"), QQ)
    base = "x^2 + y^3 + z^6 + x*t^2 + z^7"
    if lam:
        base += f" + {lam}*x*z*t"
    return parse(base, amb)


def test_cE6_table_generic():
    res = analyze_cE6_germ(cE6_germ(1))
    assert res.parameters["lambda"] == Fraction(1)
    assert res.parameters["c_t"] == 1
    assert res.row("E").discrepancy == 1
    assert res.e_verdict.is_irreducible
    for i in (1, 3, 5):
        row = res.row(f"F{i}")
        assert row.weights == WeightVector((i, 2, 1, 1, 6 - i), 2)
        assert row.discrepancy_on_blowup == Fraction(1, 2)
        assert row.multiplicity == Fraction(1, 2)
        assert row.discrepancy == 1
    assert res.low_discrepancy_count == 4


def test_cE6_table_degenerate():
    res = analyze_cE6_germ(cE6_germ(0))
    assert res.parameters["lambda"] == Fraction(0)
    row3 = res.row("F3")
    assert row3.multiplicity == Fraction(3, 2)
    assert row3.discrepancy == 2
    assert res.row("F1").discrepancy == 1
    assert res.row("F5").discrepancy == 1
    assert res.low_discrepancy_count == 3


def test_cE6_normalizes_leading_unit():
    amb = Ambient(("x", "y", "z", "t"), QQ)
    f = parse("2*x^2 + 2*y^3 + 2*z^6 + 2*x*t^2 + 2*x*z*t", amb)
    res = analyze_cE6_germ(f)
    assert res.parameters["mu"] == 1
    assert res.low_discrepancy_count == 4


def test_cE6_gates():
    amb = Ambient(("x", "y", "z", "t"), QQ)
    # triple root in the cubic: the one gate a member can fail
    with pytest.raises(CertificateError, match=re.escape(
            "compound E6 gates failed at qhat: ['cubic_simple_roots']")):
        analyze_cE6_germ(
            parse("x^2 + y^3 + 3*y^2*z^2 + 3*y*z^4 + z^6 + x*t^2", amb))
    # the gates forced on every germ at qhat: no cube of y, no quadratic
    # unit in t, a stray monomial of weight six
    for f, gate in (("x^2 + z^6 + x*t^2", "mu_nonzero"),
                    ("x^2 + y^3 + z^6", "t_squared_unit"),
                    ("x^2 + y^3 + z^6 + x*t^2 + t^3", "weight_six_support")):
        with pytest.raises(InconsistencyError,
                           match=f"forced compound E6 gate failed: {gate}"):
            analyze_cE6_germ(parse(f, amb))


# ---------------------------------------------------------------------------
# quadratic involution test


def test_quadratic_involution_not_maximal():
    amb = Ambient(("u", "y", "z", "t", "v"), QQ)
    F = parse("v^2*u + v*u*y*z^2 + z^7 + y^7 + t^2*z^3", amb)
    res = quadratic_involution_test(F, "v")
    assert res.kind == "NotMaximal"
    assert res.double_cover is None


def test_quadratic_involution_self_link():
    amb = Ambient(("u", "y", "z", "t", "v"), QQ)
    F = parse("v^2*u + v*y^4 + z^7 + y^7", amb)
    res = quadratic_involution_test(F, "v")
    assert res.kind == "SelfLink"
    Z = res.double_cover
    ext = Z.ambient
    assert Z == parse("s_^2 + s_*y^4 + u*(z^7 + y^7)", ext)


def test_quadratic_involution_requires_degree_two():
    amb = Ambient(("u", "y", "z", "t", "v"), QQ)
    F = parse("v*y^4 + z^7", amb)
    with pytest.raises(ValueError, match="degree exactly two"):
        quadratic_involution_test(F, "v")
