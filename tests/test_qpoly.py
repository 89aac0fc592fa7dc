"""Unit tests for exact polynomial arithmetic, parsing, and certificates."""

import random
from fractions import Fraction

import pytest
import sympy

from wcilinks.qpoly import (
    Ambient,
    DEFAULT_PRIME,
    Evaluator,
    ExactDivisionError,
    GF,
    IrreducibilityVerdict,
    JacobianRank,
    QQ,
    QPolynomial,
    Substitution,
    WeightVector,
    divexact,
    divides,
    evaluate,
    irreducibility_verdict,
    jacobian,
    matrix_rank_at,
    parse,
    resultant,
    substitute,
    toric_transform,
)
from wcilinks.qpoly import (
    _MAX_NESTING,
    _eliminate,
    _grevlex,
    _univariate_gcd,
    det,
)
from wcilinks.links import (
    X_NAMES,
    X_WPS,
    _Sampler,
    normal_form_X1214,
    random_member,
)


@pytest.fixture
def A():
    return Ambient(("x", "y", "z"), QQ)


# ---------------------------------------------------------------------------
# fields


def test_rational_field_coerce_and_sqrt():
    assert QQ.coerce(3) == Fraction(3)
    assert QQ.coerce("2/7") == Fraction(2, 7)
    assert QQ.sqrt(Fraction(9, 4)) == Fraction(3, 2)
    assert QQ.sqrt(Fraction(2)) is None
    assert QQ.sqrt(Fraction(-1)) is None


def test_prime_field_arithmetic():
    F = GF(101)
    assert F.coerce(Fraction(1, 2)) == 51
    assert F.mul(51, 2) == 1
    assert F.inv(7) * 7 % 101 == 1
    s = F.sqrt(5)  # 5 = 45^2 mod 101
    assert s is not None and s * s % 101 == 5
    assert F.sqrt(2) is None  # 2 is not a QR mod 101
    with pytest.raises(ZeroDivisionError):
        F.inv(0)


def test_prime_field_cached():
    assert GF(101) is GF(101)
    assert GF(101) == GF(101)
    assert GF(101) != GF(103)


@pytest.mark.parametrize("modulus", [
    0, 1, 4, 9, 15, 2047, 3215031751,  # the last two are strong pseudoprimes
    2**89 - 1,  # prime, but past the deterministic Miller-Rabin range
])
def test_prime_field_rejects_unproven_moduli(modulus):
    with pytest.raises(ValueError):
        GF(modulus)


def test_prime_field_accepts_primes():
    for p in (2, 3, 13, 998244353, 2**61 - 1):
        assert GF(p).p == p


@pytest.mark.parametrize("p", [2, 3, 7, 13, 101, 103, 1000003, 998244353,
                               DEFAULT_PRIME])
def test_prime_field_sqrt_matches_sympy(p):
    # 998244353 = 119 * 2^23 + 1 runs Tonelli-Shanks through 23 squarings;
    # 3, 7, 103 and 2^31 - 1 are 3 mod 4, where a^((p+1)/4) is the root
    # of a square and the check of its square refuses a non-square
    from sympy.ntheory.residue_ntheory import sqrt_mod

    F = GF(p)
    if p < 1000:
        residues = range(p)
    else:
        rng = random.Random(p)
        residues = [rng.randrange(p) for _ in range(2000)]
    for a in residues:
        assert F.sqrt(a) == (sqrt_mod(a, p) if a else 0)


# ---------------------------------------------------------------------------
# parser and printing


def test_parse_basic(A):
    f = A.parse("x^2 + 2*x*y + y^2")
    assert f.coefficient((2, 0, 0)) == 1
    assert f.coefficient((1, 1, 0)) == 2
    assert f.coefficient((0, 2, 0)) == 1
    assert f.total_degree() == 2


def test_parse_fraction_literal(A):
    f = A.parse("1/2*x - 3/4")
    assert f.coefficient((1, 0, 0)) == Fraction(1, 2)
    assert f.constant_coefficient() == Fraction(-3, 4)


def test_parse_parens_and_unary_minus(A):
    f = A.parse("-(x - y)^2")
    g = A.parse("-x^2 + 2*x*y - y^2")
    assert f == g


def test_parse_power_binds_tighter_than_mul(A):
    assert A.parse("2*x^3") == 2 * A.var("x") ** 3


def test_parse_rejects_unknown_variable(A):
    with pytest.raises(ValueError, match="unknown variable"):
        A.parse("x + w")


def test_parse_rejects_implicit_multiplication(A):
    with pytest.raises(ValueError):
        A.parse("2x")


def test_parse_rejects_general_division(A):
    with pytest.raises(ValueError):
        A.parse("x/y")
    with pytest.raises(ValueError):
        A.parse("(x+1)/2")


def test_parse_rejects_trailing_garbage(A):
    with pytest.raises(ValueError, match="trailing|unexpected"):
        A.parse("x + y)")


def test_parse_bounds_nesting(A):
    # nesting at the bound parses; one level more, or thousands, is
    # refused by name before Python's recursion limit is reached
    k = _MAX_NESTING
    assert A.parse("(" * k + "x - y" + ")" * k) == A.parse("x - y")
    assert A.parse("-(" * k + "x" + ")" * k) == (-1) ** k * A.var("x")
    for depth in (k + 1, 3000):
        with pytest.raises(ValueError,
                           match=f"position {k} is nested above the limit"):
            A.parse("(" * depth + "x" + ")" * depth)


def test_print_parse_round_trip(A):
    cases = [
        "x^2 + 2*x*y + y^2",
        "-x^3 + 1/2*y*z - 7",
        "x",
        "0",
        "-1/3",
        "x*y*z - x^5 + z^2",
    ]
    for text in cases:
        f = A.parse(text)
        assert A.parse(f.to_str()) == f


def test_grevlex_print_order(A):
    # graded, and within a degree x^2 before x*y before y^2
    f = A.parse("y^2 + x*y + x^2 + z^3")
    assert f.to_str() == "z^3 + x^2 + x*y + y^2"


def test_grevlex_key_matches_the_definition():
    # a < b iff deg a < deg b, or the degrees agree and the rightmost
    # nonzero entry of a - b is positive
    def below(a, b):
        if sum(a) != sum(b):
            return sum(a) < sum(b)
        diff = [x - y for x, y in zip(a, b) if x != y]
        return bool(diff) and diff[-1] > 0

    rng = random.Random("grevlex")
    same_degree = 0
    for _ in range(2000):
        n = rng.randint(1, 6)
        a = tuple(rng.randint(0, 4) for _ in range(n))
        if rng.random() < 0.5:
            # a shuffle of a keeps its degree
            b = tuple(rng.sample(a, n))
        else:
            b = tuple(rng.randint(0, 4) for _ in range(n))
        same_degree += sum(a) == sum(b) and a != b
        assert (_grevlex(a) < _grevlex(b)) == below(a, b), (a, b)
        assert (_grevlex(a) == _grevlex(b)) == (a == b), (a, b)
    assert same_degree > 500


def test_zero_prints_as_zero(A):
    assert A.zero().to_str() == "0"
    assert (A.parse("x") - A.parse("x")).to_str() == "0"


# ---------------------------------------------------------------------------
# arithmetic


def test_ring_laws(A):
    rng = random.Random(7)

    def rand_poly():
        terms = {}
        for _ in range(rng.randint(1, 6)):
            m = tuple(rng.randint(0, 3) for _ in range(3))
            terms[m] = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
        return QPolynomial(A, terms)

    for _ in range(50):
        f, g, h = rand_poly(), rand_poly(), rand_poly()
        assert f + g == g + f
        assert (f + g) + h == f + (g + h)
        assert f * g == g * f
        assert (f * g) * h == f * (g * h)
        assert f * (g + h) == f * g + f * h
        assert f - f == A.zero()
        assert f * A.one() == f
        assert f * A.zero() == A.zero()


def test_pow(A):
    x, y = A.var("x"), A.var("y")
    assert (x + y) ** 0 == A.one()
    assert (x + y) ** 3 == A.parse("x^3 + 3*x^2*y + 3*x*y^2 + y^3")


def test_derivative(A):
    f = A.parse("x^3*y + z^2 - 4*x")
    assert f.derivative("x") == A.parse("3*x^2*y - 4")
    assert f.derivative("z") == A.parse("2*z")
    assert f.derivative("y") == A.parse("x^3")
    F3 = Ambient(("x", "y"), GF(3))
    # 3*x^2 vanishes in characteristic three and leaves no zero term
    assert list(F3.parse("x^3 + 2*x*y").derivative("x").items()) == [
        ((0, 1), 2)]


def test_as_univariate_and_coefficients(A):
    f = A.parse("(y + z)*x^2 + 3*x + y*z")
    uni = f.as_univariate("x")
    assert set(uni) == {0, 1, 2}
    assert uni[2] == A.parse("y + z")
    assert uni[1] == A.const(3)
    assert uni[0] == A.parse("y*z")
    assert f.coefficient_of_power("x", 2) == A.parse("y + z")
    assert f.degree_in("x") == 2
    assert f.order_in("x") == 0
    assert A.parse("x^2*y + x^3").order_in("x") == 2


def test_monomial_content(A):
    f = A.parse("x^2*y + x^3*y^2")
    assert f.monomial_content() == (2, 1, 0)


# ---------------------------------------------------------------------------
# weights


def test_weight_vector_basics():
    w = WeightVector((1, 2, 3), 1)
    assert w.weight((1, 1, 1)) == 6
    b = WeightVector((6, 1, 7), 11)
    assert b.weight((1, 5, 0)) == 1
    assert b.weight((0, 1, 0)) == Fraction(1, 11)


def test_weight_filtration(A):
    w = WeightVector((1, 2, 3), 1)
    f = A.parse("x^6 + y^3 + z^2 + x*y + z")
    assert f.weight_of(w) == 3
    assert f.w_component(w, 3) == A.parse("x*y + z")
    assert f.w_component(w, 6) == A.parse("x^6 + y^3 + z^2")
    assert f.w_component(w, 5).is_zero()
    assert f.quasi_homogeneous_degree(w) is None
    assert A.parse("x^6 + y^3").quasi_homogeneous_degree(w) == 6
    assert A.zero().weight_of(w) is None


# ---------------------------------------------------------------------------
# substitution


def test_substitute_is_a_ring_homomorphism(A):
    rng = random.Random(11)
    target = Ambient(("s", "t"), QQ)
    images = {
        "x": target.parse("s^2 - t"),
        "y": target.parse("s + 1"),
        "z": target.parse("t^3"),
    }
    sub = Substitution(A, target, images)

    def rand_poly():
        terms = {}
        for _ in range(rng.randint(1, 5)):
            m = tuple(rng.randint(0, 2) for _ in range(3))
            terms[m] = Fraction(rng.randint(-4, 4))
        return QPolynomial(A, terms)

    for _ in range(25):
        f, g = rand_poly(), rand_poly()
        assert sub(f + g) == sub(f) + sub(g)
        assert sub(f * g) == sub(f) * sub(g)


def test_substitute_unmapped_variables_pass_through(A):
    f = A.parse("x*y + z")
    g = substitute(f, {"x": A.parse("y^2")}, A)
    assert g == A.parse("y^3 + z")


def test_substitute_missing_target_variable_errors(A):
    target = Ambient(("x", "y"), QQ)
    f = A.parse("x + z")
    with pytest.raises(ValueError):
        Substitution(A, target, {"x": target.var("y")})(f)


def test_substitute_error_names_the_variable_without_image(A):
    target = Ambient(("x", "y"), QQ)
    sub = Substitution(A, target, {"x": target.var("y")})
    with pytest.raises(ValueError, match="variable 'z' occurs"):
        sub(A.parse("x + z"))
    # z has no image, but it does not occur here
    assert sub(A.parse("x^2 + 3*y")) == target.parse("y^2 + 3*y")


def test_substitute_zero_image_drops_exactly_the_terms_with_it(A):
    f = A.parse("x^2*y + x*z - 2*y^3 + z + 5")
    assert substitute(f, {"x": 0}, A) == A.parse("-2*y^3 + z + 5")
    g = substitute(f, {"x": 0, "y": A.parse("y + z")}, A)
    assert g == A.parse("-2*(y + z)^3 + z + 5")


# the kernel as first written, on bare term dicts: every result went
# through the clean-up of the public constructor, and a power squared
# its way up from one


def _terms(f):
    return dict(f.items())


def _ref_is_zero(c, field):
    return c % field.p == 0 if field.characteristic else c == 0


def _ref_clean(terms, field):
    return {m: c for m, c in terms.items() if not _ref_is_zero(c, field)}


def _ref_add(s, o, field):
    terms = dict(s)
    for m, c in o.items():
        if m in terms:
            t = field.add(terms[m], c)
            if _ref_is_zero(t, field):
                del terms[m]
            else:
                terms[m] = t
        else:
            terms[m] = c
    return _ref_clean(terms, field)


def _ref_neg(s, field):
    return _ref_clean({m: field.neg(c) for m, c in s.items()}, field)


def _ref_mul(s, o, field):
    a, b = (s, o) if len(s) > len(o) else (o, s)
    terms = {}
    for mb, cb in b.items():
        for ma, ca in a.items():
            m = tuple(x + y for x, y in zip(ma, mb))
            c = field.mul(ca, cb)
            if m in terms:
                c = field.add(terms[m], c)
                if _ref_is_zero(c, field):
                    del terms[m]
                    continue
            terms[m] = c
    return _ref_clean(terms, field)


def _ref_one(field, nvars):
    return {(0,) * nvars: field.coerce(1)}


def _ref_pow(s, n, field, nvars):
    result, base = _ref_one(field, nvars), s
    while n:
        if n & 1:
            result = _ref_mul(result, base, field)
        base = _ref_mul(base, base, field) if n > 1 else base
        n >>= 1
    return result


def _reference_substitute(sub, f):
    """The substitution as first written: per source term a constant,
    times the cached powers of the images, added to the result."""
    if f.ambient != sub.source:
        f = f.rename(sub.source)
    field, nvars = sub.target.field, sub.target.nvars
    powers = [{0: _ref_one(field, nvars)} for _ in sub.images]
    result = {}
    for m, c in f.items():
        piece = _ref_clean({(0,) * nvars: field.coerce(c)}, field)
        for i, e in enumerate(m):
            if e == 0:
                continue
            if sub.images[i] is None:
                raise ValueError(f"variable {sub.source.names[i]!r} occurs")
            cache = powers[i]
            while e not in cache:
                top = max(cache)
                cache[top + 1] = _ref_mul(cache[top], _terms(sub.images[i]),
                                          field)
            piece = _ref_mul(piece, cache[e], field)
        result = _ref_add(result, piece, field)
    return result


_IMAGE_KINDS = ("zero", "constant", "monomial", "scaled", "multi")


def _random_image(rng, target, kind):
    def exps():
        return tuple(rng.randint(0, 2) for _ in target.names)

    if kind == "zero":
        return target.zero()
    if kind == "constant":
        return target.const(rng.choice([-3, -1, 2, Fraction(5, 7)]))
    if kind == "monomial":
        return target.monomial(exps())
    if kind == "scaled":
        return target.monomial(exps(), rng.choice([Fraction(-2, 3), 4, -1]))
    f = target.zero()
    while len(f.items()) < 2:
        f = f + target.monomial(exps(), rng.randint(-3, 3))
    return f


@pytest.mark.parametrize("field", [QQ, GF(101)], ids=["QQ", "GF101"])
def test_substitute_matches_reference(field):
    # term for term; the order of the terms is not part of the contract
    rng = random.Random(20)
    source = Ambient(("x", "y", "z", "t"), field)
    shuffled = Ambient(("t", "z", "y", "x"), field)
    target = Ambient(("t", "s", "u", "x"), field)
    repeated = cancelled = 0
    for case in range(150):
        mapping = {}
        for n in source.names:
            if n in target.names and rng.random() < 0.2:
                continue  # passes through to the variable of that name
            kind = rng.choice(_IMAGE_KINDS + ("multi",))
            mapping[n] = _random_image(rng, target, kind)
        g = QPolynomial(source, {
            tuple(rng.randint(0, 3) for _ in range(4)):
                field.coerce(rng.randint(-5, 5))
            for _ in range(rng.randint(1, 12))})
        if case % 3 == 0:
            # x and y share an image: g minus g with x and y swapped
            # goes to zero, and adding h leaves only h's image
            mapping["y"] = mapping.get("x", target.var("x"))
            swapped = QPolynomial(source, {
                (m[1], m[0]) + m[2:]: c for m, c in g.items()})
            h = QPolynomial(source, {(0, 0, 1, 1): field.one()})
            f = g - swapped + (h if case % 2 else source.zero())
        else:
            f = g
        if case % 4 == 1:
            f = f.rename(shuffled)
        sub = Substitution(source, target, mapping)
        multi = [i for i, img in enumerate(sub.images)
                 if len(img.items()) > 1]
        patterns = [tuple(m[i] for i in multi)
                    for m, _ in f.rename(source).items()]
        repeated += bool(multi) and len(set(patterns)) < len(patterns)
        got = sub(f)
        want = _reference_substitute(sub, f)
        assert got.ambient == target
        assert not any(field.is_zero(c) for _, c in got.items())
        assert dict(got.items()) == dict(want.items())
        cancelled += not f.is_zero() and got.is_zero()
    assert repeated >= 30
    assert cancelled >= 10


@pytest.mark.parametrize("field", [QQ, GF(101)], ids=["QQ", "GF101"])
def test_substitution_reused_equals_fresh(field):
    # a map keeps the powers and products it has expanded: applied to
    # several polynomials, in either order, it gives what a fresh map
    # gives each of them, term order included
    rng = random.Random(f"reuse/{field!r}")
    source = Ambient(("x", "y", "z", "t"), field)
    target = Ambient(("t", "s", "u", "x"), field)
    reused = 0
    for _ in range(40):
        mapping = {n: _random_image(rng, target, rng.choice(
            _IMAGE_KINDS + ("multi", "multi"))) for n in source.names}
        fs = [QPolynomial(source, {
            tuple(rng.randint(0, 3) for _ in range(4)):
                field.coerce(rng.randint(-5, 5))
            for _ in range(rng.randint(1, 10))}) for _ in range(4)]
        fresh = [list(Substitution(source, target, mapping)(f).items())
                 for f in fs]
        for order in (list(range(4)), [3, 2, 1, 0]):
            sub = Substitution(source, target, mapping)
            assert [list(sub(fs[k]).items()) for k in order] == [
                fresh[k] for k in order]
        multi = [i for i, img in enumerate(sub.images)
                 if len(img.items()) > 1]
        patterns = [{tuple(m[i] for i in multi) for m, _ in f.items()}
                    - {(0,) * len(multi)} for f in fs]
        reused += any(patterns[j] & patterns[k]
                      for j in range(4) for k in range(j))
    assert reused >= 20


@pytest.mark.parametrize("field", [QQ, GF(101)], ids=["QQ", "GF101"])
def test_kernel_matches_reference(field):
    # the results carry no zero coefficient and equal the reference term
    # for term, in any order
    amb = Ambient(("x", "y", "z"), field)
    rng = random.Random(f"kernel/{field!r}")

    def coefficient():
        c = rng.choice([1, -1, 2, -3, Fraction(3, 7), rng.randint(-50, 50)])
        return field.coerce(c)

    def poly(ambient, size):
        return QPolynomial(ambient, {
            tuple(rng.randint(0, 2) for _ in ambient.names): coefficient()
            for _ in range(size)})

    def check(got, want):
        assert not any(field.is_zero(c) for _, c in got.items())
        assert dict(got.items()) == dict(want.items())
        return got

    seen = {"sum": 0, "product": 0}
    for case in range(200):
        f = poly(amb, rng.randint(0, 6))
        g = poly(amb, rng.randint(0, 6))
        if case % 3 == 0:
            g = -f + poly(amb, rng.randint(0, 2))  # f + g cancels f
        total = check(f + g, _ref_add(_terms(f), _terms(g), field))
        seen["sum"] += len(total.items()) < len(_terms(f).keys() | _terms(g))
        check(f - g, _ref_add(_terms(f), _ref_neg(_terms(g), field), field))
        check(-f, _ref_neg(_terms(f), field))
        if case % 4 == 0:
            # (f + h)(f - h) = f^2 - h^2: the cross terms cancel
            h = poly(amb, rng.randint(1, 3))
            f, g = f + h, f - h
        product = check(f * g, _ref_mul(_terms(f), _terms(g), field))
        sums = {tuple(x + y for x, y in zip(a, b))
                for a in _terms(f) for b in _terms(g)}
        seen["product"] += len(product.items()) < len(sums)
        n = rng.randint(0, 5)
        single = poly(amb, 1)
        check(single ** n, _ref_pow(_terms(single), n, field, 3))
        check(f ** n, _ref_pow(_terms(f), n, field, 3))
    assert min(seen.values()) >= 10, seen


def test_ambient_shares_its_constants_and_variables():
    amb = Ambient(("x", "y"), QQ)
    assert amb.var("x") is amb.var("x")
    assert amb.one() is amb.one()
    assert amb.zero() is amb.zero()
    assert amb.var("x") != amb.var("y")
    twin = Ambient(("x", "y"), QQ)
    assert twin is not amb
    assert twin == amb and hash(twin) == hash(amb)
    assert twin.var("x") is not amb.var("x")
    assert amb.var("x") + twin.var("x") == amb.parse("2*x")
    assert amb.one() * twin.var("y") == twin.var("y")


def test_rename_by_name(A):
    B = Ambient(("z", "y", "x", "w"), QQ)
    f = A.parse("x^2*y - z")
    g = f.rename(B)
    assert g == B.parse("x^2*y - z")
    h = f.rename(B, {"x": "w"})
    assert h == B.parse("w^2*y - z")


def test_rename_adds_terms_that_collide(A):
    Z = Ambient(("z",), QQ)
    onto = {"x": "z", "y": "z"}
    assert A.parse("x + y").rename(Z, onto) == Z.parse("2*z")
    assert A.parse("x - y").rename(Z, onto).is_zero()
    assert A.parse("x - y + 3").rename(Z, onto) == Z.const(3)
    assert list(A.parse("x*z - y*z + z").rename(A, onto).items()) == [
        ((0, 0, 1), 1)]


# ---------------------------------------------------------------------------
# toric transform


def test_toric_transform_laws(A):
    w = WeightVector((1, 2, 3), 1)
    f = A.parse("x^6 + y^3 + z^2 + x*y + z")
    t = toric_transform(f, w, "u")
    ext = t.ambient
    assert substitute(t, {"u": ext.one()}, ext) == f.rename(ext)
    assert substitute(t, {"u": ext.zero()}, ext) == A.parse("x*y + z").rename(ext)


def test_toric_transform_fractional_gap_rejected(A):
    w = WeightVector((6, 1, 7), 11)
    with pytest.raises(ValueError, match="lattice"):
        toric_transform(A.parse("x*y^5 + y^6"), w, "u")


def test_toric_transform_integral_fractional_weights(A):
    w = WeightVector((6, 1, 7), 11)
    t = toric_transform(A.parse("x*y^5 + y^22 + z*y^4"), w, "u")
    assert t.coefficient((1, 5, 0, 0)) == 1
    assert t.coefficient((0, 22, 0, 1)) == 1
    assert t.coefficient((0, 4, 1, 0)) == 1


def test_toric_transform_name_clash(A):
    w = WeightVector((1, 1, 1), 1)
    with pytest.raises(ValueError, match="already"):
        toric_transform(A.parse("x + y"), w, "x")


# ---------------------------------------------------------------------------
# division


def test_divexact(A):
    f = A.parse("(x + y)*(x^2 - z)")
    assert divexact(f, A.parse("x + y")) == A.parse("x^2 - z")
    assert divexact(f, A.parse("x^2 - z")) == A.parse("x + y")
    with pytest.raises(ExactDivisionError):
        divexact(A.parse("x^2 + y"), A.parse("x + 1"))
    assert divides(A.parse("x + y"), f)
    assert not divides(A.parse("x + z"), f)


def test_divexact_zero_cases(A):
    assert divexact(A.zero(), A.parse("x")).is_zero()
    with pytest.raises(ZeroDivisionError):
        divexact(A.parse("x"), A.zero())


@pytest.mark.parametrize("field", [QQ, GF(101)], ids=["QQ", "GF101"])
def test_divexact_by_monomial_matches_sympy(field):
    # for seeded g and divisors d = c*m, with c = 1, c != 1 and m = 1
    # among them, divexact(g*d, d) is g and is sympy's quotient, with
    # remainder 0; one added term that m does not divide is refused
    xs = sympy.symbols("x y z")
    domain = sympy.QQ if field == QQ else sympy.GF(101)
    B = Ambient(("x", "y", "z"), field)
    rng = random.Random(41)

    def to_sympy(f):
        return sympy.Poly.from_dict(
            {m: sympy.Rational(c) for m, c in f.items()}, *xs,
            domain=domain)

    def from_sympy(p):
        return QPolynomial(B, {m: field.coerce(Fraction(int(c.p), int(c.q)))
                               for m, c in p.as_dict().items()})

    def coefficient():
        c = field.zero()
        while field.is_zero(c):
            c = field.coerce(Fraction(rng.randint(-9, 9), rng.randint(1, 4)))
        return c

    def rand_poly():
        terms = {tuple(rng.randint(0, 4) for _ in xs): coefficient()
                 for _ in range(rng.randint(1, 8))}
        return QPolynomial(B, terms)

    divisors = [B.one(), B.const(3), B.parse("x"), B.parse("y^2*z")]
    divisors += [B.monomial(tuple(rng.randint(0, 3) for _ in xs),
                            coefficient()) for _ in range(20)]
    refused = 0
    for d in divisors:
        (m, _), = d.items()
        for _ in range(6):
            g = rand_poly()
            q = divexact(g * d, d)
            assert q == g
            sq, sr = sympy.div(to_sympy(g * d), to_sympy(d))
            assert sr.is_zero
            assert from_sympy(sq) == q
            if any(m):
                # the term m / x_i, for a variable x_i that m holds
                i = next(i for i, e in enumerate(m) if e)
                stray = B.monomial(m[:i] + (m[i] - 1,) + m[i + 1:], 1)
                with pytest.raises(ExactDivisionError,
                                   match="leading term does not divide"):
                    divexact(g * d + stray, d)
                refused += 1
    assert refused >= 100


# ---------------------------------------------------------------------------
# resultants


def test_resultant_matches_sympy(A):
    rng = random.Random(3)
    xs = sympy.symbols("x y z")

    def to_sympy(f):
        expr = 0
        for m, c in f.items():
            term = sympy.Rational(c)
            for s, e in zip(xs, m):
                term *= s**e
            expr += term
        return expr

    def rand_poly():
        terms = {}
        for _ in range(rng.randint(2, 5)):
            m = tuple(rng.randint(0, 2) for _ in range(3))
            terms[m] = Fraction(rng.randint(-3, 3))
        p = QPolynomial(A, terms)
        return p if not p.is_zero() else A.one()

    checked = 0
    for _ in range(30):
        f, g = rand_poly(), rand_poly()
        r = resultant(f, g, "x")
        rs = sympy.expand(sympy.resultant(to_sympy(f), to_sympy(g), xs[0]))
        assert to_sympy(r) - rs == 0
        checked += 1
    assert checked == 30


def test_univariate_gcd_degree_matches_sympy():
    B = Ambient(("t", "s"), QQ)
    T = sympy.Symbol("t")
    rng = random.Random(11)

    def rand_poly(deg):
        coeffs = [Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                  for _ in range(deg)] + [Fraction(rng.randint(1, 5))]
        return QPolynomial(B, {(k, 0): c for k, c in enumerate(coeffs)})

    def to_sympy(f):
        return sympy.Poly(sum(sympy.Rational(c) * T**m[0]
                              for m, c in f.items()), T)

    for _ in range(60):
        common = rand_poly(rng.randint(0, 3))
        f = common * rand_poly(rng.randint(0, 4))
        g = common * rand_poly(rng.randint(0, 4))
        expected = sympy.gcd(to_sympy(f), to_sympy(g)).degree()
        assert _univariate_gcd([f, g], "t").total_degree() == expected
    assert _univariate_gcd([B.parse("t*s"), B.parse("t")], "t") is None


def test_resultant_detects_common_factor(A):
    common = A.parse("x + y*z")
    f = common * A.parse("x - y")
    g = common * A.parse("x^2 + z")
    assert resultant(f, g, "x").is_zero()


def test_resultant_degree_zero_inputs(A):
    assert resultant(A.const(5), A.const(7), "x") == A.one()
    with pytest.raises(ValueError):
        resultant(A.zero(), A.parse("x"), "x")


# ---------------------------------------------------------------------------
# irreducibility verdicts


def test_verdict_leaves_squares_unknown(A):
    rng = random.Random(5)
    for _ in range(25):
        terms = {}
        for _ in range(rng.randint(1, 4)):
            m = tuple(rng.randint(0, 2) for _ in range(3))
            terms[m] = Fraction(rng.randint(-3, 3))
        g = QPolynomial(A, terms)
        assert irreducibility_verdict(g * g).kind == "unknown", g


def test_verdict_leaves_prime_field_square_unknown():
    B = Ambient(("x", "y"), GF(101))
    g = B.parse("3*x^2 + 5*x*y + 7")
    assert irreducibility_verdict(g * g).kind == "unknown"


def test_verdict_unknown_when_split_over_an_extension(A):
    # both are irreducible over Q but split over Q(i) and Q(sqrt(2)):
    # their discriminants in x, -4*y^2 and 8*y^2, have even degree
    x, y = sympy.symbols("x y")
    for text, expr in (("x^2 + y^2", x**2 + y**2),
                       ("x^2 - 2*y^2", x**2 - 2 * y**2)):
        assert irreducibility_verdict(A.parse(text)).kind == "unknown", text
        _, factors = sympy.factor_list(
            expr, x, y, extension=[sympy.I, sympy.sqrt(2)])
        assert len(factors) == 2, text


def _shaped_cases():
    """Seeded polynomials over Q in v, x, y of the two shapes the rules
    read, A*v + B and A*v^2 + B*v + C, and products that split: a
    non-unit times a linear one, and two linear ones."""
    amb = Ambient(("v", "x", "y"), QQ)
    v = amb.var("v")
    rng = random.Random(3)

    def coefficient(top):
        terms = {}
        for _ in range(rng.randint(1, 3)):
            e = [0, 0, 0]
            for _ in range(rng.randint(0, top)):
                e[rng.randint(1, 2)] += 1
            terms[tuple(e)] = Fraction(rng.choice([-2, -1, 1, 2, 3]))
        return QPolynomial(amb, terms)

    shaped, split = [], []
    for i in range(24):
        if i % 3 == 0:
            shaped.append(coefficient(2) * v + coefficient(3))
        else:
            shaped.append(coefficient(1) * v * v + coefficient(2) * v
                          + coefficient(3))
        lin = coefficient(1) * v + coefficient(2)
        other = (coefficient(1) * v + coefficient(2) if i % 2
                 else coefficient(2))
        if not other.is_constant():
            split.append(lin * other)
    return shaped, split


def test_irreducible_verdicts_match_sympy_over_an_extension():
    # an irreducible verdict is a single factor over Q(i, sqrt(2)), and
    # a product of two non-units is never certified
    shaped, split = _shaped_cases()
    syms = sympy.symbols("v x y")
    rules = []
    for f in shaped:
        verdict = irreducibility_verdict(f)
        if not verdict.is_irreducible:
            continue
        rules.append(verdict.witness.split()[0])
        expr = sympy.sympify(str(f).replace("^", "**"))
        _, factors = sympy.factor_list(
            expr, *syms, extension=[sympy.I, sympy.sqrt(2)])
        assert [k for _, k in factors] == [1], f
    assert rules.count("linear") >= 5 and rules.count("quadratic") >= 5
    assert len(split) >= 15
    for f in split:
        assert irreducibility_verdict(f).kind == "unknown", f


def test_verdict_monomial_content(A):
    # no rule reads monomial content: a shared factor leaves A and B
    # without a coprimality certificate in every variable
    for text in ("x^2*y + x^3", "x*y + x*z"):
        assert irreducibility_verdict(A.parse(text)).kind == "unknown", text


def test_verdict_single_monomial(A):
    for text, v in (("x", "x"), ("3*y", "y")):
        assert irreducibility_verdict(A.parse(text)) == IrreducibilityVerdict(
            "irreducible",
            f"linear in {v} with coprime coefficient and remainder")
    for text in ("x^2*y", "5", "0"):
        assert irreducibility_verdict(A.parse(text)).kind == "unknown", text


def test_verdict_perfect_square(A):
    v = irreducibility_verdict(A.parse("(x + y + 1)^2"))
    assert (v.kind, v.witness) == ("unknown", "no rule applied")


def test_verdict_linear_rule(A):
    # z occurs linearly with coefficient coprime to the rest
    v = irreducibility_verdict(A.parse("x*z + y^3 + 1"))
    assert (v.kind, v.witness) == (
        "irreducible", "linear in x with coprime coefficient and remainder")
    # x*y + y^2 = y*(x + y): A = y divides B = y^2
    v2 = irreducibility_verdict(A.parse("x*y + y^2"))
    assert v2.kind == "unknown"


def test_verdict_quadratic_discriminant(A):
    # x^2 + y*z: the discriminant in x, -4*y*z, has degree 1 in y
    v = irreducibility_verdict(A.parse("x^2 + y*z"))
    assert (v.kind, v.witness) == (
        "irreducible",
        "quadratic in x, discriminant not a square (odd degree 1 in y)")
    # irreducible, but every discriminant, -4*(y^2 + z^2) in x for one,
    # has even degree in each variable
    v2 = irreducibility_verdict(A.parse("x^2 + y^2 + z^2"))
    assert v2.kind == "unknown"


def test_verdict_quadratic_split(A):
    f = A.parse("(x + y)*(x + z)")
    assert irreducibility_verdict(f).kind == "unknown"


def test_verdict_hypersurface_shapes():
    # the double-cover shape b*y*w^2 + c*x^2*y*z*w + x^4*y*g2 + x*g6
    A6 = Ambient(("x", "y", "z", "t", "w"), QQ)
    f = A6.parse(
        "y*w^2 + 2*x^2*y*z*w + x^4*y*(z^2 + t) + x*(z^6 + t^3 + z^2*t^2)"
    )
    v = irreducibility_verdict(f)
    assert v.is_irreducible, v.witness
    # degenerate: no middle term
    f0 = A6.parse("y*w^2 + x*(z^6 + t^3)")
    assert irreducibility_verdict(f0).is_irreducible
    # xy + g6 pattern: linear in x with monomial coefficient
    g = A6.parse("x*y + z^6 + t^3 + z^2*t^2")
    assert irreducibility_verdict(g).is_irreducible


def test_verdict_linear_with_quadratic_lead_coefficient():
    # linear in s; its s-coefficient is quadratic in w with constant lead
    B = Ambient(("s", "w", "z", "y", "t"), QQ)
    f = B.parse("(3*w^2 + 2*z*w + y)*s + y^3 + t^2 + w*z^2")
    v = irreducibility_verdict(f)
    assert v.is_irreducible, v.witness
    # over GF(2) the s-coefficient and remainder share every variable,
    # so no coprimality certificate reads them, and y decides: its
    # remainder alone holds z
    C = Ambient(("s", "w", "z", "y"), GF(2))
    v = irreducibility_verdict(C.parse("(w^2 + z*w + y)*s + y*w + z^2"))
    assert (v.kind, v.witness) == (
        "irreducible", "linear in y with coprime coefficient and remainder")


def test_verdict_reducible_factors_verify(A):
    f = A.parse("(x^2 + y)*(x^2 + z)")
    assert irreducibility_verdict(f).kind == "unknown"


@pytest.mark.parametrize("p", [2, 3, 7, 101, DEFAULT_PRIME])
def test_fp_irreducibility_matches_sympy(p):
    # a decided verdict on a univariate polynomial over F_p is sympy's
    # answer, and every linear one is decided
    T = sympy.Symbol("T")
    B = Ambient(("T",), GF(p))
    rng = random.Random(p)
    for deg in range(1, 10):
        for _ in range(30):
            coeffs = ([rng.randrange(p) for _ in range(deg)]
                      + [rng.randrange(1, p)])
            poly = sympy.Poly(list(reversed(coeffs)), T,
                              domain=sympy.GF(p))
            v = irreducibility_verdict(QPolynomial(
                B, {(k,): c for k, c in enumerate(coeffs) if c}))
            if v.kind != "unknown":
                assert v.is_irreducible == poly.is_irreducible, coeffs
            else:
                assert deg > 1, coeffs


def test_verdict_random_line_witness():
    B = Ambient(("x", "y", "z"), GF(101))
    f = B.parse("x^3 + y^3 + z^3 + x*y*z + 1")
    v = irreducibility_verdict(f)
    assert (v.kind, v.witness) == ("unknown", "no rule applied")


def _seeded_cases():
    """Seeded polynomials in x, y, z of degree 3 to 5 in each variable,
    past every rule of irreducibility_verdict."""
    rng = random.Random(9)
    cases = []
    for field in (QQ, GF(7), GF(101), GF(10007)):
        amb = Ambient(("x", "y", "z"), field)
        for _ in range(10):
            deg = rng.randint(3, 5)
            terms = {}
            for _ in range(rng.randint(3, 7)):
                e = [0, 0, 0]
                for _ in range(deg):
                    e[rng.randrange(3)] += 1
                terms[tuple(e)] = Fraction(rng.randint(-9, 9),
                                           rng.randint(1, 4))
            for i in range(3):
                e = [0, 0, 0]
                e[i] = deg
                terms.setdefault(tuple(e), Fraction(rng.randint(1, 9)))
            if rng.random() < 0.5:
                terms[(0, 0, 0)] = Fraction(rng.randint(1, 9))
            cases.append(QPolynomial(amb, {m: field.coerce(c)
                                           for m, c in terms.items()}))
    return cases


# the verdicts of _seeded_cases(), frozen: no rule applies to any
FROZEN_VERDICTS = ["unknown: no rule applied"] * 40


def test_verdict_line_restriction_frozen(A):
    got = []
    for f in _seeded_cases():
        v = irreducibility_verdict(f)
        got.append(f"{v.kind}: {v.witness}")
    assert got == FROZEN_VERDICTS
    B = Ambient(("x", "y", "z"), GF(5))
    v = irreducibility_verdict(B.parse("x^4 - y^4 + z^3 + x*y*z + 1"))
    assert (v.kind, v.witness) == ("unknown", "no rule applied")
    # rational coefficients with small or large denominators alike
    base = A.parse("x^3 + y^3 + z^3 + x*y*z + 1")
    term = A.parse("x*y^2")
    for den in (2, DEFAULT_PRIME):
        v = irreducibility_verdict(base + term.scale(Fraction(1, den)))
        assert (v.kind, v.witness) == ("unknown", "no rule applied")


# ---------------------------------------------------------------------------
# evaluation and jacobians


def test_evaluate(A):
    f = A.parse("x^2*y - z + 1/2")
    assert evaluate(f, [2, 3, 1]) == Fraction(23, 2)


def _check_columnwise_rank(field, points):
    """The column-wise rank of a member's Jacobian is the rank of the
    full matrix by one elimination, at ten points and at three where
    the columns read first, w and v, are dependent."""
    nf = normal_form_X1214(*random_member(3))
    amb = Ambient(X_NAMES, field)
    fs = (nf.F1.rename(amb), nf.F2.rename(amb))
    points = points(fs)
    assert len(points) == 10
    # for the normal form the w and v columns are (-x, z) and
    # (lam*y*z, 2*v); v = -lam*y*z^2/(2*x) makes them proportional, and
    # at the w-point of X and at the origin both are zero
    x, y, z, t = (field.coerce(c) for c in (1, 2, 3, 5))
    lam = field.coerce(nf.lam)
    v = field.neg(field.mul(field.mul(lam, y), field.mul(z, z)))
    v = field.mul(v, field.inv(field.mul(field.coerce(2), x)))
    dependent = [(x, y, z, t, v, field.zero()),
                 (0, 0, 0, 0, 0, 1), (0, 0, 0, 0, 0, 0)]
    ranks = []
    for pt in points + dependent:
        full = [[evaluate(e, pt) for e in row] for row in jacobian(fs)]
        rank = JacobianRank(fs, ("w", "v"))
        ranks.append(rank(pt))
        assert ranks[-1] == matrix_rank_at(fs, pt) == _eliminate(
            full, field)[0]
        # where w and v fall short the other columns are read
        if pt in dependent:
            assert len(rank.columns) > 2
    assert ranks == [2] * 12 + [0]


def test_jacobian_rank(A):
    fs = [A.parse("x^2 + y^2 + z^2"), A.parse("x*y")]
    J = jacobian(fs)
    assert J[0][0] == A.parse("2*x")
    assert J[1][2].is_zero()
    assert matrix_rank_at(fs, [1, 0, 0]) == 2
    assert matrix_rank_at(fs, [0, 0, 0]) == 0
    # over Q a member has few points to sample, so the ten points are
    # seeded points of the ambient
    rng = random.Random("jacobian-rank/Q")
    _check_columnwise_rank(QQ, lambda fs: [
        tuple(QQ.random(rng) for _ in X_NAMES) for _ in range(10)])


def test_jacobian_rank_over_a_prime_field():
    B = Ambient(("x", "y", "z"), GF(101))
    fs = [B.parse("x^2 + y^2 + z^2"), B.parse("x*y - 3*z")]
    # the rows are (2x, 2y, 2z) and (y, x, -3)
    assert matrix_rank_at(fs, [1, 0, 0]) == 2
    assert matrix_rank_at(fs, [102, 0, 0]) == 2
    # (2, 2, -6) = 2 * (1, 1, -3): the rank drops with no row zero
    assert matrix_rank_at(fs, [1, 1, -3]) == 1
    assert matrix_rank_at(fs, [1, 1, 98]) == 1
    assert matrix_rank_at(fs, [0, 0, 0]) == 1
    # ten seeded points of the member
    _check_columnwise_rank(GF(101), lambda fs: list(
        _Sampler(fs, X_WPS, GF(101)).points(10, seed=0)))


def _scalar_matrices(field, rng):
    """Seeded scalar matrices with planted pivot swaps, zero columns and
    dependent rows."""
    pool = [0, 0, 0, 1, -1, 2, Fraction(3, 7), 10**9 + 9]
    for _ in range(150):
        nrows = rng.randint(1, 5)
        ncols = nrows if rng.random() < 0.5 else rng.randint(1, 5)
        rows = [[field.coerce(rng.choice(pool + [rng.randint(-50, 50)]))
                 for _ in range(ncols)] for _ in range(nrows)]
        shape = rng.randrange(4)
        if shape == 0:
            col = rng.randrange(ncols)
            for row in rows:
                row[col] = field.zero()
        elif shape == 1 and nrows > 1:
            rows[0][0] = field.zero()
            rows[rng.randrange(1, nrows)][0] = field.one()
        elif shape == 2 and nrows > 2:
            k = field.coerce(rng.randint(2, 9))
            rows[-1] = [field.add(a, field.mul(k, b))
                        for a, b in zip(rows[0], rows[1])]
        yield rows


@pytest.mark.parametrize("field", [QQ, GF(3), GF(101)],
                         ids=["QQ", "GF3", "GF101"])
def test_det_and_rank_match_sympy(field):
    from sympy.polys.matrices import DomainMatrix

    K = sympy.QQ if field == QQ else sympy.GF(field.p)

    def element(c):
        if field == QQ:
            return K(c.numerator, c.denominator)
        return K(c)

    def back(d):
        if field == QQ:
            return Fraction(int(d.numerator), int(d.denominator))
        return int(d) % field.p

    amb = Ambient(("x",), field)
    seen = {"swap": 0, "zero-column": 0, "singular": 0, "non-square": 0}
    for rows in _scalar_matrices(field, random.Random(f"det/{field!r}")):
        nrows, ncols = len(rows), len(rows[0])
        oracle = DomainMatrix([[element(c) for c in row] for row in rows],
                              (nrows, ncols), K)
        rank = oracle.rank()
        got_rank, _, pivots = _eliminate(rows, field)
        assert got_rank == rank, rows
        # the pivot columns are the first columns independent of those
        # before them, whatever rows the elimination swaps
        assert pivots == tuple(oracle.rref()[1]), rows
        if nrows == ncols:
            got = det([[amb.const(c) for c in row] for row in rows])
            assert got.is_constant()
            assert got.constant_coefficient() == back(oracle.det()), rows
            seen["singular"] += rank < nrows
        else:
            seen["non-square"] += 1
        seen["swap"] += field.is_zero(rows[0][0]) and any(
            not field.is_zero(row[0]) for row in rows[1:])
        seen["zero-column"] += any(
            all(field.is_zero(row[j]) for row in rows) for j in range(ncols))
    assert min(seen.values()) >= 20, seen


def _reference_evaluate(f, point):
    """Evaluation as first written: one field pow and mul per variable
    of every term."""
    field = f.ambient.field
    vals = [field.coerce(x) for x in point]
    if len(vals) != f.ambient.nvars:
        raise ValueError("point length does not match ambient")
    total = field.zero()
    for m, c in f.items():
        prod = c
        for x, e in zip(vals, m):
            if e:
                prod = field.mul(prod, field.pow(x, e))
        total = field.add(total, prod)
    return total


@pytest.mark.parametrize("field", [QQ, GF(101), GF(2**31 - 1)],
                         ids=["QQ", "GF101", "GF2^31-1"])
def test_evaluator_matches_reference(field):
    amb = Ambient(("x", "y", "z", "t"), field)
    rng = random.Random(f"evaluate/{field!r}")

    def coefficient():
        return rng.choice([1, -1, 2, Fraction(3, 7),
                           rng.randint(-10**6, 10**6)])

    def exponent():
        return rng.choice([0, 0, 1, 2, rng.randint(11, 25)])

    def poly():
        kind = rng.random()
        if kind < 0.1:
            return amb.zero()
        if kind < 0.2:
            return amb.const(coefficient())
        f = amb.zero()
        for _ in range(rng.randint(1, 12)):
            f = f + amb.monomial([exponent() for _ in amb.names],
                                 coefficient())
        return f

    def coordinate():
        if rng.random() < 0.3:
            return 0
        if field == QQ:
            return Fraction(rng.randint(-9, 9), rng.randint(1, 5))
        # over F_p a coordinate may also be an unreduced int or a Fraction
        return rng.choice([
            rng.randrange(field.p), -rng.randrange(1, 3 * field.p),
            rng.randrange(field.p, 3 * field.p),
            Fraction(rng.randint(-9, 9), rng.randint(2, 5))])

    seen = {"zero": 0, "constant": 0, "high": 0, "zero-coordinate": 0}
    if field != QQ:
        seen.update(negative=0, unreduced=0, fraction=0)
    for _ in range(300):
        fs = [poly() for _ in range(rng.randint(1, 5))]
        point = [coordinate() for _ in amb.names]
        got = Evaluator(fs)(point)
        assert got == [_reference_evaluate(f, point) for f in fs]
        assert [evaluate(f, point) for f in fs] == got
        assert all(type(v) is type(field.zero()) for v in got)
        seen["zero"] += any(f.is_zero() for f in fs)
        seen["constant"] += any(f.is_constant() and not f.is_zero()
                                for f in fs)
        seen["high"] += any(max(m) > 10 for f in fs for m, _ in f.items())
        seen["zero-coordinate"] += 0 in point
        if field != QQ:
            seen["negative"] += any(isinstance(x, int) and x < 0
                                    for x in point)
            seen["unreduced"] += any(isinstance(x, int) and x >= field.p
                                     for x in point)
            seen["fraction"] += any(isinstance(x, Fraction) for x in point)
    assert min(seen.values()) >= 20, seen


def test_evaluator_errors(A):
    f = A.parse("x*y + z")
    with pytest.raises(ValueError, match="point length"):
        Evaluator((f,))([1, 2])
    with pytest.raises(ValueError, match="point length"):
        evaluate(f, [1, 2, 3, 4])
    B = Ambient(("x", "y", "z"), GF(101))
    with pytest.raises(ValueError, match="different ambients"):
        Evaluator((f, f.rename(B)))
