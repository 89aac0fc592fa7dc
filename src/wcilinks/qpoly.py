"""Exact sparse multivariate polynomial arithmetic over Q and F_p.

The ring elements are QPolynomial instances: dictionaries mapping exponent
tuples to nonzero coefficients, attached to an Ambient (an ordered variable
list together with a coefficient field).  Everything is exact: rational
coefficients are fractions.Fraction, prime field coefficients are ints
reduced mod p.  No floating point is used anywhere.

Beyond ring arithmetic the module provides the operations the geometric
layers are built on: weighted filtrations (weight_of, w_component,
quasi_homogeneous_degree), ring homomorphisms (substitute), setting
coordinates to 0 or 1 by exponents (QPolynomial.restrict), exact
Jacobian ranks read column by column (JacobianRank), the graded
transform that inserts a scaling variable u (toric_transform), Sylvester
resultants with polynomial entries via fraction-free Bareiss elimination,
and an irreducibility verdict by two rules that hold over every extension
field.

Polynomials are immutable: nothing writes to a polynomial's terms after
construction, and every arithmetic result (sum, difference, negation,
product, power, substitution) holds no zero coefficient.  The kernel
relies on both.  It builds its results without re-scanning them for
zeros, an Ambient hands out one shared zero, one and variable per name
instead of building a new polynomial on each call, and a Substitution
keeps the powers and products of its images from one call to the next.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, isqrt
from operator import add, mul, sub

from ._records import record

__all__ = [
    "Ambient",
    "Evaluator",
    "ExactDivisionError",
    "GF",
    "IrreducibilityVerdict",
    "JacobianRank",
    "PrimeField",
    "QQ",
    "QPolynomial",
    "RationalField",
    "Substitution",
    "WeightVector",
    "divexact",
    "evaluate",
    "irreducibility_verdict",
    "jacobian",
    "parse",
    "resultant",
    "substitute",
    "toric_transform",
]

DEFAULT_PRIME = 2**31 - 1

# Fraction is immutable, so Q shares its zero and one
_Q_ZERO = Fraction(0)
_Q_ONE = Fraction(1)


# ---------------------------------------------------------------------------
# coefficient fields


class RationalField:
    """The field of rational numbers with Fraction coefficients."""

    name = "Q"
    characteristic = 0

    def coerce(self, x):
        if isinstance(x, Fraction):
            return x
        if isinstance(x, int):
            return Fraction(x)
        if isinstance(x, str):
            return Fraction(x)
        raise TypeError(f"cannot coerce {x!r} into Q")

    def zero(self):
        return _Q_ZERO

    def one(self):
        return _Q_ONE

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return 1 / a

    def is_zero(self, a):
        return not a

    def pow(self, a, n):
        return a**n

    def sqrt(self, a):
        """Exact square root, or None if a is not a rational square."""
        if a < 0:
            return None
        num, den = a.numerator, a.denominator
        rn, rd = isqrt(num), isqrt(den)
        if rn * rn == num and rd * rd == den:
            return Fraction(rn, rd)
        return None

    def random(self, rng):
        return Fraction(rng.randint(-10, 10))

    def to_str(self, a):
        return str(a)

    def __repr__(self):
        return "QQ"

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("RationalField")


# Miller-Rabin with the primes up to 41 as bases is exact below this bound
# (Sorensen and Webster, "Strong pseudoprimes to twelve prime bases",
# Math. Comp. 86, 2017)
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3317044064679887385961981


def _is_prime(n):
    """Deterministic Miller-Rabin primality for 1 < n < _MR_BOUND."""
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class PrimeField:
    """The prime field F_p with int coefficients reduced mod p."""

    def __init__(self, p):
        if not isinstance(p, int) or p < 2:
            raise ValueError("modulus must be a prime >= 2")
        if p >= _MR_BOUND:
            raise ValueError(f"modulus {p} is too large to certify prime")
        if not _is_prime(p):
            raise ValueError(f"modulus {p} is not prime")
        self.p = p
        self.name = f"F{p}"
        self.characteristic = p

    def coerce(self, x):
        if isinstance(x, int):
            return x % self.p
        if isinstance(x, Fraction):
            den = x.denominator % self.p
            if den == 0:
                raise ZeroDivisionError(f"denominator divisible by {self.p}")
            return x.numerator * pow(den, -1, self.p) % self.p
        if isinstance(x, str):
            return self.coerce(Fraction(x))
        raise TypeError(f"cannot coerce {x!r} into F_{self.p}")

    def zero(self):
        return 0

    def one(self):
        return 1

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError("inverse of zero")
        return pow(a, -1, self.p)

    def is_zero(self, a):
        return a % self.p == 0

    def pow(self, a, n):
        return pow(a, n, self.p)

    def sqrt(self, a):
        """The smaller square root of a mod p, or None for a non-square.

        When p = 3 mod 4 the root is r = a^((p+1)/4), and a is a square
        exactly when r^2 = a: r^2 = a * a^((p-1)/2), which is -a for a
        non-square.  Otherwise Euler's criterion detects non-squares and
        the root comes from Tonelli-Shanks.
        """
        p = self.p
        a %= p
        if a == 0 or p == 2:
            return a
        if p % 4 == 3:
            r = pow(a, (p + 1) // 4, p)
            if r * r % p != a:
                return None
        elif pow(a, (p - 1) // 2, p) != 1:
            return None
        else:
            # p - 1 = q * 2^s with q odd; z is a non-square
            q, s = p - 1, 0
            while q % 2 == 0:
                q //= 2
                s += 1
            z = 2
            while pow(z, (p - 1) // 2, p) != p - 1:
                z += 1
            c, t, r = pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
            while t != 1:
                # least i with t^(2^i) = 1
                i, t2 = 0, t
                while t2 != 1:
                    t2 = t2 * t2 % p
                    i += 1
                b = pow(c, 1 << (s - i - 1), p)
                s, c = i, b * b % p
                t, r = t * c % p, r * b % p
        return min(r, p - r)

    def random(self, rng):
        return rng.randrange(self.p)

    def to_str(self, a):
        return str(a % self.p)

    def __repr__(self):
        return f"GF({self.p})"

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("PrimeField", self.p))


QQ = RationalField()

_gf_cache = {}


def GF(p=DEFAULT_PRIME):
    """Cached prime field constructor."""
    if p not in _gf_cache:
        _gf_cache[p] = PrimeField(p)
    return _gf_cache[p]


# ---------------------------------------------------------------------------
# monomial helpers (exponent tuples)


def _mono_mul(a, b):
    return tuple(map(add, a, b))


def _mul_terms(s, o, field):
    """Product of the term dicts s and o, cancelled terms dropped.

    The outer loop runs over the shorter dict (over s on a tie), so the
    terms come out in the same order for the same operands.  A product
    of nonzero field elements is nonzero, so only a sum can cancel.  The
    loop uses the native operators; over F_p one pass then reduces the
    int sums mod p and drops the terms whose residue is zero.
    """
    if len(s) > len(o):
        a, b = s, o
    else:
        a, b = o, s
    terms = {}
    for mb, cb in b.items():
        for ma, ca in a.items():
            m = tuple(map(add, ma, mb))
            c = ca * cb
            if m in terms:
                c = terms[m] + c
                if not c:
                    del terms[m]
                    continue
            terms[m] = c
    p = field.characteristic
    if p:
        terms = {m: r for m, c in terms.items() if (r := c % p)}
    return terms


def _mono_divides(a, b):
    """True if monomial a divides monomial b."""
    return all(x <= y for x, y in zip(a, b))


def _mono_div(a, b):
    """Exponents of a / b, assuming b divides a."""
    return tuple(x - y for x, y in zip(a, b))


def _grevlex(mono):
    """Sort key of the graded reverse lexicographic order.

    Within a degree a < b iff the rightmost nonzero entry of a - b is
    positive, that is iff the negated exponents of a, read from the
    right, come lexicographically before those of b.
    """
    return sum(mono), tuple(-e for e in reversed(mono))


# ---------------------------------------------------------------------------
# ambient: variable list plus coefficient field


class Ambient:
    """An ordered tuple of variable names over a coefficient field.

    zero(), one() and var(name) return one shared polynomial each.
    """

    __slots__ = ("names", "field", "_index", "_zero", "_one", "_vars")

    def __init__(self, names, field=QQ):
        names = tuple(names)
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate variable names in {names}")
        for n in names:
            if not n or not (n[0].isalpha() or n[0] == "_"):
                raise ValueError(f"invalid variable name {n!r}")
        self.names = names
        self.field = field
        self._index = {n: i for i, n in enumerate(names)}
        self._zero = _poly(self, {})
        self._one = _poly(self, {(0,) * len(names): field.one()})
        self._vars = {}

    @property
    def nvars(self):
        return len(self.names)

    def index(self, name):
        try:
            return self._index[name]
        except KeyError:
            raise KeyError(f"no variable {name!r} in ambient {self.names}") from None

    def zero(self):
        return self._zero

    def one(self):
        return self._one

    def const(self, c):
        c = self.field.coerce(c)
        if self.field.is_zero(c):
            return self._zero
        return _poly(self, {(0,) * self.nvars: c})

    def var(self, name):
        v = self._vars.get(name)
        if v is None:
            e = [0] * self.nvars
            e[self.index(name)] = 1
            v = self._vars[name] = _poly(self, {tuple(e): self.field.one()})
        return v

    def monomial(self, exps, coeff=1):
        exps = tuple(int(e) for e in exps)
        if len(exps) != self.nvars or any(e < 0 for e in exps):
            raise ValueError(f"bad exponent vector {exps}")
        c = self.field.coerce(coeff)
        if self.field.is_zero(c):
            return self.zero()
        return QPolynomial(self, {exps: c})

    def parse(self, text):
        return parse(text, self)

    def extended(self, extra):
        return Ambient(self.names + tuple(extra), self.field)

    def __eq__(self, other):
        return (
            isinstance(other, Ambient)
            and other.names == self.names
            and other.field == self.field
        )

    def __hash__(self):
        return hash((self.names, self.field))

    def __repr__(self):
        return f"Ambient({', '.join(self.names)}; {self.field!r})"


# ---------------------------------------------------------------------------
# polynomials


class QPolynomial:
    """Sparse multivariate polynomial: {exponent tuple: nonzero coeff}."""

    __slots__ = ("ambient", "terms")

    def __init__(self, ambient, terms):
        self.ambient = ambient
        is_zero = ambient.field.is_zero
        self.terms = {m: c for m, c in terms.items() if not is_zero(c)}

    # -- basic predicates ---------------------------------------------------

    def is_zero(self):
        return not self.terms

    def is_constant(self):
        return all(sum(m) == 0 for m in self.terms)

    def is_monomial(self):
        return len(self.terms) == 1

    def constant_coefficient(self):
        zero_mono = (0,) * self.ambient.nvars
        return self.terms.get(zero_mono, self.ambient.field.zero())

    def total_degree(self):
        if not self.terms:
            return -1
        return max(sum(m) for m in self.terms)

    def variables(self):
        """Names of variables that actually occur."""
        used = set()
        for m in self.terms:
            for i, e in enumerate(m):
                if e:
                    used.add(self.ambient.names[i])
        return used

    # -- arithmetic ----------------------------------------------------------

    def _check(self, other):
        if self.ambient is not other.ambient and self.ambient != other.ambient:
            raise ValueError("ambient mismatch")

    def __add__(self, other):
        other = self._coerce_operand(other)
        self._check(other)
        field = self.ambient.field
        terms = dict(self.terms)
        for m, c in other.terms.items():
            if m in terms:
                s = field.add(terms[m], c)
                if field.is_zero(s):
                    del terms[m]
                else:
                    terms[m] = s
            else:
                terms[m] = c
        return _poly(self.ambient, terms)

    def __radd__(self, other):
        return self.__add__(other)

    def __sub__(self, other):
        other = self._coerce_operand(other)
        return self.__add__(other.__neg__())

    def __rsub__(self, other):
        return self._coerce_operand(other).__sub__(self)

    def __neg__(self):
        neg = self.ambient.field.neg
        return _poly(self.ambient, {m: neg(c) for m, c in self.terms.items()})

    def __mul__(self, other):
        other = self._coerce_operand(other)
        self._check(other)
        return _poly(
            self.ambient, _mul_terms(self.terms, other.terms, self.ambient.field)
        )

    def __rmul__(self, other):
        return self.__mul__(other)

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative power")
        if len(self.terms) == 1 and n:
            (m, c), = self.terms.items()
            return _poly(
                self.ambient, {tuple(e * n for e in m): self.ambient.field.pow(c, n)}
            )
        result = self.ambient.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def _coerce_operand(self, other):
        if isinstance(other, QPolynomial):
            return other
        if isinstance(other, (int, Fraction)):
            return self.ambient.const(other)
        raise TypeError(f"cannot combine polynomial with {other!r}")

    def scale(self, c):
        field = self.ambient.field
        c = field.coerce(c)
        return QPolynomial(
            self.ambient, {m: field.mul(v, c) for m, v in self.terms.items()}
        )

    def __eq__(self, other):
        if not isinstance(other, QPolynomial):
            if isinstance(other, (int, Fraction)):
                other = self.ambient.const(other)
            else:
                return NotImplemented
        return self.ambient == other.ambient and self.terms == other.terms

    def __hash__(self):
        return hash((self.ambient, frozenset(self.terms.items())))

    # -- structure access ----------------------------------------------------

    def items(self):
        """The (exponent tuple, coefficient) pairs, in term order.

        The one way code outside this module reads a polynomial's terms;
        the layout behind it is this module's own.  A read-only view.
        """
        return self.terms.items()

    def sorted_terms(self):
        """Terms in descending grevlex order."""
        return sorted(
            self.terms.items(), key=lambda kv: _grevlex(kv[0]), reverse=True
        )

    def leading_term(self):
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        m = max(self.terms, key=_grevlex)
        return m, self.terms[m]

    def coefficient(self, mono):
        """Coefficient of an exponent tuple, or of a monomial string."""
        if isinstance(mono, str):
            p = parse(mono, self.ambient)
            if len(p.terms) != 1:
                raise ValueError(f"{mono!r} is not a single monomial")
            (m, c), = p.terms.items()
            if c != self.ambient.field.one():
                raise ValueError(f"{mono!r} has a nontrivial coefficient")
            mono = m
        return self.terms.get(tuple(mono), self.ambient.field.zero())

    def degree_in(self, name):
        i = self.ambient.index(name)
        if not self.terms:
            return -1
        return max(m[i] for m in self.terms)

    def order_in(self, name):
        """Largest k with name^k dividing the polynomial (0 for zero poly)."""
        i = self.ambient.index(name)
        if not self.terms:
            return 0
        return min(m[i] for m in self.terms)

    def as_univariate(self, name):
        """Map k -> coefficient polynomial of name^k (name stripped out)."""
        i = self.ambient.index(name)
        buckets = {}
        for m, c in self.terms.items():
            k = m[i]
            rest = m[:i] + (0,) + m[i + 1 :]
            buckets.setdefault(k, {})[rest] = c
        return {k: _poly(self.ambient, terms) for k, terms in buckets.items()}

    def coefficient_of_power(self, name, k):
        return self.as_univariate(name).get(k, self.ambient.zero())

    def monomial_content(self):
        """Componentwise min exponent vector over the support."""
        if not self.terms:
            return (0,) * self.ambient.nvars
        mins = None
        for m in self.terms:
            if mins is None:
                mins = list(m)
            else:
                mins = [min(a, b) for a, b in zip(mins, m)]
        return tuple(mins)

    def derivative(self, name):
        i = self.ambient.index(name)
        field = self.ambient.field
        terms = {}
        for m, c in self.terms.items():
            e = m[i]
            if e:
                dc = field.mul(c, field.coerce(e))
                if not field.is_zero(dc):
                    terms[m[:i] + (e - 1,) + m[i + 1 :]] = dc
        return _poly(self.ambient, terms)

    def restrict(self, zeros=(), ones=()):
        """The polynomial with the coordinates named in zeros set to 0 and
        those named in ones set to 1, by exponents alone.

        A term with a positive exponent at a zero is dropped, the
        exponents at the ones are cleared, and terms that land on one
        monomial are added in term order, a zero sum dropped.  So the
        result has the terms, in the same order, of the Substitution that
        sends those coordinates to 0 and 1 and fixes the others, without
        building one.  A name off the ambient is ignored, as a
        Substitution ignores it.
        """
        index = self.ambient._index
        dead = [index[n] for n in zeros if n in index]
        unit = [index[n] for n in ones if n in index]
        terms = self.terms
        if dead:
            terms = {m: c for m, c in terms.items()
                     if not any(m[i] for i in dead)}
        if not unit:
            return _poly(self.ambient, terms) if dead else self
        add, is_zero = self.ambient.field.add, self.ambient.field.is_zero
        out = {}
        for m, c in terms.items():
            if any(m[i] for i in unit):
                m = list(m)
                for i in unit:
                    m[i] = 0
                m = tuple(m)
            if m in out:
                c = add(out[m], c)
                if is_zero(c):
                    del out[m]
                    continue
            out[m] = c
        return _poly(self.ambient, out)

    def rename(self, new_ambient, mapping=None):
        """Move to another ambient, matching variables by name.

        mapping optionally sends old names to new names.  Any variable that
        actually occurs must have an image in the new ambient.  Terms that
        land on one monomial are added, and a zero sum is dropped.
        """
        mapping = mapping or {}
        old = self.ambient.names
        slot = []
        for i, n in enumerate(old):
            target = mapping.get(n, n)
            try:
                slot.append(new_ambient.index(target))
            except KeyError:
                slot.append(None)
        field = new_ambient.field
        terms = {}
        for m, c in self.terms.items():
            e = [0] * new_ambient.nvars
            for i, exp in enumerate(m):
                if exp == 0:
                    continue
                j = slot[i]
                if j is None:
                    raise ValueError(
                        f"variable {old[i]!r} occurs but has no image in {new_ambient.names}"
                    )
                e[j] += exp
            key = tuple(e)
            c = field.coerce(c)
            if key in terms:
                c = field.add(terms[key], c)
                if field.is_zero(c):
                    del terms[key]
                    continue
            terms[key] = c
        return QPolynomial(new_ambient, terms)

    # -- weighted structure ---------------------------------------------------

    def weight_of(self, w):
        """Minimum w-weight over the support (the w-order); None for zero."""
        if not self.terms:
            return None
        return Fraction(min(map(w.integer_weight, self.terms)), w.den)

    def w_component(self, w, d):
        """Sum of terms of w-weight exactly d."""
        d = Fraction(d)
        top, rest = divmod(d.numerator * w.den, d.denominator)
        if rest:
            return self.ambient.zero()
        weight = w.integer_weight
        terms = {m: c for m, c in self.terms.items() if weight(m) == top}
        return _poly(self.ambient, terms)

    def quasi_homogeneous_degree(self, w):
        """The common w-weight of all terms, or None if mixed / zero."""
        seen = set(map(w.integer_weight, self.terms))
        if len(seen) == 1:
            return Fraction(seen.pop(), w.den)
        return None

    # -- printing --------------------------------------------------------------

    def __repr__(self):
        return self.to_str()

    def to_str(self):
        if not self.terms:
            return "0"
        field = self.ambient.field
        names = self.ambient.names
        chunks = []
        for m, c in self.sorted_terms():
            factors = []
            for n, e in zip(names, m):
                if e == 1:
                    factors.append(n)
                elif e > 1:
                    factors.append(f"{n}^{e}")
            cs = field.to_str(c)
            neg = cs.startswith("-")
            if neg:
                cs = cs[1:]
            if factors and cs == "1":
                body = "*".join(factors)
            elif factors:
                body = cs + "*" + "*".join(factors)
            else:
                body = cs
            if not chunks:
                chunks.append(("-" if neg else "") + body)
            else:
                chunks.append(("- " if neg else "+ ") + body)
        return " ".join(chunks)


_new = object.__new__


def _poly(ambient, terms):
    """The polynomial on a term dict that holds no zero coefficient.

    The trusted constructor of the arithmetic: it takes terms as given,
    without the clean-up of QPolynomial(ambient, terms).
    """
    p = _new(QPolynomial)
    p.ambient = ambient
    p.terms = terms
    return p


# ---------------------------------------------------------------------------
# parser
#
# expr   := ['+' | '-'] term (('+' | '-') term)*
# term   := factor ('*' factor)*
# factor := base ('^' uint)?
# base   := uint | uint '/' uint | var | '(' expr ')'
#
# A document bounds the work it asks for: the parser refuses an exponent
# above _MAX_EXPONENT, and a product or power that can reach more than
# _MAX_TERMS terms, before it expands anything.  Parentheses are the one
# recursion of the grammar, four frames a level, so it refuses nesting
# deeper than _MAX_NESTING before Python's recursion limit is reached.

_MAX_EXPONENT = 100
_MAX_TERMS = 500
_MAX_NESTING = 100


class _Tokenizer:
    def __init__(self, text):
        self.text = text
        self.pos = 0
        self.tokens = []
        self._scan()
        self.i = 0

    def _scan(self):
        text, n = self.text, len(self.text)
        i = 0
        while i < n:
            ch = text[i]
            if ch.isspace():
                i += 1
                continue
            if ch.isdigit():
                j = i
                while j < n and text[j].isdigit():
                    j += 1
                self.tokens.append(("INT", text[i:j], i))
                i = j
                continue
            if ch.isalpha() or ch == "_":
                j = i
                while j < n and (text[j].isalnum() or text[j] == "_"):
                    j += 1
                self.tokens.append(("NAME", text[i:j], i))
                i = j
                continue
            if ch in "+-*^()/":
                self.tokens.append((ch, ch, i))
                i += 1
                continue
            raise ValueError(f"unexpected character {ch!r} at position {i}")
        self.tokens.append(("END", "", n))

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok


class _Parser:
    def __init__(self, text, ambient):
        self.toks = _Tokenizer(text)
        self.ambient = ambient
        self.depth = 0

    def parse(self):
        p = self._expr()
        kind, val, pos = self.toks.peek()
        if kind != "END":
            raise ValueError(f"trailing input {val!r} at position {pos}")
        return p

    def _expr(self):
        kind, _, _ = self.toks.peek()
        negate = False
        if kind in ("+", "-"):
            self.toks.next()
            negate = kind == "-"
        p = self._term()
        if negate:
            p = -p
        while True:
            kind, _, _ = self.toks.peek()
            if kind == "+":
                self.toks.next()
                p = p + self._term()
            elif kind == "-":
                self.toks.next()
                p = p - self._term()
            else:
                return p

    def _term(self):
        p = self._factor()
        while True:
            kind, _, pos = self.toks.peek()
            if kind != "*":
                return p
            self.toks.next()
            q = self._factor()
            _bound_terms(len(p.items()) * len(q.items()), "product", pos)
            p = p * q

    def _factor(self):
        p = self._base()
        kind, _, _ = self.toks.peek()
        if kind == "^":
            self.toks.next()
            kind, val, pos = self.toks.next()
            if kind != "INT":
                raise ValueError(f"expected integer exponent at position {pos}")
            n = int(val)
            if n > _MAX_EXPONENT:
                raise ValueError(f"exponent {n} at position {pos} is above"
                                 f" the limit {_MAX_EXPONENT}")
            k = len(p.items())
            if n > 1 and k > 1:
                _bound_terms(comb(n + k - 1, k - 1), "power", pos)
            p = p ** n
        return p

    def _base(self):
        kind, val, pos = self.toks.next()
        if kind == "INT":
            nk, _, _ = self.toks.peek()
            if nk == "/":
                self.toks.next()
                dk, dv, dpos = self.toks.next()
                if dk != "INT":
                    raise ValueError(f"expected denominator at position {dpos}")
                return self.ambient.const(Fraction(int(val), int(dv)))
            return self.ambient.const(int(val))
        if kind == "NAME":
            if val not in self.ambient.names:
                raise ValueError(f"unknown variable {val!r} at position {pos}")
            return self.ambient.var(val)
        if kind == "(":
            if self.depth == _MAX_NESTING:
                raise ValueError(f"parenthesis at position {pos} is nested"
                                 f" above the limit {_MAX_NESTING}")
            self.depth += 1
            p = self._expr()
            self.depth -= 1
            ck, _, cpos = self.toks.next()
            if ck != ")":
                raise ValueError(f"expected ')' at position {cpos}")
            return p
        raise ValueError(f"unexpected token {val!r} at position {pos}")


def _bound_terms(count, what, pos):
    if count > _MAX_TERMS:
        raise ValueError(f"the {what} at position {pos} can reach {count}"
                         f" terms, above the limit {_MAX_TERMS}")


def parse(text, ambient):
    """Parse an expression into a QPolynomial over the given ambient."""
    return _Parser(text, ambient).parse()


# ---------------------------------------------------------------------------
# weight vectors


@record
class WeightVector:
    """Integer weights with a common denominator: w = nums / den."""

    nums: tuple
    den: int = 1

    def __post_init__(self):
        object.__setattr__(self, "nums", tuple(int(n) for n in self.nums))
        if self.den < 1:
            raise ValueError("denominator must be >= 1")

    @property
    def nvars(self):
        return len(self.nums)

    def weight(self, mono):
        """w-weight of an exponent tuple, as a Fraction."""
        s = 0
        for n, e in zip(self.nums, mono):
            s += n * e
        return Fraction(s, self.den)

    def integer_weight(self, mono):
        """Numerator scale weight: sum(nums[i] * e[i])."""
        return sum(map(mul, self.nums, mono))

    def __str__(self):
        body = ",".join(str(n) for n in self.nums)
        if self.den == 1:
            return f"({body})"
        return f"1/{self.den}({body})"


# ---------------------------------------------------------------------------
# substitution


class Substitution:
    """A ring homomorphism determined by images of variables.

    mapping sends variable names to polynomials over the target ambient.
    Variables absent from the mapping are sent to the variable of the same
    name in the target ambient.

    An image of at most one term acts on the exponents of each source
    term: it shifts them and scales the coefficient, and a zero image
    drops the term.  The images of several terms are expanded once per
    pattern of their exponents, and every term of the result is summed
    into one dict in the order of the source terms.

    The powers of the multi-term images and their products per pattern
    are kept for the life of the object, so a map applied to many
    polynomials expands each pattern once.  The images are immutable,
    and an expansion depends on its pattern alone, so a kept product is
    the one a fresh map would compute, term order included.
    """

    def __init__(self, source, target, mapping):
        self.source = source
        self.target = target
        images = []
        for n in source.names:
            if n in mapping:
                img = mapping[n]
                if not isinstance(img, QPolynomial):
                    img = target.const(img)
                if img.ambient != target:
                    img = img.rename(target)
                images.append(img)
            elif n in target.names:
                images.append(target.var(n))
            else:
                images.append(None)  # error only if the variable occurs
        self.images = tuple(images)
        # source positions by the shape of their image
        self._missing = []
        self._zero = []
        self._monomial = []  # (position, exponent shift, coefficient or None)
        self._multi = []
        for i, img in enumerate(images):
            if img is None:
                self._missing.append(i)
            elif not img.terms:
                self._zero.append(i)
            elif len(img.terms) == 1:
                (mono, c), = img.terms.items()
                shift = tuple((j, k) for j, k in enumerate(mono) if k)
                if c == 1:
                    c = None
                self._monomial.append((i, shift, c))
            else:
                self._multi.append(i)
        # powers of the multi-term images, and their products by pattern
        self._powers = {i: {1: images[i].terms} for i in self._multi}
        self._products = {}

    def __call__(self, f):
        if f.ambient != self.source:
            f = f.rename(self.source)
        field = self.target.field
        nvars = self.target.nvars
        multi = self._multi
        products = self._products
        terms = {}
        for m, c in f.terms.items():
            c = field.coerce(c)
            for i in self._missing:
                if m[i]:
                    raise ValueError(
                        f"variable {self.source.names[i]!r} occurs but has no"
                        f" image in {self.target.names}"
                    )
            if field.is_zero(c) or any(m[i] for i in self._zero):
                continue
            shifted = [0] * nvars
            for i, shift, ci in self._monomial:
                e = m[i]
                if e:
                    for j, k in shift:
                        shifted[j] += e * k
                    if ci is not None:
                        c = field.mul(c, field.pow(ci, e))
            pattern = tuple(m[i] for i in multi)
            if any(pattern):
                product = products.get(pattern)
                if product is None:
                    product = products[pattern] = self._expand(pattern, field)
                pieces = [
                    (_mono_mul(pm, shifted), field.mul(pc, c))
                    for pm, pc in product.items()
                ]
            else:
                pieces = [(tuple(shifted), c)]
            for key, c in pieces:
                if key in terms:
                    c = field.add(terms[key], c)
                    if field.is_zero(c):
                        del terms[key]
                        continue
                terms[key] = c
        return _poly(self.target, terms)

    def _expand(self, pattern, field):
        """Term dict of the product of the multi-term images' powers."""
        product = None
        for i, e in zip(self._multi, pattern):
            if not e:
                continue
            cache = self._powers[i]
            if e not in cache:
                top = max(cache)
                acc = cache[top]
                for k in range(top + 1, e + 1):
                    acc = _mul_terms(acc, cache[1], field)
                    cache[k] = acc
            if product is None:
                product = cache[e]
            else:
                product = _mul_terms(product, cache[e], field)
        return product


def substitute(f, mapping, target=None):
    """Apply a variable -> polynomial substitution to f.

    mapping values may be QPolynomials (all over a common target ambient)
    or constants.  If target is omitted it is inferred from the images, or
    defaults to the ambient of f.
    """
    if target is None:
        for img in mapping.values():
            if isinstance(img, QPolynomial):
                target = img.ambient
                break
        if target is None:
            target = f.ambient
    return Substitution(f.ambient, target, mapping)(f)


# ---------------------------------------------------------------------------
# toric transform


def toric_transform(f, w, uname="u"):
    """Insert the scaling variable u along the weight filtration of w.

    Sends f to u^(-d0) * f(x_i -> x_i * u^(w_i)) where d0 is the minimum
    w-weight of f.  Every term must have weight in d0 + Z, otherwise the
    u-exponents would be fractional and a ValueError is raised.  Setting
    u = 1 recovers f; setting u = 0 leaves the lowest weight component.
    """
    if f.is_zero():
        raise ValueError("toric transform of the zero polynomial")
    if w.nvars != f.ambient.nvars:
        raise ValueError("weight vector length does not match ambient")
    if uname in f.ambient.names:
        raise ValueError(f"ambient already has a variable {uname!r}")
    ext = f.ambient.extended((uname,))
    d0 = min(w.integer_weight(m) for m in f.terms)
    terms = {}
    for m, c in f.terms.items():
        num = w.integer_weight(m) - d0
        if num % w.den != 0:
            raise ValueError(
                f"term with weight gap {num}/{w.den} not in the integer lattice"
            )
        terms[m + (num // w.den,)] = c
    return QPolynomial(ext, terms)


# ---------------------------------------------------------------------------
# exact division and determinants


class ExactDivisionError(ArithmeticError):
    pass


def divexact(a, b):
    """Exact polynomial quotient a / b; raises if division is not exact.

    A divisor of one term c*m is divided in one pass: the quotient is
    the sum of a_e/c * x^(e - m) over the terms of a, and the first term
    of a that m does not divide raises ExactDivisionError.  Any other
    divisor goes through the general loop, which divides the leading
    term of the remainder and subtracts, in grevlex order.  Every
    quotient the link pipeline takes is by a coordinate or a power of
    one, so it meets only the first path; the general loop serves the
    other divisors, such as the pivots of Bareiss elimination in det.
    """
    if b.is_zero():
        raise ZeroDivisionError("division by zero polynomial")
    if a.is_zero():
        return a
    if a.ambient != b.ambient:
        raise ValueError("ambient mismatch")
    field = a.ambient.field
    quo_terms = {}
    bm, bc = b.leading_term()
    bc_inv = field.inv(bc)
    if len(b.terms) == 1:
        for m, c in a.terms.items():
            qm = tuple(map(sub, m, bm))
            if min(qm, default=0) < 0:
                raise ExactDivisionError("leading term does not divide")
            quo_terms[qm] = field.mul(c, bc_inv)
        return _poly(a.ambient, quo_terms)
    rem = a
    while not rem.is_zero():
        rm, rc = rem.leading_term()
        if not _mono_divides(bm, rm):
            raise ExactDivisionError("leading term does not divide")
        qm = _mono_div(rm, bm)
        qc = field.mul(rc, bc_inv)
        quo_terms[qm] = qc
        rem = rem - QPolynomial(a.ambient, {qm: qc}) * b
    return QPolynomial(a.ambient, quo_terms)


def divides(b, a):
    """True if b divides a exactly."""
    try:
        divexact(a, b)
        return True
    except ExactDivisionError:
        return False


def _eliminate(rows, field):
    """Gaussian elimination of a matrix of field elements.

    Returns (rank, product, pivots): the rank, the product of the pivots
    with its sign flipped once per row swap, and the pivot columns in
    increasing order, each column that is independent of the columns
    before it.  For a square matrix of full rank the product is the
    determinant.  The matrix may be empty or not square.
    """
    m = [list(r) for r in rows]
    nrows = len(m)
    ncols = len(m[0]) if m else 0
    rank = 0
    product = field.one()
    pivots = []
    for col in range(ncols):
        if rank == nrows:
            break
        pivot = None
        for i in range(rank, nrows):
            if not field.is_zero(m[i][col]):
                pivot = i
                break
        if pivot is None:
            continue
        if pivot != rank:
            m[rank], m[pivot] = m[pivot], m[rank]
            product = field.neg(product)
        product = field.mul(product, m[rank][col])
        inv = field.inv(m[rank][col])
        for i in range(rank + 1, nrows):
            if field.is_zero(m[i][col]):
                continue
            factor = field.mul(m[i][col], inv)
            for j in range(col, ncols):
                m[i][j] = field.sub(m[i][j], field.mul(factor, m[rank][j]))
        pivots.append(col)
        rank += 1
    return rank, product, tuple(pivots)


def det(matrix):
    """Exact determinant of a square matrix of QPolynomials.

    A scalar matrix goes through _eliminate: its determinant is the
    signed pivot product when the rank is full, and zero otherwise.
    Matrices with genuine polynomial entries use fraction-free Bareiss
    elimination with exact polynomial division.
    """
    n = len(matrix)
    if n == 0:
        raise ValueError("empty matrix")
    ambient = matrix[0][0].ambient
    field = ambient.field
    if all(all(e.is_constant() for e in row) for row in matrix):
        rows = [[e.constant_coefficient() for e in row] for row in matrix]
        rank, product, _ = _eliminate(rows, field)
        return ambient.const(product) if rank == n else ambient.zero()
    m = [list(row) for row in matrix]
    sign = 1
    prev = ambient.one()
    for k in range(n - 1):
        if m[k][k].is_zero():
            pivot = None
            for i in range(k + 1, n):
                if not m[i][k].is_zero():
                    pivot = i
                    break
            if pivot is None:
                return ambient.zero()
            m[k], m[pivot] = m[pivot], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = m[k][k] * m[i][j] - m[i][k] * m[k][j]
                m[i][j] = divexact(num, prev)
            m[i][k] = ambient.zero()
        prev = m[k][k]
    result = m[n - 1][n - 1]
    return result if sign == 1 else -result


def resultant(f, g, name):
    """Sylvester resultant of f and g with respect to one variable.

    The inputs are treated as univariate polynomials in the named variable
    with coefficients in the remaining variables.  Zero input is an error.
    """
    if f.is_zero() or g.is_zero():
        raise ValueError("resultant of the zero polynomial")
    if f.ambient != g.ambient:
        raise ValueError("ambient mismatch")
    ambient = f.ambient
    fc = f.as_univariate(name)
    gc = g.as_univariate(name)
    m = max(fc)
    n = max(gc)
    if m == 0 and n == 0:
        return ambient.one()
    zero = ambient.zero()
    size = m + n
    rows = []
    for shift in range(n):
        row = [zero] * size
        for k, c in fc.items():
            row[shift + (m - k)] = c
        rows.append(row)
    for shift in range(m):
        row = [zero] * size
        for k, c in gc.items():
            row[shift + (n - k)] = c
        rows.append(row)
    return det(rows)


# ---------------------------------------------------------------------------
# evaluation and jacobian


class Evaluator:
    """Evaluate a tuple of polynomials of one ambient at points.

    The polynomials are lowered once: each term is kept as
    (coefficient, ((index, exponent), ...)) with its nonzero exponents
    only, and the top exponent of each variable is recorded.  A call
    tabulates the powers of every coordinate once, up to its top
    exponent, and shares the table across the polynomials.  One loop
    serves both fields: the sums and products run on the native ints or
    Fractions.  Over F_p the call works on ints throughout: an int
    coordinate and each power are reduced with % p, any other coordinate
    goes through field.coerce, and each value is reduced once at the
    end.  Over Q, field.coerce takes the coordinates and the values.
    """

    __slots__ = ("field", "lowered", "top")

    def __init__(self, fs):
        fs = tuple(fs)
        if not fs:
            raise ValueError("nothing to evaluate")
        ambient = fs[0].ambient
        if any(f.ambient != ambient for f in fs):
            raise ValueError("polynomials from different ambients")
        top = [0] * ambient.nvars
        lowered = []
        for f in fs:
            terms = []
            for m, c in f.terms.items():
                mono = tuple((i, e) for i, e in enumerate(m) if e)
                for i, e in mono:
                    if e > top[i]:
                        top[i] = e
                terms.append((c, mono))
            lowered.append(tuple(terms))
        self.field = ambient.field
        self.lowered, self.top = tuple(lowered), tuple(top)

    def __call__(self, point):
        """The values of the polynomials at point, in their order."""
        field = self.field
        p = field.characteristic
        if p:
            vals = [x % p if isinstance(x, int) else field.coerce(x)
                    for x in point]
        else:
            vals = [field.coerce(x) for x in point]
        if len(vals) != len(self.top):
            raise ValueError("point length does not match ambient")
        powers = []
        for x, t in zip(vals, self.top):
            row = [field.one()]
            if p:
                r = 1
                for _ in range(t):
                    r = r * x % p
                    row.append(r)
            else:
                for _ in range(t):
                    row.append(field.mul(row[-1], x))
            powers.append(row)
        out = []
        for terms in self.lowered:
            total = 0
            for c, mono in terms:
                for i, e in mono:
                    c *= powers[i][e]
                total += c
            out.append(total % p if p else field.coerce(total))
        return out


def evaluate(f, point):
    """Evaluate f at a point given as a sequence of field elements."""
    return Evaluator((f,))(point)[0]


def jacobian(fs):
    """Matrix of partial derivatives, rows indexed by the equations."""
    if not fs:
        raise ValueError("empty system")
    ambient = fs[0].ambient
    return [[f.derivative(n) for n in ambient.names] for f in fs]


class JacobianRank:
    """The exact rank of the jacobian of fs at points, read by columns.

    The column of a coordinate holds the partial derivatives of fs by it.
    A call reads the columns of the coordinates named in first, then the
    others in ambient order, and stops once the columns read have rank
    len(fs), the full row rank, which the whole matrix then has too;
    only where they never reach it does it read every column.  So the
    result is the exact rank, and at a point of full rank it costs the
    columns that reach it.  A column is derived and lowered into an
    Evaluator the first time a call reads it, and kept.
    """

    __slots__ = ("fs", "field", "order", "columns")

    def __init__(self, fs, first=()):
        fs = tuple(fs)
        if not fs:
            raise ValueError("empty system")
        ambient = fs[0].ambient
        self.fs, self.field = fs, ambient.field
        self.order = tuple(first) + tuple(
            n for n in ambient.names if n not in first)
        self.columns = {}

    def __call__(self, point):
        rows = len(self.fs)
        read = []
        rank = 0
        for name in self.order:
            column = self.columns.get(name)
            if column is None:
                column = self.columns[name] = Evaluator(
                    f.derivative(name) for f in self.fs)
            read.append(column(point))
            # the transpose of the columns read has their rank
            if len(read) >= rows or len(read) == len(self.order):
                rank = _eliminate(read, self.field)[0]
                if rank == rows:
                    break
        return rank


def matrix_rank_at(fs, point):
    """Exact rank of the jacobian of fs at a point, read by JacobianRank."""
    return JacobianRank(fs)(point)


# ---------------------------------------------------------------------------
# irreducibility


@record
class IrreducibilityVerdict:
    """Two-valued verdict of irreducibility_verdict.

    kind is "irreducible" or "unknown"; the witness string names the
    rule that decided, or says that none did.
    """

    kind: str
    witness: str

    @property
    def is_irreducible(self):
        return self.kind == "irreducible"


def _coprime_set_certificate(polys, depth=6):
    """True if the polynomials in the set provably have unit gcd.

    Sound rules only: a nonzero constant member; a monomial member with
    trivial common monomial divisor; a variable occurring in one member but
    not in another (any common divisor is then free of that variable and
    divides each of its coefficient polynomials, so recurse).
    """
    polys = [p for p in polys if not p.is_zero()]
    if not polys:
        return False
    if depth <= 0:
        return False
    for p in polys:
        if p.is_constant():
            return True
    # a monomial member: the gcd divides it, so it is a monomial; compare
    # against the common monomial content of everything
    for p in polys:
        if p.is_monomial():
            common = None
            for q in polys:
                c = q.monomial_content()
                common = c if common is None else tuple(
                    min(a, b) for a, b in zip(common, c)
                )
            if all(e == 0 for e in common):
                return True
    # variable separation
    supports = [p.variables() for p in polys]
    all_vars = set().union(*supports)
    for v in sorted(all_vars):
        holders = [i for i, s in enumerate(supports) if v in s]
        if len(holders) < len(polys):
            for i in holders:
                coeffs = list(polys[i].as_univariate(v).values())
                rest = [p for j, p in enumerate(polys) if j != i]
                if _coprime_set_certificate(coeffs + rest, depth - 1):
                    return True
    # all univariate in one common variable: Euclid over the field
    if len(all_vars) == 1:
        (v,) = all_vars
        g = _univariate_gcd(polys, v)
        if g is not None and g.total_degree() == 0:
            return True
    return False


def _trim(a, field):
    """Drop the zero leading coefficients of a dense list (lowest first)."""
    while a and field.is_zero(a[-1]):
        a.pop()
    return a


def _rem(a, b, field):
    """Remainder of dense a by the trimmed nonzero dense b."""
    a = list(a)
    inv = field.inv(b[-1])
    while len(a) >= len(b) and a:
        if field.is_zero(a[-1]):
            a.pop()
            continue
        coef = field.mul(a[-1], inv)
        shift = len(a) - len(b)
        for i, bc in enumerate(b):
            a[shift + i] = field.sub(a[shift + i], field.mul(coef, bc))
        _trim(a, field)
    return a


def _euclid(a, b, field):
    """A gcd of the trimmed dense lists a and b, not normalised."""
    while b:
        a, b = b, _rem(a, b, field)
    return a


def _univariate_gcd(polys, name):
    """Monic gcd of univariate polynomials via Euclid, or None on failure."""
    def to_list(p):
        d = p.degree_in(name)
        out = [p.ambient.field.zero()] * (d + 1)
        for k, c in p.as_univariate(name).items():
            if not c.is_constant():
                return None
            out[k] = c.constant_coefficient()
        return out

    field = polys[0].ambient.field
    cur = None
    for p in polys:
        lst = to_list(p)
        if lst is None:
            return None
        lst = _trim(lst, field)
        if not lst:
            continue
        cur = lst if cur is None else _euclid(cur, lst, field)
    if cur is None:
        return None
    ambient = polys[0].ambient
    terms = {}
    i = ambient.index(name)
    inv = field.inv(cur[-1])
    for k, c in enumerate(cur):
        if field.is_zero(c):
            continue
        e = [0] * ambient.nvars
        e[i] = k
        terms[tuple(e)] = field.mul(c, inv)
    return QPolynomial(ambient, terms)




def irreducibility_verdict(f):
    """Certify f irreducible over every extension of its coefficient field.

    Two rules, tried in each variable v of f in sorted order:

    - f = A*v + B with A and B coprime: f is primitive and linear in v.
    - f = A*v^2 + B*v + C with A, B and C coprime and the discriminant
      B^2 - 4*A*C of odd degree in some variable, so that it is not a
      square over any extension: f has no root in v and is primitive.
      In characteristic 2 the discriminant is B^2, of even degree in
      every variable, so the rule never fires there.

    Coprimality comes from _coprime_set_certificate, and a gcd does not
    change under field extension, so both rules hold over every
    extension field: "irreducible" means geometrically irreducible.
    When neither rule applies the verdict is unknown, which includes
    every constant.
    """
    zero = f.ambient.zero()
    for v in sorted(f.variables()):
        uni = f.as_univariate(v)
        d = max(uni)
        if d == 1:
            if _coprime_set_certificate([uni[1], uni.get(0, zero)]):
                return IrreducibilityVerdict(
                    "irreducible",
                    f"linear in {v} with coprime coefficient and remainder",
                )
        elif d == 2:
            A, B, C = uni[2], uni.get(1, zero), uni.get(0, zero)
            if not _coprime_set_certificate([A, B, C]):
                continue
            disc = B * B - 4 * A * C
            for w in sorted(disc.variables()):
                k = disc.degree_in(w)
                if k % 2:
                    return IrreducibilityVerdict(
                        "irreducible",
                        f"quadratic in {v}, discriminant not a square"
                        f" (odd degree {k} in {w})",
                    )
    return IrreducibilityVerdict("unknown", "no rule applied")
