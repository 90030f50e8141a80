"""
Exact coefficient arithmetic: Gaussian rationals and multivariate Laurent
polynomials over them.

Coefficients are Gaussian rationals whose real and imaginary parts are each
an `int` when whole and a `Fraction` only when a real denominator exists.  The
two compare, hash and print alike, so every computation in the package is
exact and no equality, hash or text form depends on which one a part is.
Laurent polynomials are stored sparsely as a map from monomials to Gaussian
rationals; a monomial is a sorted tuple of `(name, exponent)` pairs with
nonzero exponents.  A variable is its name, so every text form orders
variables by name, whatever the process did before.

>>> p = lp_parse("q - q^-1")
>>> print(lp_str(p * lp_parse("q + q^-1")))
q^2 - q^-2
>>> lp_parse("i") * lp_parse("i") == lp_int(-1)
True
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction


class CoeffError(Exception):
    """Base class for coefficient arithmetic errors."""


class ParseError(CoeffError):
    """Raised when a polynomial text form cannot be parsed."""


class NonInvertibleSubstitution(CoeffError):
    """Raised when a variable with a negative exponent is bound to a
    polynomial that is not a single invertible term."""


class DivisionByZero(CoeffError):
    """Raised when evaluation maps a negatively-powered variable to zero."""


class MissingBinding(CoeffError):
    """Raised when evaluation lacks a value for some variable."""


class InexactDivision(CoeffError):
    """Raised when an exact polynomial quotient was required but does not
    exist."""


def _power(base, k: int, one):
    """base ** k for k >= 0 by square-and-multiply; one is the unit."""
    out = one
    while k:
        if k & 1:
            out = out * base
        base = base * base
        k >>= 1
    return out


# ---------------------------------------------------------------------------
# Gaussian rationals


def _q(x):
    """x as an `int` when it is whole: products and sums of ints never reach
    `Fraction` arithmetic, which dominates the cost otherwise."""
    return x.numerator if x.denominator == 1 else x


@dataclass(frozen=True)
class GaussRational:
    """A number a + b*i with rational a, b; each part is an `int` when whole,
    else a `Fraction`."""

    re: int | Fraction
    im: int | Fraction

    def __add__(self, other: "GaussRational") -> "GaussRational":
        return GaussRational(_q(self.re + other.re), _q(self.im + other.im))

    def __sub__(self, other: "GaussRational") -> "GaussRational":
        return GaussRational(_q(self.re - other.re), _q(self.im - other.im))

    def __neg__(self) -> "GaussRational":
        return GaussRational(-self.re, -self.im)

    def __mul__(self, other: "GaussRational") -> "GaussRational":
        return GaussRational(
            _q(self.re * other.re - self.im * other.im),
            _q(self.re * other.im + self.im * other.re),
        )

    def __truediv__(self, other: "GaussRational") -> "GaussRational":
        n = Fraction(other.re * other.re + other.im * other.im)
        if n == 0:
            raise DivisionByZero("division by zero Gaussian rational")
        return GaussRational(
            _q((self.re * other.re + self.im * other.im) / n),
            _q((self.im * other.re - self.re * other.im) / n),
        )

    def __pow__(self, k: int) -> "GaussRational":
        if k < 0:
            return GR_ONE / (self ** (-k))
        return _power(self, k, GR_ONE)

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def __str__(self) -> str:
        if self.im == 0:
            return str(self.re)
        if self.re == 0:
            if self.im == 1:
                return "i"
            if self.im == -1:
                return "-i"
            return "%s*i" % self.im
        im = "i" if self.im == 1 else ("-i" if self.im == -1 else "%s*i" % self.im)
        if self.im > 0:
            return "(%s+%s)" % (self.re, im)
        return "(%s%s)" % (self.re, im)


def gr(re, im=0) -> GaussRational:
    """Build a Gaussian rational from ints/Fractions."""
    return GaussRational(_q(Fraction(re)), _q(Fraction(im)))


GR_ZERO = gr(0)
GR_ONE = gr(1)
GR_I = gr(0, 1)


# ---------------------------------------------------------------------------
# Variables

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z_0-9]*\Z")


def var_name(name: str) -> str:
    """Check a variable name and return it: a variable is its name."""
    if name == "i":
        raise ParseError("'i' is reserved for the imaginary unit")
    if not _NAME_RE.match(name):
        raise ParseError("bad variable name: %r" % name)
    return name


# ---------------------------------------------------------------------------
# Laurent polynomials

Mono = tuple  # tuple[(name, exp), ...] sorted by name, exps nonzero

_MONO_ONE: Mono = ()


def _mono_mul(a: Mono, b: Mono) -> Mono:
    if not a:
        return b
    if not b:
        return a
    d = dict(a)
    for v, e in b:
        ne = d.get(v, 0) + e
        if ne:
            d[v] = ne
        else:
            del d[v]
    return tuple(sorted(d.items()))


def _mono_pow(a: Mono, k: int) -> Mono:
    return tuple((v, e * k) for v, e in a) if k else _MONO_ONE


class LaurentPoly:
    """Sparse Laurent polynomial with GaussRational coefficients.

    Instances are immutable; `terms` maps monomials to nonzero coefficients.
    """

    __slots__ = ("terms", "_hash")

    def __init__(self, terms: dict):
        object.__setattr__(self, "terms", {m: c for m, c in terms.items() if not c.is_zero()})
        object.__setattr__(self, "_hash", None)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero() -> "LaurentPoly":
        return _LP_ZERO

    @staticmethod
    def one() -> "LaurentPoly":
        return _LP_ONE

    @staticmethod
    def const(c: GaussRational) -> "LaurentPoly":
        return LaurentPoly({_MONO_ONE: c})

    @staticmethod
    def from_int(n: int) -> "LaurentPoly":
        return LaurentPoly({_MONO_ONE: gr(n)})

    @staticmethod
    def variable(name: str, exp: int = 1) -> "LaurentPoly":
        if exp == 0:
            return _LP_ONE
        return LaurentPoly({((var_name(name), exp),): GR_ONE})

    # -- ring operations ---------------------------------------------------

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        d = dict(self.terms)
        for m, c in other.terms.items():
            d[m] = d.get(m, GR_ZERO) + c
        return LaurentPoly(d)

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        d = dict(self.terms)
        for m, c in other.terms.items():
            d[m] = d.get(m, GR_ZERO) - c
        return LaurentPoly(d)

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly({m: -c for m, c in self.terms.items()})

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        if other is _LP_ONE:
            return self
        if self is _LP_ONE:
            return other
        d: dict = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = _mono_mul(m1, m2)
                c = d.get(m)
                d[m] = c1 * c2 if c is None else c + c1 * c2
        return LaurentPoly(d)

    def __pow__(self, k: int) -> "LaurentPoly":
        if k < 0:
            return self.unit_inverse() ** (-k)
        return _power(self, k, _LP_ONE)

    def scale(self, c: GaussRational) -> "LaurentPoly":
        return LaurentPoly({m: cc * c for m, cc in self.terms.items()})

    def is_zero(self) -> bool:
        return not self.terms

    def is_unit_monomial(self) -> bool:
        """True for c * x1^e1 ... xk^ek with c nonzero (a ring unit)."""
        return len(self.terms) == 1

    def unit_inverse(self) -> "LaurentPoly":
        if not self.is_unit_monomial():
            raise InexactDivision("not an invertible (single-term) polynomial")
        ((m, c),) = self.terms.items()
        return LaurentPoly({_mono_pow(m, -1): GR_ONE / c})

    def __eq__(self, other) -> bool:
        return isinstance(other, LaurentPoly) and self.terms == other.terms

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash(frozenset(self.terms.items()))
            object.__setattr__(self, "_hash", h)
        return h

    def __repr__(self) -> str:
        return "lp_parse(%r)" % lp_str(self)

    # -- substitution / evaluation -----------------------------------------

    def variables(self) -> set:
        return {v for m in self.terms for v, _ in m}

    def substitute(self, bindings: dict) -> "LaurentPoly":
        """Substitute polynomials for variables (given by name).

        Variables carrying negative exponents anywhere in `self` must be
        bound (if bound at all) to single-term invertible polynomials.
        """
        bind = {var_name(n): p for n, p in bindings.items()}
        out = _LP_ZERO
        for m, c in self.terms.items():
            term = LaurentPoly.const(c)
            for v, e in m:
                p = bind.get(v)
                if p is None:
                    term = term * LaurentPoly({((v, e),): GR_ONE})
                elif e >= 0:
                    term = term * p**e
                else:
                    if not p.is_unit_monomial():
                        raise NonInvertibleSubstitution(
                            "variable %r occurs with a negative exponent but is "
                            "bound to a non-invertible polynomial" % v
                        )
                    term = term * p**e
            out = out + term
        return out

    def eval(self, point: dict) -> GaussRational:
        """Evaluate at Gaussian-rational values (keyed by variable name)."""
        vals = {var_name(n): v for n, v in point.items()}
        out = GR_ZERO
        for m, c in self.terms.items():
            t = c
            for v, e in m:
                if v not in vals:
                    raise MissingBinding("no value for variable %r" % v)
                val = vals[v]
                if val.is_zero() and e < 0:
                    raise DivisionByZero(
                        "variable %r is zero but has exponent %d" % (v, e)
                    )
                t = t * val**e
            out = out + t
        return out


_LP_ZERO = LaurentPoly({})
_LP_ONE = LaurentPoly({_MONO_ONE: GR_ONE})


def lp_exact_div(p: LaurentPoly, q: LaurentPoly) -> LaurentPoly:
    """Exact quotient p / q; raises InexactDivision if q does not divide p.

    Works whenever q is a unit monomial or the quotient exists as a Laurent
    polynomial (found by iterated leading-term elimination).
    """
    if q.is_zero():
        raise InexactDivision("division by zero polynomial")
    if q.is_unit_monomial():
        return p * q.unit_inverse()

    # Strip the monomial content of each operand; afterwards the divisor has
    # a term of degree zero in every variable, so ordinary leading-term
    # division finds the quotient whenever it exists.
    def content(poly: LaurentPoly) -> LaurentPoly:
        allv = {v for m in poly.terms for v, _ in m}
        lows = {
            v: min(dict(m).get(v, 0) for m in poly.terms) for v in allv
        }
        return LaurentPoly({tuple((v, e) for v, e in sorted(lows.items()) if e): GR_ONE})

    cp, cq = content(p), content(q)
    pp = p * cp.unit_inverse()
    qq = q * cq.unit_inverse()
    tail = cp * cq.unit_inverse()

    names = sorted({v for m in list(pp.terms) + list(qq.terms) for v, _ in m})

    def key(m):
        d = dict(m)
        return tuple(d.get(v, 0) for v in names)

    def divisible(rm, qm):
        return all(re >= qe for re, qe in zip(key(rm), key(qm)))

    qlead = max(qq.terms, key=key)
    qc = qq.terms[qlead]
    qlead_inv = _mono_pow(qlead, -1)
    rem = pp
    quot: dict = {}
    bound = sum(abs(e) for m in pp.terms for _, e in m) + len(pp.terms) + 1
    for _ in range(bound * (len(qq.terms) + 1) + 1):
        if rem.is_zero():
            return LaurentPoly(quot) * tail
        rlead = max(rem.terms, key=key)
        if not divisible(rlead, qlead):
            raise InexactDivision("quotient is not a Laurent polynomial")
        fac_m = _mono_mul(rlead, qlead_inv)
        fac_c = rem.terms[rlead] / qc
        quot[fac_m] = quot.get(fac_m, GR_ZERO) + fac_c
        rem = rem - qq * LaurentPoly({fac_m: fac_c})
    raise InexactDivision("quotient is not a Laurent polynomial")


# ---------------------------------------------------------------------------
# Text form: the one Laurent-polynomial grammar of the package.  `lp_parse`
# reads an `expr`; the morphism DSL (`term.parse_expr`) runs the same parser
# on its own token stream and reads a `term` as a coefficient.
#
#   expr   := term (('+' | '-') term)*
#   term   := factor ('*' factor)*     -- stops before a '*' not followed
#                                         by a factor
#   factor := '-' factor | atom ['^' ['-'] int]
#   atom   := rational | 'i' | name | '(' expr ')'
#
# Unary minus binds looser than '^': -q^2 is -(q^2).


_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+(?:/\d+)?)|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*^()]))"
)


def _read_token(m) -> tuple:
    """The `(kind, value)` token of a `_TOKEN_RE` match."""
    if m.group("num"):
        try:
            return ("num", Fraction(m.group("num")))
        except ZeroDivisionError:
            raise ParseError("zero denominator in %r" % m.group("num")) from None
    if m.group("name"):
        return ("name", m.group("name"))
    return ("op", m.group("op"))


def _tokenize(text: str) -> list:
    toks = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            if text[pos:].strip() == "":
                break
            raise ParseError("unexpected character at %r" % text[pos:])
        pos = m.end()
        toks.append(_read_token(m))
    return toks


class _Parser:
    """Recursive descent over `(kind, value)` tokens, kind "num", "name" or
    "op"; tokens of any other kind end a polynomial."""

    def __init__(self, toks):
        self.toks = toks
        self.pos = 0

    def peek(self):
        return self.toks[self.pos] if self.pos < len(self.toks) else (None, None)

    def take(self):
        t = self.peek()
        self.pos += 1
        return t

    def expect_op(self, op):
        k, v = self.take()
        if k != "op" or v != op:
            raise ParseError("expected %r" % op)

    def parse_expr(self) -> LaurentPoly:
        out = self.parse_term()
        while self.peek()[0] == "op" and self.peek()[1] in "+-":
            _, op = self.take()
            t = self.parse_term()
            out = out + t if op == "+" else out - t
        return out

    def parse_term(self) -> LaurentPoly:
        out = self.parse_factor()
        while self.peek() == ("op", "*"):
            save = self.pos
            self.take()
            try:
                rhs = self.parse_factor()
            except ParseError:
                self.pos = save
                break
            out = out * rhs
        return out

    def parse_factor(self) -> LaurentPoly:
        if self.peek() == ("op", "-"):
            self.take()
            return -self.parse_factor()
        base = self.parse_atom()
        if self.peek() == ("op", "^"):
            self.take()
            sign = 1
            if self.peek() == ("op", "-"):
                self.take()
                sign = -1
            k, v = self.take()
            if k != "num" or v.denominator != 1:
                raise ParseError("exponent must be an integer")
            return base ** (sign * int(v))
        return base

    def parse_atom(self) -> LaurentPoly:
        k, v = self.take()
        if k == "num":
            return LaurentPoly.const(GaussRational(_q(v), 0))
        if k == "name":
            if v == "i":
                return LaurentPoly.const(GR_I)
            return LaurentPoly.variable(v)
        if k == "op" and v == "(":
            out = self.parse_expr()
            self.expect_op(")")
            return out
        raise ParseError("unexpected token %r" % (v,))


def lp_parse(text: str) -> LaurentPoly:
    """Parse the text form of a Laurent polynomial."""
    p = _Parser(_tokenize(text))
    try:
        out = p.parse_expr()
    except RecursionError:
        raise ParseError("polynomial nested too deeply") from None
    if p.pos != len(p.toks):
        raise ParseError("trailing input after polynomial")
    return out


def _mono_str(m: Mono) -> str:
    parts = []
    for v, e in m:
        if e == 1:
            parts.append(v)
        else:
            parts.append("%s^%d" % (v, e))
    return "*".join(parts)


def lp_str(p: LaurentPoly) -> str:
    """Canonical text form; `lp_parse(lp_str(p)) == p` always holds."""
    if p.is_zero():
        return "0"
    items = sorted(p.terms.items(), key=lambda mc: tuple((v, -e) for v, e in mc[0]))
    chunks = []
    for m, c in items:
        ms = _mono_str(m)
        neg = False
        if c.im == 0 and c.re < 0:
            neg, c = True, -c
        elif c.re == 0 and c.im < 0:
            neg, c = True, -c
        cs = str(c)
        if ms and cs == "1":
            body = ms
        elif ms:
            body = "%s*%s" % (cs, ms)
        else:
            body = cs
        if not chunks:
            chunks.append("-" + body if neg else body)
        else:
            chunks.append((" - " if neg else " + ") + body)
    return "".join(chunks)


def lp_var(name: str) -> LaurentPoly:
    return LaurentPoly.variable(name)


def lp_int(n: int) -> LaurentPoly:
    return _LP_ONE if n == 1 else LaurentPoly.from_int(n)

