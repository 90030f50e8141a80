import pytest
from fractions import Fraction

from brauercalc.coeff import (
    GaussRational,
    LaurentPoly,
    DivisionByZero,
    InexactDivision,
    MissingBinding,
    NonInvertibleSubstitution,
    ParseError,
    gr,
    lp_exact_div,
    lp_int,
    lp_parse,
    lp_str,
    lp_var,
)

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st


def test_gauss_rational_basics():
    i = gr(0, 1)
    assert i * i == gr(-1)
    assert (gr(1, 2) * gr(3, -1)) == gr(5, 5)
    assert gr(1, 1) / gr(1, 1) == gr(1)
    assert gr(2) ** -2 == gr(Fraction(1, 4))
    assert str(gr(Fraction(3, 2))) == "3/2"


def test_products_by_one_are_free():
    p = lp_parse("q - 2*v^-1")
    assert lp_int(1) is LaurentPoly.one()
    assert p * LaurentPoly.one() is p
    assert LaurentPoly.one() * p is p


def test_whole_parts_are_ints():
    assert type((gr(Fraction(1, 2)) * gr(2)).re) is int
    assert type(lp_parse("4/2").terms[()].re) is int
    # a denominator that division introduces and then cancels leaves an int
    quot = lp_exact_div(lp_parse("q + 1"), lp_parse("1/2*q + 1/2"))
    assert quot == lp_int(2) and type(quot.terms[()].re) is int
    inv = lp_parse("1/2*i*q").unit_inverse()
    assert inv == lp_parse("-2*i*q^-1") and type(inv.terms[(("q", -1),)].im) is int
    # an int part and a whole Fraction are the same number in every form
    assert gr(Fraction(4, 2)) == gr(2)
    assert hash(gr(Fraction(4, 2))) == hash(gr(2))
    assert str(gr(Fraction(4, 2))) == str(gr(2)) == "2"
    assert lp_str(lp_parse("3/2*q - 1/2*i*v")) == "3/2*q - 1/2*i*v"


def test_mul_difference_of_squares():
    q = lp_var("q")
    p = (q - q**-1) * (q + q**-1)
    assert p == q**2 - q**-2
    assert lp_str(p) == "q^2 - q^-2"


def test_imaginary_unit():
    assert lp_parse("i") * lp_parse("i") == lp_int(-1)


def test_parse_round_trip_examples():
    for text in [
        "0",
        "1",
        "-1",
        "q^2 - q^-2",
        "1/2*v + 3*z^-1",
        "i*q - 2*i",
        "(1+i)*a*b^-3 + 7/5",
        "-i",
        "lam^2 - b*lam",
    ]:
        p = lp_parse(text)
        assert lp_parse(lp_str(p)) == p


def test_parse_rejects_garbage():
    with pytest.raises(ParseError):
        lp_parse("q +")
    with pytest.raises(ParseError):
        lp_parse("q ? v")
    with pytest.raises(ParseError):
        lp_parse("q^v")
    with pytest.raises(ParseError):
        lp_parse("q *")
    with pytest.raises(ParseError):
        lp_parse("2/0 + q")


def test_unary_minus_is_a_factor_prefix():
    # '-' may prefix any factor and binds looser than '^'
    assert lp_parse("-q^2") == -lp_parse("q^2")
    assert lp_parse("-2^2") == lp_int(-4)
    assert lp_parse("2*-q") == lp_parse("-2*q")
    assert lp_parse("--q") == lp_parse("q")
    assert lp_parse("q - -q") == lp_parse("2*q")
    assert lp_parse("(-q)^2") == lp_parse("q^2")


def test_substitute_is_exact():
    p = lp_parse("q - q^-1")
    out = p.substitute({"q": lp_parse("v^2")})
    assert out == lp_parse("v^2 - v^-2")
    with pytest.raises(NonInvertibleSubstitution):
        p.substitute({"q": lp_parse("v + 1")})
    # a variable with only nonnegative exponents may take any value
    assert lp_parse("q + 1").substitute({"q": lp_parse("v + 1")}) == lp_parse("v + 2")


def test_eval():
    p = lp_parse("q^2 + z^-1")
    assert p.eval({"q": gr(3), "z": gr(Fraction(1, 2))}) == gr(11)
    with pytest.raises(MissingBinding):
        p.eval({"q": gr(3)})
    with pytest.raises(DivisionByZero):
        p.eval({"q": gr(3), "z": gr(0)})


def test_exact_division():
    num = lp_parse("q^2 - q^-2")
    assert lp_exact_div(num, lp_parse("q - q^-1")) == lp_parse("q + q^-1")
    assert lp_exact_div(num, lp_parse("q^2")) == lp_parse("1 - q^-4")
    with pytest.raises(InexactDivision):
        lp_exact_div(lp_parse("q + 1"), lp_parse("q + 2"))


# Oracle for the loop value used by the tangle-algebra preset: the loop value
# delta must satisfy v^-1 = v - z + z*delta.  Solve independently and freeze.
def test_tangle_loop_value_oracle():
    delta = lp_parse("v^-1*z^-1 - v*z^-1 + 1")
    lhs = lp_parse("v^-1")
    rhs = lp_parse("v - z") + lp_parse("z") * delta
    assert lhs == rhs


# about half of the parts are whole, so products meet int*int, int*Fraction
# and Fraction*Fraction alike
part_st = st.one_of(
    st.integers(-50, 50),
    st.builds(Fraction, st.integers(-50, 50), st.integers(2, 20)),
)
coeff_st = st.builds(gr, part_st, part_st)


@st.composite
def poly_st(draw):
    n_terms = draw(st.integers(0, 5))
    names = ["q", "v", "z"]
    terms = {}
    p = LaurentPoly.zero()
    for _ in range(n_terms):
        mono = LaurentPoly.one()
        for name in names:
            e = draw(st.integers(-3, 3))
            mono = mono * lp_var(name) ** e
        p = p + mono.scale(draw(coeff_st))
    return p


@settings(max_examples=60, deadline=None)
@given(poly_st(), poly_st(), poly_st())
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) * c == a * c + b * c
    assert a - a == LaurentPoly.zero()
    assert (a * b) * c == a * (b * c)


@settings(max_examples=60, deadline=None)
@given(poly_st(), poly_st())
def test_text_round_trip(a, b):
    assert lp_parse(lp_str(a)) == a
    assert lp_parse(lp_str(a * b)) == a * b


@settings(max_examples=40, deadline=None)
@given(poly_st(), poly_st())
def test_substitution_is_ring_hom(a, b):
    bind = {"q": lp_parse("2*w^2"), "v": lp_parse("w^-1"), "z": lp_parse("3*w")}
    assert (a + b).substitute(bind) == a.substitute(bind) + b.substitute(bind)
    assert (a * b).substitute(bind) == a.substitute(bind) * b.substitute(bind)


@settings(max_examples=40, deadline=None)
@given(poly_st())
def test_eval_after_substitute(a):
    bind = {"q": lp_parse("v"), "v": lp_parse("v"), "z": lp_parse("2*v")}
    point = {"v": gr(Fraction(3, 2))}
    full_point = {"q": gr(Fraction(3, 2)), "v": gr(Fraction(3, 2)), "z": gr(3)}
    try:
        direct = a.eval(full_point)
    except DivisionByZero:
        return
    assert a.substitute(bind).eval(point) == direct


# ---------------------------------------------------------------------------
# Differential tests against sympy (a test-only oracle)

try:
    import sympy
except ImportError:
    sympy = None

needs_sympy = pytest.mark.skipif(sympy is None, reason="sympy is not installed")


def to_sympy(p):
    out = sympy.Integer(0)
    for mono, c in p.terms.items():
        term = sympy.Rational(c.re) + sympy.I * sympy.Rational(c.im)
        for name, e in mono:
            term *= sympy.Symbol(name) ** e
        out += term
    return out


def same(p, expr):
    return sympy.expand(to_sympy(p) - expr) == 0


@needs_sympy
@settings(max_examples=40, deadline=None)
@given(poly_st(), poly_st(), st.integers(0, 3))
def test_ring_operations_match_sympy(a, b, k):
    x, y = to_sympy(a), to_sympy(b)
    assert same(a + b, x + y)
    assert same(a - b, x - y)
    assert same(a * b, x * y)
    assert same(a ** k, x ** k)
    if a.is_unit_monomial():
        assert same(a ** -k, x ** -k)


def _polynomial_part(expr, gens):
    """expr as a sympy Poly over Q(i) with its monomial content removed."""
    num, den = sympy.fraction(sympy.together(expr))
    return sympy.Poly(num, *gens, domain="QQ_I").terms_gcd()[1]


@needs_sympy
@settings(max_examples=40, deadline=None)
@given(poly_st(), poly_st(), poly_st())
def test_exact_division_matches_sympy(a, b, c):
    hypothesis.assume(not b.is_zero())
    gens = [sympy.Symbol(name) for name in ("q", "v", "z")]
    for p in (a * b, a * b + c):
        divisor = _polynomial_part(to_sympy(b), gens)
        # a monomial is a unit, so sympy divides the parts free of monomials
        remainder = _polynomial_part(to_sympy(p), gens).rem(divisor)
        if remainder.is_zero:
            assert same(lp_exact_div(p, b) * b, to_sympy(p))
        else:
            with pytest.raises(InexactDivision):
                lp_exact_div(p, b)


@needs_sympy
@settings(max_examples=40, deadline=None)
@given(poly_st())
def test_substitute_matches_sympy(a):
    bind = {"q": lp_parse("w + 1"), "v": lp_parse("2*w^-1"), "z": lp_parse("i*w")}
    q, v, z, w = sympy.symbols("q v z w")
    expected = to_sympy(a).subs({q: w + 1, v: 2 / w, z: sympy.I * w}, simultaneous=True)
    if any(name == "q" and e < 0 for mono in a.terms for name, e in mono):
        with pytest.raises(NonInvertibleSubstitution):
            a.substitute(bind)
    else:
        assert same(a.substitute(bind), expected)
