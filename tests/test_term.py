import pytest

from brauercalc.coeff import lp_int, lp_parse, lp_var
from brauercalc.term import (
    Compose,
    ExprParseError,
    GenWord,
    Scale,
    Sum,
    Tensor,
    WidthError,
    WordExpr,
    cap,
    cross,
    cup,
    flatten,
    parse_expr,
    scaled_words_to_dsl,
    word,
    word_to_dsl,
)


def test_width_propagation():
    w = word(1, [cup(1), cross(1), cap(2)])
    assert w.codomain == 1
    assert w.widths() == [1, 3, 3, 1]


def test_width_errors():
    with pytest.raises(WidthError):
        word(1, [cross(1)])
    with pytest.raises(WidthError):
        word(2, [cap(2)])
    with pytest.raises(WidthError):
        word(0, [cup(2)])
    # cup may sit one past the right edge
    assert word(1, [cup(2)]).codomain == 3


def test_parse_single_generators():
    e = parse_expr("s(1)@2")
    assert isinstance(e, WordExpr)
    assert e.shape() == (2, 2)
    assert parse_expr("a(1)@2").shape() == (2, 0)
    assert parse_expr("u(1)@0").shape() == (0, 2)
    assert parse_expr("id@3").shape() == (3, 3)


def test_parse_compose_left_is_top():
    e = parse_expr("a(1)@2 . u(1)@0")
    assert e.shape() == (0, 0)
    [(c, w)] = flatten(e)
    assert c == lp_int(1)
    assert [l.kind for l in w.letters] == ["cup", "cap"]


def test_parse_shape_mismatch():
    # crossing on top of a cup is fine
    assert parse_expr("s(1)@2 . u(1)@0").shape() == (0, 2)
    # a cup on top of a crossing of the wrong width is not
    with pytest.raises(Exception):
        parse_expr("u(1)@0 . s(1)@2")
    with pytest.raises(Exception):
        parse_expr("a(1)@2 . a(1)@2")
    # summands must agree in shape
    with pytest.raises(Exception):
        parse_expr("id@2 + id@4")


def test_tensor_flatten_order():
    # left factor stays on top, right factor's letters shift by the left
    # factor's domain width
    e = parse_expr("u(1)@1 # s(1)@2")
    assert e.shape() == (3, 5)
    [(c, w)] = flatten(e)
    assert w.domain == 3
    assert [(l.kind, l.pos) for l in w.letters] == [("cross", 2), ("cup", 1)]


def test_coefficients_and_sums():
    e = parse_expr("q * s(1)@2 + (q - q^-1) * id@2 - u(1)@0 . a(1)@2")
    assert isinstance(e, Sum)
    terms = flatten(e)
    assert len(terms) == 3
    coeffs = [c for c, _ in terms]
    assert coeffs[0] == lp_parse("q")
    assert coeffs[1] == lp_parse("q - q^-1")
    assert coeffs[2] == lp_parse("-1")

    q = lp_var("q")
    for text, expected in [
        ("2 * -q * id@2", [lp_parse("-2*q")]),
        ("--q * id@2", [q]),
        ("id@2 - -q*id@2", [lp_int(1), q]),
        ("q*v*s(1)@2", [lp_parse("q*v")]),
        ("q * (s(1)@2 + id@2)", [q, q]),
        ("(s(1)@2 + id@2) . u(1)@0", [lp_int(1), lp_int(1)]),
    ]:
        assert [c for c, _ in flatten(parse_expr(text))] == expected, text


def test_coefficient_minus_binds_looser_than_power():
    # the DSL reads coefficients with lp_parse's grammar: -q^2 is -(q^2)
    for text in ["-q^2 * s(1)@2", "(-q^2) * id@2"]:
        [(c, _)] = flatten(parse_expr(text))
        assert c == lp_parse("-q^2"), text
    [(c, _)] = flatten(parse_expr("-2^2 * id@2"))
    assert c == lp_int(-4)


def test_nested_parens():
    e = parse_expr("(s(1)@2 + id@2) . u(1)@0")
    terms = flatten(e)
    assert len(terms) == 2
    kinds = sorted(tuple(l.kind for l in w.letters) for _, w in terms)
    assert kinds == [("cup",), ("cup", "cross")]


def test_parse_errors():
    for bad in ["s(1)", "q * q", "u(1)@1 .", "s(0)@2", "(q+1)", "s(1)@2 ## id@1"]:
        with pytest.raises(Exception):
            parse_expr(bad)
    # a failed coefficient never leaks the coefficient parser's error
    for bad in ["-s(1)@2", "q^x * id@2", "2/0 * s(1)@2", "id@2 + 1/0"]:
        with pytest.raises(ExprParseError):
            parse_expr(bad)


def test_word_round_trip_via_dsl():
    w = word(1, [cup(1), cross(2), cap(1)])
    text = word_to_dsl(w)
    e = parse_expr(text)
    [(c, w2)] = flatten(e)
    assert c == lp_int(1)
    assert w2 == w


def test_scaled_words_to_dsl_round_trip():
    e = parse_expr("(q + 1) * s(1)@2 . s(1)@2 + 2 * id@2")
    terms = flatten(e)
    text = scaled_words_to_dsl(terms)
    terms2 = flatten(parse_expr(text))
    assert terms2 == terms
