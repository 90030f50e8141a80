import hashlib
import random

import pytest

from brauercalc.coeff import lp_int, lp_parse, lp_str, lp_var
from brauercalc.term import (
    ExprParseError,
    TermError,
    WidthError,
    cap,
    cross,
    cup,
    parse_expr,
    word,
)


def word_to_dsl(w) -> str:
    """Render a word back into the DSL (top factor leftmost)."""
    if not w.letters:
        return "id@%d" % w.domain
    sym = {"cross": "s", "cap": "a", "cup": "u"}
    widths = w.widths()
    parts = ["%s(%d)@%d" % (sym[l.kind], l.pos, widths[i]) for i, l in enumerate(w.letters)]
    return " . ".join(reversed(parts))


def scaled_words_to_dsl(terms) -> str:
    """Render parse_expr() terms back into the DSL."""
    return " + ".join(
        word_to_dsl(w) if c == lp_int(1) else "(%s) * %s" % (lp_str(c), word_to_dsl(w))
        for c, w in terms
    )


def shape(terms):
    """The one (domain, codomain) shape shared by every term."""
    shapes = {(w.domain, w.codomain) for _, w in terms}
    assert len(shapes) == 1, shapes
    return shapes.pop()


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
    [(c, w)] = parse_expr("s(1)@2")
    assert c == lp_int(1)
    assert [(l.kind, l.pos) for l in w.letters] == [("cross", 1)]
    assert shape([(c, w)]) == (2, 2)
    assert shape(parse_expr("a(1)@2")) == (2, 0)
    assert shape(parse_expr("u(1)@0")) == (0, 2)
    assert shape(parse_expr("id@3")) == (3, 3)


def test_parse_compose_left_is_top():
    terms = parse_expr("a(1)@2 . u(1)@0")
    assert shape(terms) == (0, 0)
    [(c, w)] = terms
    assert c == lp_int(1)
    assert [l.kind for l in w.letters] == ["cup", "cap"]


def test_parse_shape_mismatch():
    # crossing on top of a cup is fine
    assert shape(parse_expr("s(1)@2 . u(1)@0")) == (0, 2)
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
    terms = parse_expr("u(1)@1 # s(1)@2")
    assert shape(terms) == (3, 5)
    [(c, w)] = terms
    assert w.domain == 3
    assert [(l.kind, l.pos) for l in w.letters] == [("cross", 2), ("cup", 1)]


def test_coefficients_and_sums():
    terms = parse_expr("q * s(1)@2 + (q - q^-1) * id@2 - u(1)@0 . a(1)@2")
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
        assert [c for c, _ in parse_expr(text)] == expected, text


def test_coefficient_minus_binds_looser_than_power():
    # the DSL reads coefficients with lp_parse's grammar: -q^2 is -(q^2)
    for text in ["-q^2 * s(1)@2", "(-q^2) * id@2"]:
        [(c, _)] = parse_expr(text)
        assert c == lp_parse("-q^2"), text
    [(c, _)] = parse_expr("-2^2 * id@2")
    assert c == lp_int(-4)


def test_nested_parens():
    terms = parse_expr("(s(1)@2 + id@2) . u(1)@0")
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
    [(c, w2)] = parse_expr(text)
    assert c == lp_int(1)
    assert w2 == w


def test_scaled_words_to_dsl_round_trip():
    terms = parse_expr("(q + 1) * s(1)@2 . s(1)@2 + 2 * id@2")
    text = scaled_words_to_dsl(terms)
    terms2 = parse_expr(text)
    assert terms2 == terms


# ---------------------------------------------------------------------------
# The parser pinned on a seeded battery

_COEFFS = ["0", "1", "2", "-1", "q", "-q", "q^-1", "(q - q^-1)", "1/2", "i",
           "(1 + i)", "v*z", "-q^2", "2^3", "q^12", "(z + 1/3*v^-2)"]
# precedence of an expression's outermost rule: a generator or parenthesised
# expression, a tensor, a composite, a coefficient product, a sum
GEN, TENS, COMP, PROD, SUM = range(5)


def _leaf(rng, dom, cod):
    if cod == dom:
        if dom >= 2 and rng.random() < 0.7:
            return "s(%d)@%d" % (rng.randint(1, dom - 1), dom)
        return "id@%d" % dom
    if cod == dom - 2:
        return "a(%d)@%d" % (rng.randint(1, dom - 1), dom)
    if cod == dom + 2:
        return "u(%d)@%d" % (rng.randint(1, dom + 1), dom)
    return None


def _random_expr(rng, dom, cod, depth):
    """(text, precedence) of a random expression of shape (dom, cod)."""

    def sub(d, c, level):
        text, prec = _random_expr(rng, d, c, depth - 1)
        return text if prec <= level else "(%s)" % text

    leaf = _leaf(rng, dom, cod)
    if depth <= 0 or rng.random() < 0.2:
        if leaf is not None:
            return leaf, GEN
        if cod > dom:  # grow by a cup on top
            return "u(1)@%d . %s" % (cod - 2, sub(dom, cod - 2, TENS)), COMP
        return "a(1)@%d . %s" % (cod + 2, sub(dom, cod + 2, TENS)), COMP
    pick = rng.randrange(5)
    if pick == 0:
        parts = [sub(dom, cod, PROD) for _ in range(rng.randint(2, 3))]
        text = parts[0]
        for part in parts[1:]:
            text += rng.choice([" + ", " - "]) + part
        return text, SUM
    if pick == 1:
        mid = rng.choice([w for w in range(5) if w % 2 == dom % 2])
        return "%s . %s" % (sub(mid, cod, TENS), sub(dom, mid, TENS)), COMP
    if pick == 2:
        d1, c1 = rng.choice([(d, c) for d in range(dom + 1)
                             for c in range(cod + 1) if (d - c) % 2 == 0])
        return "%s # %s" % (sub(d1, c1, GEN), sub(dom - d1, cod - c1, GEN)), TENS
    if pick == 3:
        return "%s * %s" % (rng.choice(_COEFFS), sub(dom, cod, COMP)), PROD
    return "(%s)" % sub(dom, cod, SUM), GEN


def parse_battery(seed=2024, count=2500):
    """`count` distinct random expressions, each of them well formed."""
    rng = random.Random(seed)
    out = {}
    while len(out) < count:
        dom = rng.randint(0, 4)
        cod = rng.choice([w for w in range(5) if w % 2 == dom % 2])
        out[_random_expr(rng, dom, cod, rng.randint(1, 4))[0]] = None
    return list(out)


def terms_digest(texts):
    """sha256 over each text and its terms: coefficient, domain, letters."""
    h = hashlib.sha256()
    for text in texts:
        h.update(("%s\n" % text).encode())
        for c, w in parse_expr(text):
            letters = " ".join("%s%d" % (l.kind, l.pos) for l in w.letters)
            h.update(("  %s | %d | %s\n" % (lp_str(c), w.domain, letters)).encode())
    return h.hexdigest()


# a new digest means some expression now reads as different terms
PARSE_BATTERY_SHA256 = "92d95920bea8a42ff4ca8e20bda424536c05784c336443728c07a17ffb5e6c91"


def test_parse_is_pinned():
    texts = parse_battery()
    assert len(texts) == 2500
    joined = "\n".join(texts)
    for needle in [" + ", " - ", "0 * ", " . ", " # ", "(("]:
        assert needle in joined, needle
    assert terms_digest(texts) == PARSE_BATTERY_SHA256
    for bad in [
        "", "id@2 +", "s(1)@2 )", "(id@2", "q *", "* id@2", "id@2 . . id@2",
        "s(2)@2", "a(3)@2", "u(4)@2", "s(1)@1 # id@1",
        "u(1)@0 . s(1)@2", "id@3 . id@2", "(id@2 . id@2) . id@4",
        "id@2 + id@4", "q * id@2 - s(1)@3", "(id@2 + id@4) . id@2",
        "(id@2 + id@4) . ", "id@1 . (id@2 + s(1)@2)", "(id@2 + id@2 # id@2) # id@1",
    ]:
        with pytest.raises(TermError):
            parse_expr(bad)
