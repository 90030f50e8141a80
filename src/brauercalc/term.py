"""
Words and formal expressions in the cup/cap/crossing generators.

A `Letter` is a single generator applied at a 1-based strand position:

* ``cross`` at position i swaps strands i, i+1 (width preserved),
* ``cap`` at position i joins strands i, i+1 (width drops by 2),
* ``cup`` at position i inserts a new adjacent pair at position i
  (width grows by 2).

A `GenWord` is a sequence of letters read bottom to top, with the domain
width given explicitly; widths of every intermediate level are validated.

The expression DSL:

    expr := sum
    sum  := prod (('+' | '-') prod)*
    prod := [coeff '*'] comp          -- coeff: a `term` of the Laurent-
                                      -- polynomial grammar in `coeff`
    comp := tens ('.' tens)*          -- left operand goes on top
    tens := gen ('#' gen)*            -- left operand goes to the left
    gen  := 's(INT)@INT' | 'a(INT)@INT' | 'u(INT)@INT' | 'id@INT' | '(' expr ')'

where `s` is a crossing, `a` a cap, `u` a cup, each annotated with its
domain width after `@`.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .coeff import _TOKEN_RE, LaurentPoly, ParseError, _read_token, lp_int, lp_str
from .coeff import _Parser as _PolyParser


class TermError(Exception):
    pass


class WidthError(TermError):
    """A letter is applied at a position its width does not allow."""


class ExprParseError(TermError):
    pass


CROSS, CAP, CUP = "cross", "cap", "cup"


@dataclass(frozen=True)
class Letter:
    kind: str
    pos: int

    def __post_init__(self):
        if self.kind not in (CROSS, CAP, CUP):
            raise TermError("unknown letter kind %r" % self.kind)
        if self.pos < 1:
            raise WidthError("positions are 1-based")

    def width_out(self, w: int) -> int:
        """Output width when applied to width w; validates the position."""
        if self.kind == CROSS:
            if self.pos > w - 1:
                raise WidthError("crossing at %d needs width >= %d, have %d" % (self.pos, self.pos + 1, w))
            return w
        if self.kind == CAP:
            if self.pos > w - 1:
                raise WidthError("cap at %d needs width >= %d, have %d" % (self.pos, self.pos + 1, w))
            return w - 2
        if self.pos > w + 1:
            raise WidthError("cup at %d exceeds width %d + 1" % (self.pos, w))
        return w + 2


@dataclass(frozen=True)
class GenWord:
    """Letters read bottom to top, starting at width `domain`."""

    domain: int
    letters: tuple

    def __post_init__(self):
        w = self.domain
        if w < 0:
            raise WidthError("negative width")
        for letter in self.letters:
            w = letter.width_out(w)
        object.__setattr__(self, "_codomain", w)

    @property
    def codomain(self) -> int:
        return self._codomain

    def widths(self):
        """Widths at every level, domain first."""
        out = [self.domain]
        for letter in self.letters:
            out.append(letter.width_out(out[-1]))
        return out

    def shift(self, k: int) -> "GenWord":
        """The word id_k ⊗ self (positions moved right by k)."""
        return GenWord(
            self.domain + k,
            tuple(Letter(l.kind, l.pos + k) for l in self.letters),
        )


def word(domain: int, letters) -> GenWord:
    return GenWord(domain, tuple(letters))


def cross(pos: int) -> Letter:
    return Letter(CROSS, pos)


def cap(pos: int) -> Letter:
    return Letter(CAP, pos)


def cup(pos: int) -> Letter:
    return Letter(CUP, pos)


# ---------------------------------------------------------------------------
# Expression AST


@dataclass(frozen=True)
class WordExpr:
    word: GenWord

    def shape(self):
        return (self.word.domain, self.word.codomain)


@dataclass(frozen=True)
class Scale:
    coeff: LaurentPoly
    inner: object

    def shape(self):
        return self.inner.shape()


@dataclass(frozen=True)
class Sum:
    parts: tuple

    def shape(self):
        shapes = {p.shape() for p in self.parts}
        if len(shapes) != 1:
            raise TermError("summands have different shapes: %s" % shapes)
        return shapes.pop()


@dataclass(frozen=True)
class Compose:
    """parts[0] on top of parts[1] on top of ..."""

    parts: tuple

    def shape(self):
        shapes = [p.shape() for p in self.parts]
        for upper, lower in zip(shapes, shapes[1:]):
            if lower[1] != upper[0]:
                raise TermError(
                    "composition mismatch: %d on top of %d" % (upper[0], lower[1])
                )
        return (shapes[-1][0], shapes[0][1])


@dataclass(frozen=True)
class Tensor:
    """parts[0] leftmost."""

    parts: tuple

    def shape(self):
        shapes = [p.shape() for p in self.parts]
        return (sum(s[0] for s in shapes), sum(s[1] for s in shapes))


def flatten(expr) -> list:
    """Expand an expression into a list of (coefficient, GenWord) pairs.

    Tensors are expanded by x ⊗ y = (x ⊗ id) ∘ (id ⊗ y): the right factor's
    letters, shifted by the left factor's domain width, go to the bottom.
    """
    expr.shape()  # validate
    if isinstance(expr, WordExpr):
        return [(lp_int(1), expr.word)]
    if isinstance(expr, Scale):
        return [(expr.coeff * c, w) for c, w in flatten(expr.inner)]
    if isinstance(expr, Sum):
        out = []
        for p in expr.parts:
            out.extend(flatten(p))
        return out
    if isinstance(expr, Compose):
        # bottom factor first; each next factor's letters go on top
        return _expand(
            expr.parts[::-1],
            lambda w0, w1: GenWord(w0.domain, w0.letters + w1.letters),
        )
    if isinstance(expr, Tensor):
        return _expand(
            expr.parts,
            lambda w0, w1: GenWord(
                w0.domain + w1.domain, w1.shift(w0.domain).letters + w0.letters
            ),
        )
    raise TermError("unknown expression node %r" % (expr,))


def _expand(parts, join) -> list:
    """Every product of one term of each part, words glued by `join`."""
    out = flatten(parts[0])
    for part in parts[1:]:
        terms = flatten(part)
        out = [(c0 * c1, join(w0, w1)) for c0, w0 in out for c1, w1 in terms]
    return out


# ---------------------------------------------------------------------------
# DSL parser

_GEN_RE = re.compile(r"(?:(?P<g>[sau])\(\s*(?P<i>\d+)\s*\)|(?P<id>id))@(?P<w>\d+)")


def _tokenize_expr(text: str):
    """Generators, the `#` and `.` operators, and the number, name and
    operator tokens of `coeff`'s grammar."""
    toks = []
    pos = 0
    while pos < len(text):
        ch = text[pos]
        if ch.isspace():
            pos += 1
            continue
        m = _GEN_RE.match(text, pos)
        if m:
            if m.group("id"):
                toks.append(("gen", ("id", 0, int(m.group("w")))))
            else:
                toks.append(("gen", (m.group("g"), int(m.group("i")), int(m.group("w")))))
            pos = m.end()
            continue
        m = _TOKEN_RE.match(text, pos)
        if m:
            toks.append(_read_token(m))
            pos = m.end()
            continue
        if ch in "#.":
            toks.append(("op", ch))
            pos += 1
            continue
        raise ExprParseError("unexpected character %r" % ch)
    return toks


def _gen_expr(g, i, w):
    if g == "id":
        return WordExpr(word(w, []))
    if g == "s":
        return WordExpr(word(w, [cross(i)]))
    if g == "a":
        return WordExpr(word(w, [cap(i)]))
    return WordExpr(word(w, [cup(i)]))


class _ExprParser(_PolyParser):
    """The morphism grammar.  Coefficients are read by the inherited
    Laurent-polynomial grammar of `coeff` on the same token stream."""

    def parse_sum(self):
        parts = [self.parse_prod()]
        signs = [1]
        while self.peek()[0] == "op" and self.peek()[1] in "+-":
            _, op = self.take()
            parts.append(self.parse_prod())
            signs.append(1 if op == "+" else -1)
        terms = [
            p if s == 1 else Scale(lp_int(-1), p) for p, s in zip(parts, signs)
        ]
        if len(terms) == 1:
            return terms[0]
        return Sum(tuple(terms))

    def parse_prod(self):
        save = self.pos
        try:
            coeff = self.parse_term()
            if self.take() == ("op", "*"):
                return Scale(coeff, self.parse_comp())
        except ParseError:
            pass  # not a coefficient
        self.pos = save
        return self.parse_comp()

    def parse_comp(self):
        parts = [self.parse_tens()]
        while self.peek() == ("op", "."):
            self.take()
            parts.append(self.parse_tens())
        if len(parts) == 1:
            return parts[0]
        return Compose(tuple(parts))

    def parse_tens(self):
        parts = [self.parse_gen()]
        while self.peek() == ("op", "#"):
            self.take()
            parts.append(self.parse_gen())
        if len(parts) == 1:
            return parts[0]
        return Tensor(tuple(parts))

    def parse_gen(self):
        k, v = self.peek()
        if k == "gen":
            self.take()
            return _gen_expr(*v)
        if (k, v) == ("op", "("):
            self.take()
            out = self.parse_sum()
            if self.take() != ("op", ")"):
                raise ExprParseError("expected ')'")
            return out
        raise ExprParseError("expected a generator or '('")


def parse_expr(text: str):
    """Parse the morphism DSL into an expression tree (shapes validated)."""
    try:
        toks = _tokenize_expr(text)
    except ParseError as ex:
        raise ExprParseError(str(ex)) from None
    parser = _ExprParser(toks)
    try:
        out = parser.parse_sum()
    except RecursionError:
        raise ExprParseError("expression nested too deeply") from None
    if parser.pos != len(parser.toks):
        raise ExprParseError("trailing input: %r" % (parser.toks[parser.pos :],))
    out.shape()
    return out


# ---------------------------------------------------------------------------
# Printing


_KIND_TO_SYM = {CROSS: "s", CAP: "a", CUP: "u"}


def word_to_dsl(w: GenWord) -> str:
    """Render a word back into the DSL (top factor leftmost)."""
    if not w.letters:
        return "id@%d" % w.domain
    widths = w.widths()
    parts = [
        "%s(%d)@%d" % (_KIND_TO_SYM[l.kind], l.pos, widths[i])
        for i, l in enumerate(w.letters)
    ]
    return " . ".join(reversed(parts))


def scaled_words_to_dsl(terms) -> str:
    """Render flatten() output back into the DSL."""
    if not terms:
        return "0"
    chunks = []
    for c, w in terms:
        ws = word_to_dsl(w)
        if c == lp_int(1):
            chunks.append(ws)
        else:
            chunks.append("(%s) * %s" % (lp_str(c), ws))
    return " + ".join(chunks)
