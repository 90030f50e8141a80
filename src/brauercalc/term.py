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
domain width after `@`.  `parse_expr` reads an expression straight into its
terms, a list of (coefficient, GenWord) pairs of one shape:

    >>> [(lp_str(c), w.domain, [(l.kind, l.pos) for l in w.letters])
    ...  for c, w in parse_expr("q * s(1)@2 - id@2")]
    [('q', 2, [('cross', 1)]), ('-1', 2, [])]
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .coeff import _TOKEN_RE, ParseError, _read_token, lp_int, lp_str
from .coeff import _Parser as _PolyParser


class TermError(Exception):
    pass


class WidthError(TermError):
    """A letter is applied at a position its width does not allow."""


class ExprParseError(TermError):
    pass


CROSS, CAP, CUP = "cross", "cap", "cup"

# output width minus input width, per letter kind
WIDTH_CHANGE = {CROSS: 0, CAP: -2, CUP: 2}


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
        elif self.kind == CAP:
            if self.pos > w - 1:
                raise WidthError("cap at %d needs width >= %d, have %d" % (self.pos, self.pos + 1, w))
        elif self.pos > w + 1:
            raise WidthError("cup at %d exceeds width %d + 1" % (self.pos, w))
        return w + WIDTH_CHANGE[self.kind]


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
# DSL parser

_GEN_RE = re.compile(r"(?:(?P<g>[sau])\(\s*(?P<i>\d+)\s*\)|id)@(?P<w>\d+)")
_SYM_TO_KIND = {"s": CROSS, "a": CAP, "u": CUP}


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
            g, i, w = m.group("g") or "id", int(m.group("i") or 0), int(m.group("w"))
            toks.append(("gen", (g, i, w)))
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


def _shape(terms):
    w = terms[0][1]
    return (w.domain, w.codomain)


class _ExprParser(_PolyParser):
    """The morphism grammar, each rule returning its (coefficient, GenWord)
    terms.  Coefficients are read by the inherited Laurent-polynomial grammar
    of `coeff` on the same token stream."""

    def parse_sum(self):
        parts = [self.parse_prod()]
        while self.peek()[0] == "op" and self.peek()[1] in "+-":
            _, op = self.take()
            part = self.parse_prod()
            parts.append(part if op == "+" else [(-c, w) for c, w in part])
        shapes = {_shape(p) for p in parts}
        if len(shapes) != 1:
            raise TermError("summands have different shapes: %s" % shapes)
        return [t for p in parts for t in p]

    def parse_prod(self):
        save = self.pos
        try:
            coeff = self.parse_term()
            if self.take() == ("op", "*"):
                return [(coeff * c, w) for c, w in self.parse_comp()]
        except ParseError:
            pass  # not a coefficient
        self.pos = save
        return self.parse_comp()

    def parse_comp(self):
        upper = self.parse_tens()
        while self.peek() == ("op", "."):
            self.take()
            lower = self.parse_tens()
            if _shape(lower)[1] != _shape(upper)[0]:
                raise TermError(
                    "composition mismatch: %d on top of %d"
                    % (_shape(upper)[0], _shape(lower)[1])
                )
            # the lower word's letters come first
            upper = [
                (c0 * c1, GenWord(w0.domain, w0.letters + w1.letters))
                for c0, w0 in lower
                for c1, w1 in upper
            ]
        return upper

    def parse_tens(self):
        left = self.parse_gen()
        while self.peek() == ("op", "#"):
            self.take()
            right = self.parse_gen()
            # x # y = (x # id) . (id # y): the right factor's letters, shifted
            # by the left factor's domain width, go to the bottom
            left = [
                (c0 * c1, GenWord(w0.domain + w1.domain,
                                  w1.shift(w0.domain).letters + w0.letters))
                for c0, w0 in left
                for c1, w1 in right
            ]
        return left

    def parse_gen(self):
        k, v = self.peek()
        if k == "gen":
            self.take()
            g, i, w = v
            letters = () if g == "id" else (Letter(_SYM_TO_KIND[g], i),)
            return [(lp_int(1), GenWord(w, letters))]
        if (k, v) == ("op", "("):
            self.take()
            out = self.parse_sum()
            if self.take() != ("op", ")"):
                raise ExprParseError("expected ')'")
            return out
        raise ExprParseError("expected a generator or '('")


def parse_expr(text: str) -> list:
    """Parse the morphism DSL into its (coefficient, GenWord) terms, zero
    coefficients kept, every term of one shape."""
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
    return out
