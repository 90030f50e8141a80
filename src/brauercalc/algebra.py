"""
Endomorphism algebras of the diagram categories.

`gens` builds the crossing generators g_i and the cup-over-cap elements e_i
of End(n).  `mult_table` assembles the full multiplication table on the
diagram basis (size (2n-1)!!).  `check_presentation` verifies the defining
relation lists of the two named deformations symbolically: the tangle-style
presentation of the `bwm` preset and the signed presentation of the
`periplectic_q` preset.

Products are written in operator order: in `x y` the factor x is stacked on
top of y, so `x y` acts as "first y, then x".

`mult_table` takes its products from `rewrite.basis_products`, a column at
a time: the product x y is the standard word of x pushed onto y.  The basis
words all begin with cap blocks and share most of their prefixes (End(4)'s
105 words have 390 letters but 122 distinct non-empty prefixes), so each
column hands all the words to the engine's `push_words`, which walks them as
a prefix trie and pushes each shared prefix once.  A table checks its
record's consistency once and runs on one fuel budget, like any other
public call.

Each relation of a presentation is stated once, as the text reported when
it fails.  `_Reader` evaluates each side of the text in End(n), reading the
tokens of `coeff`'s polynomial grammar: juxtaposition composes, in operator
order; g_k, g_k^-1 and e_k name the generators; a Laurent field of the
record, such as delta, reads the record; any other name is a variable; and
a scalar c means c times the identity.

    >>> from brauercalc.params import preset
    >>> lhs, rhs = (_Reader(side, 3, preset("bwm")).read()
    ...             for side in "e_1 g_2 e_1 = v^-1 e_1".split("="))
    >>> [(t["pairs"], t["coeff"]) for t in lhs.to_json()["terms"]]
    [([[0, 1], [2, 5], [3, 4]], 'v^-1')]
    >>> lhs.terms == rhs.terms
    True
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .coeff import InexactDivision, LaurentPoly, ParseError, _tokenize, lp_int
from .coeff import _Parser as _PolyParser
from .diagram import double_factorial, enumerate_diagrams, identity_diagram
from .params import CategoryParams, preset
from .rewrite import (
    NormalForm,
    _normalize_unchecked,
    basis_products,
    nf_compose,
    nf_from_diagram,
    nf_tensor,
    normalize,
    under_cross,
)
from .term import cap, cross, cup, word


class AlgebraError(Exception):
    pass


class WidthTooSmall(AlgebraError):
    pass


class UnknownPreset(AlgebraError):
    pass


DEFAULT_TABLE_BOUND = 4


def gens(n: int, p: CategoryParams):
    """Generators of End(n): crossings g_i and cup-over-cap elements e_i.

    Returns (g, e) with n-1 entries each, indexed by i-1.
    """
    if n < 2:
        raise WidthTooSmall("End(%d) has no crossing generators" % n)
    g = [normalize(word(n, [cross(i)]), p) for i in range(1, n)]
    e = [normalize(word(n, [cap(i), cup(i)]), p) for i in range(1, n)]
    return g, e


def gens_inverse(n: int, p: CategoryParams, check: bool = True):
    """The inverse crossings g_i^-1 as elements of End(n)."""
    u = under_cross(p, check=check)
    out = []
    for i in range(1, n):
        nf = u
        if i > 1:
            nf = nf_tensor(nf_from_diagram(identity_diagram(i - 1), p), nf)
        if i + 1 < n:
            nf = nf_tensor(nf, nf_from_diagram(identity_diagram(n - i - 1), p))
        out.append(nf)
    return out


@dataclass
class MultTable:
    """Dense multiplication table of End(n) on the diagram basis."""

    n: int
    basis: list
    products: list  # products[i][j] = basis[i] stacked on basis[j]

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "basis": [d.pairs() for d in self.basis],
            "products": [[nf.to_json() for nf in row] for row in self.products],
        }


def mult_table(n: int, p: CategoryParams, bound: int = DEFAULT_TABLE_BOUND) -> MultTable:
    """Full multiplication table of End(n).

    Tables above the bound (default 4, i.e. 105x105 entries) are rejected;
    pass a larger `bound` explicitly to compute them anyway.
    """
    if n < 0:
        raise AlgebraError("End(%d): n must not be negative" % n)
    if n > bound:
        raise AlgebraError(
            "End(%d) table exceeds the bound %d; pass a larger bound" % (n, bound)
        )
    basis = list(enumerate_diagrams(n, n))
    size = len(basis)
    assert size == double_factorial(2 * n - 1)
    by_column = list(basis_products(basis, p))
    return MultTable(n, basis, [by_column[i::size] for i in range(size)])


# The relations of each presentation, each stated once with index letters;
# `_relations` expands them at a width n
_PRESENTATIONS = {
    "bwm": (
        "(g_i - g_i^-1) = z(1 - e_i)",
        "e_i^2 = delta e_i",
        "e_i g_i = v e_i",
        "g_i e_i = v e_i",
        "g_i g_j g_i = g_j g_i g_j",
        "e_j e_i e_j = e_j",
        "e_i e_j e_i = e_i",
        "g_i g_j e_i = e_j e_i",
        "g_j g_i e_j = e_i e_j",
        "e_i g_j e_i = v^-1 e_i",
        "e_j g_i e_j = v^-1 e_j",
        "g_i g_k = g_k g_i",
    ),
    "periplectic_q": (
        "(g_i - q)(g_i + q^-1) = 0",
        "e_i^2 = 0",
        "e_i g_i = -q^-1 e_i",
        "g_i e_i = q e_i",
        "g_i g_j g_i = g_j g_i g_j",
        "e_j e_i e_j = -e_j",
        "e_i e_j e_i = -e_i",
        "g_i e_j e_i = -g_j e_i + (q-q^-1) e_j e_i",
        "e_j e_i g_j = -e_j g_i + (q-q^-1) e_j e_i",
        "g_i g_k = g_k g_i",
        "g_i e_k = e_k g_i",
        "e_i e_k = e_k e_i",
    ),
}

_INDEX = re.compile(r"_([ijk])\b")


def _relations(rows, n):
    """Each row with its index letters substituted: a row naming only i runs
    over i = 1..n-1, one naming j sets j = i+1 for i = 1..n-2, and one naming
    k runs over the ordered pairs with |i - k| >= 2.  The groups come in that
    order; within each, the index loop is outside the row loop."""
    for letter, bindings in (
        ("i", [{"i": i} for i in range(1, n)]),
        ("j", [{"i": i, "j": i + 1} for i in range(1, n - 1)]),
        ("k", [{"i": i, "k": k} for i in range(1, n) for k in range(1, n)
               if abs(i - k) >= 2]),
    ):
        group = [row for row in rows if max(_INDEX.findall(row)) == letter]
        for b in bindings:
            for row in group:
                yield _INDEX.sub(lambda m: "_%d" % b[m.group(1)], row)


class _Reader(_PolyParser):
    """One side of a relation text, read into End(n) under the record p."""

    def __init__(self, text, n, p):
        super().__init__(_tokenize(text))
        self.n, self.p = n, p
        self.one = nf_from_diagram(identity_diagram(n), p)
        self.fields = {k: v for k, v in vars(p).items() if isinstance(v, LaurentPoly)}

    def read(self):
        out = self.parse_expr()
        if self.pos != len(self.toks):
            raise ParseError("trailing input after relation side")
        return out

    def parse_term(self):
        out = self.parse_factor()
        while self.peek()[0] in ("name", "num") or self.peek() == ("op", "("):
            out = nf_compose(out, self.parse_factor())
        return out

    def parse_factor(self):
        k, v = self.peek()
        x = super().parse_factor()
        if isinstance(x, NormalForm):  # a negated factor or a bracket
            return x
        if k == "name" and v[:2] in ("g_", "e_"):
            (((_, power),),) = x.terms  # x is the monomial v^power
            i = int(v[2:])
            if not 1 <= i < self.n or (power < 0 and (v[0], power) != ("g", -1)):
                raise AlgebraError("no %s^%d in End(%d)" % (v, power, self.n))
            if power == -1:
                return gens_inverse(self.n, self.p, check=False)[i - 1]
            letters = [cross(i)] if v[0] == "g" else [cap(i), cup(i)]
            return _normalize_unchecked(word(self.n, letters * power), self.p)
        return self.one.scale(x.substitute(self.fields))


def check_presentation(preset_name: str, n: int, params: CategoryParams = None) -> list:
    """Verify a named defining relation list inside End(n).

    Returns the labels of the relations that fail; [] means the presentation
    holds.  A relation also fails when a side cannot be evaluated: under a
    record whose crossing has no inverse over the Laurent polynomials, every
    relation naming g_k^-1 does.  `params` overrides the preset's parameter
    record (for corruption experiments) but keeps its relation list.
    """
    if preset_name not in _PRESENTATIONS:
        raise UnknownPreset("no presentation named %r" % preset_name)
    if n not in (3, 4):
        raise AlgebraError("presentation checks need n in {3, 4}, got %d" % n)
    p = preset(preset_name) if params is None else params
    failed = []
    for label in _relations(_PRESENTATIONS[preset_name], n):
        try:
            lhs, rhs = (_Reader(side, n, p).read() for side in label.split("="))
        except InexactDivision:  # g_k^-1 is no Laurent polynomial under p
            failed.append(label)
            continue
        if lhs.terms != rhs.terms:
            failed.append(label)
    return failed
