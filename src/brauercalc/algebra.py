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
"""

from __future__ import annotations

from dataclasses import dataclass

from .coeff import lp_int, lp_parse
from .diagram import double_factorial, enumerate_diagrams, identity_diagram
from .params import CategoryParams, preset
from .rewrite import (
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


def gens(n: int, p: CategoryParams, check: bool = True):
    """Generators of End(n): crossings g_i and cup-over-cap elements e_i.

    Returns (g, e) with n-1 entries each, indexed by i-1.  `check=False`
    skips the parameter consistency check so corrupted records can still be
    probed against a relation list.
    """
    if n < 2:
        raise WidthTooSmall("End(%d) has no crossing generators" % n)
    norm = _normalize_unchecked if not check else normalize
    g = [norm(word(n, [cross(i)]), p) for i in range(1, n)]
    e = [norm(word(n, [cap(i), cup(i)]), p) for i in range(1, n)]
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


def _prod(factors):
    out = factors[0]
    for f in factors[1:]:
        out = nf_compose(out, f)
    return out


def _combo(terms):
    """Linear combination [(coeff, [factors])] evaluated in End(n)."""
    total = None
    for coeff, factors in terms:
        nf = _prod(factors).scale(coeff)
        total = nf if total is None else total + nf
    return total


def _relations_bwm(n, p):
    one = lp_int(1)
    v = lp_parse("v")
    vinv = lp_parse("v^-1")
    z = lp_parse("z")
    g, e = gens(n, p, check=False)
    ginv = gens_inverse(n, p, check=False)
    ident = nf_from_diagram(identity_diagram(n), p)
    rels = []
    for i in range(n - 1):
        k = i + 1
        rels.append((
            "(g_%d - g_%d^-1) = z(1 - e_%d)" % (k, k, k),
            [(one, [g[i]]), (-one, [ginv[i]])],
            [(z, [ident]), (-z, [e[i]])],
        ))
        rels.append(("e_%d^2 = delta e_%d" % (k, k),
                     [(one, [e[i], e[i]])], [(p.delta, [e[i]])]))
        rels.append(("e_%d g_%d = v e_%d" % (k, k, k),
                     [(one, [e[i], g[i]])], [(v, [e[i]])]))
        rels.append(("g_%d e_%d = v e_%d" % (k, k, k),
                     [(one, [g[i], e[i]])], [(v, [e[i]])]))
    for i in range(n - 2):
        k = i + 1
        rels.append(("g_%d g_%d g_%d = g_%d g_%d g_%d" % (k, k + 1, k, k + 1, k, k + 1),
                     [(one, [g[i], g[i + 1], g[i]])],
                     [(one, [g[i + 1], g[i], g[i + 1]])]))
        rels.append(("e_%d e_%d e_%d = e_%d" % (k + 1, k, k + 1, k + 1),
                     [(one, [e[i + 1], e[i], e[i + 1]])], [(one, [e[i + 1]])]))
        rels.append(("e_%d e_%d e_%d = e_%d" % (k, k + 1, k, k),
                     [(one, [e[i], e[i + 1], e[i]])], [(one, [e[i]])]))
        rels.append(("g_%d g_%d e_%d = e_%d e_%d" % (k, k + 1, k, k + 1, k),
                     [(one, [g[i], g[i + 1], e[i]])],
                     [(one, [e[i + 1], e[i]])]))
        rels.append(("g_%d g_%d e_%d = e_%d e_%d" % (k + 1, k, k + 1, k, k + 1),
                     [(one, [g[i + 1], g[i], e[i + 1]])],
                     [(one, [e[i], e[i + 1]])]))
        rels.append(("e_%d g_%d e_%d = v^-1 e_%d" % (k, k + 1, k, k),
                     [(one, [e[i], g[i + 1], e[i]])], [(vinv, [e[i]])]))
        rels.append(("e_%d g_%d e_%d = v^-1 e_%d" % (k + 1, k, k + 1, k + 1),
                     [(one, [e[i + 1], g[i], e[i + 1]])], [(vinv, [e[i + 1]])]))
    for i in range(n - 1):
        for j in range(n - 1):
            if abs(i - j) >= 2:
                rels.append(("g_%d g_%d = g_%d g_%d" % (i + 1, j + 1, j + 1, i + 1),
                             [(one, [g[i], g[j]])], [(one, [g[j], g[i]])]))
    return rels


def _relations_periplectic_q(n, p):
    one = lp_int(1)
    q = lp_parse("q")
    qinv = lp_parse("q^-1")
    skein = q - qinv
    g, e = gens(n, p, check=False)
    ident = nf_from_diagram(identity_diagram(n), p)
    rels = []
    for i in range(n - 1):
        k = i + 1
        rels.append((
            "(g_%d - q)(g_%d + q^-1) = 0" % (k, k),
            [(one, [g[i], g[i]]), (-skein, [g[i]]), (-one, [ident])],
            [(lp_int(0), [ident])],
        ))
        rels.append(("e_%d^2 = 0" % k, [(one, [e[i], e[i]])], [(lp_int(0), [ident])]))
        rels.append(("e_%d g_%d = -q^-1 e_%d" % (k, k, k),
                     [(one, [e[i], g[i]])], [(-qinv, [e[i]])]))
        rels.append(("g_%d e_%d = q e_%d" % (k, k, k),
                     [(one, [g[i], e[i]])], [(q, [e[i]])]))
    for i in range(n - 2):
        k = i + 1
        rels.append(("g_%d g_%d g_%d = g_%d g_%d g_%d" % (k, k + 1, k, k + 1, k, k + 1),
                     [(one, [g[i], g[i + 1], g[i]])],
                     [(one, [g[i + 1], g[i], g[i + 1]])]))
        rels.append(("e_%d e_%d e_%d = -e_%d" % (k + 1, k, k + 1, k + 1),
                     [(one, [e[i + 1], e[i], e[i + 1]])], [(-one, [e[i + 1]])]))
        rels.append(("e_%d e_%d e_%d = -e_%d" % (k, k + 1, k, k),
                     [(one, [e[i], e[i + 1], e[i]])], [(-one, [e[i]])]))
        rels.append((
            "g_%d e_%d e_%d = -g_%d e_%d + (q-q^-1) e_%d e_%d"
            % (k, k + 1, k, k + 1, k, k + 1, k),
            [(one, [g[i], e[i + 1], e[i]])],
            [(-one, [g[i + 1], e[i]]), (skein, [e[i + 1], e[i]])],
        ))
        rels.append((
            "e_%d e_%d g_%d = -e_%d g_%d + (q-q^-1) e_%d e_%d"
            % (k + 1, k, k + 1, k + 1, k, k + 1, k),
            [(one, [e[i + 1], e[i], g[i + 1]])],
            [(-one, [e[i + 1], g[i]]), (skein, [e[i + 1], e[i]])],
        ))
    for i in range(n - 1):
        for j in range(n - 1):
            if abs(i - j) >= 2:
                rels.append(("g_%d g_%d = g_%d g_%d" % (i + 1, j + 1, j + 1, i + 1),
                             [(one, [g[i], g[j]])], [(one, [g[j], g[i]])]))
                rels.append(("g_%d e_%d = e_%d g_%d" % (i + 1, j + 1, j + 1, i + 1),
                             [(one, [g[i], e[j]])], [(one, [e[j], g[i]])]))
                rels.append(("e_%d e_%d = e_%d e_%d" % (i + 1, j + 1, j + 1, i + 1),
                             [(one, [e[i], e[j]])], [(one, [e[j], e[i]])]))
    return rels


_PRESENTATIONS = {
    "bwm": _relations_bwm,
    "periplectic_q": _relations_periplectic_q,
}


def check_presentation(preset_name: str, n: int, params: CategoryParams = None) -> list:
    """Verify a named defining relation list inside End(n).

    Returns the labels of the relations that fail; [] means the presentation
    holds.  `params` overrides the preset's parameter record (for corruption
    experiments) but keeps its relation list.
    """
    if preset_name not in _PRESENTATIONS:
        raise UnknownPreset("no presentation named %r" % preset_name)
    if n not in (3, 4):
        raise AlgebraError("presentation checks need n in {3, 4}, got %d" % n)
    p = preset(preset_name) if params is None else params
    failed = []
    for label, lhs, rhs in _PRESENTATIONS[preset_name](n, p):
        if _combo(lhs).terms != _combo(rhs).terms:
            failed.append(label)
    return failed
