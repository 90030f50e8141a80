"""
Normalization engine: rewrite generator words into the diagram basis.

A morphism is represented as a `NormalForm`: a finite linear combination of
Brauer diagrams with Laurent-polynomial coefficients.  The coefficient of a
diagram is, by definition, the coefficient in front of its standard
expression, which anchors all supersigns.

The engine works strictly bottom to top: `normalize` folds the letters of a
word one at a time into the engine's `push`, which knows how to stack a
single cup, cap, or crossing on top of a diagram already in standard form.
`push_letters` pushes one word onto a linear combination; `push_words` pushes
many words onto one, walking them as a prefix trie so that a prefix the words
share is pushed once.  `nf_compose` pushes the standard words of x's diagrams
onto y that way; `nf_tensor` pushes them onto each of y's diagrams moved right
of x's strands; `basis_products` pushes every basis word onto each basis
diagram in turn.
Each push is resolved by a case analysis on how the new letter meets the
topmost cup block (a cup at a, then crossings at a + 1, ..., a + s) of the
diagram, or, if there are no cups, its permutation.  Signs arise only from
commuting odd letters (cups/caps when epsilon = -1) past each other.

The relations are data, stated once for the engine and for the confluence
sweep: each row of `_RELATIONS` is a label, a window of (kind, offset)
letters and a right-hand side of (field, replacement) pairs.  Nine rows are written out;
each whose window is not its own upside-down image also yields that image as
a `ud-` row, its fields exchanged with their primed partners.  The engine
applies every row but `braid` and `braid-rev`, always window -> right-hand
side, by `_apply`: the new letter commutes down the block's crossings (a cap
moves each it passes 2 left) until it meets the letters of the row's window,
whose first letter sits at x.  With pre the block's letters under the
window, post those the letter passed, and below the diagram under the
block, the row gives the sum over its right-hand side of the field's
coefficient times the word pre + replacement + post pushed on below.  That
word's leading cup block (a cup at a', then crossings at a' + 1, a' + 2,
...) is stacked whole by `_stack_block`; its other letters are pushed one at
a time.  `_push_cross` applies sliding, untwisting, pulling and twisting,
the last also when a crossing doubles the top letter of a cupless diagram's
permutation; `_push_cap` applies straightening, looping, delooping and the
four `ud-` rows.  The cases that apply no row write no coefficient:
commuting past the block, extending it, braiding a crossing through it, a
cupless crossing that lengthens the permutation, and a cap on a cupless
diagram, which lands literally or is solved upside down.

`check_local_confluence` exhaustively verifies that applying any single
relation anywhere in a small word, then normalizing, agrees with normalizing
the word directly.  It deliberately accepts inconsistent parameter records so
that it can *detect* them.  It reads every row of `_RELATIONS`, the braids
too, and commutes two letters on different strands by `_swap_step`.  The
sweep keeps the normal form of every prefix of the word it visits, and
pushes a replacement at height h onto the normal form of the h letters below
it.  It checks a relation window only at the word whose top letter ends it.
A normal form is a left fold of the linear `push_nf`, so a step whose two
sides agree on `letters[:h + span]` agrees on every word that extends it,
and is never checked again.  A step whose sides differ is carried up the
walk: each longer word pushes its new letter once onto the carried
right-hand side and compares again, because a later letter may cancel the
difference.

    >>> from brauercalc.params import preset
    >>> for w in [((CUP, 2), (CROSS, 1)), ((CROSS, 1), (CAP, 2))]:
    ...     for label, h, span, rhs in _relation_steps(preset("periplectic_q"), w):
    ...         print(label)
    ...         for coeff, repl in rhs:
    ...             print("    %-9s %s" % (lp_str(coeff), repl))
    sliding
        0         [('cup', 1)]
        1         [('cup', 1), ('cross', 2)]
        q - q^-1  [('cup', 2)]
    ud-sliding
        -q + q^-1 [('cap', 1)]
        1         [('cross', 2), ('cap', 1)]
        0         [('cap', 2)]

A normal form carries the parameter record of its category as `.params`,
and `nf_compose`, `nf_tensor` and `+` read the record off their operands:
operands of two different categories raise `ParamsMismatch`.  Records are
compared by identity first and by value second.

    >>> from brauercalc.term import cross, word
    >>> g = normalize(word(2, [cross(1)]), preset("bwm"))
    >>> gg = nf_compose(g, g)
    >>> [(t["pairs"], t["coeff"]) for t in gg.to_json()["terms"]]
    [([[0, 1], [2, 3]], '-v*z'), ([[0, 2], [1, 3]], '1'), ([[0, 3], [1, 2]], 'z')]
    >>> gg.params == preset("bwm")
    True
    >>> nf_compose(g, normalize(word(2, [cross(1)]), preset("brauer")))
    Traceback (most recent call last):
    ...
    brauercalc.rewrite.ParamsMismatch: normal forms built with different parameters

`_ENGINES` maps each parameter record to what the engine remembers of it:
its consistency verdict and its memo.  Clearing it resets both.  The memo
has one namespace of keys (kind, position, diagram): a letter of kind
`cross`, `cap` or `cup` pushed on a diagram.  A cup block that tangles with
the diagram's cups is pushed a letter at a time, so it spends fuel through
its letters' misses.  A letter landing literally on the standard word is
built from the matching (`diagram.stack_*`), never by `compose_oracle`.  A
cap pushed on a cupless diagram that does not land literally is turned
upside down: the flipped diagram's crossings and cups are pushed on a single
cup under the flipped record (`vflip_params`).  Each public call builds one
`_Engine`, which reads its record's memo from `_ENGINES` and holds a budget
of `DEFAULT_FUEL` steps of its own.  Every memo miss spends one step, also a
miss of the flip engine, which the call's engine builds once and which
spends from the same budget.  Running out raises `FuelExhausted`, naming the
budget and the key it stopped on.  A whole `basis_products` walk, and so a
whole `algebra.mult_table`, is one such call: its columns share its engine's
budget, which a call made between two of its yields does not touch.  Memo
hits are free, so a prefix that `push_words` shares saves pushes, not fuel.
A push recurses once per cup the letter passes, so a deep enough word runs
out of Python's recursion limit before it runs out of fuel; every public
call then raises `TooDeep`, naming the limit.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, replace

from .coeff import LaurentPoly, lp_exact_div, lp_int, lp_str
from .diagram import (
    BrauerDiagram,
    cap_lands_literally,
    compose_oracle,  # not called; bench/test_bench.py pins this import
    elem_cup_block,
    from_pairs,
    identity_diagram,
    remove_top_pair,
    stack_cap,
    stack_cross,
    stack_cup_block,
    standard_letters,
    vflip_diagram,
)
from .params import _PRIMED, CategoryParams, check_consistency, vflip_params
from .term import CAP, CROSS, CUP, WIDTH_CHANGE, GenWord, Letter


DEFAULT_FUEL = 10 ** 6


class RewriteError(Exception):
    pass


class WidthMismatch(RewriteError):
    pass


class ParamsMismatch(RewriteError):
    pass


class InconsistentParams(RewriteError):
    pass


class FuelExhausted(RewriteError):
    """The step budget ran out; reported as an engine defect, never truncated."""


class TooDeep(RewriteError):
    """Python's recursion limit ran out inside the engine, which recurses
    once per cup a letter passes; the message names the limit."""

    def __init__(self):
        super().__init__(
            "recursion depth of %d exhausted; the word is too deep for the "
            "engine" % sys.getrecursionlimit()
        )


# ---------------------------------------------------------------------------
# Normal forms


@dataclass
class NormalForm:
    """A linear combination of (m, n) Brauer diagrams in the category of
    the record `params`."""

    m: int
    n: int
    terms: dict
    params: CategoryParams

    def is_zero(self) -> bool:
        return not self.terms

    def scale(self, coeff: LaurentPoly) -> "NormalForm":
        return NormalForm(self.m, self.n, _acc({}, self.terms, coeff), self.params)

    def __add__(self, other: "NormalForm") -> "NormalForm":
        if (self.m, self.n) != (other.m, other.n):
            raise WidthMismatch("cannot add normal forms of different shapes")
        _same_params(self, other)
        out = dict(self.terms)
        for d, c in other.terms.items():
            _add_term(out, d, c)
        return NormalForm(self.m, self.n, out, self.params)

    def __neg__(self) -> "NormalForm":
        return replace(self, terms=_negated(self.terms))

    def __sub__(self, other: "NormalForm") -> "NormalForm":
        return self + -other

    def to_json(self) -> dict:
        items = sorted((d.pairs(), lp_str(c)) for d, c in self.terms.items())
        return {
            "m": self.m,
            "n": self.n,
            "terms": [{"pairs": pairs, "coeff": coeff} for pairs, coeff in items],
        }


def nf_from_diagram(d: BrauerDiagram, p: CategoryParams) -> NormalForm:
    return NormalForm(d.m, d.n, {d: lp_int(1)}, p)


def _same_params(x: NormalForm, y: NormalForm):
    """Refuse x and y unless they share one record: the same object, or
    else equal field by field."""
    if x.params is not y.params and x.params != y.params:
        raise ParamsMismatch("normal forms built with different parameters")


def _add_term(acc: dict, d: BrauerDiagram, coeff: LaurentPoly):
    """Add coeff * d to acc; the one place a zero coefficient is dropped."""
    cur = acc.get(d)
    new = coeff if cur is None else cur + coeff
    if new.is_zero():
        acc.pop(d, None)
    else:
        acc[d] = new


def _acc(acc: dict, terms: dict, coeff: LaurentPoly) -> dict:
    """Add coeff * terms to acc and return acc."""
    for d, c in terms.items():
        _add_term(acc, d, c * coeff)
    return acc


def _negated(terms: dict) -> dict:
    """-terms, without a product by -1."""
    return {d: -c for d, c in terms.items()}


# ---------------------------------------------------------------------------
# Relations


# One row per relation: (label, window, [(field, replacement), ...]).  A
# window lists its (kind, offset) letters bottom to top, the offset counted
# from the window's first letter; a replacement's letters use the same
# offsets.  The field names the coefficient in the record, None being 1.
# The engine applies a row by its label (`_Engine._apply`), the sweep finds
# one by its window (`_relation_steps`).
_RELATIONS = (
    ("untwisting", ((CUP, 0), (CROSS, 0)), (("lam", ((CUP, 0),)),)),
    ("sliding", ((CUP, 0), (CROSS, -1)),
     (("d", ((CUP, -1),)), ("e", ((CUP, -1), (CROSS, 0))), ("f", ((CUP, 0),)))),
    ("looping", ((CUP, 0), (CAP, 0)), (("delta", ()),)),
    ("straightening", ((CUP, 0), (CAP, -1)), (("sig", ()),)),
    ("twisting", ((CROSS, 0), (CROSS, 0)),
     (("a", ()), ("b", ((CROSS, 0),)), ("c", ((CAP, 0), (CUP, 0))))),
    ("delooping", ((CUP, 0), (CROSS, 1), (CAP, 0)), (("rho", ()),)),
    ("pulling", ((CUP, 0), (CROSS, 1), (CROSS, 0)),
     (("D", ((CUP, 0),)), ("E", ((CUP, 0), (CROSS, 1))), ("F", ((CUP, 1),)))),
    ("braid", ((CROSS, 0), (CROSS, 1), (CROSS, 0)),
     ((None, ((CROSS, 1), (CROSS, 0), (CROSS, 1))),)),
    ("braid-rev", ((CROSS, 0), (CROSS, -1), (CROSS, 0)),
     ((None, ((CROSS, -1), (CROSS, 0), (CROSS, -1))),)),
)

_FLIPPED_KIND = {CROSS: CROSS, CAP: CUP, CUP: CAP}
_PARTNER = dict(_PRIMED + tuple(pair[::-1] for pair in _PRIMED))


def _upside_down(row):
    """The relation turned upside down, or None if its window is its own
    image: letters reversed, cups and caps swapped, positions kept and
    offsets taken from the new first letter, each field exchanged with its
    primed partner."""
    label, window, rhs = row
    first = window[-1][1]

    def flip(letters):
        return tuple((_FLIPPED_KIND[k], off - first) for k, off in reversed(letters))

    if flip(window) == window:
        return None
    return (
        "ud-" + label,
        flip(window),
        tuple((_PARTNER.get(f, f), flip(repl)) for f, repl in rhs),
    )


_RELATIONS += tuple(filter(None, map(_upside_down, _RELATIONS)))
_BY_WINDOW = {row[1]: row for row in _RELATIONS}
_BY_LABEL = {label: rhs for label, _, rhs in _RELATIONS}  # the rows `_apply` reads


def _coeff(p: CategoryParams, field) -> LaurentPoly:
    """The coefficient a row's field names: 1 for None, a unit as a constant."""
    if field is None:
        return lp_int(1)
    value = getattr(p, field)
    return value if isinstance(value, LaurentPoly) else LaurentPoly.const(value)


def _block_letters(s: int, a: int) -> list:
    """The letters of an elementary cup block: a cup at a, then crossings at
    a + 1, ..., a + s."""
    return [(CUP, a)] + [(CROSS, a + j) for j in range(1, s + 1)]


# ---------------------------------------------------------------------------
# The engine


class _Memo:
    """What `_ENGINES` keeps of one record across calls."""

    def __init__(self):
        self.cache = {}
        self.violations = None  # check_consistency(params), once computed


class _Engine:
    """Memoized letter-pushing for one public call under one parameter
    record: the record's memo, and a step budget of the call's own."""

    def __init__(self, params: CategoryParams, root: _Engine = None):
        self.p = params
        self.eps = params.epsilon
        self.cache = _engine(params).cache
        self.root = root or self  # the engine whose budget this one spends
        self.budget = self.fuel = DEFAULT_FUEL  # the size, and the steps left
        self.flip = None  # the engine of vflip_params(params), once needed

    def sign(self, t: int) -> int:
        """epsilon^t."""
        return -1 if (self.eps == -1 and t % 2 == 1) else 1

    # -- entry points -------------------------------------------------------

    def push(self, kind: str, pos: int, d: BrauerDiagram) -> dict:
        """The memoized normal form of the letter stacked on d; a miss spends
        one step of the call's budget."""
        key = (kind, pos, d)
        hit = self.cache.get(key)
        if hit is None:
            self.root._spend(key)
            hit = self.cache[key] = self._push_cases(kind, pos, d)
        return hit

    def _spend(self, key):
        """Spend one step on the memo key (kind, position, diagram)."""
        self.fuel -= 1
        if self.fuel <= 0:
            kind, pos, d = key
            raise FuelExhausted(
                "step budget of %d exhausted pushing %s at %d on %s; engine defect"
                % (self.budget, kind, pos, d)
            )

    def _push_cases(self, kind: str, pos: int, d: BrauerDiagram) -> dict:
        if kind == CUP:
            if not 1 <= pos <= d.n + 1:
                raise WidthMismatch("cup at %d on width %d" % (pos, d.n))
            return self._stack_block(d, 0, pos)
        if kind == CROSS:
            if not 1 <= pos <= d.n - 1:
                raise WidthMismatch("crossing at %d on width %d" % (pos, d.n))
            return self._push_cross(pos, d)
        if kind == CAP:
            if not 1 <= pos <= d.n - 1:
                raise WidthMismatch("cap at %d on width %d" % (pos, d.n))
            return self._push_cap(pos, d)
        raise RewriteError("unknown letter kind %r" % kind)

    def push_nf(self, kind: str, pos: int, terms: dict) -> dict:
        out = {}
        for d, c in terms.items():
            _acc(out, self.push(kind, pos, d), c)
        return out

    def push_letters(self, letters, terms: dict) -> dict:
        for kind, pos in letters:
            terms = self.push_nf(kind, pos, terms)
        return terms

    def push_words(self, words, terms: dict) -> list:
        """For each word, its letters pushed onto terms.

        The words are walked as a prefix trie, depth first (in sorted
        order), so each edge of the trie costs one `push_nf` however many
        words share it.  A result is a dict of its own: never terms itself,
        nor the result of another word.
        """
        out = [None] * len(words)
        path = [terms]  # path[h]: the current word's first h letters pushed
        prev = ()
        for i in sorted(range(len(words)), key=words.__getitem__):
            word = words[i]
            h = 0
            for a, b in zip(word, prev):
                if a != b:
                    break
                h += 1
            del path[h + 1 :]
            for kind, pos in word[h:]:
                path.append(self.push_nf(kind, pos, path[-1]))
            # a word that pushed no letter here (empty, or a repeat) gets a copy
            out[i] = path[-1] if h < len(word) else dict(path[-1])
            prev = word
        return out

    # -- attaching blocks and applying relations ----------------------------

    def _stack_block(self, d: BrauerDiagram, s: int, a: int) -> dict:
        """Normal form of an elementary cup block stacked on d.

        The block is peeled after every cup of d whose left column is at
        least a.  If there is none, its letters land literally on top of the
        standard word of d: the coefficient is 1.  A plain cup (s = 0)
        commutes down past those cups freely, picking up epsilon per cup.
        Otherwise the block tangles with the cups and its letters are pushed
        one at a time.
        """
        above = sum(1 for i, _ in d.cup_pairs() if i >= a)
        if s and above:
            return self.push_letters(_block_letters(s, a), {d: lp_int(1)})
        return {stack_cup_block(d, s, a): lp_int(self.sign(above))}

    def _stack_block_nf(self, terms: dict, s: int, a: int) -> dict:
        out = {}
        for d, c in terms.items():
            _acc(out, self._stack_block(d, s, a), c)
        return out

    def _apply(self, label: str, x: int, below: BrauerDiagram, pre=(), post=()) -> dict:
        """The relation row `label` applied with its window at x, on top of
        the letters pre stacked on below, with the letters post above it:
        the sum over the row's right-hand side of the field's coefficient
        times pre + replacement + post pushed on below.  That word's leading
        cup block (a cup at a, then crossings at a + 1, a + 2, ...) is
        stacked whole; its other letters are pushed one at a time."""
        out = {}
        for field, repl in _BY_LABEL[label]:
            letters = [*pre, *[(k, x + off) for k, off in repl], *post]
            k, terms = 0, {below: lp_int(1)}
            if letters and letters[0][0] == CUP:
                a = letters[0][1]
                k = 1
                while k < len(letters) and letters[k] == (CROSS, a + k):
                    k += 1
                terms = self._stack_block(below, k - 1, a)
            _acc(out, self.push_letters(letters[k:], terms), _coeff(self.p, field))
        return out

    # -- crossing -----------------------------------------------------------

    def _push_cross(self, r: int, d: BrauerDiagram) -> dict:
        cups = d.cup_pairs()
        if not cups:
            base = stack_cross(d, r)
            # the crossing lengthens the permutation iff the strands it
            # swaps come from bottom dots in order
            if d.match[d.m + r - 1] < d.match[d.m + r]:
                return {base: lp_int(1)}
            # else d is base with a crossing at r on top, which it doubles
            return self._apply("twisting", r, base)

        left, right = max(cups)  # the topmost cup block
        s1, a1 = right - left - 1, left
        rest = remove_top_pair(d, left, right)

        if r + 1 < left:
            return self._stack_block_nf(self.push(CROSS, r, rest), s1, a1)
        if r > right:
            return self._stack_block_nf(self.push(CROSS, r - 2, rest), s1, a1)
        if r == right:
            return self._stack_block(rest, s1 + 1, a1)
        # otherwise the crossing commutes down the cascade to a window
        block = _block_letters(s1, a1)
        if r == a1 - 1:
            return self._apply("sliding", a1, rest, post=block[1:])
        if r == a1 and s1 == 0:
            return self._apply("untwisting", a1, rest)
        if r == a1:
            return self._apply("pulling", a1, rest, post=block[2:])
        if r == a1 + s1:
            return self._apply("twisting", r, rest, pre=block[:-1])
        # a1 < r < a1 + s1: both strands pass under the arc; braid through
        return self._stack_block_nf(self.push(CROSS, r - 1, rest), s1, a1)

    # -- cap ----------------------------------------------------------------

    def _push_cap(self, r: int, d: BrauerDiagram) -> dict:
        cups = d.cup_pairs()
        if not cups:
            # a cap landing literally on the standard word of d has
            # coefficient 1 by definition; any other is solved upside down,
            # where the flipped d (crossings and cups only) is stacked on a
            # single cup under the flipped record, on this call's budget
            if cap_lands_literally(d, r):
                return {stack_cap(d, r): lp_int(1)}
            if self.flip is None:
                self.flip = _Engine(vflip_params(self.p), self.root)
            cup = {elem_cup_block(d.n - 2, 0, r): lp_int(1)}
            terms = self.flip.push_letters(standard_letters(vflip_diagram(d)), cup)
            return {vflip_diagram(k): v for k, v in terms.items()}

        left, right = max(cups)  # the topmost cup block
        s1, a1 = right - left - 1, left
        rest = remove_top_pair(d, left, right)

        if r + 1 < left:
            out = self._stack_block_nf(self.push(CAP, r, rest), s1, a1 - 2)
            return out if self.eps == 1 else _negated(out)
        if r > right:
            out = self._stack_block_nf(self.push(CAP, r - 2, rest), s1, a1)
            return out if self.eps == 1 else _negated(out)
        # otherwise the cap commutes down the cascade to a window, moving
        # the crossings it passes 2 left
        block = _block_letters(s1, a1)
        down = [(CROSS, pos - 2) for _, pos in block[1:]]
        if r == a1 - 1:
            return self._apply("straightening", a1, rest, post=down)
        if r == a1 and s1 == 0:
            return self._apply("looping", a1, rest)
        if r == a1:
            return self._apply("delooping", a1, rest, post=down[1:])
        if r == right and s1 == 0:
            return self._apply("ud-straightening", a1, rest)
        if r == right:
            return self._apply("ud-sliding", a1 + s1, rest, pre=block[:-1])
        if r == a1 + s1:
            return self._apply("ud-untwisting", r, rest, pre=block[:-1])
        # a1 < r < a1 + s1: the cap lands on the cascade
        off = r - a1
        return self._apply("ud-pulling", r, rest, pre=block[:off], post=down[off + 1 :])


# ---------------------------------------------------------------------------
# Public API

_ENGINES = {}  # CategoryParams -> _Memo


def _engine(p: CategoryParams) -> _Memo:
    """The registry entry of p: its memo and consistency verdict."""
    memo = _ENGINES.get(p)
    if memo is None:
        memo = _ENGINES[p] = _Memo()
    return memo


def _require_consistent(p: CategoryParams):
    memo = _engine(p)
    if memo.violations is None:
        memo.violations = check_consistency(p)
    if memo.violations:
        raise InconsistentParams("parameters violate: %s" % ", ".join(memo.violations))


def normalize(w: GenWord, p: CategoryParams) -> NormalForm:
    """Normal form of a generator word (bottom-to-top letters)."""
    _require_consistent(p)
    return _normalize_unchecked(w, p)


def _normalize_unchecked(w: GenWord, p: CategoryParams):
    eng = _Engine(p)
    terms = {identity_diagram(w.domain): lp_int(1)}
    try:
        for letter in w.letters:
            terms = eng.push_nf(letter.kind, letter.pos, terms)
    except RecursionError:
        raise TooDeep() from None
    return NormalForm(w.domain, w.codomain, terms, p)


def _check_pair(x: NormalForm, y: NormalForm) -> _Engine:
    """An engine for one public call under the record x and y share."""
    _same_params(x, y)
    return _Engine(x.params)


def nf_compose(x: NormalForm, y: NormalForm) -> NormalForm:
    """Stack x on top of y."""
    eng = _check_pair(x, y)
    if x.m != y.n:
        raise WidthMismatch("compose: %d on top of %d" % (x.m, y.n))
    out = {}
    try:
        pushed = eng.push_words([standard_letters(dx) for dx in x.terms], y.terms)
    except RecursionError:
        raise TooDeep() from None
    for terms, cx in zip(pushed, x.terms.values()):
        _acc(out, terms, cx)
    return NormalForm(y.m, x.n, out, x.params)


def nf_tensor(x: NormalForm, y: NormalForm) -> NormalForm:
    """Place x to the left of y: (x ⊗ id) ∘ (id ⊗ y)."""
    eng = _check_pair(x, y)
    x_words = [standard_letters(dx) for dx in x.terms]
    ident = {identity_diagram(x.m + y.m): lp_int(1)}
    out = {}
    for dy, cy in y.terms.items():
        shifted = [(k, pos + x.m) for k, pos in standard_letters(dy)]
        try:
            below = eng.push_letters(shifted, ident)
            pushed = eng.push_words(x_words, below)
        except RecursionError:
            raise TooDeep() from None
        for terms, cx in zip(pushed, x.terms.values()):
            _acc(out, terms, cx * cy)
    return NormalForm(x.m + y.m, x.n + y.n, out, x.params)


def basis_products(basis, p: CategoryParams):
    """Yield the product x y of every two diagrams of basis, all of one
    End(n), column by column: for each y, then for each x, both in basis
    order.

    A column is the standard words of all of basis pushed onto y at once
    (`push_words`); beyond what its consumer keeps, one column is held at a
    time.  The whole walk is one public call: one consistency check and one
    engine, whose budget all the columns spend.  A public call made between
    two yields builds an engine and a budget of its own, and leaves the
    walk's untouched.
    """
    if any((d.m, d.n) != (basis[0].m, basis[0].m) for d in basis):
        raise WidthMismatch("basis products need diagrams of one End(n)")
    _require_consistent(p)
    eng = _Engine(p)
    words = [standard_letters(x) for x in basis]
    for y in basis:
        try:
            column = eng.push_words(words, {y: lp_int(1)})
        except RecursionError:
            raise TooDeep() from None
        for x, terms in zip(basis, column):
            yield NormalForm(y.m, x.n, terms, p)


def under_cross(p: CategoryParams, check: bool = True) -> NormalForm:
    """The inverse of the crossing, as a (2, 2) normal form."""
    if check:
        _require_consistent(p)
    one = lp_int(1)
    id2 = identity_diagram(2)
    hdiag = from_pairs(2, 2, [(0, 3), (1, 2)])
    cupcap = from_pairs(2, 2, [(0, 1), (2, 3)])
    inv_a = lp_exact_div(one, p.a)
    terms = {}
    _add_term(terms, id2, -lp_exact_div(p.b, p.a))
    _add_term(terms, hdiag, inv_a)
    _add_term(terms, cupcap, -lp_exact_div(p.c, p.lam * p.a))
    return NormalForm(2, 2, terms, p)


# ---------------------------------------------------------------------------
# Local confluence sweep


def _swap_step(g, u):
    """Commute the upper letter u below the lower letter g.

    Returns the new (lower, upper) pair, or None if the letters touch the
    same strands.  Letters are (kind, pos) pairs; g acts first.  On the level
    between them strand j sits at 2j and the slot left of it at 2j - 1: g's
    output covers its strands 2x .. 2x + 2, or the slot 2x - 1 a cap leaves,
    and u's input covers 2r .. 2r + 2, or the slot 2r - 1 a cup fills.  Only
    the letter on the right moves: g by u's width change, or u back by g's.
    """
    (gk, x), (uk, r) = g, u
    g_lo, g_hi = (2 * x - 1, 2 * x - 1) if gk == CAP else (2 * x, 2 * x + 2)
    u_lo, u_hi = (2 * r - 1, 2 * r - 1) if uk == CUP else (2 * r, 2 * r + 2)
    if u_hi < g_lo:
        return (uk, r), (gk, x + WIDTH_CHANGE[uk])
    # a cup filling the slot a cap leaves lies right of it
    if u_lo > g_hi or (gk, uk, r) == (CAP, CUP, x):
        return (uk, r - WIDTH_CHANGE[gk]), (gk, x)
    return None


def _relation_steps(p: CategoryParams, letters):
    """All single relation applications inside a letter tuple.

    Yields (label, height, window length, [(coeff, replacement letters)]).
    Coefficients are LaurentPoly; replacements splice in place.
    """
    for span in (2, 3):
        for h in range(len(letters) - span + 1):
            x = letters[h][1]
            # a list, not a generator: tuple() shrinks a generator's result
            # from a guessed size, which fills the free lists of small tuples
            # (2,000 each) and raised the sweep's peak RSS by about 0.2 MB
            window = tuple([(k, pos - x) for k, pos in letters[h : h + span]])
            row = _BY_WINDOW.get(window)
            if row is not None:
                label, _, rhs = row
                yield label, h, span, [
                    (_coeff(p, field), [(k, x + off) for k, off in repl])
                    for field, repl in rhs
                ]
            if span == 2:
                swap = _swap_step(letters[h], letters[h + 1])
                if swap is not None:
                    odd = p.epsilon == -1 and CROSS not in (window[0][0], window[1][0])
                    yield "swap", h, 2, [(lp_int(-1 if odd else 1), list(swap))]


def check_local_confluence(
    p: CategoryParams, max_width: int = 6, max_letters: int = 4
) -> list:
    """Compare every one-step rewrite of every small word against direct
    normalization.  Returns [(GenWord, difference NormalForm), ...]: the
    words in the order of a depth-first walk, and within a word by window
    length, then height, a relation before a swap.

    Each step is worked out once, at the word whose top letter ends its
    window.  Pushing a letter is linear, so the letters above a window act
    alike on both sides of a step: a step whose sides agree agrees on every
    longer word, and is dropped; a step whose sides differ is carried up,
    each new letter pushed once onto its right-hand side, and compared again
    at every longer word, since a later letter may cancel the difference.
    """
    eng = _Engine(p)
    failures = []

    def visit(domain, letters, width, prefixes, carried):
        # prefixes[h] is the normal form of letters[:h]; carried holds, as
        # (span, h, is_swap, rhs), the steps below the top letter whose
        # sides differed on the word one letter shorter; a step whose sides
        # agree is dropped at once, not held through the longer words' walk
        lhs = prefixes[-1]
        open_steps = [step for step in carried if step[3] != lhs]
        tail = tuple(letters[-3:])
        below = len(letters) - len(tail)
        for label, h, span, replacements in _relation_steps(p, tail):
            if h + span != len(tail):
                continue
            rhs = {}
            for coeff, repl in replacements:
                if coeff.is_zero():
                    continue
                _acc(rhs, eng.push_letters(repl, prefixes[below + h]), coeff)
            if rhs != lhs:
                open_steps.append((span, below + h, label == "swap", rhs))
        open_steps.sort(key=lambda step: step[:3])
        for *_, rhs in open_steps:
            diff = _acc(dict(lhs), _negated(rhs), lp_int(1))
            gw = GenWord(domain, tuple(Letter(k, pos) for k, pos in letters))
            failures.append((gw, NormalForm(domain, gw.codomain, diff, p)))
        if len(letters) >= max_letters:
            return
        candidates = [(CROSS, r) for r in range(1, width)]
        candidates += [(CAP, r) for r in range(1, width)]
        if width + 2 <= max_width:
            candidates += [(CUP, r) for r in range(1, width + 2)]
        for kind, pos in candidates:
            new_lhs = eng.push_nf(kind, pos, lhs)
            new_width = width + WIDTH_CHANGE[kind]
            pushed = [
                (span, h, is_swap, eng.push_nf(kind, pos, rhs))
                for span, h, is_swap, rhs in open_steps
            ]
            visit(
                domain, letters + [(kind, pos)], new_width,
                prefixes + [new_lhs], pushed,
            )

    try:
        for domain in range(0, max_width + 1):
            visit(domain, [], domain, [{identity_diagram(domain): lp_int(1)}], [])
    except RecursionError:
        raise TooDeep() from None
    return failures
