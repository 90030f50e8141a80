"""
Normalization engine: rewrite generator words into the diagram basis.

A morphism is represented as a `NormalForm`: a finite linear combination of
Brauer diagrams with Laurent-polynomial coefficients.  The coefficient of a
diagram is, by definition, the coefficient in front of its standard
expression, which anchors all supersigns.

The engine works strictly bottom to top: `normalize` folds the letters of a
word one at a time with `push_generator`, which knows how to stack a single
cup, cap, or crossing on top of a diagram already in standard form.  Each
push is resolved by a case analysis on how the new letter meets the topmost
cup block (or, if there are no cups, the permutation part) of the diagram,
applying the defining relations of the category.  Signs arise only from
commuting odd letters (cups/caps when epsilon = -1) past each other.

`check_local_confluence` exhaustively verifies that applying any single
relation anywhere in a small word, then normalizing, agrees with normalizing
the word directly.  It deliberately accepts inconsistent parameter records so
that it can *detect* them.

`_ENGINES` maps each parameter record to its engine, which holds the record's
fingerprint, its consistency verdict and its memo; clearing it resets
everything the engine remembers.  The memo has two namespaces of keys
(kind, position, diagram): a letter pushed on a diagram (kind `cross`, `cap`
or `cup`), and a cup block that tangles with the diagram's cups (kind
`("cupblock", spread)`).  A cap pushed on a cupless diagram is solved in two
steps: if it lands literally on the standard word its coefficient is 1;
otherwise the problem is turned upside down, where it becomes the flipped
diagram's crossings and cups pushed on a single cup by the engine of the
flipped record (`vflip_params`).  Each public call gets one budget of
`DEFAULT_FUEL` steps, and every memo miss, in any engine the call uses,
spends one; running out raises `FuelExhausted`, naming the key it stopped
on.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .coeff import LaurentPoly, lp_exact_div, lp_int, lp_parse, lp_str
from .diagram import (
    BrauerDiagram,
    compose_oracle,
    elem_cap_block,
    elem_cross,
    elem_cup_block,
    from_pairs,
    identity_diagram,
    remove_top_pair,
    standard_letters,
    vflip_diagram,
)
from .params import CategoryParams, check_consistency, vflip_params
from .term import CAP, CROSS, CUP, GenWord, Letter


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


# ---------------------------------------------------------------------------
# Normal forms


@dataclass
class NormalForm:
    """A linear combination of (m, n) Brauer diagrams."""

    m: int
    n: int
    terms: dict
    params_fingerprint: str

    def is_zero(self) -> bool:
        return not self.terms

    def scale(self, coeff: LaurentPoly) -> "NormalForm":
        return NormalForm(
            self.m, self.n, _acc({}, self.terms, coeff), self.params_fingerprint
        )

    def __add__(self, other: "NormalForm") -> "NormalForm":
        if (self.m, self.n) != (other.m, other.n):
            raise WidthMismatch("cannot add normal forms of different shapes")
        if self.params_fingerprint != other.params_fingerprint:
            raise ParamsMismatch("normal forms built with different parameters")
        out = dict(self.terms)
        for d, c in other.terms.items():
            _add_term(out, d, c)
        return NormalForm(self.m, self.n, out, self.params_fingerprint)

    def __sub__(self, other: "NormalForm") -> "NormalForm":
        return self + replace(other, terms=_negated(other.terms))

    def to_json(self) -> dict:
        items = sorted((d.pairs(), lp_str(c)) for d, c in self.terms.items())
        return {
            "m": self.m,
            "n": self.n,
            "terms": [{"pairs": pairs, "coeff": coeff} for pairs, coeff in items],
        }


def nf_from_json(data: dict, p: CategoryParams) -> NormalForm:
    m, n = int(data["m"]), int(data["n"])
    terms = {}
    for item in data["terms"]:
        d = from_pairs(m, n, [tuple(pair) for pair in item["pairs"]])
        coeff = lp_parse(item["coeff"])
        if not coeff.is_zero():
            terms[d] = coeff
    return NormalForm(m, n, terms, _fingerprint(p))


def nf_from_diagram(d: BrauerDiagram, p: CategoryParams) -> NormalForm:
    return NormalForm(d.m, d.n, {d: lp_int(1)}, _fingerprint(p))


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
# The engine


_fuel = DEFAULT_FUEL  # steps left in the current public call


def _tick(key):
    """Spend one step on the memo key (kind, position, diagram)."""
    global _fuel
    _fuel -= 1
    if _fuel <= 0:
        kind, pos, d = key
        raise FuelExhausted(
            "step budget of %d exhausted pushing %s at %d on %s; engine defect"
            % (DEFAULT_FUEL, kind, pos, d)
        )


class _Engine:
    """Memoized letter-pushing for one parameter record."""

    def __init__(self, params: CategoryParams):
        self.p = params
        self.fp = params.fingerprint()
        self.violations = None  # check_consistency(params), once computed
        self.eps = params.epsilon
        self.e_poly = LaurentPoly.const(params.e)
        self.ep_poly = LaurentPoly.const(params.e_prime)
        self.cache = {}

    def sign(self, t: int) -> int:
        """epsilon^t."""
        return -1 if (self.eps == -1 and t % 2 == 1) else 1

    def _memo(self, key, compute, *args) -> dict:
        """The memoized value of compute(*args) under key; a miss spends one
        step of the budget."""
        hit = self.cache.get(key)
        if hit is None:
            _tick(key)
            hit = self.cache[key] = compute(*args)
        return hit

    # -- entry points -------------------------------------------------------

    def push(self, kind: str, pos: int, d: BrauerDiagram) -> dict:
        return self._memo((kind, pos, d), self._push_cases, kind, pos, d)

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

    # -- attaching blocks ----------------------------------------------------

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
            letters = [(CUP, a)] + [(CROSS, a + j) for j in range(1, s + 1)]
            key = (("cupblock", s), a, d)
            return self._memo(key, self.push_letters, letters, {d: lp_int(1)})
        loops, d2 = compose_oracle(elem_cup_block(d.n, s, a), d)
        assert loops == 0
        return {d2: lp_int(self.sign(above))}

    def _stack_block_nf(self, terms: dict, s: int, a: int) -> dict:
        out = {}
        for d, c in terms.items():
            _acc(out, self._stack_block(d, s, a), c)
        return out

    def _twist(self, base: dict, d: BrauerDiagram, r: int) -> dict:
        """A crossing at r doubles the top letter of base, giving d:
        a*base + b*d + c*(cup_r o cap_r o base)."""
        p = self.p
        out = _acc({}, base, p.a)
        _add_term(out, d, p.b)
        tail = self.push_nf(CUP, r, self.push_nf(CAP, r, base))
        return _acc(out, tail, p.c)

    # -- crossing -----------------------------------------------------------

    def _push_cross(self, r: int, d: BrauerDiagram) -> dict:
        p = self.p
        cups = d.cup_pairs()
        if not cups:
            _, base = compose_oracle(elem_cross(d.n, r), d)
            # the crossing lengthens the permutation iff the strands it
            # swaps come from bottom dots in order
            if d.match[d.m + r - 1] < d.match[d.m + r]:
                return {base: lp_int(1)}
            # the new crossing doubles the top letter of the permutation
            return self._twist({base: lp_int(1)}, d, r)

        left, right = max(cups)  # the topmost cup block
        s1, a1 = right - left - 1, left
        rest = remove_top_pair(d, left, right)
        rest_nf = {rest: lp_int(1)}

        if r + 1 < left:
            return self._stack_block_nf(self.push(CROSS, r, rest), s1, a1)
        if r > right:
            return self._stack_block_nf(self.push(CROSS, r - 2, rest), s1, a1)
        if r == right:
            return self._stack_block(rest, s1 + 1, a1)
        if r == a1 - 1:
            # crossing grabs the straight left leg of the block: sliding
            dterm = self.push_letters(
                [(CUP, a1 - 1)] + [(CROSS, a1 + j) for j in range(1, s1 + 1)],
                rest_nf,
            )
            out = _acc({}, dterm, p.d)
            _acc(out, self._stack_block(rest, s1 + 1, a1 - 1), self.e_poly)
            _add_term(out, d, p.f)
            return out
        if r == a1 and s1 == 0:
            return {d: p.lam}
        if r == a1:
            # crossing repeats the first crossing of the cascade: pulling
            dterm = self.push_letters(
                [(CUP, a1)] + [(CROSS, a1 + j) for j in range(2, s1 + 1)],
                rest_nf,
            )
            out = _acc({}, dterm, p.D)
            _add_term(out, d, p.E)
            return _acc(out, self._stack_block(rest, s1 - 1, a1 + 1), p.F)
        if r == a1 + s1:
            # crossing doubles the top letter of the cascade: twisting
            return self._twist(self._stack_block(rest, s1 - 1, a1), d, r)
        # a1 < r < a1 + s1: both strands pass under the arc; braid through
        return self._stack_block_nf(self.push(CROSS, r - 1, rest), s1, a1)

    # -- cap ----------------------------------------------------------------

    def _push_cap(self, r: int, d: BrauerDiagram) -> dict:
        p = self.p
        cups = d.cup_pairs()
        if not cups:
            # a cap that lands literally on the standard word of d has
            # coefficient 1 by definition; any other is solved upside down,
            # where the flipped d (crossings and cups only) is stacked on a
            # single cup by the engine of the flipped record
            _, d2 = compose_oracle(elem_cap_block(d.n - 2, 0, r), d)
            if standard_letters(d2) == standard_letters(d) + [(CAP, r)]:
                return {d2: lp_int(1)}
            flip = _engine(vflip_params(p))
            cup = {elem_cup_block(d.n - 2, 0, r): lp_int(1)}
            terms = flip.push_letters(standard_letters(vflip_diagram(d)), cup)
            return {vflip_diagram(k): v for k, v in terms.items()}

        left, right = max(cups)  # the topmost cup block
        s1, a1 = right - left - 1, left
        rest = remove_top_pair(d, left, right)
        rest_nf = {rest: lp_int(1)}

        if r + 1 < left:
            out = self._stack_block_nf(self.push(CAP, r, rest), s1, a1 - 2)
            return out if self.eps == 1 else _negated(out)
        if r > right:
            out = self._stack_block_nf(self.push(CAP, r - 2, rest), s1, a1)
            return out if self.eps == 1 else _negated(out)
        if r == a1 - 1:
            # cap joins a free strand to the block's left leg: straightening
            letters = [(CROSS, a1 - 1 + j) for j in range(s1)]
            return _acc({}, self.push_letters(letters, rest_nf), p.sig)
        if r == a1 and s1 == 0:
            return _acc({}, rest_nf, p.delta)
        if r == a1:
            # cap closes the block through its cascade: delooping
            letters = [(CROSS, a1 + j - 2) for j in range(2, s1 + 1)]
            return _acc({}, self.push_letters(letters, rest_nf), p.rho)
        if r == right:
            if s1 == 0:
                return _acc({}, rest_nf, p.sig_p)
            # cap meets the cascade's top crossing: upside-down sliding
            base = self._stack_block(rest, s1 - 1, a1)
            out = _acc({}, self.push_nf(CAP, a1 + s1, base), p.d_p)
            mid = self.push_nf(CROSS, a1 + s1 + 1, base)
            _acc(out, self.push_nf(CAP, a1 + s1, mid), self.ep_poly)
            return _acc(out, self.push_nf(CAP, a1 + s1 + 1, base), p.f_p)
        if r == a1 + s1:
            # cap undoes the cascade's top crossing: upside-down untwisting
            base = self._stack_block(rest, s1 - 1, a1)
            return _acc({}, self.push_nf(CAP, a1 + s1, base), p.lam_p)
        # a1 < r < a1 + s1: cap lands on the cascade: upside-down pulling
        off = r - a1
        pre = [(CUP, a1)] + [(CROSS, a1 + i) for i in range(1, off)]
        post = [(CROSS, a1 + j - 2) for j in range(off + 2, s1 + 1)]
        out = {}
        for coeff, window in (
            (p.D_p, [(CAP, r)]),
            (p.E_p, [(CROSS, r + 1), (CAP, r)]),
            (p.F_p, [(CAP, r + 1)]),
        ):
            _acc(out, self.push_letters(pre + window + post, rest_nf), coeff)
        return out


# ---------------------------------------------------------------------------
# Public API

_ENGINES = {}  # CategoryParams -> _Engine


def _engine(p: CategoryParams) -> _Engine:
    eng = _ENGINES.get(p)
    if eng is None:
        eng = _ENGINES[p] = _Engine(p)
    return eng


def _fingerprint(p: CategoryParams) -> str:
    return _engine(p).fp


def _engine_for(p: CategoryParams) -> _Engine:
    """The engine of p, with a fresh step budget for one public call."""
    global _fuel
    _fuel = DEFAULT_FUEL
    return _engine(p)


def _require_consistent(p: CategoryParams):
    eng = _engine(p)
    if eng.violations is None:
        eng.violations = check_consistency(p)
    if eng.violations:
        raise InconsistentParams("parameters violate: %s" % ", ".join(eng.violations))


def normalize(w: GenWord, p: CategoryParams) -> NormalForm:
    """Normal form of a generator word (bottom-to-top letters)."""
    _require_consistent(p)
    return _normalize_unchecked(w, p)


def _normalize_unchecked(w: GenWord, p: CategoryParams):
    eng = _engine_for(p)
    terms = {identity_diagram(w.domain): lp_int(1)}
    for letter in w.letters:
        terms = eng.push_nf(letter.kind, letter.pos, terms)
    return NormalForm(w.domain, w.codomain, terms, eng.fp)


def push_generator(g: Letter, d: BrauerDiagram, p: CategoryParams) -> NormalForm:
    """Normal form of the letter g stacked on top of the diagram d."""
    _require_consistent(p)
    eng = _engine_for(p)
    n_out = g.width_out(d.n)
    terms = eng.push(g.kind, g.pos, d)
    return NormalForm(d.m, n_out, dict(terms), eng.fp)


def _check_pair(x: NormalForm, y: NormalForm, p: CategoryParams) -> _Engine:
    """The engine of p for one public call on x and y, both built under p."""
    eng = _engine_for(p)
    if x.params_fingerprint != eng.fp or y.params_fingerprint != eng.fp:
        raise ParamsMismatch("normal forms built with different parameters")
    return eng


def nf_compose(x: NormalForm, y: NormalForm, p: CategoryParams) -> NormalForm:
    """Stack x on top of y."""
    eng = _check_pair(x, y, p)
    if x.m != y.n:
        raise WidthMismatch("compose: %d on top of %d" % (x.m, y.n))
    out = {}
    for dx, cx in x.terms.items():
        _acc(out, eng.push_letters(standard_letters(dx), y.terms), cx)
    return NormalForm(y.m, x.n, out, eng.fp)


def nf_tensor(x: NormalForm, y: NormalForm, p: CategoryParams) -> NormalForm:
    """Place x to the left of y: (x ⊗ id) ∘ (id ⊗ y)."""
    eng = _check_pair(x, y, p)
    out = {}
    for dx, cx in x.terms.items():
        x_letters = standard_letters(dx)
        for dy, cy in y.terms.items():
            letters = [(k, pos + dx.m) for k, pos in standard_letters(dy)]
            letters += x_letters
            terms = eng.push_letters(
                letters, {identity_diagram(dx.m + dy.m): lp_int(1)}
            )
            _acc(out, terms, cx * cy)
    return NormalForm(x.m + y.m, x.n + y.n, out, eng.fp)


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
    return NormalForm(2, 2, terms, _fingerprint(p))


# ---------------------------------------------------------------------------
# Local confluence sweep


def _letter_parity(kind: str) -> int:
    return 0 if kind == CROSS else 1


def _swap_step(g, u):
    """Commute the upper letter u below the lower letter g.

    Returns (parity exponent, (new lower, new upper)) or None if the letters
    touch the same strands.  Letters are (kind, pos) pairs; g acts first.
    """
    gk, x = g
    uk, r = u
    if gk in (CROSS, CUP):
        if uk in (CROSS, CAP):
            if r + 1 < x:
                nu = (uk, r)
                ng = (gk, x - 2 if uk == CAP else x)
            elif r > x + 1:
                nu = (uk, r - 2 if gk == CUP else r)
                ng = (gk, x)
            else:
                return None
        else:  # u is a cup inserted at slot r
            if r <= x:
                nu = (uk, r)
                ng = (gk, x + 2)
            elif r >= x + 2:
                nu = (uk, r - 2 if gk == CUP else r)
                ng = (gk, x)
            else:
                return None
    else:  # g is a cap at x
        if uk in (CROSS, CAP):
            if r + 1 < x:
                nu = (uk, r)
                ng = (gk, x - 2 if uk == CAP else x)
            elif r >= x:
                nu = (uk, r + 2)
                ng = (gk, x)
            else:
                return None
        else:
            if r <= x - 1:
                nu = (uk, r)
                ng = (gk, x + 2)
            else:
                nu = (uk, r + 2)
                ng = (gk, x)
    exponent = _letter_parity(gk) * _letter_parity(uk)
    return exponent, (nu, ng)


def _relation_steps(p: CategoryParams, letters):
    """All single relation applications inside a letter tuple.

    Yields (label, height, window length, [(coeff, replacement letters)]).
    Coefficients are LaurentPoly; replacements splice in place.
    """
    one = lp_int(1)
    n = len(letters)
    for h in range(n - 1):
        (k1, p1), (k2, p2) = letters[h], letters[h + 1]
        if k1 == CUP and k2 == CROSS:
            if p2 == p1:
                yield "untwisting", h, 2, [(p.lam, [(CUP, p1)])]
            elif p2 == p1 - 1:
                yield "sliding", h, 2, [
                    (p.d, [(CUP, p1 - 1)]),
                    (LaurentPoly.const(p.e), [(CUP, p1 - 1), (CROSS, p1)]),
                    (p.f, [(CUP, p1)]),
                ]
        elif k1 == CROSS and k2 == CAP:
            if p2 == p1:
                yield "ud-untwisting", h, 2, [(p.lam_p, [(CAP, p1)])]
            elif p2 == p1 + 1:
                yield "ud-sliding", h, 2, [
                    (p.d_p, [(CAP, p1)]),
                    (LaurentPoly.const(p.e_prime), [(CROSS, p1 + 1), (CAP, p1)]),
                    (p.f_p, [(CAP, p1 + 1)]),
                ]
        elif k1 == CUP and k2 == CAP:
            if p2 == p1:
                yield "looping", h, 2, [(p.delta, [])]
            elif p2 == p1 - 1:
                yield "straightening", h, 2, [(p.sig, [])]
            elif p2 == p1 + 1:
                yield "ud-straightening", h, 2, [(p.sig_p, [])]
        elif k1 == CROSS and k2 == CROSS and p1 == p2:
            yield "twisting", h, 2, [
                (p.a, []),
                (p.b, [(CROSS, p1)]),
                (p.c, [(CAP, p1), (CUP, p1)]),
            ]
        swap = _swap_step(letters[h], letters[h + 1])
        if swap is not None:
            exponent, (nu, ng) = swap
            sgn = -1 if (p.epsilon == -1 and exponent % 2 == 1) else 1
            yield "swap", h, 2, [(lp_int(sgn), [nu, ng])]
    for h in range(n - 2):
        (k1, p1), (k2, p2), (k3, p3) = letters[h], letters[h + 1], letters[h + 2]
        if (k1, k2, k3) == (CUP, CROSS, CAP) and p2 == p1 + 1 and p3 == p1:
            yield "delooping", h, 3, [(p.rho, [])]
        elif (k1, k2, k3) == (CUP, CROSS, CROSS) and p2 == p1 + 1 and p3 == p1:
            yield "pulling", h, 3, [
                (p.D, [(CUP, p1)]),
                (p.E, [(CUP, p1), (CROSS, p1 + 1)]),
                (p.F, [(CUP, p1 + 1)]),
            ]
        elif (k1, k2, k3) == (CROSS, CROSS, CAP) and p2 == p1 + 1 and p3 == p1:
            yield "ud-pulling", h, 3, [
                (p.D_p, [(CAP, p1)]),
                (p.E_p, [(CROSS, p1 + 1), (CAP, p1)]),
                (p.F_p, [(CAP, p1 + 1)]),
            ]
        if k1 == k2 == k3 == CROSS:
            if p1 == p3 and p2 == p1 + 1:
                yield "braid", h, 3, [
                    (one, [(CROSS, p1 + 1), (CROSS, p1), (CROSS, p1 + 1)])
                ]
            elif p1 == p3 and p2 == p1 - 1:
                yield "braid-rev", h, 3, [
                    (one, [(CROSS, p1 - 1), (CROSS, p1), (CROSS, p1 - 1)])
                ]


def check_local_confluence(
    p: CategoryParams, max_width: int = 6, max_letters: int = 4
) -> list:
    """Compare every one-step rewrite of every small word against direct
    normalization.  Returns [(GenWord, difference NormalForm), ...]."""
    eng = _engine_for(p)
    failures = []

    def word_nf(domain, letters):
        terms = {identity_diagram(domain): lp_int(1)}
        return eng.push_letters(letters, terms)

    def visit(domain, letters, width, lhs):
        for label, h, span, replacements in _relation_steps(p, tuple(letters)):
            rhs = {}
            for coeff, repl in replacements:
                if coeff.is_zero():
                    continue
                new_letters = letters[:h] + repl + letters[h + span :]
                _acc(rhs, word_nf(domain, new_letters), coeff)
            if rhs != lhs:
                diff = _acc(dict(lhs), _negated(rhs), lp_int(1))
                gw = GenWord(domain, tuple(Letter(k, pos) for k, pos in letters))
                failures.append(
                    (gw, NormalForm(domain, gw.codomain, diff, eng.fp))
                )
        if len(letters) >= max_letters:
            return
        candidates = [(CROSS, r) for r in range(1, width)]
        candidates += [(CAP, r) for r in range(1, width)]
        if width + 2 <= max_width:
            candidates += [(CUP, r) for r in range(1, width + 2)]
        for kind, pos in candidates:
            new_lhs = eng.push_nf(kind, pos, lhs)
            new_width = width + (2 if kind == CUP else -2 if kind == CAP else 0)
            visit(domain, letters + [(kind, pos)], new_width, new_lhs)

    for domain in range(0, max_width + 1):
        visit(domain, [], domain, {identity_diagram(domain): lp_int(1)})
    return failures
