"""
Brauer diagrams: perfect matchings between m bottom dots and n top dots.

Dots are numbered 0..m-1 along the bottom (left to right) and m..m+n-1 along
the top.  Columns in the public API are 1-based.  Composition `x ∘ y` stacks
`x` on top of `y` and may close loops; the oracle reports how many.

Every diagram has a standard factorization

    (nested cup blocks) ∘ (permutation of through-strands) ∘ (nested cap blocks)

where an elementary cup block of spread s at column a creates a new pair
whose left leg sits at column a and whose right leg crosses over the s
strands in between, and cap blocks are the mirror image.  The permutation is
written as a fixed canonical reduced word: the descending runs read off its
Lehmer code.
"""

from __future__ import annotations

from dataclasses import dataclass


class DiagramError(Exception):
    pass


@dataclass(frozen=True)
class BrauerDiagram:
    """A perfect matching on m bottom and n top dots.

    `match` is a fixed-point-free involution of range(m + n).
    """

    m: int
    n: int
    match: tuple

    def __post_init__(self):
        total = self.m + self.n
        if min(self.m, self.n) < 0 or len(self.match) != total:
            raise DiagramError("negative boundary or matching of wrong size")
        for i, j in enumerate(self.match):
            if not 0 <= j < total or j == i or self.match[j] != i:
                raise DiagramError("not a fixed-point-free involution")

    # -- structure ---------------------------------------------------------

    def cup_pairs(self):
        """Top-top pairs as 1-based top columns (i, j) with i < j, sorted."""
        out = []
        for d in range(self.m, self.m + self.n):
            e = self.match[d]
            if e > d:
                out.append((d - self.m + 1, e - self.m + 1))
        return out

    def cap_pairs(self):
        """Bottom-bottom pairs as 1-based columns (i, j) with i < j, sorted."""
        out = []
        for d in range(self.m):
            e = self.match[d]
            if d < e < self.m:
                out.append((d + 1, e + 1))
        return out

    def through_pairs(self):
        """(bottom column, top column) 1-based pairs, sorted by bottom."""
        out = []
        for d in range(self.m):
            e = self.match[d]
            if e >= self.m:
                out.append((d + 1, e - self.m + 1))
        return out

    def pairs(self):
        """All pairs as 0-based dot lists [i, j] with i < j, sorted; the
        form used in JSON output."""
        return [[i, j] for i, j in enumerate(self.match) if j > i]

    def __str__(self):
        return "BrauerDiagram(%d->%d; cups=%s caps=%s through=%s)" % (
            self.m,
            self.n,
            self.cup_pairs(),
            self.cap_pairs(),
            self.through_pairs(),
        )


def from_pairs(m: int, n: int, pairs) -> BrauerDiagram:
    """Build a diagram from 0-based dot pairs."""
    match = [-1] * (m + n)
    for i, j in pairs:
        match[i], match[j] = j, i
    return BrauerDiagram(m, n, tuple(match))


def identity_diagram(n: int) -> BrauerDiagram:
    return from_pairs(n, n, [(i, n + i) for i in range(n)])


def perm_diagram(p) -> BrauerDiagram:
    """Diagram of a permutation given in 0-based one-line notation.

    Bottom column i+1 connects to top column p[i]+1.
    """
    n = len(p)
    return from_pairs(n, n, [(i, n + p[i]) for i in range(n)])


def enumerate_diagrams(m: int, n: int):
    """All (m, n) diagrams; there are (m+n-1)!! of them when m+n is even."""
    total = m + n
    if total % 2:
        return
    dots = list(range(total))

    def rec(remaining, pairs):
        if not remaining:
            yield from_pairs(m, n, pairs)
            return
        a = remaining[0]
        for k in range(1, len(remaining)):
            b = remaining[k]
            yield from rec(remaining[1:k] + remaining[k + 1 :], pairs + [(a, b)])

    yield from rec(dots, [])


def double_factorial(k: int) -> int:
    out = 1
    while k > 1:
        out *= k
        k -= 2
    return out


# ---------------------------------------------------------------------------
# Composition / tensor oracles (pure matching combinatorics)


def compose_oracle(top: BrauerDiagram, bot: BrauerDiagram):
    """Stack `top` onto `bot`; return (loop count, composed diagram).

    Requires top.m == bot.n.  An independent path-following implementation,
    used only as the oracle for the rewriting engine, which never calls it.
    A strand from the outer boundary that enters the k middle dots alternates
    between `bot.match` and `top.match` until it leaves; its end is written
    straight into the composed matching.  Every middle dot no strand visits
    lies on a closed loop, and each such cycle is counted once.
    """
    if top.m != bot.n:
        raise DiagramError(
            "cannot compose: top has %d inputs, bottom has %d outputs" % (top.m, bot.n)
        )
    m, k = bot.m, bot.n
    lo, hi = bot.match, top.match
    match = [-1] * (m + top.n)
    seen = [False] * k  # middle dots visited
    for i in range(m + top.n):
        if match[i] >= 0:
            continue
        # j is the other end of the strand's current piece: a dot of bot
        # while in_bot, a dot of top otherwise
        in_bot = i < m
        j = lo[i] if in_bot else hi[i - m + k]
        while (j >= m) if in_bot else (j < k):
            w = j - m if in_bot else j
            seen[w] = True
            in_bot = not in_bot
            j = lo[m + w] if in_bot else hi[w]
        end = j if in_bot else j - k + m
        match[i], match[end] = end, i
    loops = 0
    for w in range(k):
        if seen[w]:
            continue
        loops += 1
        while not seen[w]:
            seen[w] = True
            v = hi[w]  # across top to the next middle dot
            seen[v] = True
            w = lo[m + v] - m  # and back across bot
    return loops, BrauerDiagram(m, top.n, tuple(match))


def tensor_oracle(left: BrauerDiagram, right: BrauerDiagram) -> BrauerDiagram:
    """Place `left` to the left of `right`."""
    m1, n1, m2, n2 = left.m, left.n, right.m, right.n
    m, n = m1 + m2, n1 + n2

    def map_left(d):
        return d if d < m1 else m + (d - m1)

    def map_right(d):
        return m1 + d if d < m2 else m + n1 + (d - m2)

    pairs = []
    for i, j in enumerate(left.match):
        if j > i:
            pairs.append((map_left(i), map_left(j)))
    for i, j in enumerate(right.match):
        if j > i:
            pairs.append((map_right(i), map_right(j)))
    return from_pairs(m, n, pairs)


def vflip_diagram(d: BrauerDiagram) -> BrauerDiagram:
    """Exchange top and bottom boundaries."""
    m, n = d.m, d.n
    # the old top dots come first; dot i < m moves to n + i, dot i >= m to i - m
    match = d.match[m:] + d.match[:m]
    return BrauerDiagram(n, m, tuple(j - m if j >= m else j + n for j in match))


def hflip_diagram(d: BrauerDiagram) -> BrauerDiagram:
    """Mirror the diagram left-to-right."""
    m, n = d.m, d.n

    def mp(i):
        return m - 1 - i if i < m else m + (n - 1 - (i - m))

    pairs = [tuple(sorted((mp(i), mp(j)))) for i, j in enumerate(d.match) if j > i]
    return from_pairs(m, n, pairs)


# ---------------------------------------------------------------------------
# Elementary diagrams


def elem_cross(w: int, r: int) -> BrauerDiagram:
    """Crossing of strands r, r+1 (1-based) among w strands."""
    if not 1 <= r <= w - 1:
        raise DiagramError("crossing position out of range")
    p = list(range(w))
    p[r - 1], p[r] = p[r], p[r - 1]
    return perm_diagram(p)


def elem_cup_block(w: int, s: int, a: int) -> BrauerDiagram:
    """Cup block on w strands: new pair with legs at top columns a, a+s+1.

    The right leg crosses over the s strands between the legs; an (w, w+2)
    diagram.  s = 0 gives the plain cup at column a.
    """
    if s < 0 or not 1 <= a <= w - s + 1:
        raise DiagramError("cup block out of range")
    pairs = [(w + a - 1, w + a + s)]  # 0-based top dots of the new pair
    for j in range(1, w + 1):  # bottom column j
        if j < a:
            t = j
        elif j <= a + s - 1:
            t = j + 1
        else:
            t = j + 2
        pairs.append((j - 1, w + t - 1))
    return from_pairs(w, w + 2, pairs)


def elem_cap_block(w: int, s: int, a: int) -> BrauerDiagram:
    """Cap block: the cup block upside down; a (w+2, w) diagram.

    The capped pair sits at bottom columns a and a+s+1; the right strand
    crosses over the s strands in between before being capped.
    """
    return vflip_diagram(elem_cup_block(w, s, a))


def elem_cup(w: int, r: int) -> BrauerDiagram:
    return elem_cup_block(w, 0, r)


def elem_cap(w: int, r: int) -> BrauerDiagram:
    return elem_cap_block(w, 0, r)


# ---------------------------------------------------------------------------
# Standard factorization


def _peel(pairs):
    """Peel pairs of one boundary into elementary blocks, in peel order.

    Peeling repeatedly removes the pair with the largest left column and
    closes the gap it leaves.  Closing a gap never moves a column to its
    left, so pair (i, j) is peeled at column i, and its spread is the
    number of columns strictly between i and j that are still present then:
    those not belonging to a pair with a larger left column.  Returns
    (spread, column) per pair, largest left column first.
    """
    out = []
    peeled = []  # columns of the pairs already peeled, all right of i
    for i, j in sorted(pairs, reverse=True):
        out.append((j - i - 1 - sum(1 for c in peeled if c < j), i))
        peeled += (i, j)
    return out


def cup_blocks(d: BrauerDiagram):
    """Peel the top pairs into elementary cup blocks, topmost block first.

    Returns a list of (s, a) with the topmost block's left column largest.
    """
    return _peel(d.cup_pairs())


def cap_blocks(d: BrauerDiagram):
    """Peel the bottom pairs into elementary cap blocks, topmost block first.

    The bottom-most cap block has the largest left column; the returned list
    is ordered top to bottom (left columns increasing).
    """
    return _peel(d.cap_pairs())[::-1]


def through_perm(d: BrauerDiagram):
    """0-based one-line permutation of the through-strands."""
    tops = [t for _, t in d.through_pairs()]  # sorted by bottom already
    rank = {t: i for i, t in enumerate(sorted(tops))}
    return tuple(rank[t] for t in tops)


def permutation_canonical_word(p):
    """Canonical reduced word for a 0-based one-line permutation.

    Returns 1-based positions [i1, i2, ...] with p = s_{i1} ∘ s_{i2} ∘ ...
    (leftmost factor outermost).  The word is read off the Lehmer code: run
    k is the descending run s_{k-1+c} ... s_k, where c counts the entries
    after p[k-1] that are smaller than it (no run when c = 0).  The word is
    reduced and never contains the consecutive factor s_i s_{i+1} s_i.
    """
    word = []
    for k in range(1, len(p)):
        c = sum(1 for x in p[k:] if x < p[k - 1])
        word.extend(range(k - 1 + c, k - 1, -1))
    # the word has as many letters as p has inversions, so spelling p makes
    # it reduced
    assert apply_word(word, len(p)) == tuple(p), "canonical word is not reduced"
    for idx in range(len(word) - 2):
        a, b, c = word[idx : idx + 3]
        assert not (a == c and b == a + 1), "forbidden braid factor in canonical word"
    return word


def apply_word(word, r):
    """One-line permutation of s_{word[0]} ∘ s_{word[1]} ∘ ... on r strands."""
    p = list(range(r))
    for i in word:
        p[i - 1], p[i] = p[i], p[i - 1]
    return tuple(p)


def standard_letters(d: BrauerDiagram):
    """Bottom-to-top generator letters ('cap'|'cross'|'cup', column) of the
    standard word of `d`: its cap blocks, the canonical word of its
    through-strand permutation, then its cup blocks."""
    letters = []
    for s, a in reversed(cap_blocks(d)):
        letters.extend(("cross", a + j) for j in range(s, 0, -1))
        letters.append(("cap", a))
    perm_word = permutation_canonical_word(through_perm(d))
    letters.extend(("cross", i) for i in reversed(perm_word))
    for s, a in reversed(cup_blocks(d)):
        letters.append(("cup", a))
        letters.extend(("cross", a + j) for j in range(1, s + 1))
    return letters


def remove_top_pair(d: BrauerDiagram, i: int, j: int) -> BrauerDiagram:
    """Delete the top pair at columns (i, j) and close the gaps; the inverse
    of stacking an elementary cup block."""
    lo, hi = d.m + i - 1, d.m + j - 1
    assert d.match[lo] == hi
    return BrauerDiagram(d.m, d.n - 2, tuple(_drop(d.match, lo, hi)))


def _drop(match, lo, hi):
    """match without dots lo < hi, the dots above them renumbered down."""
    rest = match[:lo] + match[lo + 1 : hi] + match[hi + 1 :]
    return [k - (k > lo) - (k > hi) for k in rest]


def stack_cup_block(d: BrauerDiagram, s: int, a: int) -> BrauerDiagram:
    """elem_cup_block(d.n, s, a) stacked on d."""
    if s < 0 or not 1 <= a <= d.n - s + 1:
        raise DiagramError("cup block out of range")
    lo, mid = d.m + a - 1, d.m + a - 1 + s  # the new pair is (lo, mid + 1)
    mv = [k + (k >= lo) + (k >= mid) for k in d.match]
    return BrauerDiagram(d.m, d.n + 2, (*mv[:lo], mid + 1, *mv[lo:mid], lo, *mv[mid:]))


def stack_cross(d: BrauerDiagram, r: int) -> BrauerDiagram:
    """elem_cross(d.n, r) stacked on the cupless d."""
    x = d.m + r - 1
    match = list(d.match)
    i, j = match[x : x + 2]
    match[x], match[x + 1], match[i], match[j] = j, i, x + 1, x
    return BrauerDiagram(d.m, d.n, tuple(match))


def stack_cap(d: BrauerDiagram, r: int) -> BrauerDiagram:
    """elem_cap(d.n - 2, r) stacked on the cupless d."""
    x = d.m + r - 1
    i, j = d.match[x : x + 2]
    match = _drop(d.match, x, x + 1)
    match[i], match[j] = j, i
    return BrauerDiagram(d.m, d.n - 2, tuple(match))


def cap_lands_literally(d: BrauerDiagram, r: int) -> bool:
    """Whether stack_cap(d, r) has the standard word of the cupless d, then
    ("cap", r): the strands at top columns r, r+1 start at bottom columns r
    and b > r, no cap of d has a foot left of r, the others keep their order."""
    ends = d.match[d.m :]  # the bottom end of the strand at each top column
    rest = ends[: r - 1] + ends[r + 1 :]
    return (
        ends[r - 1] == r - 1 < ends[r]
        and all(d.match[k] >= d.m for k in range(r - 1))
        and all(x < y for x, y in zip(rest, rest[1:]))
    )
