import hashlib
import itertools
import random

import pytest

from brauercalc.diagram import (
    BrauerDiagram,
    DiagramError,
    apply_word,
    cap_blocks,
    cap_lands_literally,
    compose_oracle,
    cup_blocks,
    double_factorial,
    elem_cap,
    elem_cap_block,
    elem_cross,
    elem_cup,
    elem_cup_block,
    enumerate_diagrams,
    from_pairs,
    hflip_diagram,
    identity_diagram,
    perm_diagram,
    permutation_canonical_word,
    remove_top_pair,
    stack_cap,
    stack_cross,
    stack_cup_block,
    standard_letters,
    tensor_oracle,
    through_perm,
    vflip_diagram,
)


# ---------------------------------------------------------------------------
# Oracles: a diagram rebuilt from its factorization by composing elementary
# diagrams, and a permutation's length


def count_inversions(p) -> int:
    return sum(1 for i in range(len(p)) for j in range(i + 1, len(p)) if p[i] > p[j])


def diagram_from_parts(m, caps, perm, cups) -> BrauerDiagram:
    """Rebuild a diagram from its cap blocks, through-strand permutation and
    cup blocks ((s, a) lists topmost first); no loop may close."""
    w = m
    d = identity_diagram(m)
    for s, a in reversed(caps):
        loops, d = compose_oracle(elem_cap_block(w - 2, s, a), d)
        assert loops == 0
        w -= 2
    loops, d = compose_oracle(perm_diagram(perm), d)
    assert loops == 0
    for s, a in reversed(cups):
        loops, d = compose_oracle(elem_cup_block(w, s, a), d)
        assert loops == 0
        w += 2
    return d


def diagram_from_letters(m, letters) -> BrauerDiagram:
    """Compose generator letters bottom to top into a matching; no loop may
    close."""
    d = identity_diagram(m)
    w = m
    for kind, pos in letters:
        if kind == "cross":
            elem = elem_cross(w, pos)
        elif kind == "cup":
            elem, w = elem_cup(w, pos), w + 2
        else:
            elem, w = elem_cap(w - 2, pos), w - 2
        loops, d = compose_oracle(elem, d)
        assert loops == 0
    return d


def test_enumeration_counts():
    assert len(list(enumerate_diagrams(1, 1))) == 1
    assert len(list(enumerate_diagrams(2, 2))) == 3
    assert len(list(enumerate_diagrams(3, 3))) == 15
    assert len(list(enumerate_diagrams(4, 4))) == 105
    assert len(list(enumerate_diagrams(1, 3))) == 3
    assert len(list(enumerate_diagrams(0, 6))) == 15
    assert list(enumerate_diagrams(1, 2)) == []
    for m, n in [(2, 2), (3, 3), (1, 3), (0, 4)]:
        ds = list(enumerate_diagrams(m, n))
        assert len(ds) == double_factorial(m + n - 1)
        assert len(set(ds)) == len(ds)


def test_compose_identity():
    for d in enumerate_diagrams(2, 4):
        loops, out = compose_oracle(identity_diagram(4), d)
        assert loops == 0 and out == d
        loops, out = compose_oracle(d, identity_diagram(2))
        assert loops == 0 and out == d


def test_compose_loop():
    # cap over cup closes one loop
    loops, out = compose_oracle(elem_cap(0, 1), elem_cup(0, 1))
    assert loops == 1
    assert out == identity_diagram(0)


def test_compose_zigzag():
    # (cap ⊗ id) over (id ⊗ cup) is the identity strand
    top = tensor_oracle(elem_cap(0, 1), identity_diagram(1))
    bot = tensor_oracle(identity_diagram(1), elem_cup(0, 1))
    loops, out = compose_oracle(top, bot)
    assert loops == 0
    assert out == identity_diagram(1)


def test_compose_associative_exhaustive():
    ds22 = list(enumerate_diagrams(2, 2))
    for x, y, z in itertools.product(ds22, repeat=3):
        l1, xy = compose_oracle(x, y)
        l1b, out1 = compose_oracle(xy, z)
        l2, yz = compose_oracle(y, z)
        l2b, out2 = compose_oracle(x, yz)
        assert out1 == out2
        assert l1 + l1b == l2 + l2b


def test_compose_is_pinned():
    # loop count and matching of every composable pair whose two diagrams
    # have at most 8 dots each (127,485 pairs); the digest was taken from
    # the walk over tuple node keys that the index walk replaced
    h = hashlib.sha256()
    for k in range(9):
        bots = [d for m in range(k % 2, 9 - k, 2) for d in enumerate_diagrams(m, k)]
        tops = [d for n in range(k % 2, 9 - k, 2) for d in enumerate_diagrams(k, n)]
        for y in bots:
            for x in tops:
                loops, z = compose_oracle(x, y)
                h.update(("%d %r\n" % (loops, z.match)).encode())
    assert h.hexdigest() == (
        "f9dc5b92d0eb879d0260f0e86837f212fd07daaee4afa9b9fdf7d4c0ef270f9f"
    )


def test_tensor_shapes():
    x = elem_cup(0, 1)  # (0, 2)
    y = elem_cap(2, 1)  # (4, 2)
    t = tensor_oracle(x, y)
    assert (t.m, t.n) == (4, 4)
    assert t.cup_pairs() == [(1, 2)]
    assert t.cap_pairs() == [(1, 2)]
    assert t.through_pairs() == [(3, 3), (4, 4)]
    # tensor with identity on either side is a relabeling of the same shape
    assert tensor_oracle(identity_diagram(0), y) == y
    assert tensor_oracle(y, identity_diagram(0)) == y


def test_flips():
    for d in enumerate_diagrams(1, 3):
        assert vflip_diagram(vflip_diagram(d)) == d
        assert hflip_diagram(hflip_diagram(d)) == d
    assert vflip_diagram(elem_cup(0, 1)) == elem_cap(0, 1)
    assert hflip_diagram(elem_cross(3, 1)) == elem_cross(3, 2)


def test_elem_cup_block_matching():
    # spread-1 block at column 1 on one strand: pair at top columns (1, 3),
    # the strand passes to column 2
    d = elem_cup_block(1, 1, 1)
    assert d.cup_pairs() == [(1, 3)]
    assert d.through_pairs() == [(1, 2)]
    # mirror cap block
    c = elem_cap_block(1, 1, 1)
    assert c.cap_pairs() == [(1, 3)]
    assert c.through_pairs() == [(2, 1)]


def test_cup_peeling_worked_example():
    # (1, 9) diagram: top pairs (1,6), (2,3), (4,8), (7,9); strand 1 -> 5.
    pairs = [(1, 6), (2, 3), (4, 8), (7, 9)]
    d = from_pairs(1, 9, [(0, i) for i in []] + [(i, j) for i, j in pairs] + [(0, 5)])
    assert cup_blocks(d) == [(1, 7), (2, 4), (0, 2), (1, 1)]
    # the mirror image peels to the same blocks, listed top to bottom
    flipped = vflip_diagram(d)
    assert cap_blocks(flipped) == [(1, 1), (0, 2), (2, 4), (1, 7)]
    # reconstruction through the oracle gives back the diagram
    assert diagram_from_letters(1, standard_letters(d)) == d


def test_canonical_word_longest_s3():
    d = perm_diagram((2, 1, 0))
    assert permutation_canonical_word(through_perm(d)) == [2, 1, 2]


@pytest.mark.parametrize("r", [1, 2, 3, 4, 5, 6, 7])
def test_canonical_word_properties(r):
    for p in itertools.permutations(range(r)):
        w = permutation_canonical_word(p)
        assert apply_word(w, r) == p
        assert len(w) == count_inversions(p)
        for idx in range(len(w) - 2):
            a, b, c = w[idx : idx + 3]
            assert not (a == c and b == a + 1)
        # descending runs: every ascent starts a new run whose values dropped
        # to the run index; just re-check via the defining recursion
        runs = []
        cur = [w[0]] if w else []
        for x in w[1:]:
            if cur and x == cur[-1] - 1:
                cur.append(x)
            else:
                runs.append(cur)
                cur = [x]
        if cur:
            runs.append(cur)
        ends = [run[-1] for run in runs]
        assert ends == sorted(ends) and len(set(ends)) == len(ends)


@pytest.mark.parametrize(
    "m,n",
    [(2, 2), (3, 3), (1, 3), (0, 4), (4, 2), (2, 4), (0, 8), (1, 7), (2, 6), (3, 5)],
)
def test_standard_word_round_trip(m, n):
    for d in enumerate_diagrams(m, n):
        letters = standard_letters(d)
        assert diagram_from_letters(m, letters) == d
        assert diagram_from_parts(m, cap_blocks(d), through_perm(d), cup_blocks(d)) == d


def test_standard_word_shapes():
    d = elem_cup_block(3, 1, 2)
    assert cup_blocks(d) == [(1, 2)]
    assert cap_blocks(d) == []
    assert permutation_canonical_word(through_perm(d)) == []


def test_remove_top_pair():
    d = elem_cup_block(3, 1, 2)
    rest = remove_top_pair(d, 2, 4)
    assert rest == identity_diagram(3)


def test_bad_diagrams():
    with pytest.raises(DiagramError):
        BrauerDiagram(1, 1, (0, 1))
    # negative sizes: an empty matching has the right length when m + n = 0
    for make in (
        lambda: BrauerDiagram(-1, 1, ()),
        lambda: from_pairs(3, -3, []),
        lambda: identity_diagram(-1),
    ):
        with pytest.raises(DiagramError):
            make()
    with pytest.raises(DiagramError):
        compose_oracle(identity_diagram(2), identity_diagram(3))


def _small_diagrams(max_size):
    for total in range(0, max_size + 1, 2):
        for m in range(total + 1):
            yield from enumerate_diagrams(m, total - m)


def test_cup_block_lands_literally_iff_no_cup_starts_at_or_right_of_it():
    # the engine's closed-form test for a cup block stacked on d
    for d in _small_diagrams(8):
        for s in range(d.n + 1):
            for a in range(1, d.n - s + 2):
                loops, d2 = compose_oracle(elem_cup_block(d.n, s, a), d)
                assert loops == 0
                block = [("cup", a)] + [("cross", a + j) for j in range(1, s + 1)]
                literal = standard_letters(d) + block == standard_letters(d2)
                assert literal == all(i < a for i, _ in d.cup_pairs()), (d, s, a)


def test_crossing_lengthens_cupless_diagram_iff_its_strands_start_in_order():
    # the engine's closed-form test for a crossing stacked on a cupless d
    for d in _small_diagrams(10):
        if d.cup_pairs():
            continue
        for r in range(1, d.n):
            loops, d2 = compose_oracle(elem_cross(d.n, r), d)
            assert loops == 0
            longer = count_inversions(through_perm(d2)) > count_inversions(through_perm(d))
            assert longer == (d.match[d.m + r - 1] < d.match[d.m + r]), (d, r)


def test_cap_block_lands_literally_iff_every_cap_starts_right_of_its_foot():
    # a closed form of literal landing for a cap whose right strand crosses
    # over t middle strands, stacked on a cupless d with identity permutation
    # part; the engine pushes plain caps only (t = 0), on any cupless d, and
    # decides with cap_lands_literally, pinned below
    for d in _small_diagrams(10):
        if d.cup_pairs() or through_perm(d) != tuple(range(d.n)):
            continue
        for t in range(d.n - 1):
            for x in range(1, d.n - t):
                loops, d2 = compose_oracle(elem_cap_block(d.n - 2, t, x), d)
                assert loops == 0
                block = [("cross", x + k) for k in range(t, 0, -1)] + [("cap", x)]
                literal = standard_letters(d) + block == standard_letters(d2)
                foot = d.through_pairs()[x - 1][0]
                assert literal == all(i > foot for i, _ in d.cap_pairs()), (d, t, x)


def test_cap_lands_literally_iff_the_standard_word_grows_by_the_cap():
    # the engine's closed-form test for a plain cap stacked on a cupless d
    cases = 0
    for d in _small_diagrams(10):
        if d.cup_pairs():
            continue
        for r in range(1, d.n):
            loops, d2 = compose_oracle(elem_cap(d.n - 2, r), d)
            assert loops == 0
            literal = standard_letters(d2) == standard_letters(d) + [("cap", r)]
            assert cap_lands_literally(d, r) == literal, (d, r)
            cases += 1
    assert cases == 3968


def test_literal_landings_equal_the_oracle():
    # each builder against compose_oracle of its elementary diagram, at every
    # legal position; remove_top_pair undoes the cup block of any top pair
    cases = []
    for d in _small_diagrams(8):
        for s in range(d.n + 1):
            for a in range(1, d.n - s + 2):
                cases.append((stack_cup_block(d, s, a), elem_cup_block(d.n, s, a), d))
        for i, j in d.cup_pairs():
            assert stack_cup_block(remove_top_pair(d, i, j), j - i - 1, i) == d
        if not d.cup_pairs():
            for r in range(1, d.n):
                cases.append((stack_cross(d, r), elem_cross(d.n, r), d))
                cases.append((stack_cap(d, r), elem_cap(d.n - 2, r), d))
    for built, elem, d in cases:
        assert compose_oracle(elem, d) == (0, built), (elem, d)
    assert len(cases) == 19317
