import dataclasses
import hashlib
import itertools
import json
import random
import sys

import pytest

from brauercalc import diagram, rewrite
from brauercalc.algebra import mult_table
from brauercalc.coeff import lp_int, lp_parse, lp_str
from brauercalc.diagram import (
    compose_oracle,
    enumerate_diagrams,
    from_pairs,
    identity_diagram,
    standard_letters,
    tensor_oracle,
)
from brauercalc.params import LAURENT_FIELDS, PRESETS, preset, vflip_params
from brauercalc.rewrite import (
    FuelExhausted,
    InconsistentParams,
    NormalForm,
    ParamsMismatch,
    WidthMismatch,
    basis_products,
    check_local_confluence,
    nf_compose,
    nf_from_diagram,
    nf_tensor,
    normalize,
    under_cross,
)
from brauercalc.term import (
    CAP,
    CROSS,
    CUP,
    WIDTH_CHANGE,
    GenWord,
    Letter,
    cap,
    cross,
    cup,
    word,
)


BRAUER = preset("brauer")
BWM = preset("bwm")
PERI = preset("periplectic")
PERI_Q = preset("periplectic_q")


def terms_of(w, p):
    return normalize(w, p).terms


def single(pairs, m, n):
    return from_pairs(m, n, pairs)


# ---------------------------------------------------------------------------
# Frozen small examples


def test_closed_loop_is_delta():
    nf = normalize(word(0, [cup(1), cap(1)]), BRAUER)
    assert nf.terms == {identity_diagram(0): lp_parse("delta")}


def test_straightening_zigzag():
    nf = normalize(word(1, [cup(2), cap(1)]), BRAUER)
    assert nf.terms == {identity_diagram(1): lp_int(1)}  # sig = 1 here


def test_upside_down_zigzag_periplectic_sign():
    nf = normalize(word(1, [cup(1), cap(2)]), PERI)
    assert nf.terms == {identity_diagram(1): lp_int(-1)}


def test_untwisting_a_curl_on_a_cup():
    # crossing directly on a cup contributes the twist scalar
    nf = normalize(word(0, [cup(1), cross(1)]), BWM)
    cup_diag = single([(0, 1)], 0, 2)
    assert nf.terms == {cup_diag: lp_parse("v")}


def test_delooping_curl():
    nf = normalize(word(1, [cup(1), cross(2), cap(1)]), BWM)
    assert nf.terms == {identity_diagram(1): lp_parse("v^-1")}


def test_sliding_instance():
    # crossing under a cup's left leg, quantum periplectic coefficients
    nf = normalize(word(1, [cup(2), cross(1)]), PERI_Q)
    crossed = single([(1, 3), (0, 2)], 1, 3)
    plain = single([(2, 3), (0, 1)], 1, 3)
    assert nf.terms == {crossed: lp_int(1), plain: lp_parse("q - q^-1")}


def test_two_decompositions_of_one_diagram_agree():
    lhs = normalize(word(6, [cross(2), cap(1), cap(1), cross(1)]), BRAUER)
    rhs = normalize(word(6, [cross(5), cross(3), cap(2), cap(1)]), BRAUER)
    assert lhs.terms == rhs.terms
    assert len(lhs.terms) == 1
    [(d, c)] = lhs.terms.items()
    assert c == lp_int(1)


# ---------------------------------------------------------------------------
# Basis round trip and oracle agreement


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_standard_words_normalize_to_themselves(name):
    p = preset(name)
    for m in range(0, 7):
        for n in range(0, 7 - m):
            if (m - n) % 2:
                continue
            for d in enumerate_diagrams(m, n):
                letters = tuple(Letter(k, pos) for k, pos in standard_letters(d))
                nf = normalize(GenWord(m, letters), p)
                assert nf.terms == {d: lp_int(1)}, d


def test_composition_matches_loop_counting_oracle():
    delta = lp_parse("delta")
    for x in enumerate_diagrams(2, 2):
        for y in enumerate_diagrams(4, 2):
            loops, z = compose_oracle(x, y)
            nf = nf_compose(nf_from_diagram(x, BRAUER), nf_from_diagram(y, BRAUER))
            assert nf.terms == {z: delta ** loops}


def test_tensor_matches_oracle():
    small = [
        d for m in range(5) for n in range(m % 2, 5 - m, 2)
        for d in enumerate_diagrams(m, n)
    ]
    for x in small:
        for y in small:
            nf = nf_tensor(nf_from_diagram(x, BRAUER), nf_from_diagram(y, BRAUER))
            assert nf.terms == {tensor_oracle(x, y): lp_int(1)}, (x, y)


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_push_words_agrees_with_push_letters(name):
    # words sharing prefixes, one a prefix of another, a repeat and the
    # empty word, each pushed onto a two-term start
    eng = rewrite._Engine(preset(name))
    words = [standard_letters(d) for d in enumerate_diagrams(3, 3)]
    words += [words[5][:2], list(words[5]), []]
    start = normalize(word(3, [cross(1)]), preset(name)).terms
    kept = dict(start)
    pushed = eng.push_words(words, start)
    assert pushed == [eng.push_letters(w, start) for w in words]
    assert start == kept
    assert len({id(terms) for terms in pushed + [start]}) == len(words) + 1


def test_the_engine_never_calls_the_oracle(monkeypatch):
    # the engine builds literal landings from the matching, so checks
    # against compose_oracle stay independent of it; cold engines, so that
    # every push is worked out here
    def oracle(*args):
        raise AssertionError("the engine called compose_oracle")

    monkeypatch.setattr(diagram, "compose_oracle", oracle)
    monkeypatch.setattr(rewrite, "compose_oracle", oracle)
    monkeypatch.setattr(rewrite, "_ENGINES", {})
    words = [
        GenWord(d.m, tuple(Letter(k, pos) for k, pos in standard_letters(d)))
        for total in range(0, 9, 2)
        for m in range(total + 1)
        for d in enumerate_diagrams(m, total - m)
    ]
    assert len(words) == 1069
    for name in PRESETS:
        p = preset(name)
        for w in words:
            normalize(w, p)
        mult_table(3, p)
        check_local_confluence(p, 4, 3)


# ---------------------------------------------------------------------------
# Crossing inverse and skein identities


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_under_crossing_is_inverse(name):
    p = preset(name)
    g = normalize(word(2, [cross(1)]), p)
    u = under_cross(p)
    id2 = nf_from_diagram(identity_diagram(2), p)
    assert nf_compose(g, u).terms == id2.terms
    assert nf_compose(u, g).terms == id2.terms


def test_kauffman_skein_difference():
    g = normalize(word(2, [cross(1)]), BWM)
    diff = g - under_cross(BWM)
    id2 = identity_diagram(2)
    cupcap = single([(0, 1), (2, 3)], 2, 2)
    assert diff.terms == {id2: lp_parse("z"), cupcap: lp_parse("-z")}


def test_quantum_periplectic_skein_difference():
    g = normalize(word(2, [cross(1)]), PERI_Q)
    diff = g - under_cross(PERI_Q)
    assert diff.terms == {identity_diagram(2): lp_parse("q - q^-1")}


# ---------------------------------------------------------------------------
# Random words: associativity, interchange, composition consistency


def random_word(rng, max_width=4, max_letters=5):
    domain = rng.choice([w for w in range(max_width + 1)])
    width = domain
    letters = []
    for _ in range(rng.randrange(max_letters + 1)):
        options = [("cross", r) for r in range(1, width)]
        options += [("cap", r) for r in range(1, width)]
        if width + 2 <= max_width + 2:
            options += [("cup", r) for r in range(1, width + 2)]
        if not options:
            break
        kind, pos = rng.choice(options)
        letters.append(Letter(kind, pos))
        width += 2 if kind == "cup" else -2 if kind == "cap" else 0
    return GenWord(domain, tuple(letters))


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_normalize_agrees_with_nf_compose_split(name):
    p = preset(name)
    rng = random.Random(20260823)
    for _ in range(60):
        w = random_word(rng)
        if not w.letters:
            continue
        cut = rng.randrange(1, len(w.letters) + 1)
        lower = GenWord(w.domain, w.letters[:cut])
        upper = GenWord(lower.codomain, tuple(l for l in w.letters[cut:]))
        whole = normalize(w, p)
        split = nf_compose(normalize(upper, p), normalize(lower, p))
        assert whole.terms == split.terms


def test_composition_is_associative():
    rng = random.Random(7)
    for _ in range(40):
        w1 = random_word(rng, max_width=3, max_letters=3)
        x = normalize(w1, BWM)
        w2 = random_word(rng, max_width=3, max_letters=3)
        y = normalize(w2, BWM)
        w3 = random_word(rng, max_width=3, max_letters=3)
        z = normalize(w3, BWM)
        if x.m != y.n or y.m != z.n:
            continue
        left = nf_compose(nf_compose(x, y), z)
        right = nf_compose(x, nf_compose(y, z))
        assert left.terms == right.terms


def test_tensor_compose_interchange():
    rng = random.Random(11)
    for _ in range(40):
        x1 = normalize(random_word(rng, 3, 3), PERI_Q)
        x2 = normalize(random_word(rng, 3, 3), PERI_Q)
        y1 = normalize(random_word(rng, 3, 3), PERI_Q)
        y2 = normalize(random_word(rng, 3, 3), PERI_Q)
        if x1.m != x2.n or y1.m != y2.n:
            continue
        lhs = nf_compose(nf_tensor(x1, y1), nf_tensor(x2, y2))
        rhs = nf_tensor(nf_compose(x1, x2), nf_compose(y1, y2))
        # signed interchange: odd-past-odd costs a sign
        if ((y1.m - y1.n) // 2) % 2 and ((x2.m - x2.n) // 2) % 2:
            rhs = rhs.scale(lp_int(-1))
        assert lhs.terms == rhs.terms


# ---------------------------------------------------------------------------
# Local confluence


def test_local_confluence_small_sweep():
    assert check_local_confluence(BWM, max_width=4, max_letters=3) == []


@pytest.mark.parametrize("field", LAURENT_FIELDS)
@pytest.mark.parametrize("name", ["bwm", "periplectic_q"])
def test_local_confluence_detects_corruption(name, field):
    # every one of the nineteen Laurent fields enters some relation, so
    # adding 1 to it breaks confluence within width 4 and three letters
    base = preset(name)
    bad = dataclasses.replace(base, **{field: getattr(base, field) + lp_int(1)})
    fails = check_local_confluence(bad, max_width=4, max_letters=3)
    assert fails
    gw, diff = fails[0]
    assert not diff.is_zero()
    assert _as_json(fails) == _as_json(_reference_sweep(bad, 4, 3))


def _sweep_words(max_width, max_letters):
    """The (domain, letters) words check_local_confluence visits, in order."""

    def walk(domain, letters, width):
        yield domain, letters
        if len(letters) >= max_letters:
            return
        candidates = [(CROSS, r) for r in range(1, width)]
        candidates += [(CAP, r) for r in range(1, width)]
        if width + 2 <= max_width:
            candidates += [(CUP, r) for r in range(1, width + 2)]
        for kind, pos in candidates:
            yield from walk(domain, letters + ((kind, pos),), width + WIDTH_CHANGE[kind])

    for domain in range(max_width + 1):
        yield from walk(domain, (), domain)


def _reference_sweep(p, max_width, max_letters):
    """check_local_confluence from its definition: for every word and every
    step on the whole word, each rewritten word normalized from the
    identity and the sum compared with the word's own normal form."""

    def as_word(domain, letters):
        return GenWord(domain, tuple(Letter(k, pos) for k, pos in letters))

    failures = []
    for domain, letters in _sweep_words(max_width, max_letters):
        gw = as_word(domain, letters)
        lhs = rewrite._normalize_unchecked(gw, p)
        for _, h, span, rhs in rewrite._relation_steps(p, letters):
            other = NormalForm(lhs.m, lhs.n, {}, p)
            for coeff, repl in rhs:
                rewritten = as_word(domain, letters[:h] + tuple(repl) + letters[h + span :])
                other = other + rewrite._normalize_unchecked(rewritten, p).scale(coeff)
            if other.terms != lhs.terms:
                failures.append((gw, lhs - other))
    return failures


def _as_json(failures):
    return [(gw, diff.to_json()) for gw, diff in failures]


@pytest.mark.parametrize("p, max_letters, count", [
    (dataclasses.replace(BRAUER, epsilon=-1), 3, 3),
    (dataclasses.replace(BWM, a=BWM.a + lp_int(1)), 4, 243),
])
def test_local_confluence_matches_the_reference_sweep(p, max_letters, count):
    fails = check_local_confluence(p, max_width=4, max_letters=max_letters)
    assert len(fails) == count
    assert _as_json(fails) == _as_json(_reference_sweep(p, 4, max_letters))


def test_a_warm_sweep_checks_each_window_once(monkeypatch):
    # each relation window is checked at the word whose top letter ends it;
    # re-checking every window of every word made 19,109 push_nf calls
    check_local_confluence(BWM, max_width=4, max_letters=4)
    calls = []
    push_nf = rewrite._Engine.push_nf

    def counted(self, *args):
        calls.append(None)
        return push_nf(self, *args)

    monkeypatch.setattr(rewrite._Engine, "push_nf", counted)
    assert check_local_confluence(BWM, max_width=4, max_letters=4) == []
    assert len(calls) <= 6004


def test_relation_steps_and_swaps_are_pinned():
    # digests taken before the relations became a table: every step of the
    # 6/4 sweep under bwm and periplectic_q (65,900 words), and the new
    # letters of every swap of two letters at positions up to 11
    steps = hashlib.sha256()
    count = 0
    for name in ("bwm", "periplectic_q"):
        p = preset(name)
        for _, letters in _sweep_words(6, 4):
            count += 1
            for label, h, span, rhs in rewrite._relation_steps(p, letters):
                terms = [[lp_str(c), [list(l) for l in repl]] for c, repl in rhs]
                steps.update((json.dumps([label, h, span, terms]) + "\n").encode())
    assert count == 65900
    assert steps.hexdigest() == (
        "e0375e90c4c3a364952b8bb6b1630c2737e7edb32a38e202470934cc865d16b7"
    )
    swaps = hashlib.sha256()
    for g, u in itertools.product(
        [(kind, pos) for kind in (CROSS, CAP, CUP) for pos in range(1, 12)], repeat=2
    ):
        new = rewrite._swap_step(g, u)
        new = None if new is None else [list(l) for l in new]
        swaps.update((json.dumps([list(g), list(u), new]) + "\n").encode())
    assert swaps.hexdigest() == (
        "dfe9c3db703a54786c5009692764a19277a993f6842312dd59d3815837f2b5c4"
    )


def test_caps_pushed_on_cupless_diagrams_are_pinned():
    # every cap at every position on every cupless diagram with m+n <= 8
    # (1,848 pushes), under each preset and a record that breaks confluence;
    # one by one, these values are checked nowhere else
    records = [preset(name) for name in PRESETS]
    records.append(dataclasses.replace(BWM, a=BWM.a + lp_int(1)))
    lines = []
    for p in records:
        eng = rewrite._Engine(p)
        # each line names its record by the sha1 of the record's JSON
        tag = hashlib.sha1(json.dumps(p.to_json(), sort_keys=True).encode()).hexdigest()
        for total in range(2, 9, 2):
            for m in range(total + 1):
                for d in enumerate_diagrams(m, total - m):
                    if d.cup_pairs():
                        continue
                    for r in range(1, d.n):
                        terms = eng.push(CAP, r, d)
                        nf = NormalForm(d.m, d.n - 2, dict(terms), p)
                        lines.append(json.dumps([tag, d.pairs(), r, nf.to_json()]))
    assert len(lines) == 1848
    digest = hashlib.sha256("\n".join(sorted(lines)).encode()).hexdigest()
    assert digest == (
        "99d8ff6ee81222d27b565dfb31d41e6393eb83ec527fc7e43ddbe4b0b8d29437"
    )


# every Laurent field its own variable, so that no two fields agree
GENERIC = dataclasses.replace(BWM, **{f: lp_parse(f) for f in LAURENT_FIELDS})

# for each relation row the engine applies, a word whose last letter fires it
_FIRING = {
    "twisting": word(2, [cross(1), cross(1)]),
    "untwisting": word(0, [cup(1), cross(1)]),
    "sliding": word(1, [cup(2), cross(1)]),
    "pulling": word(1, [cup(1), cross(2), cross(1)]),
    "looping": word(0, [cup(1), cap(1)]),
    "straightening": word(1, [cup(2), cap(1)]),
    "delooping": word(1, [cup(1), cross(2), cap(1)]),
    "ud-straightening": word(1, [cup(1), cap(2)]),
    "ud-sliding": word(2, [cup(1), cross(2), cap(3)]),
    "ud-untwisting": word(1, [cup(1), cross(2), cap(2)]),
    "ud-pulling": word(2, [cup(1), cross(2), cross(3), cap(2)]),
}


@pytest.mark.parametrize("label", sorted(_FIRING))
def test_the_engine_applies_the_relation_table(monkeypatch, label):
    # corrupt the row's right-hand side in the table the engine reads: its
    # fields rotated one place, or a lone field replaced by 1 (None); on a
    # cold registry the word's normal form must change
    rhs = rewrite._BY_LABEL[label]
    fields = [field for field, _ in rhs]
    fields = fields[1:] + fields[:1] if len(fields) > 1 else [None]
    corrupted = tuple(zip(fields, [repl for _, repl in rhs]))
    w = _FIRING[label]
    monkeypatch.setattr(rewrite, "_ENGINES", {})
    before = rewrite._normalize_unchecked(w, GENERIC).to_json()
    monkeypatch.setitem(rewrite._BY_LABEL, label, corrupted)
    monkeypatch.setattr(rewrite, "_ENGINES", {})
    assert rewrite._normalize_unchecked(w, GENERIC).to_json() != before


def test_a_generic_sweep_applies_every_row_but_the_braids(monkeypatch):
    # a cold 4/4 sweep reaches every relation case of the engine; the two
    # braid rows are only checked by the sweep, never applied
    applied = set()
    apply = rewrite._Engine._apply

    def recorded(self, label, *args, **kwargs):
        applied.add(label)
        return apply(self, label, *args, **kwargs)

    monkeypatch.setattr(rewrite._Engine, "_apply", recorded)
    monkeypatch.setattr(rewrite, "_ENGINES", {})
    check_local_confluence(GENERIC, max_width=4, max_letters=4)
    assert applied == set(_FIRING)
    assert applied == {label for label, _, _ in rewrite._RELATIONS} - {"braid", "braid-rev"}


# ---------------------------------------------------------------------------
# Error paths and serialization


def test_local_confluence_with_negative_letter_count_stops():
    # no word is shorter than a negative bound: nothing is checked
    assert check_local_confluence(BWM, max_width=2, max_letters=-3) == []


def test_push_generator_matches_normalize():
    # the engine's push of one letter on one diagram, against nf_compose
    d = single([(1, 2), (0, 3)], 2, 2)
    terms = rewrite._Engine(BWM).push("cross", 1, d)
    base = nf_from_diagram(d, BWM)
    g = normalize(word(2, [cross(1)]), BWM)
    assert terms == nf_compose(g, base).terms


def test_inconsistent_params_rejected():
    bad = dataclasses.replace(BWM, rho=BWM.rho + lp_int(1))
    with pytest.raises(InconsistentParams):
        normalize(word(2, [cross(1)]), bad)


def test_compose_width_and_params_mismatch():
    x = normalize(word(2, [cross(1)]), BWM)
    y = normalize(word(4, [cross(2)]), BWM)
    with pytest.raises(WidthMismatch):
        nf_compose(x, y)
    z = normalize(word(2, [cross(1)]), BRAUER)
    with pytest.raises(ParamsMismatch):
        nf_compose(x, z)
    with pytest.raises(ParamsMismatch):
        x + z
    mixed = [identity_diagram(2), single([(0, 1)], 2, 0)]
    with pytest.raises(WidthMismatch):
        next(basis_products(mixed, BWM))


def test_fuel_exhaustion_reported(monkeypatch):
    # an empty engine registry, so the memo is cold and the budget is spent
    monkeypatch.setattr(rewrite, "_ENGINES", {})
    monkeypatch.setattr(rewrite, "DEFAULT_FUEL", 3)
    w = word(4, [cup(1), cross(2), cross(3), cap(2), cap(1), cup(2), cross(1)])
    with pytest.raises(FuelExhausted) as info:
        normalize(w, BWM)
    # the message names the memo key it stopped on: kind, position, diagram
    msg = str(info.value)
    assert "step budget of 3 exhausted pushing" in msg
    assert "BrauerDiagram(" in msg


def test_a_flip_solve_spends_the_callers_budget(monkeypatch):
    # on a cold registry this word misses 3 keys in the record's memo and,
    # for the cap solved upside down, 2 in its flipped record's memo: all 5
    # steps come out of the normalize call's one budget
    p = preset("periplectic_q")
    w = word(3, [cross(2), cross(1), cap(1)])
    monkeypatch.setattr(rewrite, "_ENGINES", {})
    normalize(w, p)
    assert len(rewrite._ENGINES[p].cache) == 3
    assert len(rewrite._ENGINES[vflip_params(p)].cache) == 2
    monkeypatch.setattr(rewrite, "_ENGINES", {})
    monkeypatch.setattr(rewrite, "DEFAULT_FUEL", 5)
    with pytest.raises(FuelExhausted) as info:
        normalize(w, p)
    assert str(info.value).startswith("step budget of 5 exhausted pushing")
    monkeypatch.setattr(rewrite, "_ENGINES", {})
    monkeypatch.setattr(rewrite, "DEFAULT_FUEL", 6)
    normalize(w, p)


def test_fuel_exhaustion_names_the_budget_the_call_started_with(monkeypatch):
    # a cold End(3) walk spends 74 steps; its budget is set when the walk
    # starts, so raising DEFAULT_FUEL between two yields neither refills it
    # nor changes the size its error names
    basis = list(enumerate_diagrams(3, 3))
    monkeypatch.setattr(rewrite, "_ENGINES", {})
    monkeypatch.setattr(rewrite, "DEFAULT_FUEL", 74)
    walk = basis_products(basis, BWM)
    next(walk)
    monkeypatch.setattr(rewrite, "DEFAULT_FUEL", 10 ** 6)
    with pytest.raises(FuelExhausted) as info:
        list(walk)
    assert str(info.value).startswith("step budget of 74 exhausted pushing")


def test_a_word_too_deep_for_the_engine_raises_a_rewrite_error(monkeypatch):
    # 400 cups, each added at the right end, with a crossing at column 1 on
    # top: pushing it recurses once per cup, past Python's recursion limit,
    # long before the step budget runs out
    message = "recursion depth of %d exhausted" % sys.getrecursionlimit()
    cups = [cup(2 * k + 1) for k in range(400)]
    monkeypatch.setattr(rewrite, "_ENGINES", {})
    with pytest.raises(rewrite.RewriteError, match=message):
        normalize(word(0, cups + [cross(1)]), BWM)
    # the same push, reached through nf_compose
    monkeypatch.setattr(rewrite, "_ENGINES", {})
    below = normalize(word(0, cups), BWM)
    with pytest.raises(rewrite.RewriteError, match=message):
        nf_compose(normalize(word(800, [cross(1)]), BWM), below)


def test_normal_forms_survive_clearing_the_engine_registry():
    # the registry is the engine's only memory: emptying it changes no
    # normal form, record or consistency verdict
    words = [
        word(4, [cap(2), cross(1), cup(3)]),
        word(4, [cross(1), cross(2), cross(3), cap(1), cap(1)]),
        word(3, [cup(1), cross(2), cross(3), cap(2), cap(1), cup(2), cross(1)]),
        word(2, [cross(1), cross(1), cup(2), cross(3), cross(2), cap(1)]),
    ]
    before = {
        name: [normalize(w, preset(name)) for w in words] for name in PRESETS
    }
    rewrite._ENGINES.clear()
    for name in PRESETS:
        after = [normalize(w, preset(name)) for w in words]
        assert [nf.to_json() for nf in after] == [nf.to_json() for nf in before[name]]
        assert [nf.params for nf in after] == [nf.params for nf in before[name]]
    bad = dataclasses.replace(BWM, rho=BWM.rho + lp_int(1))
    for _ in range(2):
        with pytest.raises(InconsistentParams):
            normalize(words[0], bad)
        rewrite._ENGINES.clear()


def test_engine_registry_is_keyed_by_record_value():
    # the record's hash is computed once, when it is built: a changed copy
    # gets a fresh hash and its own engine, an equal rebuild shares one
    p = preset("bwm")
    changed = dataclasses.replace(p, a=p.a + lp_int(1))
    assert changed != p
    assert rewrite._engine(changed) is not rewrite._engine(p)
    assert rewrite._engine(preset("bwm")) is rewrite._engine(p)
    assert hash(preset("bwm")) == hash(p)


def nf_from_json(data, p):
    """The normal form whose to_json() is data, under the record p."""
    m, n = data["m"], data["n"]
    terms = {
        from_pairs(m, n, [tuple(pair) for pair in item["pairs"]]): lp_parse(item["coeff"])
        for item in data["terms"]
    }
    return NormalForm(m, n, terms, p)


def test_normal_form_json_round_trip():
    nf = normalize(word(2, [cross(1), cross(1)]), BWM)
    data = nf.to_json()
    assert data["m"] == data["n"] == 2
    back = nf_from_json(data, BWM)
    assert back.terms == nf.terms and (back.m, back.n) == (nf.m, nf.n)
    # terms are listed in a stable order
    assert data["terms"] == sorted(data["terms"], key=lambda t: t["pairs"])


def test_hom_sets_of_mixed_parity_are_empty():
    # no diagrams connect boundaries of odd total size; words cannot reach
    # such shapes, and the diagram layer agrees
    assert list(enumerate_diagrams(2, 1)) == []
