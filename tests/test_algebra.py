import dataclasses
import hashlib
import json
import random

import pytest

from brauercalc import algebra, rewrite
from brauercalc.algebra import (
    AlgebraError,
    MultTable,
    UnknownPreset,
    WidthTooSmall,
    check_presentation,
    gens,
    gens_inverse,
    mult_table,
)
from brauercalc.coeff import InexactDivision, LaurentPoly, lp_int, lp_parse
from brauercalc.diagram import (
    double_factorial,
    enumerate_diagrams,
    identity_diagram,
    standard_letters,
)
from brauercalc.params import PRESETS, preset
from brauercalc.rewrite import (
    FuelExhausted,
    InconsistentParams,
    nf_compose,
    nf_from_diagram,
    normalize,
)
from brauercalc.term import GenWord, Letter, cap, cross, word


BWM = preset("bwm")
PERI_Q = preset("periplectic_q")
BRAUER = preset("brauer")


def test_gens_shapes_and_width_guard():
    g, e = gens(3, BWM)
    assert len(g) == len(e) == 2
    for nf in g + e:
        assert (nf.m, nf.n) == (3, 3)
    with pytest.raises(WidthTooSmall):
        gens(1, BWM)
    with pytest.raises(InconsistentParams):
        gens(3, dataclasses.replace(BWM, rho=lp_parse("v")))


def test_gens_inverse_inverts():
    g, _ = gens(4, BWM)
    ginv = gens_inverse(4, BWM)
    ident = nf_from_diagram(identity_diagram(4), BWM)
    for x, y in zip(g, ginv):
        assert nf_compose(x, y).terms == ident.terms
        assert nf_compose(y, x).terms == ident.terms


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_table_dimensions(n):
    table = mult_table(n, BRAUER)
    size = double_factorial(2 * n - 1)
    assert [1, 3, 15, 105][n - 1] == size
    assert len(table.basis) == size
    assert len(table.products) == size
    assert all(len(row) == size for row in table.products)


def test_table_bound_and_override():
    with pytest.raises(AlgebraError):
        mult_table(5, BRAUER)
    # the override path at least starts (n=4 under a raised bound)
    table = mult_table(4, BRAUER, bound=5)
    assert table.n == 4


def test_identity_is_a_two_sided_unit():
    table = mult_table(3, BWM)
    unit = table.basis.index(identity_diagram(3))
    for i, d in enumerate(table.basis):
        assert table.products[unit][i].terms == {d: lp_int(1)}
        assert table.products[i][unit].terms == {d: lp_int(1)}


def test_table_products_are_associative_randomly():
    table = mult_table(3, BWM)
    nfs = [nf_from_diagram(d, BWM) for d in table.basis]
    rng = random.Random(2024)
    size = len(table.basis)
    for _ in range(500):
        i, j, k = (rng.randrange(size) for _ in range(3))
        left = nf_compose(table.products[i][j], nfs[k])
        right = nf_compose(nfs[i], table.products[j][k])
        assert left.terms == right.terms


def test_e_squared_values():
    _, e = gens(3, BWM)
    sq = nf_compose(e[0], e[0])
    assert sq.terms == e[0].scale(BWM.delta).terms

    gq, eq = gens(3, PERI_Q)
    assert nf_compose(eq[0], eq[0]).is_zero()
    assert nf_compose(gq[0], eq[0]).terms == eq[0].scale(lp_parse("q")).terms
    assert nf_compose(eq[0], gq[0]).terms == eq[0].scale(lp_parse("-q^-1")).terms


def test_signed_jones_relation():
    _, e = gens(3, PERI_Q)
    prod = nf_compose(nf_compose(e[0], e[1]), e[0])
    assert prod.terms == e[0].scale(lp_int(-1)).terms


@pytest.mark.parametrize("n", [3, 4])
@pytest.mark.parametrize("name", ["bwm", "periplectic_q"])
def test_presentations_hold(name, n):
    assert check_presentation(name, n) == []


def test_unknown_preset_and_bad_n():
    with pytest.raises(UnknownPreset):
        check_presentation("brauer", 3)
    with pytest.raises(AlgebraError):
        check_presentation("bwm", 5)
    with pytest.raises(AlgebraError):
        mult_table(-1, BWM)


def test_corrupted_rho_fails_the_expected_relation():
    bad = dataclasses.replace(BWM, rho=lp_parse("v"))
    failed = check_presentation("bwm", 3, params=bad)
    assert "e_1 g_2 e_1 = v^-1 e_1" in failed


# sha256 of the ordered labels, "\n"-joined, each taken when every relation
# was written out twice: once as its label, once as the lists it checked
LABEL_DIGESTS = {
    ("bwm", 3): "70ac808a49975d8efe73a711f87aa14094809b0120b99b010d05aeffcd9728ff",
    ("bwm", 4): "6b74d3c9c5adeba3e3dc19bd60de122b188c3b9ec810db157133692a93460191",
    ("periplectic_q", 3): "6342ca102b578badb5715e5acc7e9154eea5bfcebfd759021b742614ca5bcd7f",
    ("periplectic_q", 4): "a413a6b43b43af8deb742e2b54d47f8a82dc98474663f9276542c1a99ac9c519",
}

# sha256 of json.dumps({field: check_presentation(name, n, that field + 1)})
# over the record's Laurent fields, taken at the same time
MUTATION_DIGESTS = {
    ("bwm", 3): "64d18e8718c184753d3900596c3824b7fa4f8e6899418b9f5185252e33b5a45e",
    ("bwm", 4): "856ee69adaf3e91153bbec5cf0c7e69aedab054aa809f261a71ceae90edfb282",
    ("periplectic_q", 3): "633fb2bb2ad006889be3de9d705b1f57e09661c645fd914aebe77cb2d28bec4e",
    ("periplectic_q", 4): "36c10af21af476d7c1b334eb67025ea7d355504afb2239c4c3fdcc19915773ba",
}


def _digest(data) -> str:
    return hashlib.sha256(data.encode()).hexdigest()


@pytest.mark.parametrize("name, n", sorted(LABEL_DIGESTS))
def test_relation_labels_are_pinned(name, n):
    labels = list(algebra._relations(algebra._PRESENTATIONS[name], n))
    assert _digest("\n".join(labels)) == LABEL_DIGESTS[name, n]


# The relations that bwm with lam + 1 fails.  The crossing's inverse divides
# by lam, so no relation naming g_k^-1 can be evaluated, and each fails; the
# others fail as they compute.
BWM_LAM_PLUS_1_FAILS = {
    3: [
        "(g_1 - g_1^-1) = z(1 - e_1)", "g_1 e_1 = v e_1",
        "(g_2 - g_2^-1) = z(1 - e_2)", "g_2 e_2 = v e_2",
        "g_2 g_1 e_2 = e_1 e_2", "e_2 g_1 e_2 = v^-1 e_2",
    ],
    4: [
        "(g_1 - g_1^-1) = z(1 - e_1)", "g_1 e_1 = v e_1",
        "(g_2 - g_2^-1) = z(1 - e_2)", "g_2 e_2 = v e_2",
        "(g_3 - g_3^-1) = z(1 - e_3)", "g_3 e_3 = v e_3",
        "g_2 g_1 e_2 = e_1 e_2", "e_2 g_1 e_2 = v^-1 e_2",
        "g_3 g_2 e_3 = e_2 e_3", "e_3 g_2 e_3 = v^-1 e_3",
    ],
}


@pytest.mark.parametrize("n", [3, 4])
def test_a_relation_whose_side_cannot_be_evaluated_fails(n):
    # under_cross raises InexactDivision for this record; check_presentation
    # reports the relations that need it instead of raising
    bad = dataclasses.replace(BWM, lam=BWM.lam + lp_int(1))
    with pytest.raises(InexactDivision):
        gens_inverse(n, bad, check=False)
    assert check_presentation("bwm", n, params=bad) == BWM_LAM_PLUS_1_FAILS[n]


@pytest.mark.parametrize("name, n", sorted(MUTATION_DIGESTS))
def test_each_field_mutation_fails_the_pinned_relations(name, n):
    p = preset(name)
    failed = {}
    for f in dataclasses.fields(p):
        value = getattr(p, f.name)
        if isinstance(value, LaurentPoly):
            bad = dataclasses.replace(p, **{f.name: value + lp_int(1)})
            failed[f.name] = check_presentation(name, n, params=bad)
    if name == "bwm":
        # the digests were taken when bwm with lam + 1 raised
        # InexactDivision, recorded as that name; its failures are pinned
        # label by label above
        assert failed["lam"] == BWM_LAM_PLUS_1_FAILS[n]
        failed["lam"] = "InexactDivision"
    assert _digest(json.dumps(failed)) == MUTATION_DIGESTS[name, n]


@pytest.mark.parametrize("name, n", sorted(LABEL_DIGESTS))
def test_no_side_reads_a_generator_as_a_variable(name, n):
    p = preset(name)
    for label in algebra._relations(algebra._PRESENTATIONS[name], n):
        for side in label.split("="):
            nf = algebra._Reader(side, n, p).read()
            for c in nf.terms.values():
                assert not {v for v in c.variables() if v[:2] in ("g_", "e_")}, label


def test_a_wrong_row_is_reported(monkeypatch):
    rows = algebra._PRESENTATIONS["bwm"] + ("e_i g_i = v^-1 e_i",)
    monkeypatch.setitem(algebra._PRESENTATIONS, "bwm", rows)
    assert check_presentation("bwm", 3) == ["e_1 g_1 = v^-1 e_1", "e_2 g_2 = v^-1 e_2"]


def test_table_json_is_serializable():
    import json

    table = mult_table(2, BRAUER)
    data = table.to_json()
    json.dumps(data)
    assert data["n"] == 2 and len(data["products"]) == 3


def test_an_inconsistent_record_is_refused():
    bad = dataclasses.replace(BWM, a=BWM.a + lp_int(1))
    with pytest.raises(InconsistentParams):
        mult_table(2, bad)


# sha256 of json.dumps(mult_table(4, p).to_json()), each taken when every
# product was still one nf_compose call
TABLE_DIGESTS = {
    "brauer": "85dcaf6cbbab3bf6fd6af9f64c0f82fd4f2dfcd3f97d08697c570e529d4c4c02",
    "bwm": "344c3ad506c81b1326dcd3a96aec441dc85f1fdc889e096922afaa7b07d0f7cd",
    "periplectic": "d89b7e1d560d67db5cb9759b0106f44c0843ccc77e2063d7c16acfbfeb0b5731",
    "periplectic_q": "448b3ad5865420fc3ffbcd559206d4e8d7be23f44a6487e3b7f88bb7034a3b73",
    "periplectic_q_op": "2defb0d6261fcc0351b204869a456a46bf6e46d78b9d94cd27e93cda573866a6",
}


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_end4_tables_are_pinned(name):
    data = json.dumps(mult_table(4, preset(name)).to_json())
    assert hashlib.sha256(data.encode()).hexdigest() == TABLE_DIGESTS[name]


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_end3_products_are_normal_forms_of_concatenated_words(name):
    # x y is the word of y followed by the word of x, normalized letter by
    # letter: no shared prefixes, no push_words
    p = preset(name)
    table = mult_table(3, p)
    for x, row in zip(table.basis, table.products):
        for y, nf in zip(table.basis, row):
            letters = standard_letters(y) + standard_letters(x)
            w = GenWord(3, tuple(Letter(k, pos) for k, pos in letters))
            assert nf.to_json() == normalize(w, p).to_json(), (x, y)


def test_a_warm_table_pushes_each_shared_prefix_once(monkeypatch):
    # End(4)'s 105 standard words have 390 letters but 122 distinct
    # non-empty prefixes: a warm table makes one push_nf per prefix and
    # column, where pushing every word from scratch made 105 * 390
    mult_table(4, BWM)
    calls = []
    push_nf = rewrite._Engine.push_nf

    def counted(self, *args):
        calls.append(None)
        return push_nf(self, *args)

    monkeypatch.setattr(rewrite._Engine, "push_nf", counted)
    mult_table(4, BWM)
    assert len(calls) == 105 * 122


def _memo_size():
    """Keys in every memo of the engine registry.  Each memo miss spends one
    step and stores one key, so after one call on a cold registry this is
    the call's spend."""
    return sum(len(m.cache) for m in rewrite._ENGINES.values())


def test_a_table_runs_on_one_budget(monkeypatch):
    # a cold table spends `spent` steps in all; a budget of that many runs
    # out on the last step, one more suffices
    monkeypatch.setattr(rewrite, "_ENGINES", {})
    mult_table(3, BWM)
    spent = _memo_size()
    monkeypatch.setattr(rewrite, "_ENGINES", {})
    monkeypatch.setattr(rewrite, "DEFAULT_FUEL", spent)
    with pytest.raises(FuelExhausted):
        mult_table(3, BWM)
    monkeypatch.setattr(rewrite, "_ENGINES", {})
    monkeypatch.setattr(rewrite, "DEFAULT_FUEL", spent + 1)
    mult_table(3, BWM)


def test_a_call_between_two_yields_leaves_the_walk_budget(monkeypatch):
    # a cold End(3) walk spends `spent` steps; a normalize made between two
    # of its yields gets a budget of its own, so a budget of exactly `spent`
    # still runs out on the walk's last step
    basis = list(enumerate_diagrams(3, 3))
    monkeypatch.setattr(rewrite, "_ENGINES", {})
    list(rewrite.basis_products(basis, BWM))
    spent = _memo_size()
    monkeypatch.setattr(rewrite, "_ENGINES", {})
    monkeypatch.setattr(rewrite, "DEFAULT_FUEL", spent)
    with pytest.raises(FuelExhausted):
        for count, _ in enumerate(rewrite.basis_products(basis, BWM)):
            if count == 20:
                # another record's engine: the walk's memo stays cold
                normalize(word(3, [cross(1), cap(2)]), BRAUER)


def test_products_share_no_dict():
    table = mult_table(3, BWM)
    before = [[nf.to_json() for nf in row] for row in table.products]
    unit = table.basis.index(identity_diagram(3))
    # the unit's standard word is empty: its products are the other factor
    table.products[unit][0].terms.clear()
    table.products[4][7].terms.clear()
    for i, row in enumerate(table.products):
        for j, nf in enumerate(row):
            if (i, j) not in ((unit, 0), (4, 7)):
                assert nf.to_json() == before[i][j], (i, j)
    g, _ = gens(3, BWM)
    unit_nf = nf_from_diagram(identity_diagram(3), BWM)
    for x, y in ((unit_nf, g[0]), (g[0], unit_nf)):
        kept = dict(y.terms)
        nf_compose(x, y).terms.clear()
        assert y.terms == kept
