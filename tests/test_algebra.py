import dataclasses
import random

import pytest

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
from brauercalc.coeff import lp_int, lp_parse
from brauercalc.diagram import double_factorial, identity_diagram
from brauercalc.params import preset
from brauercalc.rewrite import nf_compose, nf_from_diagram


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


def test_table_json_is_serializable():
    import json

    table = mult_table(2, BRAUER)
    data = table.to_json()
    json.dumps(data)
    assert data["n"] == 2 and len(data["products"]) == 3
