"""
End-to-end acceptance checks: every guarantee the package makes, in one file.

All arithmetic is exact (Laurent polynomials over Gaussian rationals); no
check relies on floating point or on tolerances.
"""

import dataclasses
import random
import time

import pytest

from brauercalc.algebra import check_presentation, mult_table
from brauercalc.coeff import lp_int, lp_parse, lp_str
from brauercalc.diagram import (
    compose_oracle,
    double_factorial,
    enumerate_diagrams,
    identity_diagram,
    standard_letters,
)
from brauercalc.functors import RescaleSpec, hflip, hflip_params, rescale, vflip
from brauercalc.params import (
    FAMILIES,
    PRESETS,
    check_consistency,
    classify,
    family_instantiate,
    legal_unit_choices,
    preset,
    vflip_params,
    wenzl_feasibility,
)
from brauercalc.rewrite import (
    check_local_confluence,
    nf_compose,
    nf_from_diagram,
    nf_tensor,
    normalize,
    under_cross,
)
from brauercalc.term import GenWord, Letter, cross, word


DEPENDENT_FIELDS = (
    "rho", "a", "sig_p", "d", "d_p", "D", "D_p", "E", "E_p", "F", "F_p"
)


def parity(nf):
    """0 for an even morphism, 1 for an odd one (odd = odd cup/cap count)."""
    return ((nf.m - nf.n) // 2) % 2


def anchored_word(rng, domain, max_width=4, max_letters=4):
    """Random generator word starting at the given width, widths capped."""
    width = domain
    letters = []
    for _ in range(rng.randrange(max_letters + 1)):
        options = [("cross", r) for r in range(1, width)]
        options += [("cap", r) for r in range(1, width)]
        if width + 2 <= max_width:
            options += [("cup", r) for r in range(1, width + 2)]
        if not options:
            break
        kind, pos = rng.choice(options)
        letters.append(Letter(kind, pos))
        width += 2 if kind == "cup" else -2 if kind == "cap" else 0
    return GenWord(domain, tuple(letters))


def test_01_basis_round_trip_all_presets():
    started = time.monotonic()
    for name in sorted(PRESETS):
        p = preset(name)
        for m in range(0, 9):
            for n in range(0, 9 - m):
                if (m - n) % 2:
                    continue
                for d in enumerate_diagrams(m, n):
                    letters = tuple(Letter(k, pos) for k, pos in standard_letters(d))
                    nf = normalize(GenWord(m, letters), p)
                    assert nf.terms == {d: lp_int(1)}, (name, d)
    assert time.monotonic() - started < 60


def test_02_endomorphism_dimension_counts():
    expected = [1, 3, 15, 105]
    for n in range(1, 5):
        basis = list(enumerate_diagrams(n, n))
        assert len(basis) == expected[n - 1] == double_factorial(2 * n - 1)


def test_03_parameter_table_symbolic_consistency_and_mutation():
    started = time.monotonic()
    assert len(FAMILIES) == 13
    for family in FAMILIES:
        representative = None
        for eps in (1, -1):
            for e, ep in legal_unit_choices(family, eps):
                p = family_instantiate(family, eps, e, {}, e_prime=ep)
                assert check_consistency(p) == [], (family, eps, str(e), str(ep))
                representative = representative or p
        assert representative is not None
        for field in DEPENDENT_FIELDS:
            bad = dataclasses.replace(
                representative,
                **{field: getattr(representative, field) + lp_int(1)},
            )
            assert check_consistency(bad), (family, field)
        if family.endswith("_s"):
            # sig != 0: the straightening moves carry the sign epsilon
            flipped = dataclasses.replace(representative, epsilon=-representative.epsilon)
            assert check_consistency(flipped), family
    assert time.monotonic() - started < 10


def test_04_local_confluence_sweep_and_corruption():
    started = time.monotonic()
    for name in sorted(PRESETS):
        assert check_local_confluence(preset(name), max_width=6, max_letters=4) == []
    bwm = preset("bwm")
    corrupted = dataclasses.replace(bwm, a=bwm.a + lp_int(1))
    assert len(check_local_confluence(corrupted, max_width=4, max_letters=3)) >= 1
    assert time.monotonic() - started < 300


def test_05_bwm_presentation_and_kauffman_skein():
    bwm = preset("bwm")
    assert check_presentation("bwm", 3) == []
    assert check_presentation("bwm", 4) == []
    assert bwm.rho == lp_parse("v^-1")
    g = normalize(word(2, [cross(1)]), bwm)
    diff = g - under_cross(bwm)
    from brauercalc.diagram import from_pairs

    cupcap = from_pairs(2, 2, [(0, 1), (2, 3)])
    assert diff.terms == {identity_diagram(2): lp_parse("z"), cupcap: lp_parse("-z")}


def test_06_periplectic_q_presentation_and_classical_limit():
    assert check_presentation("periplectic_q", 3) == []
    assert check_presentation("periplectic_q", 4) == []
    q_one = {"q": lp_int(1)}
    quantum = mult_table(3, preset("periplectic_q"))
    classical = mult_table(3, preset("periplectic"))
    assert quantum.basis == classical.basis
    for row_q, row_c in zip(quantum.products, classical.products):
        for nf_q, nf_c in zip(row_q, row_c):
            specialized = {d: c.substitute(q_one) for d, c in nf_q.terms.items()}
            specialized = {d: c for d, c in specialized.items() if not c.is_zero()}
            assert specialized == nf_c.terms


def test_07_classical_oracle_equivalence():
    p = preset("brauer")
    delta = lp_parse("delta")
    basis = list(enumerate_diagrams(3, 3))
    assert len(basis) ** 2 == 225
    for x in basis:
        for y in basis:
            loops, z = compose_oracle(x, y)
            nf = nf_compose(nf_from_diagram(x, p), nf_from_diagram(y, p), p)
            assert nf.terms == {z: delta ** loops}


def test_08_functor_suite():
    peri_q = preset("periplectic_q")
    spec = RescaleSpec(lp_parse("v"), lp_parse("-z"), lp_parse("v*z"))
    bwm = preset("bwm")
    for target in (hflip_params(peri_q), vflip_params(peri_q)):
        assert check_consistency(target) == []

    # the left-right mirror exchanges the two quantum periplectic records
    assert classify(hflip_params(peri_q)) == ["C0b_bl_s"]
    assert hflip_params(peri_q) == preset("periplectic_q_op")
    assert hflip_params(preset("periplectic_q_op")) == peri_q

    rng = random.Random(88)
    target_r = None
    checked = 0
    while checked < 200:
        y = normalize(anchored_word(rng, rng.randrange(5)), bwm)
        x = normalize(anchored_word(rng, y.n), bwm)
        xy = nf_compose(x, y, bwm)

        fx, target_r = rescale(x, spec, bwm)
        fy, _ = rescale(y, spec, bwm)
        fxy, _ = rescale(xy, spec, bwm)
        assert fxy.terms == nf_compose(fx, fy, target_r).terms
        back, src = rescale(fx, spec.inverse(), target_r)
        assert back.terms == x.terms and src == bwm
        checked += 1
    assert check_consistency(target_r) == []

    target_v = vflip_params(peri_q)
    for _ in range(200):
        y = normalize(anchored_word(rng, rng.randrange(5)), peri_q)
        x = normalize(anchored_word(rng, y.n), peri_q)
        fx, _ = vflip(x, peri_q)
        fy, _ = vflip(y, peri_q)
        fxy, _ = vflip(nf_compose(x, y, peri_q), peri_q)
        assert fxy.terms == nf_compose(fy, fx, target_v).terms  # contravariant
        twice, back = vflip(fx, target_v)
        assert twice.terms == x.terms and back == peri_q

    target_h = hflip_params(peri_q)
    for _ in range(200):
        y = normalize(anchored_word(rng, rng.randrange(5)), peri_q)
        x = normalize(anchored_word(rng, y.n), peri_q)
        fx, _ = hflip(x, peri_q)
        fy, _ = hflip(y, peri_q)
        fxy, _ = hflip(nf_compose(x, y, peri_q), peri_q)
        assert fxy.terms == nf_compose(fx, fy, target_h).terms  # covariant
        twice, back = hflip(fx, target_h)
        assert twice.terms == x.terms and back == peri_q


def test_09_wenzl_style_deformation_is_infeasible():
    report = wenzl_feasibility()
    assert report.status == "Infeasible"
    assert report.witnesses
    for family, witness in report.witnesses:
        poly = lp_parse(witness)
        assert not poly.is_zero()
        assert poly.variables() == {"q", "r"}


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_10_associativity_and_superinterchange(name):
    p = preset(name)
    rng = random.Random(20260823)
    for _ in range(600):
        z = normalize(anchored_word(rng, rng.randrange(5)), p)
        y = normalize(anchored_word(rng, z.n), p)
        x = normalize(anchored_word(rng, y.n), p)
        left = nf_compose(nf_compose(x, y, p), z, p)
        right = nf_compose(x, nf_compose(y, z, p), p)
        assert left.terms == right.terms
    for _ in range(400):
        x2 = normalize(anchored_word(rng, rng.randrange(4)), p)
        x1 = normalize(anchored_word(rng, x2.n), p)
        y2 = normalize(anchored_word(rng, rng.randrange(4)), p)
        y1 = normalize(anchored_word(rng, y2.n), p)
        lhs = nf_compose(nf_tensor(x1, y1, p), nf_tensor(x2, y2, p), p)
        rhs = nf_tensor(nf_compose(x1, x2, p), nf_compose(y1, y2, p), p)
        # sliding an odd morphism past an odd morphism costs a sign when
        # the category is signed
        if p.epsilon == -1 and parity(y1) and parity(x2):
            rhs = rhs.scale(lp_int(-1))
        assert lhs.terms == rhs.terms
