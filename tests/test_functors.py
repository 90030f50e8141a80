import dataclasses
import random

import pytest

from brauercalc.coeff import lp_int, lp_parse
from brauercalc.diagram import enumerate_diagrams, identity_diagram, standard_letters
from brauercalc.functors import (
    NonUnitScale,
    RescaleSpec,
    hflip,
    hflip_params,
    rescale,
    rescale_params,
    vflip,
)
from brauercalc.params import (
    FAMILIES,
    PRESETS,
    ParamError,
    check_consistency,
    classify,
    family_instantiate,
    legal_unit_choices,
    preset,
    vflip_params,
)
from brauercalc.rewrite import (
    InconsistentParams,
    ParamsMismatch,
    nf_compose,
    nf_from_diagram,
    nf_tensor,
    normalize,
)
from brauercalc.term import CAP, CROSS, CUP, GenWord, Letter, cap, cross, cup, word

from test_params import FREE_D
from test_rewrite import random_word


BWM = preset("bwm")
PERI_Q = preset("periplectic_q")


def test_rescale_spec_requires_unit_monomials():
    one = lp_parse("1")
    RescaleSpec(lp_parse("-3*t^2"), one, one)  # fine
    with pytest.raises(NonUnitScale):
        RescaleSpec(lp_parse("t + 1"), one, one)
    with pytest.raises(NonUnitScale):
        RescaleSpec(one, lp_parse("0"), one)


def _consistent_records():
    """The presets, then every legal instantiation of the families."""
    for name in sorted(PRESETS):
        yield pytest.param(preset(name), id=name)
    for family in FAMILIES:
        for eps in (1, -1):
            for e, ep in legal_unit_choices(family, eps):
                p = family_instantiate(family, eps, e, {}, e_prime=ep)
                yield pytest.param(p, id="%s,%+d,%s,%s" % (family, eps, e, ep))


@pytest.mark.parametrize("p", _consistent_records())
def test_functor_targets_are_consistent(p):
    spec = RescaleSpec(lp_parse("t"), lp_parse("2*t^-1"), lp_parse("t^3"))
    rescaled = rescale_params(p, spec)
    assert check_consistency(rescaled) == []
    assert rescale_params(rescaled, spec.inverse()) == p
    assert check_consistency(vflip_params(p)) == []
    mirrored = hflip_params(p)
    assert check_consistency(mirrored) == []
    assert hflip_params(mirrored) == p


def test_functor_maps_reject_a_record_make_params_cannot_rebuild():
    spec = RescaleSpec(lp_parse("t"), lp_parse("1"), lp_parse("t"))
    for bad in (
        dataclasses.replace(BWM, rho=BWM.rho + lp_int(1)),
        dataclasses.replace(BWM, D=BWM.D + lp_int(1)),
        dataclasses.replace(PERI_Q, sig_p=PERI_Q.sig),
        dataclasses.replace(BWM, lam=lp_int(0)),  # D = a*E/lam cannot be formed
        # passes every named equation and fails only Derived
        dataclasses.replace(FREE_D, d=lp_int(1)),
    ):
        assert "Derived" in check_consistency(bad)
        with pytest.raises(ParamError):
            rescale_params(bad, spec)
        with pytest.raises(ParamError):
            hflip_params(bad)


_SPEC = RescaleSpec(lp_parse("t"), lp_parse("1"), lp_parse("t^-1"))
_FUNCTORS = [
    (vflip, vflip_params),
    (hflip, hflip_params),
    (lambda nf: rescale(nf, _SPEC), lambda p: rescale_params(p, _SPEC)),
]


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_each_image_carries_the_target_record(name):
    # an image once carried the record passed beside it, not the one its
    # coefficients came from
    nf = normalize(word(2, [cross(1), cross(1)]), preset(name))
    for functor, target in _FUNCTORS:
        assert functor(nf).params == target(nf.params)


def test_an_image_of_a_bwm_form_does_not_compose_with_a_brauer_form():
    x = normalize(word(2, [cross(1), cross(1)]), BWM)
    y = normalize(word(2, [cross(1)]), preset("brauer"))
    for functor, _ in _FUNCTORS:
        image = functor(x)
        with pytest.raises(ParamsMismatch):
            nf_compose(image, y)
        with pytest.raises(ParamsMismatch):
            nf_compose(y, image)
        with pytest.raises(ParamsMismatch):
            image + y
        assert nf_compose(image, image).params == image.params


def test_rescale_of_identity_is_unchanged():
    spec = RescaleSpec(lp_parse("v"), lp_parse("z"), lp_parse("v*z"))
    nf = nf_from_diagram(identity_diagram(3), BWM)
    assert rescale(nf, spec).terms == nf.terms


def test_rescale_parameter_map_on_bwm():
    g = lp_parse("t")
    spec = RescaleSpec(lp_parse("1"), lp_parse("1"), g)
    target = rescale_params(BWM, spec)
    assert target.lam == lp_parse("v * t^-1")
    assert target.b == lp_parse("z * t^-1")
    assert target.a == lp_parse("t^-2")
    assert target.delta == BWM.delta  # alpha*beta = 1


def test_rescale_inverse_round_trip():
    spec = RescaleSpec(lp_parse("v^2"), lp_parse("-z"), lp_parse("v*z^-1"))
    rng = random.Random(3)
    for _ in range(20):
        nf = normalize(random_word(rng), BWM)
        back = rescale(rescale(nf, spec), spec.inverse())
        assert back.terms == nf.terms
        assert back.params == BWM


def test_rescale_is_functorial():
    spec = RescaleSpec(lp_parse("v"), lp_parse("z"), lp_parse("v^-1"))
    rng = random.Random(5)
    target = rescale_params(BWM, spec)
    for _ in range(30):
        x = normalize(random_word(rng, 3, 3), BWM)
        y = normalize(random_word(rng, 3, 3), BWM)
        if x.m != y.n:
            continue
        fxy = rescale(nf_compose(x, y), spec)
        assert fxy.terms == nf_compose(rescale(x, spec), rescale(y, spec)).terms
        assert fxy.params == target


def test_vflip_cap_is_cup():
    nf = normalize(word(2, [cap(1)]), BWM)
    out = vflip(nf)
    assert (out.m, out.n) == (0, 2)
    assert out.terms == normalize(word(0, [cup(1)]), out.params).terms


def test_vflip_is_contravariant():
    rng = random.Random(9)
    target = vflip_params(PERI_Q)
    for _ in range(40):
        x = normalize(random_word(rng), PERI_Q)
        y = normalize(random_word(rng), PERI_Q)
        if x.m != y.n:
            continue
        fxy = vflip(nf_compose(x, y))
        assert fxy.terms == nf_compose(vflip(y), vflip(x)).terms
        assert fxy.params == target


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_vflip_squares_to_identity(name):
    p = preset(name)
    rng = random.Random(13)
    for _ in range(15):
        nf = normalize(random_word(rng), p)
        twice = vflip(vflip(nf))
        assert twice.terms == nf.terms
        assert twice.params == p


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_vflip_closed_form_matches_the_renormalized_flipped_word(name):
    # reference: reverse the standard word, swap cups and caps, and
    # normalize it in the flipped category
    p = preset(name)
    target = vflip_params(p)
    swap = {CAP: CUP, CUP: CAP, CROSS: CROSS}
    checked = 0
    for total in range(0, 7, 2):
        for m in range(total + 1):
            for d in enumerate_diagrams(m, total - m):
                letters = [Letter(swap[k], r) for k, r in reversed(standard_letters(d))]
                expected = normalize(GenWord(d.n, tuple(letters)), target)
                out = vflip(nf_from_diagram(d, p))
                assert out.params == target
                assert (out.m, out.n) == (expected.m, expected.n)
                assert out.params == expected.params
                assert out.terms == expected.terms, (name, d)
                checked += 1
    assert checked == 1 + 3 * 1 + 5 * 3 + 7 * 15  # shapes times (m+n-1)!!


def test_vflip_rejects_an_inconsistent_record():
    bad = dataclasses.replace(BWM, a=BWM.a + lp_int(1))
    with pytest.raises(InconsistentParams):
        vflip(nf_from_diagram(identity_diagram(2), bad))


def test_hflip_fixes_identity():
    nf = nf_from_diagram(identity_diagram(2), PERI_Q)
    assert hflip(nf).terms == nf.terms


def test_hflip_is_covariant_and_involutive():
    rng = random.Random(17)
    target = hflip_params(PERI_Q)
    for _ in range(40):
        x = normalize(random_word(rng), PERI_Q)
        y = normalize(random_word(rng), PERI_Q)
        if x.m == y.n:
            fxy = hflip(nf_compose(x, y))
            assert fxy.terms == nf_compose(hflip(x), hflip(y)).terms
            assert fxy.params == target
        twice = hflip(hflip(x))
        assert twice.terms == x.terms
        assert twice.params == PERI_Q


def test_hflip_exchanges_the_monoidal_opposite_pair():
    assert classify(hflip_params(PERI_Q)) == ["C0b_bl_s"]
    assert hflip_params(PERI_Q) == preset("periplectic_q_op")
    assert hflip_params(preset("periplectic_q_op")) == PERI_Q


def parity(nf):
    return ((nf.n - nf.m) // 2) % 2


def test_hflip_twisted_tensor_rule():
    rng = random.Random(21)
    target = hflip_params(PERI_Q)
    checked = 0
    for _ in range(60):
        x = normalize(random_word(rng, 3, 3), PERI_Q)
        y = normalize(random_word(rng, 3, 3), PERI_Q)
        if x.is_zero() or y.is_zero():
            continue
        fxy = hflip(nf_tensor(x, y))
        assert fxy.params == target
        rhs = nf_tensor(hflip(y), hflip(x))
        if parity(x) * parity(y) % 2:
            rhs = rhs.scale(lp_int(-1))
        assert fxy.terms == rhs.terms
        checked += 1
    assert checked >= 40
