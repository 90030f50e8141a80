import dataclasses
import json
import os
import subprocess
import sys

import pytest

import brauercalc
from brauercalc.coeff import GR_I, GR_ONE, gr, lp_int, lp_parse, lp_str
from brauercalc.params import (
    FAMILIES,
    PRESETS,
    CategoryParams,
    ParamError,
    check_consistency,
    classify,
    family_instantiate,
    legal_unit_choices,
    make_params,
    params_from_json,
    preset,
    wenzl_feasibility,
)
from brauercalc.rewrite import check_local_confluence
from brauercalc.term import cap, cup, word


def test_presets_are_consistent():
    for name in PRESETS:
        p = preset(name)
        assert check_consistency(p) == []


def test_preset_fingerprints_stable_and_distinct():
    # a record is compared by value: its fields identify its category
    records = {name: preset(name) for name in PRESETS}
    assert len(set(records.values())) == len(PRESETS)
    assert preset("bwm") == records["bwm"]


_HISTORY_PROBE = """
import json, sys
from brauercalc.coeff import lp_parse, lp_str, lp_var
from brauercalc.params import preset
for name in sys.argv[1:]:
    lp_var(name)
print(json.dumps([json.dumps(preset("bwm").to_json(), sort_keys=True),
                  lp_str(lp_parse("b + a"))]))
"""


def test_fingerprints_and_text_do_not_depend_on_process_history():
    # fresh interpreters: one meets no variable before the probe, the other
    # meets z and a first
    src = os.path.dirname(os.path.dirname(os.path.abspath(brauercalc.__file__)))
    env = dict(os.environ, PYTHONPATH=src)

    def probe(*names):
        out = subprocess.run(
            [sys.executable, "-c", _HISTORY_PROBE, *names],
            env=env, capture_output=True, text=True, check=True,
        ).stdout
        return json.loads(out)

    fresh = probe()
    assert probe("z", "a") == fresh
    assert fresh == [json.dumps(preset("bwm").to_json(), sort_keys=True), "a + b"]


def test_all_families_symbolically_consistent():
    count = 0
    for fam in FAMILIES:
        for eps in (1, -1):
            choices = legal_unit_choices(fam, eps)
            assert choices, "family %s admits no units for epsilon=%d" % (fam, eps)
            for e, ep in choices:
                p = family_instantiate(fam, eps, e, {}, e_prime=ep)
                assert check_consistency(p) == [], (fam, eps, str(e), str(ep))
                count += 1
    assert count == 100


def test_illegal_unit_choices_rejected():
    # the tangle-style family needs e^2 = epsilon
    with pytest.raises(ParamError):
        family_instantiate("Cbb_l_s", 1, GR_I, {})
    # the signed-pair families need e^2 = -epsilon
    with pytest.raises(ParamError):
        family_instantiate("Cb0_bl_s", 1, gr(1), {})
    with pytest.raises(ParamError):
        family_instantiate("Cb0_l_0", 1, GR_I, {})  # e_prime required
    # units that are not fourth roots, zero included, never reach 1/e
    zero_c_delta = {"c": lp_int(0), "delta": lp_int(0)}
    for family, e, e_prime in (
        ("C00_ml_0", gr(0), None),
        ("C00_l_0", gr(0), None),
        ("C00_l_0", gr(1), gr(0)),
        ("C00_ml_0", gr(2), None),
    ):
        with pytest.raises(ParamError):
            family_instantiate(family, 1, e, zero_c_delta, e_prime=e_prime)


def test_record_rejects_bad_units_and_epsilon_even_when_replaced():
    # check_consistency has no unit equation: a record cannot hold a bad one
    p = preset("bwm")
    with pytest.raises(ParamError):
        dataclasses.replace(p, e=gr(2))
    with pytest.raises(ParamError):
        dataclasses.replace(p, e_prime=gr(2))
    with pytest.raises(ParamError):
        dataclasses.replace(p, epsilon=0)


def test_mutation_detection_bwm():
    p = preset("bwm")
    dependent = [
        "lam_p", "sig_p", "delta", "rho", "a", "c", "d", "d_p",
        "f", "f_p", "D", "D_p", "E", "E_p", "F", "F_p",
    ]
    for name in dependent:
        corrupted = dataclasses.replace(p, **{name: getattr(p, name) + lp_int(1)})
        assert check_consistency(corrupted) != [], "corruption of %s undetected" % name


# labels violated after adding 1 to one derived field, as the checker
# reported them before each equation pair was stated once; each case also
# fails Derived, and the sig_p case breaks Straight
MUTATION_LABELS = {
    "bwm": {
        "rho": ["Rest.1", "Rest.3", "Rest.5", "Rest.6", "Derived"],
        "a": [
            "QuadSame", "Rest.1", "Rest.2", "Rest.5", "Rest.6",
            "DEF.1", "DEF.2", "DEF.4", "DEF.5",
            "Derived",
        ],
        "sig_p": [
            "FFb.2", "FFb.3", "FFb.7", "FFb.9", "FFb.11", "Rest.2", "Rest.3",
            "Rest.5", "Rest.7", "Rest.8", "DEF.1", "DEF.3", "CNZ.5", "Straight",
            "Derived",
        ],
        "d": ["Rest.3", "DEF.1", "DEF.2", "Derived"],
        "d_p": ["Rest.3", "DEF.4", "DEF.5", "Derived"],
        "D": ["DEF.1", "DEF.2", "DEF.3", "Derived"],
        "D_p": ["DEF.4", "DEF.5", "DEF.6", "Derived"],
        "E": ["DEF.1", "DEF.2", "DEF.3", "CNZ.3", "Derived"],
        "E_p": ["DEF.4", "DEF.5", "DEF.6", "CNZ.3", "Derived"],
        "F": ["DEF.1", "DEF.2", "Derived"],
        "F_p": ["DEF.4", "DEF.5", "Derived"],
    },
    "periplectic_q": {
        "rho": ["Rest.3", "Rest.5", "Rest.6", "Rest.7", "Rest.8", "Derived"],
        "a": [
            "MuNeq", "FFb.2", "FFb.4", "FFb.11", "Rest.5", "Rest.6",
            "Rest.7", "Rest.8", "DEF.2", "DEF.4", "DEF.5",
            "Derived",
        ],
        "sig_p": ["Rest.3", "Rest.5", "Rest.7", "Straight", "Derived"],
        "d": ["Rest.3", "DEF.1", "Derived"],
        "d_p": ["Rest.3", "DEF.4", "Derived"],
        "D": ["DEF.1", "DEF.2", "DEF.3", "Derived"],
        "D_p": ["DEF.4", "DEF.6", "Derived"],
        "E": ["DEF.1", "DEF.2", "DEF.3", "Derived"],
        "E_p": ["DEF.4", "DEF.5", "DEF.6", "Derived"],
        "F": ["DEF.2", "Derived"],
        "F_p": ["DEF.4", "DEF.5", "Derived"],
    },
}


@pytest.mark.parametrize("name", sorted(MUTATION_LABELS))
def test_mutation_label_lists_are_pinned(name):
    p = preset(name)
    for field, labels in MUTATION_LABELS[name].items():
        corrupted = dataclasses.replace(p, **{field: getattr(p, field) + lp_int(1)})
        assert check_consistency(corrupted) == labels, field


# sig = a = c = 0, where no named equation fixes d, d_p or D; the arguments
# are epsilon, e, e_prime, lam, lam_p, sig, delta, b, c, f, f_p
FREE_D = make_params(
    1, GR_ONE, GR_ONE, lp_parse("v"), lp_parse("v"), lp_int(0), lp_int(0),
    lp_parse("v"), lp_int(0), lp_int(0), lp_int(0),
)


def _records_the_named_equations_missed():
    """Records that pass every equation but Straight and Derived, with the
    labels they fail."""
    # C00_l_s with epsilon flipped keeps sig_p = sig
    for eps in (1, -1):
        for e, ep in legal_unit_choices("C00_l_s", eps):
            p = family_instantiate("C00_l_s", eps, e, {}, e_prime=ep)
            yield dataclasses.replace(p, epsilon=-eps), ["Straight", "Derived"]
    # sig = a = c = 0: no named equation fixes d, d_p or (up to a sign) D
    for field, value in (("d", "1"), ("d_p", "3"), ("D", "-v^2")):
        yield dataclasses.replace(FREE_D, **{field: lp_parse(value)}), ["Derived"]


def test_records_the_named_equations_missed_are_rejected():
    # each passes every other equation, yet the rewriting system is not
    # confluent
    cases = list(_records_the_named_equations_missed())
    assert len(cases) == 7
    for q, labels in cases:
        assert check_consistency(q) == labels
        assert check_local_confluence(q, max_width=4, max_letters=3), labels
    assert check_consistency(FREE_D) == []
    assert not check_local_confluence(FREE_D, max_width=4, max_letters=3)
    flipped = dataclasses.replace(preset("brauer"), epsilon=-1)
    fails = check_local_confluence(flipped, max_width=4, max_letters=3)
    assert len(fails) == 3
    assert fails[0][0] == word(0, [cup(1), cup(1), cap(2)])


def test_bwm_preset_values():
    p = preset("bwm")
    assert p.rho == lp_parse("v^-1")
    assert p.c == lp_parse("-v*z")
    assert p.a == lp_int(1)
    assert p.delta == lp_parse("v^-1*z^-1 - v*z^-1 + 1")
    assert p.f == p.f_p == lp_parse("z")
    assert p.lam == p.lam_p == lp_parse("v")


def test_periplectic_q_preset_values():
    p = preset("periplectic_q")
    assert p.epsilon == -1
    assert p.lam == lp_parse("q")
    assert p.lam_p == lp_parse("-q^-1")
    assert p.rho == lp_parse("-q")
    assert p.a == lp_int(1)
    assert p.d_p == lp_parse("-q + q^-1")
    assert p.D_p == lp_parse("1 - q^2")
    assert p.E_p == lp_parse("q - q^-1")
    assert p.sig_p == lp_int(-1)
    assert p.f == lp_parse("q - q^-1") and p.f_p.is_zero()


def test_periplectic_is_q_one_specialization():
    pq = preset("periplectic_q")
    pp = preset("periplectic")
    sub = {"q": lp_int(1)}
    for name in (
        "lam", "lam_p", "sig", "sig_p", "delta", "rho", "a", "b", "c",
        "d", "d_p", "f", "f_p", "D", "D_p", "E", "E_p", "F", "F_p",
    ):
        assert getattr(pq, name).substitute(sub) == getattr(pp, name), name
    assert pq.epsilon == pp.epsilon
    assert pq.e == pp.e and pq.e_prime == pp.e_prime


def test_classify_presets():
    assert classify(preset("bwm")) == ["Cbb_l_s"]
    assert "C00_l_s" in classify(preset("brauer"))
    assert classify(preset("periplectic_q")) == ["Cb0_bl_s"]
    assert classify(preset("periplectic_q_op")) == ["C0b_bl_s"]
    assert "C00_ml_s" in classify(preset("periplectic"))


def test_params_json_round_trip():
    for name in PRESETS:
        p = preset(name)
        assert params_from_json(p.to_json()) == p


def test_wenzl_feasibility_infeasible_with_witness():
    report = wenzl_feasibility()
    assert report.status == "Infeasible"
    assert report.witnesses
    for _, witness in report.witnesses:
        w = lp_parse(witness)
        assert not w.is_zero()
        assert w == lp_parse("q*r + 1")
