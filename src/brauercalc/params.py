"""
Parameter records for the diagram categories, the classified families, and
the consistency checker.

A category is determined by a sign `epsilon` (+1: cups/caps are even, -1:
cups/caps are odd), two fourth roots of unity `e`, `e_prime`, and nineteen
Laurent-polynomial parameters:

    lam, lam_p   coefficients of the untwisting moves (cup/cap side),
    sig, sig_p   coefficients of the straightening moves,
    delta        value of a closed loop,
    rho          value of the curl (cup, crossing, cap),
    a, b, c      coefficients of the quadratic crossing relation
                 (crossing^2 = a + b*crossing + c*cap-then-cup),
    d .. F_p     coefficients of the sliding and pulling moves.

The free ones are epsilon, e, e_prime, lam, lam_p, sig, delta, b, c, f and
f_p; `make_params` derives the other eleven (a, rho, sig_p, d, d_p, D, D_p,
E, E_p, F, F_p) from them, and is the only place those formulas live.
`free_values` returns a record's free parameters, and raises ParamError when
`make_params` does not rebuild the record from them.

`check_consistency` evaluates the full equation system these parameters must
satisfy for the rewriting system to be well defined, returning the labels of
the equations that fail.  Turning a category upside down (`vflip_params`)
pairs most equations: FFb (1,2), ..., (11,12), Rest (5,6), (8,9) and DEF
(1,4), (2,5), (3,6).  Each pair is stated once and read on the record and on
its flip; Rest.2, Rest.3 and CNZ.5 are one side read both ways.  The others
(QuadSame or MuNeq, Rest.1, 4, 7, CNZ.1-4, 6, SNZ.1 and Straight,
sig_p = epsilon*sig) are stated and read once.  The last label, Derived,
is the `free_values` test: a record that `make_params` does not rebuild
fails it, so every command that reads a record refuses the same ones.
`family_instantiate` builds the classified families, and `preset` provides
ready-made categories.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass

from .coeff import (
    CoeffError,
    GR_I,
    GR_ONE,
    GaussRational,
    LaurentPoly,
    gr,
    lp_exact_div,
    lp_int,
    lp_parse,
    lp_str,
    lp_var,
)


class ParamError(Exception):
    pass


FAMILIES = (
    "Cb0_l_s",
    "Cb0_bl_s",
    "Cb0_l_0",
    "Cb0_bl_0",
    "C0b_l_s",
    "C0b_bl_s",
    "C0b_l_0",
    "C0b_bl_0",
    "Cbb_l_s",
    "C00_l_s",
    "C00_ml_s",
    "C00_l_0",
    "C00_ml_0",
)

# the fourth roots of unity, by their text form
_UNIT_STR = {"1": gr(1), "-1": gr(-1), "i": GR_I, "-i": -GR_I}


def _is_fourth_root(u: GaussRational) -> bool:
    return u in _UNIT_STR.values()


@dataclass(frozen=True)
class CategoryParams:
    epsilon: int
    e: GaussRational
    e_prime: GaussRational
    lam: LaurentPoly
    lam_p: LaurentPoly
    sig: LaurentPoly
    sig_p: LaurentPoly
    delta: LaurentPoly
    rho: LaurentPoly
    a: LaurentPoly
    b: LaurentPoly
    c: LaurentPoly
    d: LaurentPoly
    d_p: LaurentPoly
    f: LaurentPoly
    f_p: LaurentPoly
    D: LaurentPoly
    D_p: LaurentPoly
    E: LaurentPoly
    E_p: LaurentPoly
    F: LaurentPoly
    F_p: LaurentPoly

    def __post_init__(self):
        if self.epsilon not in (1, -1):
            raise ParamError("epsilon must be +1 or -1")
        if not _is_fourth_root(self.e) or not _is_fourth_root(self.e_prime):
            raise ParamError("e and e_prime must be fourth roots of unity")
        # every public engine call looks the record up by hash
        fields = tuple(getattr(self, f.name) for f in dataclasses.fields(self))
        object.__setattr__(self, "_hash", hash(fields))

    def __hash__(self) -> int:
        return self._hash

    def to_json(self) -> dict:
        return {
            "epsilon": self.epsilon,
            "e": str(self.e),
            "e_prime": str(self.e_prime),
            **{name: lp_str(getattr(self, name)) for name in LAURENT_FIELDS},
        }


LAURENT_FIELDS = tuple(f.name for f in dataclasses.fields(CategoryParams))[3:]

# (unprimed, primed) field pairs, exchanged by turning diagrams upside down
_PRIMED = (("e", "e_prime"),) + tuple(
    (name[:-2], name) for name in LAURENT_FIELDS if name.endswith("_p")
)


def unit_from_str(s: str) -> GaussRational:
    if not isinstance(s, str) or s.strip() not in _UNIT_STR:
        raise ValueError("expected a fourth root of unity, got %s" % json.dumps(s))
    return _UNIT_STR[s.strip()]


def params_from_json(data: dict) -> CategoryParams:
    epsilon = data["epsilon"]
    if type(epsilon) is not int or epsilon not in (1, -1):  # bool is not int
        raise ValueError("epsilon must be the integer 1 or -1, got %s" % json.dumps(epsilon))
    return CategoryParams(
        epsilon=epsilon,
        e=unit_from_str(data["e"]),
        e_prime=unit_from_str(data["e_prime"]),
        **{name: lp_parse(data[name]) for name in LAURENT_FIELDS},
    )


def make_params(epsilon, e, e_prime, lam, lam_p, sig, delta, b, c, f, f_p):
    """Assemble a full record from the free parameters, deriving the rest.

    sig_p = epsilon*sig, d = -e*f_p, d_p = -e_prime*f, E = b - f,
    E_p = b - f_p, D = a*E/lam, D_p = a*E_p/lam_p, F = a/e, F_p = a/e_prime,
    and the two values the consistency equations force: the curl
    rho = sig_p*(d + e*lam) + f*delta (Rest.3) and the quadratic coefficient
    a = lam^2 - b*lam - c*delta (QuadSame; with lam_p != lam, MuNeq's
    a = -lam_p*lam, b = lam_p + lam, c = delta = 0 give the same value).
    """
    sig_p = sig.scale(gr(epsilon))
    d = f_p.scale(-e)
    a = lam * lam - b * lam - c * delta
    E = b - f
    E_p = b - f_p
    return CategoryParams(
        epsilon=epsilon,
        e=e,
        e_prime=e_prime,
        lam=lam,
        lam_p=lam_p,
        sig=sig,
        sig_p=sig_p,
        delta=delta,
        rho=sig_p * (d + lam.scale(e)) + f * delta,
        a=a,
        b=b,
        c=c,
        d=d,
        d_p=f.scale(-e_prime),
        f=f,
        f_p=f_p,
        D=lp_exact_div(a * E, lam),
        D_p=lp_exact_div(a * E_p, lam_p),
        E=E,
        E_p=E_p,
        F=a.scale(e ** -1),
        F_p=a.scale(e_prime ** -1),
    )


def vflip_params(p: CategoryParams) -> CategoryParams:
    """Parameter record of the category seen upside down.

    Reflecting every relation through a horizontal axis exchanges each
    unprimed parameter with its primed partner (`_PRIMED`) and fixes
    epsilon, delta, rho, a, b, c.
    """
    return dataclasses.replace(
        p, **{x: getattr(p, y) for pair in _PRIMED for x, y in (pair, pair[::-1])}
    )


def free_values(p: CategoryParams) -> tuple:
    """The eleven `make_params` arguments of the record, in order.

    Raises ParamError when `make_params` does not rebuild `p` from them, so a
    map that works on free values never drops a derived field the record
    got wrong; `check_consistency` reports such a record as Derived.
    """
    values = (
        p.epsilon, p.e, p.e_prime, p.lam, p.lam_p, p.sig, p.delta, p.b, p.c, p.f, p.f_p
    )
    try:
        rebuilt = make_params(*values)
    except CoeffError:
        rebuilt = None
    if rebuilt != p:
        raise ParamError("the record's derived parameters do not follow from its free ones")
    return values


# ---------------------------------------------------------------------------
# Classified families


def family_instantiate(
    family: str,
    epsilon: int,
    e: GaussRational,
    bindings: dict | None = None,
    e_prime: GaussRational | None = None,
) -> CategoryParams:
    """Instantiate one of the classified families.

    `bindings` assigns Laurent polynomials to the family's free parameters
    (`lam`, `b`, `sig`, `delta`, `c` as applicable); unbound ones stay
    symbolic.  `e_prime` is only free in the families where it is not
    determined by `e`; passing it elsewhere must agree with the forced value.
    A row fixes c and delta; `make_params` derives rho and a.
    """
    if family not in FAMILIES:
        raise ParamError("unknown family %r" % family)
    if epsilon not in (1, -1):
        raise ParamError("epsilon must be +1 or -1")
    if not all(_is_fourth_root(u) for u in (e, e_prime) if u is not None):
        raise ParamError("e and e_prime must be fourth roots of unity")
    bindings = bindings or {}
    eps = gr(epsilon)

    def bound(name):
        if name in bindings:
            return bindings[name]
        return lp_var(name)

    lam = bound("lam")
    zero = LaurentPoly.zero()
    group = family[:3]  # Cb0 / C0b / Cbb / C00
    b = zero if group == "C00" else bound("b")
    sig = bound("sig") if family.endswith("_s") else zero

    # unit constraints
    if group in ("Cb0", "C0b") or family == "C00_ml_s":
        need = gr(-epsilon)
    elif family in ("Cbb_l_s", "C00_l_s"):
        need = eps
    else:
        need = None  # C00_l_0, C00_ml_0: any fourth root
    if need is not None and e * e != need:
        raise ParamError("family %s requires e^2 = %s" % (family, need))

    # e_prime: free in the sig = 0 rows (in C00_l_0 only while c = delta = 0),
    # 1/e in every other row, where the e^2 check above makes it equal to the
    # row's -epsilon*e or epsilon*e
    if family in ("Cb0_l_0", "Cb0_bl_0", "C0b_l_0", "C0b_bl_0"):
        if e_prime is None:
            raise ParamError("family %s needs an explicit e_prime" % family)
        if e_prime * e_prime != gr(-epsilon):
            raise ParamError("family %s requires e_prime^2 = -epsilon" % family)
        ep = e_prime
    elif family == "C00_ml_0":
        ep = e if e_prime is None else e_prime
    else:
        forced = e ** -1
        ep = forced if e_prime is None else e_prime
        if ep != forced and family != "C00_l_0":
            raise ParamError("family %s forces e_prime = %s" % (family, forced))
        if ep != forced and not (bound("c").is_zero() and bound("delta").is_zero()):
            raise ParamError("family C00_l_0 with c or delta nonzero needs e_prime = 1/e")

    lam_p = {"l": lam, "bl": b - lam, "ml": -lam}[family.split("_")[1]]
    f = b if group in ("Cb0", "Cbb") else zero
    f_p = b if group in ("C0b", "Cbb") else zero

    c = delta = zero
    if family in ("Cb0_l_s", "C0b_l_s"):
        sgn = -eps * e if group == "Cb0" else eps * e
        delta = lp_exact_div((sig * (lam + lam - b)).scale(sgn), b)
    elif group == "Cbb":
        if not sig.is_unit_monomial():
            raise ParamError("family Cbb_l_s needs an invertible sig")
        c = (lam * b * sig.unit_inverse()).scale(-e)
        delta = bound("delta")
    elif family == "C00_l_0":
        c, delta = bound("c"), bound("delta")
    elif family == "C00_l_s":
        delta = bound("delta")

    return make_params(epsilon, e, ep, lam, lam_p, sig, delta, b, c, f, f_p)


def legal_unit_choices(family: str, epsilon: int):
    """All (e, e_prime) pairs the family admits for the given epsilon."""
    out = []
    for e in _UNIT_STR.values():
        for ep in _UNIT_STR.values():
            try:
                family_instantiate(family, epsilon, e, {}, e_prime=ep)
            except ParamError:
                continue
            out.append((e, ep))
    return out


# ---------------------------------------------------------------------------
# Presets

# name -> (family, epsilon, bindings as text); every preset has e = 1
_PRESETS = {
    "brauer": ("C00_l_s", 1, {"lam": "1", "sig": "1"}),
    "bwm": (
        "Cbb_l_s",
        1,
        {"lam": "v", "b": "z", "sig": "1", "delta": "v^-1*z^-1 - v*z^-1 + 1"},
    ),
    "periplectic": ("C00_ml_s", -1, {"lam": "1", "sig": "1"}),
    "periplectic_q": ("Cb0_bl_s", -1, {"lam": "q", "b": "q - q^-1", "sig": "1"}),
    "periplectic_q_op": ("C0b_bl_s", -1, {"lam": "q", "b": "q - q^-1", "sig": "-1"}),
}

PRESETS = tuple(_PRESETS)


def preset(name: str) -> CategoryParams:
    """Ready-made parameter records.  Never consults the environment."""
    if name not in _PRESETS:
        raise ParamError("unknown preset %r" % name)
    family, epsilon, bindings = _PRESETS[name]
    return family_instantiate(
        family, epsilon, gr(1), {k: lp_parse(v) for k, v in bindings.items()}
    )

# ---------------------------------------------------------------------------
# Consistency checker


# order of the equation groups in a check result
_GROUPS = (
    "QuadSame", "MuNeq", "FFb", "Rest", "DEF", "CNZ", "SNZ", "Straight", "Derived"
)


def _label_key(label):
    group, _, number = label.partition(".")
    return _GROUPS.index(group), int(number or 0)


def _one_side(p: CategoryParams):
    """One equation of each upside-down pair, as ((label, twin_label), lhs, rhs).

    The twin is the same equation read on `vflip_params(p)`.  Rest.2, Rest.3
    and CNZ.5 equate two twin expressions to a flip-fixed value (a*(b-f-f_p),
    rho, 0), so each is one side whose twin carries the same label.
    """
    eps = gr(p.epsilon)
    e, ep = p.e, p.e_prime
    L, Lp = p.lam, p.lam_p
    S, Sp = p.sig, p.sig_p
    dl, rho = p.delta, p.rho
    a, b, c = p.a, p.b, p.c
    d, f, fp = p.d, p.f, p.f_p
    D, E, F = p.D, p.E, p.F
    bf, bfp = b - f, b - fp

    # FFb system (cleared by lam / lam_p and the units where needed)
    yield ("FFb.1", "FFb.2"), (a * bf).scale(e), L * c * S - (L * (b - L - f) * fp).scale(e)
    yield ("FFb.3", "FFb.4"), (a * bf - f * L * L).scale(eps * e * e), (
        L * (fp * fp - f * fp - fp * L + f * L) + (L * c * Sp).scale(e)
    )
    yield ("FFb.5", "FFb.6"), (b - f - f).scale(eps * e * e), b - fp - fp
    yield ("FFb.7", "FFb.8"), L * fp * ((c * Sp).scale(e) + f * L), a * bf * bfp
    yield ("FFb.9", "FFb.10"), L * (b - f - fp) - (c * Sp).scale(e), bf * bfp
    yield ("FFb.11", "FFb.12"), (
        L * ((c * Sp).scale(e) + f * L - f * f) - (c * Sp * f).scale(e)
    ), a * bfp

    # Remaining curl / loop equations
    yield ("Rest.2", "Rest.2"), L * ((S * c).scale(ep) + f * fp) + c * dl * fp, a * (b - f - fp)
    yield ("Rest.3", "Rest.3"), rho, Sp * (d + L.scale(e)) + f * dl
    yield ("Rest.5", "Rest.6"), Lp * (L - b + fp) * rho, a * bfp * dl + (Lp * a * Sp).scale(e)
    yield ("Rest.8", "Rest.9"), (Lp * a * dl).scale(e - ep ** -1), (
        bfp * (S * a - (Lp * rho).scale(e))
        + Lp * (b - fp - f) * L * S
        - (Lp * c * S * Sp).scale(e)
    )

    # Pulling coefficient equations
    yield ("DEF.1", "DEF.4"), a * (b * E + (c * Sp).scale(e)), (
        D * D + E * a * L + E * b * D + E * c * Sp * d + F * L * d
    )
    yield ("DEF.2", "DEF.5"), (
        a * L + b * D + b * b * E + c * Sp * d + (c * Sp * b).scale(e)
    ), D * E + b * E * E + (E * c * Sp).scale(e) + (F * L).scale(e)
    yield ("DEF.3", "DEF.6"), (
        b * E * c * Sp + b * F * L + (c * c * Sp * Sp).scale(e) + c * Sp * L * f
    ), D * F + E * b * F + E * c * Sp * f + F * L * f

    if not c.is_zero():
        yield ("CNZ.5", "CNZ.5"), (c * Sp).scale(e) + f * L, LaurentPoly.zero()


def check_consistency(p: CategoryParams) -> list:
    """Return the labels of all consistency equations the record violates.

    An empty list means the rewriting system over these parameters is well
    defined.  Equations stated with denominators lam, lam_p, e or e_prime
    are checked in cleared form (multiplied through), which is equivalent
    because lam, lam_p are assumed invertible and e, e_prime are units.
    The flip-symmetric equations are stated here; each upside-down pair is
    stated once in `_one_side` and read on `p` and on `vflip_params(p)`.
    """
    eps = gr(p.epsilon)
    e, ep = p.e, p.e_prime
    L, Lp = p.lam, p.lam_p
    S, Sp = p.sig, p.sig_p
    dl, rho = p.delta, p.rho
    a, b, c = p.a, p.b, p.c
    f, fp = p.f, p.f_p

    fails = []

    def eq(label, lhs, rhs):
        if lhs != rhs:
            fails.append(label)

    if L == Lp:
        eq("QuadSame", L * L - b * L - c * dl, a)
    elif not (c.is_zero() and dl.is_zero() and a == -(Lp * L) and b == Lp + L):
        fails.append("MuNeq")

    eq("Rest.1", c * rho, a * (b - f - fp))
    eq("Rest.4", S * (Lp - L) * (lp_int(1) + lp_int(1).scale(eps * e * e)), LaurentPoly.zero())
    eq(
        "Rest.7",
        (b - f) * (rho * L + a * dl) + (S * a * L).scale(ep),
        (b - fp) * (rho * Lp + a * dl) + (Sp * a * Lp).scale(e),
    )

    if not c.is_zero():
        eq("CNZ.1", f, fp)
        if not (f.scale(eps * e * e) == f and f.scale(eps * ep * ep) == f):
            fails.append("CNZ.2")
        if not (p.E.is_zero() and p.E_p.is_zero()):
            fails.append("CNZ.3")
        if e * ep != GR_ONE:
            fails.append("CNZ.4")
        eq("CNZ.6", L, Lp)

    if not S.is_zero():
        if e * ep != GR_ONE:
            fails.append("SNZ.1")

    # the straightening moves of a cup and of a cap differ by the sign of
    # the odd generators
    eq("Straight", Sp, S.scale(eps))

    # the sliding and pulling coefficients must take the values make_params
    # derives: where sig, a or c vanish the equations above leave d, d_p, D,
    # D_p, E or E_p free, and every other value tried there broke local
    # confluence
    try:
        free_values(p)
    except ParamError:
        fails.append("Derived")

    for q, side in ((p, 0), (vflip_params(p), 1)):
        for labels, lhs, rhs in _one_side(q):
            eq(labels[side], lhs, rhs)

    return sorted(set(fails), key=_label_key)


# ---------------------------------------------------------------------------
# Classification and feasibility


def classify(p: CategoryParams) -> list:
    """Family tags whose instantiation reproduces the given record."""
    bindings = {
        "lam": p.lam,
        "b": p.b,
        "sig": p.sig,
        "delta": p.delta,
        "c": p.c,
    }
    out = []
    for family in FAMILIES:
        try:
            candidate = family_instantiate(
                family, p.epsilon, p.e, bindings, e_prime=p.e_prime
            )
        except (ParamError, CoeffError):
            continue
        if candidate == p:
            out.append(family)
    return out


@dataclass(frozen=True)
class FeasibilityReport:
    status: str  # "Feasible" | "Infeasible"
    detail: str
    witnesses: tuple


def wenzl_feasibility() -> FeasibilityReport:
    """Test whether a category can host the tangle-style algebra with
    crossing relation x^2 = (q-1)x + q, untwist value q, curl value r and
    loop value (r-1)/(q-1), with q, r independent symbols.

    The imposed values force b = q-1, c = 0, a = q, lam = q, rho = r and a
    nonzero loop value, which excludes every classified family except the
    two with f-pattern (b, 0) or (0, b), equal untwist values and nonzero
    straightening coefficient.  For those rows the curl and loop formulas
    are proportional, and eliminating the free unit yields a nonzero
    polynomial obstruction.
    """
    q, r = lp_var("q"), lp_var("r")
    one = lp_int(1)
    witnesses = []
    for family in ("Cb0_l_s", "C0b_l_s"):
        # row formulas with lam = q, b = q - 1:
        #   curl  = u * 1            (u = +/- e*sig, a unit)
        #   loop  = u * (q + 1)/(q - 1)
        # imposing curl = r gives loop*(q-1) = r*(q+1), while the imposed
        # loop value gives loop*(q-1) = r - 1; the difference is the witness.
        witness = r * (q + one) - (r - one)
        witnesses.append((family, lp_str(witness)))
    detail = (
        "imposed values: a=q, b=q-1, c=0, lam=q, rho=r, loop=(r-1)/(q-1); "
        "candidate families reduce to rho = u and loop = u*(q+1)/(q-1) for a "
        "unit u, so r*(q+1) = r-1 would be required; the residual r*q + 1 "
        "is a nonzero polynomial in q, r."
    )
    return FeasibilityReport(status="Infeasible", detail=detail, witnesses=tuple(witnesses))
