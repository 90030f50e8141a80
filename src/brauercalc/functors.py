"""
Isomorphisms between diagram categories: rescaling and the two flips.

`rescale` multiplies the three generators by invertible monomials alpha
(cap), beta (cup) and gamma (crossing).  `vflip` turns diagrams upside down
(contravariant), `hflip` mirrors them left to right.  Each functor reads
the source record off its operand (`nf.params`) and returns one normal form
whose `.params` is the record of the target category; the target record
always satisfies the consistency equations when the source does.
`rescale_params` and `hflip_params` map the source's free parameters
(`params.free_values`, which refuses a record whose derived fields do not
follow from them) and let `make_params` derive the rest; `vflip_params`
exchanges each parameter with its primed partner.

Images are computed on the diagram basis.  Under `rescale` and `vflip` each
basis diagram goes to one diagram in closed form; under `hflip` its standard
word is mirrored letter by letter and renormalized in the target category,
then scaled by the term's coefficient.
"""

from __future__ import annotations

from dataclasses import dataclass

from .coeff import LaurentPoly, gr, lp_exact_div
from .diagram import standard_letters, vflip_diagram
from .params import CategoryParams, free_values, make_params, vflip_params
from .rewrite import NormalForm, RewriteError, _acc, _require_consistent, normalize
from .term import CAP, CUP, WIDTH_CHANGE, GenWord, Letter


class NonUnitScale(RewriteError):
    """A rescaling factor must be an invertible Laurent monomial."""


@dataclass(frozen=True)
class RescaleSpec:
    """Scaling factors for cap, cup and crossing generators."""

    alpha: LaurentPoly
    beta: LaurentPoly
    gamma: LaurentPoly

    def __post_init__(self):
        for name in ("alpha", "beta", "gamma"):
            value = getattr(self, name)
            if not value.is_unit_monomial():
                raise NonUnitScale("%s = %r is not a unit monomial" % (name, value))

    def inverse(self) -> "RescaleSpec":
        return RescaleSpec(
            self.alpha.unit_inverse(),
            self.beta.unit_inverse(),
            self.gamma.unit_inverse(),
        )


def rescale_params(p: CategoryParams, spec: RescaleSpec) -> CategoryParams:
    """Parameter record of the rescaled category.

    Each free parameter is divided by the weight of the generators it
    stands against: gamma for lam, lam_p, b, f and f_p, alpha*beta for sig
    and delta; c, against a crossing squared, picks up alpha*beta/gamma^2.
    `make_params` derives the rest.
    """
    ab, g = spec.alpha * spec.beta, spec.gamma
    eps, e, ep, lam, lam_p, sig, delta, b, c, f, f_p = free_values(p)
    lam, lam_p, b, f, f_p = (lp_exact_div(x, g) for x in (lam, lam_p, b, f, f_p))
    sig, delta = (lp_exact_div(x, ab) for x in (sig, delta))
    c = lp_exact_div(ab * c, g * g)
    return make_params(eps, e, ep, lam, lam_p, sig, delta, b, c, f, f_p)


def hflip_params(p: CategoryParams) -> CategoryParams:
    """Parameter record of the left-right mirrored category.

    The mirror inverts both units and exchanges f with f_p; its sig is the
    source's sig_p (epsilon*sig).  `make_params` derives the rest.
    """
    eps, e, ep, lam, lam_p, sig, delta, b, c, f, f_p = free_values(p)
    return make_params(
        eps, e ** -1, ep ** -1, lam, lam_p, sig.scale(gr(eps)), delta, b, c, f_p, f
    )


def _count_letters(d) -> tuple:
    caps = cups = crossings = 0
    for kind, _ in standard_letters(d):
        if kind == CAP:
            caps += 1
        elif kind == CUP:
            cups += 1
        else:
            crossings += 1
    return caps, cups, crossings


def rescale(nf: NormalForm, spec: RescaleSpec) -> NormalForm:
    """Multiply caps by alpha, cups by beta and crossings by gamma.

    Each basis diagram is an eigenvector: its coefficient picks up one factor
    per letter of its standard word.
    """
    target = rescale_params(nf.params, spec)
    terms = {}
    for d, c in nf.terms.items():
        caps, cups, crossings = _count_letters(d)
        scalar = spec.alpha ** caps * spec.beta ** cups * spec.gamma ** crossings
        terms[d] = c * scalar
    return NormalForm(nf.m, nf.n, terms, target)


def vflip(nf: NormalForm) -> NormalForm:
    """Turn the normal form upside down (contravariant).

    Each basis diagram goes to its reflection with the coefficient unchanged:
    its reversed standard word, cups and caps swapped, normalizes to the
    reflected diagram with coefficient 1 in the flipped category.
    """
    target = vflip_params(nf.params)
    _require_consistent(target)
    terms = {vflip_diagram(d): c for d, c in nf.terms.items()}
    return NormalForm(nf.n, nf.m, terms, target)


def hflip(nf: NormalForm) -> NormalForm:
    """Mirror the normal form left to right."""
    target = hflip_params(nf.params)
    terms = {}
    for d, c in nf.terms.items():
        letters = []
        w = d.m
        for kind, pos in standard_letters(d):
            # the mirror of a letter on width w, measured on its wider side
            step = WIDTH_CHANGE[kind]
            letters.append(Letter(kind, max(w, w + step) - pos))
            w += step
        _acc(terms, normalize(GenWord(d.m, tuple(letters)), target).terms, c)
    return NormalForm(nf.m, nf.n, terms, target)
