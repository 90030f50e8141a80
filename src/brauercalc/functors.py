"""
Isomorphisms between diagram categories: rescaling and the two flips.

`rescale` multiplies the three generators by invertible monomials alpha
(cap), beta (cup) and gamma (crossing).  `vflip` turns diagrams upside down
(contravariant), `hflip` mirrors them left to right.  Each functor returns
the image normal form together with the parameter record of the target
category; the target record always satisfies the consistency equations when
the source does.

Images are computed on the diagram basis.  Under `rescale` and `vflip` each
basis diagram goes to one diagram in closed form; under `hflip` its standard
word is mirrored letter by letter and renormalized in the target category,
then scaled by the term's coefficient.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from .coeff import LaurentPoly, lp_exact_div
from .diagram import standard_letters, vflip_diagram
from .params import CategoryParams, vflip_params
from .rewrite import (
    NormalForm,
    RewriteError,
    _acc,
    _fingerprint,
    _require_consistent,
    normalize,
)
from .term import CAP, CROSS, CUP, GenWord, Letter


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
    """Parameter record of the rescaled category."""
    ab = spec.alpha * spec.beta
    g = spec.gamma
    g2 = g * g

    def dv(x, y):
        return lp_exact_div(x, y)

    return dataclasses.replace(
        p,
        lam=dv(p.lam, g),
        lam_p=dv(p.lam_p, g),
        sig=dv(p.sig, ab),
        sig_p=dv(p.sig_p, ab),
        delta=dv(p.delta, ab),
        rho=dv(p.rho, ab * g),
        a=dv(p.a, g2),
        b=dv(p.b, g),
        c=dv(ab * p.c, g2),
        d=dv(p.d, g),
        d_p=dv(p.d_p, g),
        f=dv(p.f, g),
        f_p=dv(p.f_p, g),
        D=dv(p.D, g2),
        D_p=dv(p.D_p, g2),
        E=dv(p.E, g),
        E_p=dv(p.E_p, g),
        F=dv(p.F, g2),
        F_p=dv(p.F_p, g2),
    )


def hflip_params(p: CategoryParams) -> CategoryParams:
    """Parameter record of the left-right mirrored category."""
    e_inv = p.e ** -1
    ep_inv = p.e_prime ** -1
    ee_inv = (p.e * p.e_prime) ** -1
    ee = p.e * p.e_prime
    return dataclasses.replace(
        p,
        sig=p.sig_p,
        sig_p=p.sig,
        rho=p.rho + (p.sig_p * (p.lam_p - p.lam)).scale(p.e),
        e=e_inv,
        e_prime=ep_inv,
        d=p.d_p.scale(ee_inv),
        d_p=p.d.scale(ee_inv),
        f=p.f_p,
        f_p=p.f,
        D=lp_exact_div(p.D_p * p.lam_p, p.lam),
        D_p=lp_exact_div(p.D * p.lam, p.lam_p),
        E=p.E_p,
        E_p=p.E,
        F=p.F_p.scale(ee),
        F_p=p.F.scale(ee),
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


def _renormalized_image(nf: NormalForm, target: CategoryParams, mapper):
    terms = {}
    for d, c in nf.terms.items():
        letters = tuple(Letter(k, r) for k, r in mapper(d))
        _acc(terms, normalize(GenWord(d.m, letters), target).terms, c)
    return NormalForm(nf.m, nf.n, terms, _fingerprint(target))


def rescale(nf: NormalForm, spec: RescaleSpec, src: CategoryParams):
    """Multiply caps by alpha, cups by beta and crossings by gamma.

    Each basis diagram is an eigenvector: its coefficient picks up one factor
    per letter of its standard word.
    """
    target = rescale_params(src, spec)
    terms = {}
    for d, c in nf.terms.items():
        caps, cups, crossings = _count_letters(d)
        scalar = spec.alpha ** caps * spec.beta ** cups * spec.gamma ** crossings
        terms[d] = c * scalar
    out = NormalForm(nf.m, nf.n, terms, _fingerprint(target))
    return out, target


def vflip(nf: NormalForm, src: CategoryParams):
    """Turn the normal form upside down (contravariant).

    Each basis diagram goes to its reflection with the coefficient unchanged:
    its reversed standard word, cups and caps swapped, normalizes to the
    reflected diagram with coefficient 1 in the flipped category.
    """
    target = vflip_params(src)
    _require_consistent(target)
    terms = {vflip_diagram(d): c for d, c in nf.terms.items()}
    return NormalForm(nf.n, nf.m, terms, _fingerprint(target)), target


def hflip(nf: NormalForm, src: CategoryParams):
    """Mirror the normal form left to right."""
    target = hflip_params(src)

    def mapper(d):
        mirrored = []
        w = d.m
        for kind, pos in standard_letters(d):
            if kind == CUP:
                mirrored.append((CUP, w + 2 - pos))
                w += 2
            elif kind == CAP:
                mirrored.append((CAP, w - pos))
                w -= 2
            else:
                mirrored.append((CROSS, w - pos))
        return mirrored

    return _renormalized_image(nf, target, mapper), target
