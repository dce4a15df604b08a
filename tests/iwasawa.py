"""The weighted Iwasawa sums, term by term, as references for the
Schur-sum kernel of asaiperiods.periods.

Each term is a product of Whittaker values from spherical_value or
essential_value and a modulus weight from FieldPair.q_E_half, all
AlgNum: over a ramified pair single factors carry odd powers of
sqrt(q_F). The sums run over an integer box with no dominance
constraint assumed, so every term outside the cone must vanish on its
own through the Whittaker values. A kernel coefficient is confirmed
when the brute coefficient has zero sqrt(q_F) component and its Q(i)
part equals it.
"""

import itertools

from asaiperiods.scalars import ALG_ONE, ALG_ZERO
from asaiperiods.segments import is_unramified_rep, pi_u
from asaiperiods.whittaker import essential_value, modulus_exponent, spherical_value


def box(m, order):
    """Every lam in Z_{>=0}^m of total degree <= order, dominant or not."""
    for lam in itertools.product(range(order + 1), repeat=m):
        if sum(lam) <= order:
            yield lam


def flicker_terms(mod, order):
    """(degree, factors): the spherical value at e*lam and the weight
    q_F^h = q_E^(e*h/2), h the modulus exponent of lam."""
    fp, e = mod.fp, mod.fp.e
    for lam in box(mod.r, order):
        w = spherical_value(mod, tuple(e * x for x in lam))
        if not w.is_zero():
            yield sum(lam), (w, fp.q_E_half(e * modulus_exponent(lam)))


def mirabolic_terms(rep, order):
    """(degree, factors): the spherical value at (e*lam, 0) for an
    unramified rep, the essential value at e*lam otherwise, and the
    weight q_F^(modulus exponent of lam + |lam|)."""
    fp, n, e = rep.fp, rep.n, rep.fp.e
    mod, unramified = pi_u(rep), is_unramified_rep(rep)
    for lam in box(n - 1, order):
        lam_e = tuple(e * x for x in lam)
        w = spherical_value(mod, lam_e + (0,)) if unramified else essential_value(rep, lam_e)
        if not w.is_zero():
            d = sum(lam)
            yield d, (w, fp.q_E_half(e * (modulus_exponent(lam) + d)))


def rs_terms(m1, m2, order, width):
    """(degree, factors) over the whole box [-width, width]^(n-1): the
    two spherical values and the weight q_E^(modulus exponent + |lam|/2)."""
    for lam in itertools.product(range(-width, width + 1), repeat=m1.r - 1):
        d = sum(lam)
        if d < 0 or d > order:
            continue
        w1 = spherical_value(m1, tuple(lam) + (0,))
        w2 = spherical_value(m2, tuple(lam))
        if w1.is_zero() or w2.is_zero():
            continue
        yield d, (w1, w2, m1.fp.q_E_half(2 * modulus_exponent(tuple(lam)) + d))


def iwasawa_sum(terms, order):
    """Coefficients 0..order of the sum of the terms, as AlgNum."""
    coeffs = [ALG_ZERO] * (order + 1)
    for d, factors in terms:
        term = ALG_ONE
        for x in factors:
            term = term * x
        coeffs[d] = coeffs[d] + term
    return coeffs


def brute_flicker(mod, order):
    return iwasawa_sum(flicker_terms(mod, order), order)


def brute_mirabolic(rep, order):
    return iwasawa_sum(mirabolic_terms(rep, order), order)


def brute_rs(m1, m2, order, width):
    return iwasawa_sum(rs_terms(m1, m2, order, width), order)


def kernel_mismatches(kernel, brute):
    """Indices where the brute coefficient has a nonzero sqrt(q_F)
    component or a Q(i) part other than the kernel's coefficient."""
    assert kernel.order == len(brute) - 1
    return [d for d, (k, c) in enumerate(zip(kernel.coeffs, brute))
            if not c.b.is_zero() or c.a != k]
