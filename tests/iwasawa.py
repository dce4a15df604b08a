"""The weighted Iwasawa sums, term by term, as references for the
Schur-sum kernel of asaiperiods.periods.

Each term is a product of Whittaker values from spherical_value or
essential_value and a modulus weight, all monomials c * q_F^(m/2) held
as (c, m) pairs: over a ramified pair single factors can have odd m.
The sums run over an integer box with no dominance constraint assumed,
so every term outside the cone must vanish on its own through the
Whittaker values. Each coefficient keeps two accumulators: the Q(i)
sum of the terms with even m, and the sum of the sqrt(q_F)
coefficients of the terms with odd m. A kernel coefficient is confirmed
when the odd sum is zero and the even sum equals it.

schur_bialternant is the second route to a Schur value, the oracle of
whittaker.schur: a quotient of alternants, both determinants by exact
elimination over Q(i), not by Laplace expansion.
"""

import itertools

from asaiperiods.ratfunc import eliminate
from asaiperiods.scalars import GAUSS_ONE, GAUSS_ZERO, GaussRat
from asaiperiods.segments import is_unramified_rep, pi_u
from asaiperiods.whittaker import (
    _shift_nonnegative,
    essential_value,
    is_dominant,
    modulus_exponent,
    spherical_value,
)


def schur_bialternant(lam, alpha):
    """Schur polynomial s_lam(alpha) as a quotient of alternants; needs
    distinct alpha. lam must be weakly decreasing and as long as alpha."""
    m = len(alpha)
    if len(lam) != m:
        raise ValueError("lam and alpha must have the same length")
    if not is_dominant(lam):
        raise ValueError("not dominant")
    if m == 0:
        return GAUSS_ONE
    lam2, pre = _shift_nonnegative(lam, alpha)
    numer = [[alpha[i] ** (lam2[j] + m - 1 - j) for j in range(m)] for i in range(m)]
    vander = [[alpha[i] ** (m - 1 - j) for j in range(m)] for i in range(m)]
    _, dv = eliminate(vander, m)
    if dv.is_zero():
        raise ValueError("bialternant form needs distinct alpha values")
    return pre * eliminate(numer, m)[1] / dv


def box(m, order):
    """Every lam in Z_{>=0}^m of total degree <= order, dominant or not."""
    for lam in itertools.product(range(order + 1), repeat=m):
        if sum(lam) <= order:
            yield lam


def flicker_terms(mod, order):
    """(degree, factors): the spherical value at e*lam and the weight
    q_F^h = q_E^(e*h/2), h the modulus exponent of lam."""
    e = mod.fp.e
    for lam in box(mod.r, order):
        w = spherical_value(mod, tuple(e * x for x in lam))
        if w[0]:
            yield sum(lam), (w, (GAUSS_ONE, 2 * modulus_exponent(lam)))


def mirabolic_terms(rep, order):
    """(degree, factors): the spherical value at (e*lam, 0) for an
    unramified rep, the essential value at e*lam otherwise, and the
    weight q_F^(modulus exponent of lam + |lam|)."""
    n, e = rep.n, rep.fp.e
    mod, unramified = pi_u(rep), is_unramified_rep(rep)
    for lam in box(n - 1, order):
        lam_e = tuple(e * x for x in lam)
        w = spherical_value(mod, lam_e + (0,)) if unramified else essential_value(rep, lam_e)
        if w[0]:
            d = sum(lam)
            yield d, (w, (GAUSS_ONE, 2 * (modulus_exponent(lam) + d)))


def rs_terms(m1, m2, order, width):
    """(degree, factors) over the whole box [-width, width]^(n-1): the
    two spherical values and the weight q_E^(modulus exponent + |lam|/2)."""
    f = m1.fp.f
    for lam in itertools.product(range(-width, width + 1), repeat=m1.r - 1):
        d = sum(lam)
        if d < 0 or d > order:
            continue
        w1 = spherical_value(m1, tuple(lam) + (0,))
        w2 = spherical_value(m2, tuple(lam))
        if w1[0] and w2[0]:
            yield d, (w1, w2, (GAUSS_ONE, f * (2 * modulus_exponent(tuple(lam)) + d)))


def iwasawa_sum(terms, order, q_F):
    """Coefficients 0..order of the sum of the terms, each an (even,
    odd) pair: the Q(i) sum of the terms with even m, and the sqrt(q_F)
    coefficient of the sum of those with odd m."""
    q = GaussRat(q_F)
    coeffs = [[GAUSS_ZERO, GAUSS_ZERO] for _ in range(order + 1)]
    for d, factors in terms:
        c, m = GAUSS_ONE, 0
        for x, k in factors:
            c, m = c * x, m + k
        # c * q_F^(m/2) is c * q_F^(m//2), times sqrt(q_F) for odd m
        coeffs[d][m % 2] += c * q ** (m // 2)
    return [tuple(pair) for pair in coeffs]


def brute_flicker(mod, order):
    return iwasawa_sum(flicker_terms(mod, order), order, mod.fp.q_F)


def brute_mirabolic(rep, order):
    return iwasawa_sum(mirabolic_terms(rep, order), order, rep.fp.q_F)


def brute_rs(m1, m2, order, width):
    return iwasawa_sum(rs_terms(m1, m2, order, width), order, m1.fp.q_F)


def kernel_mismatches(kernel, brute):
    """Indices where the brute coefficient has a nonzero odd-m sum or
    an even-m sum other than the kernel's coefficient."""
    assert kernel.order == len(brute) - 1
    return [d for d, (k, (even, odd)) in enumerate(zip(kernel.coeffs, brute))
            if odd or even != k]
