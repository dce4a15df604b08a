"""Torus values of spherical and essential Whittaker functions.

The spherical value at a dominant cocharacter is the half-power of the
modulus character times a Schur polynomial in the Satake values
(Shintani's formula, valid for unramified standard modules). The
essential-vector value reduces to a spherical value of the unramified
support times an explicit half-power, with unit-coordinate indicator
constraints on the remaining torus entries; the additive character is
normalized to conductor zero throughout. So every value is a monomial
c * q_F^(m/2), held as the pair (c, m) of a GaussRat and an int: a half
power q_E^(h/2) is m = f*h, a product of values multiplies the c and
adds the m, and the zero value is (GAUSS_ZERO, 0). Over a ramified
pair m can be odd.

Schur polynomials are computed by the Jacobi-Trudi determinant over a
table of complete homogeneous symmetric polynomials (h_table): the
denominators of the Satake values are cleared once (beta = D*alpha),
the table holds Gaussian integers as plain (re, im) int pairs, schur()
takes the determinant of its one partition by exact elimination over
Q(i) (ratfunc.eliminate), and s_lam(alpha) comes out of one division by
D^|lam|. The lattice sums (periods._schur_sum) build their tables with
h_table too, at a Gaussian scale, but take no determinant per
partition: one Pfaffian of truncated series sums all partitions at
once. So schur() is their independent oracle. The tests check schur()
against the bialternant quotient in tests/iwasawa.py, a quotient of
two alternants: it shares the elimination with schur() but not the
matrix.
"""

from __future__ import annotations

from typing import Sequence

from .ratfunc import eliminate
from .scalars import GAUSS_ONE, GAUSS_ZERO, GaussRat
from .segments import GenericRep, UnramifiedModule, is_unramified_rep, pi_u
from .series import clear_denominators

Cochar = tuple  # integer tuple (lam_1, ..., lam_m) for diag(unif^lam_i)
Value = tuple  # (c, m) for c * q_F^(m/2), c a GaussRat and m an int

ZERO_VALUE = (GAUSS_ZERO, 0)


def is_dominant(lam: Sequence[int]) -> bool:
    return all(lam[i] >= lam[i + 1] for i in range(len(lam) - 1))


def h_table(beta: Sequence[tuple], upto: int) -> list:
    """Complete homogeneous symmetric polynomials h_0..h_upto of the
    Gaussian integers beta, as (re, im) int pairs."""
    h = [(1, 0)] + [(0, 0)] * upto
    for br, bi in beta:
        cr, ci = 1, 0
        for k in range(1, upto + 1):
            hr, hi = h[k]
            cr, ci = hr + br * cr - bi * ci, hi + br * ci + bi * cr
            h[k] = (cr, ci)
    return h


def _shift_nonnegative(lam: Sequence[int], alpha: Sequence[GaussRat]):
    """Normalize lam to nonnegative entries; returns (lam', prefactor)
    with s_lam = prefactor * s_lam'."""
    last = lam[-1]
    if last >= 0:
        return tuple(lam), GAUSS_ONE
    shift = -last
    prod = GAUSS_ONE
    for a in alpha:
        prod = prod * a
    return tuple(x + shift for x in lam), prod ** (-shift)


def schur(lam: Sequence[int], alpha: Sequence[GaussRat]) -> GaussRat:
    """Schur polynomial s_lam(alpha) by the Jacobi-Trudi determinant.

    lam must be weakly decreasing and the same length as alpha;
    negative entries are allowed and handled by a central shift. The
    values are cleared at the integer scale D, not at the Gaussian one
    of the lattice sums, so this is an independent oracle for them.
    """
    m = len(alpha)
    if len(lam) != m:
        raise ValueError("lam and alpha must have the same length")
    if not is_dominant(lam):
        raise ValueError("not dominant")
    if m == 0:
        return GAUSS_ONE
    lam2, pre = _shift_nonnegative(lam, alpha)
    if lam2[0] == 0:
        return pre
    d, beta = clear_denominators(alpha)
    h = h_table(beta, lam2[0] - 1 + m)
    # trailing zero parts add unit diagonal rows, so they are dropped
    parts = [x for x in lam2 if x]
    n = len(parts)
    mat = [[GaussRat(*h[p - i + j]) if p - i + j >= 0 else GAUSS_ZERO for j in range(n)]
           for i, p in enumerate(parts)]
    det = eliminate(mat, n)[1] / d ** sum(lam2)
    return det if pre == GAUSS_ONE else pre * det


def modulus_exponent(lam: Sequence[int]) -> int:
    """Exponent sum(lam_i * (m + 1 - 2i)); the torus modulus character is
    q^(-exponent), and callers pick the base and sign."""
    m = len(lam)
    return sum(x * (m + 1 - 2 * i) for i, x in enumerate(lam, start=1))


def spherical_value(mod: UnramifiedModule, lam: Sequence[int]) -> Value:
    """Spherical Whittaker torus value at diag(unif_E^lam).

    Zero off the dominant cone; on it, q_E^(-modulus_exponent/2) times
    the Schur polynomial of the Satake values, that is the pair
    (schur, -f * modulus_exponent).
    """
    if len(lam) != mod.r:
        raise ValueError("cocharacter length must equal the module rank")
    if not is_dominant(lam):
        return ZERO_VALUE
    c = schur(lam, mod.satake)
    return (c, -mod.fp.f * modulus_exponent(lam)) if c else ZERO_VALUE


def essential_value(rep: GenericRep, lam: Sequence[int]) -> Value:
    """Essential-vector torus value W(diag(a, 1)) for a ramified rep.

    lam lists the E-valuations of a_1..a_(n-1). Entries past the
    unramified-support rank r must be units (valuation 0), a_r must be
    integral, and the value is the spherical value of the unramified
    support times q_E^(-(sum of the first r entries)(n - r)/2).
    """
    if is_unramified_rep(rep):
        raise ValueError("representation is unramified: use spherical_value")
    n = rep.n
    if len(lam) != n - 1:
        raise ValueError("cocharacter length must be n-1 = %d" % (n - 1))
    mod = pi_u(rep)
    r = mod.r
    head = tuple(lam[:r])
    if any(lam[r:]) or (r > 0 and head[-1] < 0):
        return ZERO_VALUE
    c, m = spherical_value(mod, head)
    if not c:
        return ZERO_VALUE
    return c, m - rep.fp.f * sum(head) * (n - r)
