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
table of complete homogeneous symmetric polynomials, in Gaussian
integers held as plain (re, im) int pairs: the denominators of the
Satake values are cleared once (beta = D*alpha), the table and the
division-free determinant stay in integers, and s_lam(alpha) comes out
of one division by D^|lam|. Every determinant is built bottom-up, one
row at a time, by expand_row(): the minors of the rows below on every
column set, extended by a Laplace expansion along the new top row.
schur() folds the rows of its one partition. The lattice sums
(periods._schur_sum) build all partitions from the last row up: since
the expansion is linear in the minors below, a sum of Schur values
expands each row once against the summed minors of every tail it can
sit on, and a sum of products of two Schur values walks the partitions
so that those with the same tail share its minors. The bialternant
quotient, on GaussRat values, is provided as a second, independent
algorithm for cross-validation.
"""

from __future__ import annotations

from typing import Sequence

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


def _det(mat) -> GaussRat:
    """Division-free GaussRat determinant by Laplace expansion over
    column subsets, for the bialternant oracle."""
    n = len(mat)
    if n == 0:
        return GAUSS_ONE
    memo: dict[int, GaussRat] = {}

    def rec(row: int, mask: int) -> GaussRat:
        if row == n:
            return GAUSS_ONE
        got = memo.get(mask)
        if got is not None:
            return got
        total = GAUSS_ZERO
        pos = 0
        r = mat[row]
        for col in range(n):
            bit = 1 << col
            if mask & bit:
                continue
            entry = r[col]
            if not entry.is_zero():
                sub = rec(row + 1, mask | bit)
                if not sub.is_zero():
                    term = entry * sub
                    total = total + term if pos % 2 == 0 else total - term
            pos += 1
        memo[mask] = total
        return total

    return rec(0, 0)


def jt_row(h: Sequence[tuple], start: int, n: int) -> list:
    """Row (h_start, h_(start+1), ..., h_(start+n-1)) of a Jacobi-Trudi
    matrix, read off the int-pair table h; negative indices are zero."""
    return [h[start + j] if start + j >= 0 else (0, 0) for j in range(n)]


def expand_row(row: Sequence[tuple], below: dict) -> dict:
    """Minors of a matrix one row taller, by Laplace expansion along
    the new top row.

    below maps each column set S (a bitmask) to the nonzero int-pair
    minor on the rows under row and the columns S; the result maps each
    S + {j} to sum over j of (-1)^(columns of S before j) * row[j] *
    minor(S). Zero entries and zero minors are left out, so the top row
    of an n x n matrix over the n minors of size n-1 costs n products
    and leaves the determinant alone, under the full mask.
    """
    entries = [(1 << j, er, ei) for j, (er, ei) in enumerate(row) if er or ei]
    out: dict = {}
    for mask, (mr, mi) in below.items():
        for bit, er, ei in entries:
            if mask & bit:
                continue
            tr, ti = er * mr - ei * mi, er * mi + ei * mr
            if (mask & (bit - 1)).bit_count() & 1:
                tr, ti = -tr, -ti
            key = mask | bit
            got = out.get(key)
            out[key] = (tr, ti) if got is None else (got[0] + tr, got[1] + ti)
    return {key: v for key, v in out.items() if v[0] or v[1]}


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
    negative entries are allowed and handled by a central shift.
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
    minors = {0: (1, 0)}
    for i in range(n - 1, -1, -1):
        minors = expand_row(jt_row(h, parts[i] - i, n), minors)
    re, im = minors.get((1 << n) - 1, (0, 0))
    det = GaussRat.scaled(re, im, d ** sum(lam2))
    return det if pre == GAUSS_ONE else pre * det


def schur_bialternant(lam: Sequence[int], alpha: Sequence[GaussRat]) -> GaussRat:
    """Schur polynomial as a quotient of alternants; needs distinct alpha.

    Independent of the Jacobi-Trudi route, used for cross-validation.
    """
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
    dv = _det(vander)
    if dv.is_zero():
        raise ValueError("bialternant form needs distinct alpha values")
    return pre * _det(numer) / dv


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
