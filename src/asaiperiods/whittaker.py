"""Torus values of spherical and essential Whittaker functions.

The spherical value at a dominant cocharacter is the half-power of the
modulus character times a Schur polynomial in the Satake values
(Shintani's formula, valid for unramified standard modules). The
essential-vector value reduces to a spherical value of the unramified
support times an explicit half-power, with unit-coordinate indicator
constraints on the remaining torus entries; the additive character is
normalized to conductor zero throughout.

Schur polynomials are computed by the Jacobi-Trudi determinant over a
table of complete homogeneous symmetric polynomials, in Gaussian
integers held as plain (re, im) int pairs: the denominators of the
Satake values are cleared once (beta = D*alpha), the table and the
division-free determinant stay in integers, and s_lam(alpha) comes out
of one division by D^|lam|. schur() builds the table for each call;
the lattice sums build one per sum and read every determinant off it
through jacobi_trudi(). The bialternant quotient, on GaussRat values,
is provided as a second, independent algorithm for cross-validation.
"""

from __future__ import annotations

from math import lcm
from typing import Sequence

from .rational import rat
from .scalars import ALG_ZERO, GAUSS_ONE, GAUSS_ZERO, AlgNum, GaussRat
from .segments import GenericRep, UnramifiedModule, is_unramified_rep, pi_u

Cochar = tuple  # integer tuple (lam_1, ..., lam_m) for diag(unif^lam_i)


def is_dominant(lam: Sequence[int]) -> bool:
    return all(lam[i] >= lam[i + 1] for i in range(len(lam) - 1))


def clear_denominators(alpha: Sequence[GaussRat]) -> tuple[int, list]:
    """(D, beta) with D the lcm of the denominators of every real and
    imaginary part of alpha and beta = D*alpha as (re, im) int pairs,
    so that s_lam(alpha) = s_lam(beta) / D^|lam|."""
    den = 1
    for a in alpha:
        den = lcm(den, int(a.re.denominator), int(a.im.denominator))
    return den, [(int(a.re * den), int(a.im * den)) for a in alpha]


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


def jacobi_trudi(h: Sequence[tuple], lam: Sequence[int]) -> tuple:
    """s_lam = det(h_(lam_i - i + j)) over the nonzero parts of the
    partition lam, read off an int-pair table h that reaches
    lam_1 + len(lam) - 1; returns an (re, im) int pair.

    Trailing zero parts add unit diagonal rows, so they are dropped.
    The determinant is the division-free Laplace expansion over column
    subsets, memoized per call only.
    """
    parts = [x for x in lam if x]
    n = len(parts)
    mat = [[h[p - i + j] if p - i + j >= 0 else (0, 0) for j in range(n)]
           for i, p in enumerate(parts)]
    memo: dict = {}

    def rec(row: int, mask: int) -> tuple:
        if row == n:
            return 1, 0
        got = memo.get(mask)
        if got is not None:
            return got
        tr = ti = 0
        pos = 0
        for col, (er, ei) in enumerate(mat[row]):
            bit = 1 << col
            if mask & bit:
                continue
            if er or ei:
                if pos & 1:
                    er, ei = -er, -ei
                sr, si = rec(row + 1, mask | bit)
                tr += er * sr - ei * si
                ti += er * si + ei * sr
            pos += 1
        memo[mask] = tr, ti
        return tr, ti

    return rec(0, 0)


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
    re, im = jacobi_trudi(h_table(beta, lam2[0] - 1 + m), lam2)
    den = d ** sum(lam2)
    det = GaussRat(rat(re, den), rat(im, den))
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


def spherical_value(mod: UnramifiedModule, lam: Sequence[int]) -> AlgNum:
    """Spherical Whittaker torus value at diag(unif_E^lam).

    Zero off the dominant cone; on it, q_E^(-modulus_exponent/2) times
    the Schur polynomial of the Satake values.
    """
    if len(lam) != mod.r:
        raise ValueError("cocharacter length must equal the module rank")
    if not is_dominant(lam):
        return ALG_ZERO
    half = mod.fp.q_E_half(-modulus_exponent(lam))
    return half * schur(lam, mod.satake)


def essential_value(rep: GenericRep, lam: Sequence[int]) -> AlgNum:
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
    for i in range(r, n - 1):
        if lam[i] != 0:
            return ALG_ZERO
    head = tuple(lam[:r])
    if r > 0 and head[r - 1] < 0:
        return ALG_ZERO
    sph = spherical_value(mod, head)
    if sph.is_zero():
        return ALG_ZERO
    return sph * rep.fp.q_E_half(-sum(head) * (n - r))
