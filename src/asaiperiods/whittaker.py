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
column set, extended by a Laplace expansion along the new top row. Row
i of a Jacobi-Trudi matrix is a stretch (h_start, ..., h_(start+n-1))
of the table, so it is read off the table in place: GaussRows lays
the table out once, each entry beside its negation and the two sums
that Gauss's three-product multiplication needs, and for each column
set of a minor the expansion walks only the columns that set leaves
free, on a list made the first time the set is met. schur() folds the
rows of its one partition. The lattice sums (periods._schur_sum) build
all partitions from the last row up: since the expansion is linear in
the minors below, a sum of Schur values expands each row once against
the summed minors of every tail it can sit on, and a sum of products of
two Schur values walks the partitions so that those with the same tail
share its minors. Their top row leaves one determinant per part:
expand_top_row() sums each in two ints, over the minors below
flattened once for a run of parts, with no map. The tests check
schur() against a second, independent algorithm, the bialternant
quotient in tests/iwasawa.py, whose alternants are determinants by
exact elimination over Q(i) and share no step with expand_row.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

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


class GaussRows:
    """The int-pair table h laid out for expand_row, once per table.

    entries holds h_i = a + bi at place 2i as (a, b, a + b, b - a), and
    -h_i at place 2i + 1, so that in the loop a signed product of an
    entry with a minor c + di takes Gauss's three multiplications,
    k = a(c + d), re = k - d(a + b), im = k + c(b - a), and no negation.
    A real entry and its negation share the two ints a and -a, so a
    real table holds no more ints than twice h. free maps (n, first) to
    a map from each column set (a bitmask) that expand_row has met to
    its free columns first <= j < n, as pairs (2j + sign parity,
    mask | 1 << j): filled one mask at a time, so a sum at the work cap
    holds a few hundred masks, where a table of every mask would hold
    (n + 1) * 2^n.
    """

    __slots__ = ("entries", "free")

    def __init__(self, h: Sequence[tuple]):
        self.entries = entries = []
        for a, b in h:
            na = -a
            if b:
                entries += (a, b, a + b, b - a), (na, -b, na - b, a - b)
            else:
                entries += (a, 0, a, na), (na, 0, na, a)
        self.free: dict = {}


def _free_columns(mask: int, first: int, n: int) -> list:
    return [(2 * j + ((mask & ((1 << j) - 1)).bit_count() & 1), mask | 1 << j)
            for j in range(first, n) if not mask >> j & 1]


def expand_row(rows: GaussRows, start: int, n: int, below: dict, out: dict | None = None) -> dict:
    """Minors of a matrix one row taller, by Laplace expansion along
    the new top row (h_start, ..., h_(start+n-1)), read off
    rows = GaussRows(h); h at a negative index is zero.

    below maps each column set S (a bitmask) to the int-pair minor on
    the rows under the new one and the columns S. The result maps each
    S + {j} to the sum, over the S and j it comes from, of
    (-1)^(columns of S before j) * h_(start+j) * minor(S), with the zero
    sums left out. So the top row of an n x n matrix, over the n minors
    of size n-1, leaves the determinant alone, under the full mask
    (expand_top_row does that without a map). Given out, the products
    are added into out, which is returned with its zero sums kept.

    For each S the loop takes only the columns j that S leaves free,
    from the first with a nonnegative index on, each with the place in
    rows.entries of h_(start+j) or of its negation: one step per product. A
    complex entry times a complex minor takes three multiplications; a
    real entry or a real minor takes two.
    """
    first = -start if start < 0 else 0
    free = rows.free.get((n, first))
    if free is None:
        free = rows.free[n, first] = {}
    entries = rows.entries
    base = 2 * start
    fresh = out is None
    if fresh:
        out = {}
    get = out.get
    for mask, (c, d) in below.items():
        cols = free.get(mask)
        if cols is None:
            cols = free[mask] = _free_columns(mask, first, n)
        if d:
            s = c + d
            for at, key in cols:
                a, b, apb, bma = entries[base + at]
                if b:
                    k = a * s
                    tr, ti = k - d * apb, k + c * bma
                else:
                    tr, ti = a * c, a * d
                got = get(key)
                out[key] = (tr, ti) if got is None else (got[0] + tr, got[1] + ti)
        else:
            for at, key in cols:
                a, b, _, _ = entries[base + at]
                tr, ti = a * c, b * c
                got = get(key)
                out[key] = (tr, ti) if got is None else (got[0] + tr, got[1] + ti)
    return {key: v for key, v in out.items() if v[0] or v[1]} if fresh else out


def expand_top_row(rows: GaussRows, n: int, below: dict, starts: Iterable[int]) -> Iterator[tuple]:
    """For each start >= 0 in starts, the int-pair determinant, zero
    included, that expand_row(rows, start, n, below) leaves under the
    full mask; below holds minors on n-1 of the n columns.

    The minor c + di on every column but j meets only h_(start+j), with
    the sign (-1)^j, so below is flattened once into terms (the place of
    that signed entry past 2*start in rows.entries, c, d, c + d), and a
    determinant is a sum over them in two ints, by Gauss's three
    products: no map, no free-column list, no zero filter.
    """
    full = (1 << n) - 1
    terms = []
    for mask, (c, d) in below.items():
        j = (full ^ mask).bit_length() - 1
        terms.append((2 * j + (j & 1), c, d, c + d))
    entries = rows.entries
    for start in starts:
        base = 2 * start
        tr = ti = 0
        for at, c, d, s in terms:
            a, b, apb, bma = entries[base + at]
            if b:
                k = a * s
                tr += k - d * apb
                ti += k + c * bma
            else:
                tr += a * c
                ti += a * d
        yield tr, ti


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
    rows = GaussRows(h_table(beta, lam2[0] - 1 + m))
    # trailing zero parts add unit diagonal rows, so they are dropped
    parts = [x for x in lam2 if x]
    n = len(parts)
    minors = {0: (1, 0)}
    for i in range(n - 1, -1, -1):
        minors = expand_row(rows, parts[i] - i, n, minors)
    re, im = minors.get((1 << n) - 1, (0, 0))
    det = GaussRat.scaled(re, im, d ** sum(lam2))
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
