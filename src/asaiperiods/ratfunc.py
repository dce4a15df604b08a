"""Rational functions in t, series expansion, and series reconstruction.

Coefficients and values are GaussRat: the closed forms, their
expansions and their values at t = q_F^(-s) all lie in Q(i). RatFunc
is always kept in canonical reduced form: numerator and denominator
coprime, denominator constant term equal to 1. With that normalization
componentwise equality is true equality of rational functions.

Factor products, reductions, expansions and values run on scaled
Gaussian integers, held as (re, im) int pairs. packed_product, the one
product kernel, builds prod(1 - c*t^k) in u = t/D, where coefficient m
is a Gaussian integer over D^m, as two packed ints (Kronecker
substitution: the real and the imaginary part at u = 2^w, w a whole
number of bytes past a bound on every coefficient), one shift and two
or four small products per factor, split into (re, im, D) digit lists
once at the end. Its callers keep those ints: same_product decides
whether two factor lists have one product by cross-multiplying the
digits, and descriptors.graded_texts renders them as JSON text;
from_factors alone grades them into a RatFunc. The constructor reduces
through poly_gcd, the subresultant remainder sequence over Z[i], which
for coprime parts (almost every closed form) ends at a constant
remainder; series_of runs an integer recurrence whose coefficient k is
over D^(k+1); eval_at is two integer Horner sums (Poly.__call__) and
one Gaussian division. Each output coefficient becomes a GaussRat once,
by one division (GaussRat.scaled); the public coefficients stay
GaussRat.

reconstruct recovers the unique rational function within given degree
bounds from a long enough truncated expansion, by exact Gaussian
elimination on the linear relations satisfied by the denominator
coefficients, and then re-checks every available coefficient. That
elimination (eliminate) is the package's one exact solver over Q(i):
it also gives the determinants of the bialternant Schur oracle in
tests/iwasawa.py. The period checks do not need it when the series
matches a closed form (Pade uniqueness already certifies that form);
they call it only on a mismatch, to report which rational function the
series actually is.
"""

from __future__ import annotations

from itertools import zip_longest
from math import gcd

from .scalars import GAUSS_ONE, GAUSS_ZERO, GaussRat
from .series import Poly, Series, clear_denominators, graded, poly_gcd, scaled_pair


class RatFunc:
    __slots__ = ("num", "den")

    def __init__(self, num: Poly, den: Poly | None = None):
        if den is None:
            den = Poly.one()
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        if den.coeff(0).is_zero():
            raise ValueError("denominator constant term is zero (pole at t=0)")
        if num.is_zero():
            self.num = Poly.zero()
            self.den = Poly.one()
            return
        if num.degree > 0 and den.degree > 0:
            g = poly_gcd(num, den)
            if g.degree > 0:
                num = num // g
                den = den // g
        if den.coeff(0) != GAUSS_ONE:
            c = den.coeff(0).inverse()
            num = num * c
            den = den * c
        self.num = num
        self.den = den

    @classmethod
    def one(cls) -> "RatFunc":
        return cls(Poly.one())

    @classmethod
    def from_factors(cls, factors) -> "RatFunc":
        """1 / prod(1 - c*t^k) for (c, k) pairs, k >= 1: the graded
        coefficients of packed_product(factors)."""
        return cls(Poly.one(), Poly(graded(*packed_product(factors))))

    @property
    def num_degree(self) -> int:
        return self.num.degree

    @property
    def den_degree(self) -> int:
        return self.den.degree

    def __mul__(self, other):
        if isinstance(other, RatFunc):
            return RatFunc(self.num * other.num, self.den * other.den)
        if isinstance(other, Poly):
            return RatFunc(self.num * other, self.den)
        return NotImplemented

    def __eq__(self, other):
        if not isinstance(other, RatFunc):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    def __repr__(self):
        return "RatFunc((%s) / (%s))" % (self.num.to_str(), self.den.to_str())


def packed_product(factors) -> tuple[list, list, int]:
    """(re, im, D) for the product prod(1 - c*t^k) over (c, k) pairs,
    k >= 1: coefficient m of the product is (re[m] + im[m]*i) / D^m.

    The product runs in u = t/D, D the common denominator of the c:
    factor 1 - c*t^k is 1 - b*u^k with b = c*D^k a Gaussian integer,
    so coefficient m of the product is a Gaussian integer over D^m.
    Its real and imaginary parts are packed, each as one int: the
    part's polynomial at u = 2^w (Kronecker substitution). A factor
    takes A - ((b*A) << w*k), four small-by-big products, or two
    when b is real, and those ints are exact whatever their digits:
    w only has to make the final digits readable. The norm
    |x|_1 = |Re x| + |Im x| is submultiplicative, and every
    coefficient of a partial product is a signed sum of distinct
    products of the b, so the |.|_1 of all its coefficients sum to at
    most B = prod(1 + |b|_1). w is the least whole number of bytes
    with w >= bits(B) + 1, so every part of every coefficient lies
    strictly inside +-2^(w-1); an offset of 2^(w-1) in every digit
    makes them unsigned, and to_bytes splits them (_digits). The lists
    hold 1 + sum(k) digits, trailing zeros included.
    """
    factors = list(factors)
    if any(k < 1 for _, k in factors):
        raise ValueError("factor powers must be >= 1")
    den, scaled = clear_denominators([c for c, _ in factors])
    bound = 1
    steps = []
    for (cr, ci), (_, k) in zip(scaled, factors):
        # c*D^k = (D*c) * D^(k-1)
        s = den ** (k - 1)
        br, bi = cr * s, ci * s
        bound *= 1 + abs(br) + abs(bi)
        steps.append((br, bi, k))
    size = (bound.bit_length() + 8) // 8  # bytes per digit
    w = 8 * size
    re, im = 1, 0
    for br, bi, k in steps:
        if bi:
            re, im = re - ((br * re - bi * im) << w * k), im - ((br * im + bi * re) << w * k)
        else:
            re, im = re - ((br * re) << w * k), im - ((br * im) << w * k)
    terms = sum(k for _, _, k in steps) + 1
    return _digits(re, size, terms), _digits(im, size, terms), den


def same_product(f1, f2) -> bool:
    """Whether the factor lists f1 and f2 have one product
    prod(1 - c*t^k), decided exactly on their packed products:
    coefficient m is re[m]/D^m + (im[m]/D^m)*i on each side, so the two
    agree when re1[m]*D2^m == re2[m]*D1^m and im1[m]*D2^m ==
    im2[m]*D1^m. A shorter list counts as zero past its end."""
    re1, im1, d1 = packed_product(f1)
    re2, im2, d2 = packed_product(f2)
    p1 = p2 = 1  # D1^m and D2^m
    for x1, y1, x2, y2 in zip_longest(re1, im1, re2, im2, fillvalue=0):
        if x1 * p2 != x2 * p1 or y1 * p2 != y2 * p1:
            return False
        p1 *= d1
        p2 *= d2
    return True


def _digits(packed: int, size: int, terms: int) -> list:
    """Digits 0..terms-1 of packed in base 2^w, w = 8*size, each strictly
    inside +-2^(w-1): an offset of 2^(w-1) in every digit makes them
    unsigned, to be split as bytes."""
    if not packed:
        return [0] * terms
    half = bytes(size - 1) + b"\x80"  # 2^(w-1), little-endian
    data = (packed + int.from_bytes(half * terms, "little")).to_bytes(size * terms, "little")
    low = 1 << (8 * size - 1)
    return [int.from_bytes(data[i:i + size], "little") - low for i in range(0, size * terms, size)]


def _covering_scale(scale: int, c: GaussRat, j: int) -> int:
    """A multiple of scale whose j-th power times c is a Gaussian integer."""
    return scale * (c.den // gcd(pow(scale, j, c.den), c.den))


def series_of(rf: RatFunc, order: int) -> Series:
    """Maclaurin coefficients 0..order of rf, exact.

    An integer recurrence at scale D^(k+1): D is chosen so that den
    coefficient j times D^j and num coefficient k times D^(k+1) are
    Gaussian integers (the extra power of D covers a num whose constant
    term is not integral), and then coefficient k of the series is a
    Gaussian integer over D^(k+1), divided once.
    """
    if order < 0:
        raise ValueError("order must be >= 0")
    num, den = rf.num.coeffs, rf.den.coeffs
    scale = 1
    for j in range(1, len(den)):
        scale = _covering_scale(scale, den[j], j)
    for k, c in enumerate(num):
        scale = _covering_scale(scale, c, k + 1)
    steps = []  # (j, den coefficient j * D^j) for the nonzero ones
    for j in range(1, len(den)):
        if not den[j].is_zero():
            steps.append((j,) + scaled_pair(den[j], scale ** j))
    sr, si = [], []
    coeffs = []
    scale_k = scale
    for k in range(order + 1):
        r, i = scaled_pair(num[k], scale_k) if k < len(num) else (0, 0)
        for j, dr, di in steps:
            if j > k:
                break
            pr, pi = sr[k - j], si[k - j]
            r -= dr * pr - di * pi
            i -= dr * pi + di * pr
        sr.append(r)
        si.append(i)
        coeffs.append(GaussRat.scaled(r, i, scale_k))
        scale_k *= scale
    return Series(coeffs)


def eval_at(rf: RatFunc, t0) -> GaussRat:
    """Exact value at t0; raises ZeroDivisionError on a pole."""
    x = GaussRat._coerce(t0)
    if x is None:
        raise TypeError("evaluation point must be a scalar")
    d = rf.den(x)
    if d.is_zero():
        raise ZeroDivisionError("pole at evaluation point")
    return rf.num(x) / d


def eliminate(mat, n: int):
    """Forward elimination over Q(i) on the first n columns of mat, in
    place: each pivot row is scaled to a leading 1 and cleared below,
    and later columns (a right-hand side) ride along.

    Returns the pivot columns, one per row from the top, and the
    determinant of the first n columns when mat has n rows: the signed
    product of the pivots, zero when a column has none.
    """
    m = len(mat)
    pivots = []
    det = GAUSS_ONE
    for col in range(n):
        row = len(pivots)
        pivot = next((r for r in range(row, m) if not mat[r][col].is_zero()), None)
        if pivot is None:
            continue
        if pivot != row:
            mat[row], mat[pivot] = mat[pivot], mat[row]
            det = -det
        det = det * mat[row][col]
        inv = mat[row][col].inverse()
        # entries left of col are zero in this row and every row below
        prow = [x * inv for x in mat[row][col:]]
        mat[row][col:] = prow
        for r in range(row + 1, m):
            f = mat[r][col]
            if not f.is_zero():
                mat[r][col:] = [x - f * y for x, y in zip(mat[r][col:], prow)]
        pivots.append(col)
    return pivots, det if len(pivots) == n else GAUSS_ZERO


def _solve_exact(rows, rhs):
    """Gaussian elimination over Q(i): eliminate, then
    back-substitution. rows: list of coefficient lists, all of one
    length, which may be zero.

    Returns the solution with free variables set to zero, or None when
    the system is inconsistent. The pivot columns depend on the matrix
    alone, so this is the solution full Gauss-Jordan reduction gives.
    """
    n = len(rows[0]) if rows else 0
    mat = [list(r) + [b] for r, b in zip(rows, rhs)]
    pivots, _ = eliminate(mat, n)
    if any(not r[n].is_zero() for r in mat[len(pivots):]):
        return None
    sol = [GAUSS_ZERO] * n
    for r in range(len(pivots) - 1, -1, -1):
        col = pivots[r]
        acc = mat[r][n]
        for c in range(col + 1, n):
            x = mat[r][c]
            if not x.is_zero() and not sol[c].is_zero():
                acc = acc - x * sol[c]
        sol[col] = acc
    return sol


def reconstruct(s: Series, max_num_deg: int, max_den_deg: int) -> RatFunc:
    """Unique rational function within the degree bounds matching s.

    Requires s.order >= max_num_deg + max_den_deg + 1. Raises
    ValueError("reconstruction inconsistent") when no rational function
    with the given bounds reproduces every stored coefficient.
    """
    if max_num_deg < 0 or max_den_deg < 0:
        raise ValueError("degree bounds must be >= 0")
    if s.order < max_num_deg + max_den_deg + 1:
        raise ValueError(
            "series order %d too small for degree bounds (%d, %d)"
            % (s.order, max_num_deg, max_den_deg)
        )
    c = s.coeffs
    rows = []
    rhs = []
    for j in range(max_num_deg + 1, s.order + 1):
        rows.append([(c[j - i] if j - i >= 0 else GAUSS_ZERO) for i in range(1, max_den_deg + 1)])
        rhs.append(-c[j])
    sol = _solve_exact(rows, rhs)
    if sol is None:
        raise ValueError("reconstruction inconsistent")
    den = Poly([GAUSS_ONE] + sol)
    size = max_num_deg + 1
    num = Poly((Poly(c[:size]) * den).coeffs[:size])
    candidate = RatFunc(num, den)
    if series_of(candidate, s.order) != s:
        raise ValueError("reconstruction inconsistent")
    return candidate
