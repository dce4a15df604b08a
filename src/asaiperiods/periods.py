"""Lattice-sum period integrals and theorem-level verification reports.

The three integrals in scope (the twisted-tensor integral against the
standard lattice Schwartz function, the mirabolic period, and the
Rankin-Selberg pairing) all collapse under the Iwasawa decomposition
to sums over dominant cocharacter lattices, with all compact volumes
normalized to one. At each lattice point the Whittaker values are
delta^(1/2) times Schur polynomials (Shintani's formula), and the
modulus weight of the Iwasawa measure is exactly the inverse of those
half powers: every power of q cancels termwise, which leaves plain
sums of Schur values (the Littlewood and Cauchy sums). All three
integrals are therefore one Schur-sum kernel with different ranks and
scalings, _schur_sum: the Pfaffian of a small matrix of truncated
series, by the minor summation formula for the Littlewood sums and by
Cauchy-Binet for the Cauchy sum. Each sum is truncated by total
t-degree, which is exact: every omitted term has strictly larger
degree. Analytic continuation goes through the closed form: a
truncated series that matches it to order num_deg + den_deg + 1 or
beyond determines it (Pade uniqueness), and its exact value is taken
there, never by summing at a point. Rational reconstruction runs only
on a mismatch, to report which rational function the series is.

Every sum is capped before it starts, by its work (lattice_work) and by
the size of its coefficients (coefficient_bits against printable_bits).
"""

from __future__ import annotations

import sys
from math import log10
from typing import Sequence

from .lfactors import closed_form_for, lstar_at_1, rs_L
from .ratfunc import RatFunc, reconstruct, series_of
from .scalars import GaussRat
from .segments import (
    GenericRep,
    UnramifiedModule,
    contragredient,
    epsilon_twist_sign,
    is_conjugate_selfdual,
    is_unramified_rep,
    pi_u,
)
from .series import (
    Series,
    clear_denominators,
    clear_gaussian_denominators,
    gauss_mul,
    gauss_pow,
    graded,
)
from .whittaker import h_table


# Cap on lattice_work(k, order). The benchmark workloads run rank 4 at
# order 40 (118,176); a rank-5 sum at order 40 (554,816) is 18x below the
# cap. At the cap, on 2 vCPUs with Python 3.11 and the first k + 1 of the
# Satake values 1/2, -1/3, 2/5, 3/7, -5/6, 4/15, 1/35 (denominator 210),
# a mirabolic sum took 0.43-0.44 s at rank 3 (order 352, e = 2),
# 0.15-0.17 s at e = 1, and 0.007-0.025 s at ranks 4-6 (orders 132, 77,
# 55). At ranks 1 and 2 the size cap binds first: rank 1 at order 1785
# took 0.03-0.04 s, and rank 2 at order 1428 took 0.054-0.062 s.
MAX_LATTICE_WORK = 10_000_000


class OrderTooSmall(ValueError):
    """The truncation order is below the one that certifies the closed
    form (num_deg + den_deg + 1)."""

    def __init__(self, order: int, minimum: int):
        super().__init__(
            "order %d is too small to certify the closed form: "
            "the smallest order that certifies is %d" % (order, minimum)
        )


class LatticeCostError(ValueError):
    """A lattice sum past the work cap (MAX_LATTICE_WORK) or the size cap
    (printable_bits). The message names largest, the largest order that
    passes both for this sum, or for every sum of a suite."""

    def __init__(self, reason: str, largest: int, scope: str = "sum"):
        super().__init__("%s; the largest order for this %s is %d" % (reason, scope, largest))
        self.reason = reason


def certifying_order(cf: RatFunc) -> int:
    """Smallest order at which a matching series certifies cf."""
    return cf.num_degree + cf.den_degree + 1


def lattice_work(k: int, order: int) -> int:
    """Proxy for the Schur-sum kernel's work from k and order alone: the
    number of partitions with at most k parts and size at most order,
    times 2^m with m = min(k, order), the number of column sets that a
    Laplace expansion of each partition's determinant, row by row, holds
    minors on. The Pfaffian of _schur_sum takes a few series products at
    ranks 2-8, far fewer than this counts, but the number of index sets
    it memoizes grows fast past rank 8, where this count does not follow
    it. Exact up to MAX_LATTICE_WORK; once the count passes it, the value
    returned is merely above it."""
    m = min(k, order)
    if m <= 1:
        # () alone, or () and (1), ..., (order): no loop as long as order
        return (order + 1 if m else 1) << m
    # ways[j][d]: partitions of d into parts of size <= j, which are
    # equinumerous (by conjugation) with those of at most j parts; with
    # m >= 2 the count passes d^2/4 by size d, so the loop is short
    ways = [[1] for _ in range(m + 1)]
    count = 1
    for d in range(1, order + 1):
        ways[0].append(0)
        for j in range(1, m + 1):
            ways[j].append(ways[j - 1][d] + (ways[j][d - j] if d >= j else 0))
        count += ways[m][d]
        if count << m > MAX_LATTICE_WORK:
            break
    return count << m


def printable_bits() -> int:
    """Largest bit length of an integer that prints within the
    interpreter's int-to-str limit, sys.get_int_max_str_digits(). With
    that limit off or raised past its default of 4300 digits, the
    default still applies, because it also bounds the integers the
    arithmetic runs on: at it, the largest GL(2) period admitted (order
    1785 for Satake values 1/2 and 1/3) took 0.16 s on a 2-vCPU host
    with Python 3.11."""
    digits = sys.get_int_max_str_digits()
    default = sys.int_info.default_max_str_digits
    digits = min(digits, default) if digits else default
    # an integer below 2^b has at most floor(b * log10(2)) + 1 digits
    return int((digits - 1) / log10(2))


def largest_order(k: int, per_order: int) -> int:
    """Largest order at which a rank-k lattice sum whose coefficients
    take per_order bits per degree passes the work and size caps."""
    top = printable_bits() // per_order
    if lattice_work(k, top) <= MAX_LATTICE_WORK:
        return top
    low, high = 0, top  # lattice_work grows with the order
    while high - low > 1:
        mid = (low + high) // 2
        if lattice_work(k, mid) <= MAX_LATTICE_WORK:
            low = mid
        else:
            high = mid
    return low


def too_long(what: str, need: int) -> str:
    """Message for a result that could need need-bit integers, past
    printable_bits()."""
    return ("%s could need %d-bit integers, more than the %d bits that the interpreter's "
            "int-to-str limit prints" % (what, need, printable_bits()))


def coefficient_bits(alpha: Sequence[GaussRat]) -> int:
    """Bits per unit of t-degree and of e in the exact results over the
    Satake values alpha, from their sizes alone.

    Let D be the common denominator of alpha, beta = D*alpha and r its
    length. Coefficient m of a lattice sum over alpha, or of a reduced
    closed form over it, is a Gaussian integer over D^(e*m) of absolute
    value at most (r^2 + r)^m * max|beta|^(e*m): the sum of s_mu(|beta|)
    over |mu| = e*m is at most (|beta_1| + ... + |beta_r|)^(e*m), and a
    closed form has at most r^2 + r inverse roots, each at most
    max|beta|^e / D^e in absolute value and integral over Z[i] after
    scaling by D^e. So its numerators and denominators have at most
    e*m*coefficient_bits(alpha) bits. Over two sets of values (the
    Rankin-Selberg factor) the bits per degree add. The kernel's tables,
    at a Gaussian scale that divides D (_schur_sum), stay within it.
    """
    den, beta = clear_denominators(alpha)
    top = max((max(abs(br), abs(bi)).bit_length() for br, bi in beta), default=0)
    return max(den.bit_length(), top + 2 * len(alpha).bit_length() + 2)


def value_bits(r: int, bits: int, e: int, q_F: int, s: int) -> int:
    """Bound on the bits of the value at t = q_F^(-s) of a closed form
    over r Satake values alpha, given bits = coefficient_bits(alpha).
    Its degrees sum to at most d = r^2 + r, so with X = D^e * q_F^s the
    numerator and the denominator, each at t = q_F^(-s), are sums of at
    most d + 1 terms a_m * X^(deg - m) over X^deg, with a_m bounded by
    coefficient_bits; the value's numerator and denominator each
    multiply at most three such integers."""
    d = r * r + r
    return 2 * (d + 1) * (e * bits + s * q_F.bit_length())


def _schur_sum(
    alpha: Sequence[GaussRat],
    k: int,
    e: int,
    order: int,
    beta: Sequence[GaussRat] | None = None,
) -> Series:
    """Series whose coefficient d is the sum over partitions lam of d
    with at most k parts of s_(e*lam)(alpha) * s_lam(beta), the beta
    factor left out when beta is None; with beta, e must be 1.

    This is every lattice sum of the module: the Iwasawa modulus weight
    q^(modulus exponent) at a lattice point is the inverse of the
    delta^(1/2) in Shintani's formula for the Whittaker values there,
    so no power of q survives in any term. The Satake denominators are
    cleared once per variable set at the smallest Gaussian scale
    (series.clear_gaussian_denominators: alpha = a/D_g, beta = b/D_gb,
    with D = c*D_g and D_b = c_b*D_gb for the integer common
    denominators D and D_b and Gaussian integers c and c_b). The sum is
    one Pfaffian (_pfaffian) of series over the int-pair table h of
    complete homogeneous polynomials of a (and of b), and coefficient d
    is the integer sum times (c^e * c_b)^d, divided once by
    D^(e*d) * D_b^d: the same integers, and so the same GaussRat, as at
    the integer scale, from a table of fewer bits when a value's
    numerator shares a Gaussian prime with its denominator (1/(2+i) =
    (2-i)/5 takes 2+i, not 5). A sum of one-row determinants, n = 1
    below, is the table itself: coefficient q is h(e*q). It keeps the
    integer scale, since it multiplies no series, so the smaller table
    saves less than the Gaussian gcds cost.

    A partition of d <= order has at most n = min(k, order) parts, and
    padded with zero parts to exactly n it keeps its Jacobi-Trudi
    determinant (Macdonald, Symmetric Functions, I.3). Take the n x inf
    matrix T with T_i[m] = h(m - w_i), w_i = n - 1 - i: the minor of T
    on the columns m_j = mu_j + n - 1 - j, in rising order, is
    (-1)^(n(n-1)/2) * s_mu, and the columns sum to |mu| + n(n-1)/2.
    Without beta, the minor summation formula (Ishikawa and Wakayama,
    Linear Multilinear Algebra 39, 1995; Stembridge, Adv. Math. 83,
    1990) sums the minors over every column set, each times u^(its
    sum), as the Pfaffian of the skew matrix
    Q_ij = sum over m < m' of (T_i[m] T_j[m'] - T_i[m'] T_j[m]) u^(m+m')
    (_mirabolic_matrix), bordered for odd n by the column
    sum over m of T_i[m] u^m. In general it sums det(T_I) * Pf(A_I) over
    the column sets I as Pf(T A T^T), for a skew matrix A; Q takes A = 1
    above the diagonal. For e = 2, A = 1 at the even m < odd m' only
    (0 at the other m < m', and the border takes the even m only): its
    Pfaffian on I is 1 when the parities of I alternate from an even
    least column, as those of the column sets of the partitions 2*lam
    do, and 0 otherwise. With beta,
    Cauchy-Binet sums the products of the two minors as det M,
    M_xy = sum over m of T^a_x[m] T^b_y[m] t^m (_cauchy_matrix), which
    is (-1)^(n(n-1)/2) times the Pfaffian of [[0, M], [-M^T, 0]]. Either
    way coefficient d is (-1)^(n(n-1)/2) times the Pfaffian's
    coefficient in degree e*d + n(n-1)/2.

    Raises LatticeCostError, before any work, when lattice_work(k,
    order) exceeds MAX_LATTICE_WORK, or when the coefficients through
    order could need integers longer than printable_bits().
    """
    if beta is not None and e != 1:
        raise ValueError("a sum of s_(e*lam)(alpha) * s_lam(beta) needs e = 1")
    per_order = e * coefficient_bits(alpha) + (0 if beta is None else coefficient_bits(beta))
    if lattice_work(k, order) > MAX_LATTICE_WORK:
        raise LatticeCostError(
            "a lattice sum of rank %d at order %d exceeds the work cap of %d "
            "(partitions with at most %d parts and size at most %d, times 2^%d)"
            % (k, order, MAX_LATTICE_WORK, k, order, min(k, order)),
            largest_order(k, per_order),
        )
    if order * per_order > printable_bits():
        raise LatticeCostError(
            too_long("the series through order %d" % order, order * per_order),
            largest_order(k, per_order),
        )
    n = min(k, order)
    if n == 0:
        return Series([1] + [0] * order)
    if beta is None and n == 1:
        # one row: the determinant of the partition (q) is h(e*q)
        den, a = clear_denominators(alpha)
        h = h_table(a, e * order)
        return Series(graded(*zip(*h[::e]), den ** e))
    den, c, a = clear_gaussian_denominators(alpha)
    if beta is None:
        den_b, c_b = 1, (1, 0)
        pf = _pfaffian(n + n % 2, _mirabolic_matrix(a, n, e, order), order + 1)
    else:
        den_b, c_b, b = clear_gaussian_denominators(beta)
        pf = _pfaffian(2 * n, _cauchy_matrix(a, b, n, order), order + 1)
    sr = [x for x, _ in pf]
    si = [y for _, y in pf]
    # coefficient d times (c^e * c_b)^d is the sum at the integer scale,
    # and the first power carries the sign (-1)^(n(n-1)/2)
    cr, ci = gauss_mul(gauss_pow(c, e), c_b)
    pr, pi = (-1) ** (n * (n - 1) // 2), 0
    for d in range(order + 1):
        sr[d], si[d] = sr[d] * pr - si[d] * pi, sr[d] * pi + si[d] * pr
        pr, pi = pr * cr - pi * ci, pr * ci + pi * cr
    return Series(graded(sr, si, den ** e * den_b))


def _pfaffian(count: int, entry, size: int) -> list:
    """Coefficients 0..size-1 of the Pfaffian of a count x count skew
    matrix of series, as int pairs, past the sum of the weights W of its
    indices: entry(i, j), i < j, gives coefficients 0..size-1 of the
    entry past degree W_i + W_j, below which it has no term, or None for
    a zero entry.

    Each Pfaffian is expanded along its first index s_0: Pf(S) is the
    sum over the j in S after s_0 of (-1)^(indices between s_0 and j)
    * Q(s_0, j) * Pf(S - {s_0, j}), memoized by the index set. A
    Pfaffian on two indices is its entry, and every set met has no term
    below the sum of its weights, so each product keeps only size
    coefficients and costs size*(size + 1)/2 Gaussian products
    (_mul_add).
    """
    memo: dict = {}

    def pf(s: tuple):
        got = memo.get(s, memo)
        if got is not memo:
            return got
        if len(s) == 2:
            got = entry(*s)
        else:
            re, im = [0] * size, [0] * size
            first, rest = s[0], s[1:]
            for place, j in enumerate(rest):
                q = pf((first, j))
                if q is not None:
                    _mul_add(re, im, q, pf(rest[:place] + rest[place + 1:]), place & 1)
            got = list(zip(re, im))
        memo[s] = got
        return got

    return pf(tuple(range(count)))


def _mul_add(re: list, im: list, x: list, y: list, negate: int) -> None:
    """Add (-1)^negate * x*y, truncated to len(re) coefficients, into re
    and im: x and y list int pairs. A product (a + bi)(c + di) takes
    Gauss's three multiplications, k = c(a + b), re = k - b(c + d),
    im = k + a(d - c), or one when both factors are real."""
    size = len(re)
    real = not any(d for _, d in y)
    ys = [(c, d - c, c + d) for c, d in y]
    for i, (a, b) in enumerate(x):
        if not (a or b):
            continue
        if negate:
            a, b = -a, -b
        if real and not b:
            for m, (c, _, _) in enumerate(ys[:size - i], i):
                re[m] += a * c
            continue
        s = a + b
        for m, (c, dmc, cpd) in enumerate(ys[:size - i], i):
            k = c * s
            re[m] += k - b * cpd
            im[m] += k + a * dmc


def _mirabolic_matrix(a: list, n: int, e: int, order: int):
    """entry(i, j) of _pfaffian for the sum of s_(e*lam)(a) over the
    partitions lam with at most n parts: rows i = 0..n-1 of weight
    w_i = n - 1 - i and, for odd n, the border index n of weight 0. In
    g = h(a), Q_ij has no term below degree w_i + w_j and depends only
    on c = j - i (and, for e = 2, on the parity of w_i), so each is
    built once.

    With F(x) = g_x * g_(D-x), coefficient D of Q_ij past degree
    w_i + w_j is sum over x of sgn(D - c - 2x) * F(x) for e = 1, and
    F(x) = F(D-x) cancels every term outside (D-c)/2 < x <= (D+c)/2:
    Q_ij[D] = -(the sum of F over those c places). For e = 2 only the
    odd degrees w_i + w_j + D of u occur, so Q_ij/u is a series in
    v = u^2 and the weights are floor(w_i/2); the sign becomes +1 at
    the x of parity w_i below (D-c)/2 and -1 at those of the other
    parity above. For even c, x and D - x differ in parity and the sum
    cancels down to -(F at the places of parity w_i + 1 in the same
    window). For odd c they share it, and the alternating sum of all F
    is h_(D/2)(a^2), since H(t)H(-t) = H_(a^2)(t^2) for the generating
    function H of g: 2Q_ij[D] = (-1)^(w_i) * h_(D/2)(a^2) - (the sum of
    F over the c places). The border entry of row i is g from degree
    w_i, over the even degrees only for e = 2.
    """
    size = order + 1
    g = h_table(a, e * order + 1)
    if e == 2:
        squares = h_table([gauss_mul(x, x) for x in a], order)
    built: dict = {}

    def entry(i: int, j: int) -> list:
        odd = (n - 1 - i) % e
        if j == n:
            return ([(0, 0)] * odd + g[odd::e])[:size]
        c = j - i
        got = built.get((c, odd))
        if got is None:
            got = built[c, odd] = []
            for d in range(size):
                # D: the degree in u of coefficient d, past w_i + w_j
                D = d if e == 1 else 2 * d + 1 - odd - (odd + c) % 2
                low, high = max(0, (D - c) // 2 + 1), min(D, (D + c) // 2)
                step = 1
                if e == 2 and c % 2 == 0:
                    low += (low + odd + 1) % 2
                    step = 2
                sr = si = 0
                for x in range(low, high + 1, step):
                    (p, q), (r, s) = g[x], g[D - x]
                    sr += p * r - q * s
                    si += p * s + q * r
                if e == 2 and c % 2:
                    kr, ki = squares[D // 2]
                    if odd:
                        kr, ki = -kr, -ki
                    got.append(((kr - sr) // 2, (ki - si) // 2))
                else:
                    got.append((-sr, -si))
        return got

    return entry


def _cauchy_matrix(a: list, b: list, n: int, order: int):
    """entry(i, j) of _pfaffian for the sum of s_lam(a) * s_lam(b) over
    the partitions lam with at most n parts: the skew matrix
    [[0, M], [-M^T, 0]] on the rows x = 0..n-1 of T^a, of weight
    w_x = n - 1 - x, and the rows n + y of T^b, of weight 0. Entry M_xy
    starts at degree max(w_x, w_y) >= w_x, and its coefficient D past
    w_x is h_D(a) * h_(D + w_x - w_y)(b)."""
    ga = h_table(a, order)
    gb = h_table(b, order + n - 1)

    def entry(i: int, j: int) -> list | None:
        if i >= n or j < n:
            return None
        shift = j - n - i  # w_x - w_y
        return [gauss_mul(x, y) for x, y in zip(ga, [(0, 0)] * -shift + gb[max(0, shift):])]

    return entry


def flicker_series(mod: UnramifiedModule, order: int) -> Series:
    """Twisted-tensor integral of the spherical vector against the unit
    lattice function, as a truncated series in t = q_F^(-s).

    Iwasawa form: sum over dominant lam >= 0 in Z^r of the spherical
    value at e*lam times q_F^(modulus exponent of lam) times t^|lam|,
    which is the sum of s_(e*lam) over partitions of length <= r.
    """
    return _schur_sum(mod.satake, mod.r, mod.fp.e, order)


def mirabolic_series(rep: GenericRep, order: int) -> Series:
    """Mirabolic period sum over the F-points of the (n-1)-torus, with
    the determinant twist |det|^(s-1), as a series in t = q_F^(-s).

    The essential vector is supported on the first r torus entries of
    the unramified support, so both the spherical route (r = n) and the
    essential-vector route (r < n) sum s_(e*lam) over partitions of
    length <= min(r, n-1). A bare module enters as the representation
    whose segments are its rank-one pieces.
    """
    return _schur_sum(*_mirabolic_sum(rep), order)


def _mirabolic_sum(rep: GenericRep) -> tuple:
    """(alpha, k, e) of the Schur sum of mirabolic_series(rep, order)."""
    if not isinstance(rep, GenericRep):
        raise TypeError("expected GenericRep")
    mod = pi_u(rep)
    return mod.satake, min(mod.r, rep.n - 1), mod.fp.e


def mirabolic_largest_order(rep: GenericRep) -> int:
    """Largest order at which mirabolic_series(rep, order) passes the
    work and size caps."""
    alpha, k, e = _mirabolic_sum(rep)
    return largest_order(k, e * coefficient_bits(alpha))


def rs_series(m1: UnramifiedModule, m2: UnramifiedModule, order: int) -> Series:
    """Rankin-Selberg pairing of the two spherical vectors over the
    E-points of the (n-1)-torus, as a series in t_E = q_E^(-s): the
    Cauchy sum of s_lam(alpha) * s_lam(beta) over lam of length <= n-1."""
    if m1.fp != m2.fp:
        raise ValueError("modules live over different field pairs")
    if m1.r != m2.r + 1:
        raise ValueError("rank mismatch: need modules of ranks n and n-1")
    return _schur_sum(m1.satake, m2.r, 1, order, m2.satake)


class PeriodReport:
    """Outcome of one period computation against its closed form.

    expected is the closed form expanded to the series' order; a
    value_at_1 of None encodes a pole at the edge point.
    """

    __slots__ = ("series", "expected", "reconstructed", "closed_form", "match", "value_at_1")

    def __init__(self, series: Series, expected: Series, reconstructed: RatFunc | None,
                 closed_form: RatFunc, match: bool, value_at_1: GaussRat | None):
        self.series = series
        self.expected = expected
        self.reconstructed = reconstructed
        self.closed_form = closed_form
        self.match = match
        self.value_at_1 = value_at_1


def verify_theorem1(rep: GenericRep, order: int) -> PeriodReport:
    """Check the mirabolic period series against its closed form.

    The report carries the truncated series, the closed form's expansion
    to the same order, the rational function the series determines
    (None when no function within the closed form's degree bounds fits),
    the closed form, the match flag, and the exact edge value (None on a
    pole). A matching series certifies the closed form by Pade
    uniqueness: order >= num_deg + den_deg + 1, so any other p/q within
    the bounds that fits has p*den - num*q of degree <= num_deg + den_deg
    vanishing to a higher order, hence zero. Reconstruction therefore
    runs only on a mismatch, to report what the series actually is.
    """
    cf = closed_form_for(rep)
    need = certifying_order(cf)
    if order < need:
        raise OrderTooSmall(order, need)
    series = mirabolic_series(rep, order)
    expected = series_of(cf, order)
    match = series == expected
    if match:
        rec = cf
    else:
        try:
            rec = reconstruct(series, cf.num_degree, cf.den_degree)
        except ValueError:
            rec = None
    try:
        v1 = lstar_at_1(rep, cf)
    except ValueError:
        v1 = None
    return PeriodReport(series, expected, rec, cf, match, v1)


def verify_c_pi(rep: GenericRep) -> bool:
    """Endpoint check that the two natural invariant forms agree.

    Preconditions: the representation must be conjugate-self-dual.
    Verifies that the unramified supports of the representation and its
    contragredient coincide as multisets, that their edge values agree,
    and, over a ramified pair, that the quadratic epsilon twisting sign
    is +1 (the even-conductor obstruction vanishes).
    """
    if not is_conjugate_selfdual(rep):
        raise ValueError("not distinguished-compatible")
    dual = contragredient(rep)
    own = sorted((v.nr, v.ni, v.den) for v in pi_u(rep).satake)
    other = sorted((v.nr, v.ni, v.den) for v in pi_u(dual).satake)
    if own != other:
        return False
    if lstar_at_1(rep) != lstar_at_1(dual):
        return False
    if rep.fp.ramified:
        if epsilon_twist_sign(rep, GaussRat(-1)) != GaussRat(1):
            return False
    return True


def essential_rs_check(rep: GenericRep, t_module: UnramifiedModule, order: int) -> bool:
    """Rankin-Selberg pairing of an unramified representation against a
    rank n-1 module agrees with the closed-form factor through the
    requested order."""
    if not is_unramified_rep(rep):
        raise ValueError("out of scope: the pairing is modeled for unramified reps only")
    mod = pi_u(rep)
    return rs_series(mod, t_module, order) == series_of(rs_L(mod, t_module), order)
