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
scalings. Each sum is truncated by total t-degree, which is exact:
every omitted term has strictly larger degree. Analytic continuation
goes through the closed form: a truncated series that matches it to
order num_deg + den_deg + 1 or beyond determines it (Pade uniqueness),
and its exact value is taken there, never by summing at a point.
Rational reconstruction runs only on a mismatch, to report which
rational function the series is.

Every sum is capped before it starts, by its work (lattice_work) and by
the size of its coefficients (coefficient_bits against printable_bits).
"""

from __future__ import annotations

import sys
from bisect import bisect_left, bisect_right
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
from .whittaker import GaussRows, expand_row, expand_top_row, h_table


# Cap on lattice_work(k, order). The benchmark workloads run rank 4 at
# order 40 (118,176); a rank-5 sum at order 40 (554,816) is 18x below the
# cap. At the cap, on 2 vCPUs with Python 3.11 and the first k + 1 of the
# Satake values 1/2, -1/3, 2/5, 3/7, -5/6, 4/15, 1/35 (denominator 210),
# a mirabolic sum took 0.42-0.45 s at rank 3 (order 352, e = 2), 0.19 s
# at e = 1, and 0.014-0.03 s at ranks 4-6 (orders 132, 77, 55). At ranks 1
# and 2 the size cap binds first: rank 1 at order 1785 took 0.035 s, and
# rank 2 at order 1428 took 3.0-3.1 s.
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
    """Bound on the Schur-sum kernel's work from k and order alone: the
    number of partitions with at most k parts and size at most order,
    times 2^m with m = min(k, order), the number of column sets that a
    length-m walk can hold minors on. The summed kernel without beta
    expands a row once per (total, top part), not once per tail, and its
    top row once per (total below, part), so this bounds it too, loosely.
    Exact up to MAX_LATTICE_WORK; once the count passes it, the value
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
    factor left out when beta is None.

    This is every lattice sum of the module: the Iwasawa modulus weight
    q^(modulus exponent) at a lattice point is the inverse of the
    delta^(1/2) in Shintani's formula for the Whittaker values there,
    so no power of q survives in any term. The Satake denominators are
    cleared once per variable set at the smallest Gaussian scale
    (series.clear_gaussian_denominators: alpha = a/D_g, beta = b/D_gb,
    with D = c*D_g and D_b = c_b*D_gb for the integer common
    denominators D and D_b and Gaussian integers c and c_b). Each Schur
    value is an int-pair Jacobi-Trudi determinant on one complete
    homogeneous table h per variable set, laid out once for expand_row
    (whittaker.GaussRows), and coefficient d is the integer sum times
    (c^e * c_b)^d, divided once by D^(e*d) * D_b^d: the same integers,
    and so the same GaussRat, as at the integer scale, from a table of
    fewer bits when a value's numerator shares a Gaussian prime with its
    denominator (1/(2+i) = (2-i)/5 takes 2+i, not 5). A sum of one-row
    determinants, n = 1 below, is the table itself: coefficient q is
    h(e*q), and no table is laid out. It keeps the integer scale: it
    expands no row, so the smaller table saves less than the Gaussian
    gcds cost.

    A partition of d <= order has at most n = min(k, order) parts, and
    padded with zero parts to exactly n it keeps its determinant: row i
    of part 0 is (h_(j-i)), zero left of the diagonal and 1 on it
    (Macdonald, Symmetric Functions, I.3). So one pass over the
    partitions with exactly n nonnegative parts covers every length, the
    empty one giving the constant term. The determinants are built from
    the last row up by Laplace expansion along each new row
    (whittaker.expand_row), the top row for a run of its parts at once
    (whittaker.expand_top_row). Without beta only their sum is wanted, and
    the expansion is linear in the minors below, so the minors of every
    tail with the same total and top part are summed and expanded once
    (_summed_determinants): one summed minor set per (total, top part),
    and at most two levels of them are held. With beta each term is a
    product of two determinants, which is not linear in either minor
    set, so a depth-first walk picks the parts of each partition, a
    weakly increasing suffix whose total stays within order, and the
    minors of a tail, on both variable sets, are built once and serve
    every head above it; only the minors on the current path are held.
    Summing the products of the two minor sets on every pair of column
    sets instead measured 2.2-4.2x slower than that walk at k = 3..6,
    order 20.

    Raises LatticeCostError, before any work, when lattice_work(k,
    order) exceeds MAX_LATTICE_WORK, or when the coefficients through
    order could need integers longer than printable_bits().
    """
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
    rows = GaussRows(h_table(a, e * order + k))
    if beta is None:
        den_b, c_b = 1, (1, 0)
        sr, si = _summed_determinants(rows, n, e, order)
    else:
        den_b, c_b, b = clear_gaussian_denominators(beta)
        rows_b = GaussRows(h_table(b, order + k))
        sr = [0] * (order + 1)
        si = [0] * (order + 1)

        def walk(i: int, low: int, total: int, below_a: dict, below_b: dict) -> None:
            if not i:
                # row 0 takes each part q >= low and leaves two determinants
                high = order - total + 1
                dets_a = expand_top_row(rows, n, below_a, range(e * low, e * high, e))
                dets_b = expand_top_row(rows_b, n, below_b, range(low, high))
                for d, (tr, ti), (br, bi) in zip(range(total + low, total + high), dets_a, dets_b):
                    sr[d] += tr * br - ti * bi
                    si[d] += tr * bi + ti * br
                return
            # row i takes part p >= low, and rows 0..i-1 each take at least p
            for p in range(low, (order - total) // (i + 1) + 1):
                ma = expand_row(rows, e * p - i, n, below_a)
                if not ma:
                    continue
                mb = expand_row(rows_b, p - i, n, below_b)
                if mb:
                    walk(i - 1, p, total + p, ma, mb)

        walk(n - 1, 0, 0, {0: (1, 0)}, {0: (1, 0)})
    # coefficient d times (c^e * c_b)^d is the sum at the integer scale
    cr, ci = gauss_mul(gauss_pow(c, e), c_b)
    pr, pi = 1, 0
    for d in range(order + 1):
        sr[d], si[d] = sr[d] * pr - si[d] * pi, sr[d] * pi + si[d] * pr
        pr, pi = pr * cr - pi * ci, pr * ci + pi * cr
    return Series(graded(sr, si, den ** e * den_b))



def _summed_determinants(rows: GaussRows, n: int, e: int, order: int):
    """Lists (re, im) whose entries d are the int pair of the sum over
    partitions lam of d with exactly n >= 2 nonnegative parts (zero
    parts allowed) of det[h(e*lam_i - i + j)]: the undivided sums of
    s_(e*lam) that _schur_sum scales. rows is the table h laid out by
    whittaker.GaussRows.

    The rows are built from the last up, by one level step per row
    n-1..1. A level maps each total t of its rows to the rising list of
    their top parts p and, for each p, the summed minors (a map from
    column set to int pair) of every tail with total t and top part at
    most p; the empty tail has total 0 and top part 0. Row i with part q
    sits above every tail (rows i+1..n-1) whose top part is at most q,
    and a Laplace expansion along it is linear in the minors below. So
    for each total t of rows i..n-1, in rising order, the step walks the
    rising parts q of row i and expands (whittaker.expand_row) the summed
    minors at t - q below into a copy of the running sum. Rows 0..i-1
    each take at least q, so t + i*q stays within order. The step walks
    only the totals that the level below holds, falling, inside that
    window of q, not every q: most q find no total there. So the entry at
    total t below is last read at total t + (order - t) // (i + 1), and a
    step pops it once that total is done: it frees the level below as it
    builds its own. The level of rows 1..n-1 is not stored: at each of
    its totals t, the row-0 parts q from one part of row 1 to the next
    read the same summed minors, so each such run goes to
    whittaker.expand_top_row once, and determinant q is added at t + q.
    """

    def step(i: int, below: dict):
        held = list(below)  # its totals, rising, as the level was built
        done = 0  # every total of below under done is popped
        for total in range(order + 1):
            parts, sums, running = [], [], {}
            # the totals below in the window of parts q, falling, so q rises
            first = total - min(total, (order - total) // i)
            for sub in reversed(held[bisect_left(held, first):bisect_right(held, total)]):
                q = total - sub
                got = below[sub]
                if got[0][0] > q:
                    continue
                # expanded into a copy, since sums keeps the running sum at each part
                running = expand_row(rows, e * q - i, n, got[1][bisect_right(got[0], q) - 1],
                                     dict(running))
                if running:
                    parts.append(q)
                    sums.append(running)
            # the entry at total t below is last read at t + (order - t) // (i + 1),
            # which never falls as t rises
            while done + (order - done) // (i + 1) <= total:
                below.pop(done, None)
                done += 1
            if parts:
                yield total, (parts, sums)

    level = {0: ([0], [{0: (1, 0)}])}
    for i in range(n - 1, 1, -1):
        level = dict(step(i, level))
    sr = [0] * (order + 1)
    si = [0] * (order + 1)
    for total, (parts, sums) in step(1, level):
        # row 0 takes each part q from parts[0] to order - total
        for low, high, minors in zip(parts, parts[1:] + [order - total + 1], sums):
            for d, (tr, ti) in zip(range(total + low, total + high),
                                   expand_top_row(rows, n, minors, range(e * low, e * high, e))):
                sr[d] += tr
                si[d] += ti
    return sr, si


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
