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
from bisect import bisect_right
from math import log10
from typing import Sequence

from .lfactors import closed_form_for, lstar_at_1, rs_L
from .ratfunc import RatFunc, eval_at, reconstruct, series_of
from .rational import rat
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
from .series import Series, clear_denominators
from .whittaker import expand_row, h_table, jt_row


# Cap on lattice_work(k, order). The benchmark workloads run rank 4 at
# order 40 (118,176); a rank-5 sum at order 40 (554,816) is 18x below the
# cap. At the cap, on 2 vCPUs with Python 3.11 and Satake values over a
# common denominator of 210, a mirabolic sum took 4.2 s at rank 3 (order
# 352, e = 2), 1.4 s at e = 1, and 0.1-0.35 s at ranks 4-6 (orders 132,
# 77, 55). At ranks 1 and 2 the size cap binds first: rank 2 at order
# 1098 took 14 s.
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
    expands once per (total, top part) rather than once per tail, so
    this bounds it too, loosely. Exact up to MAX_LATTICE_WORK; once the
    count passes it, the value returned is merely above it."""
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
    1785 for Satake values 1/2 and 1/3) took 0.43 s on a 2-vCPU host
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
    Rankin-Selberg factor) the bits per degree add.
    """
    den, beta = clear_denominators(alpha)
    top = max((max(abs(br), abs(bi)).bit_length() for br, bi in beta), default=0)
    return max(den.bit_length(), top + 2 * len(alpha).bit_length() + 2)


def value_bits(alpha: Sequence[GaussRat], e: int, q_F: int, s: int) -> int:
    """Bound on the bits of the value at t = q_F^(-s) of a closed form
    over the Satake values alpha. Its degrees sum to at most d = r^2 + r,
    so with X = D^e * q_F^s the numerator and the denominator, each at
    t = q_F^(-s), are sums of at most d + 1 terms a_m * X^(deg - m) over
    X^deg, with a_m bounded by coefficient_bits; the value's numerator
    and denominator each multiply at most three such integers."""
    d = len(alpha) ** 2 + len(alpha)
    return 2 * (d + 1) * (e * coefficient_bits(alpha) + s * q_F.bit_length())


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
    cleared once per variable set (alpha = a/D, beta = b/D_b), each
    Schur value is an int-pair Jacobi-Trudi determinant on one complete
    homogeneous table per variable set, and coefficient d is the integer
    sum divided once, by D^(e*d) * D_b^d.

    The determinants are built from the last row up, for each length
    n <= k, by Laplace expansion along each new row
    (whittaker.expand_row). Without beta only their sum is wanted, and
    the expansion is linear in the minors below, so the minors of every
    tail with the same total and top part are summed and expanded once
    (_summed_determinants): one summed minor set per (total, top part),
    and only one level of them is held. With beta each term is a
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
    den, a = clear_denominators(alpha)
    h = h_table(a, e * order + k)
    sr = [1] + [0] * order
    si = [0] * (order + 1)
    if beta is None:
        for n in range(1, min(k, order) + 1):
            for total, (tr, ti) in _summed_determinants(h, n, e, order):
                sr[total] += tr
                si[total] += ti
        return _divided(sr, si, den ** e)
    den_b, b = clear_denominators(beta)
    hb = h_table(b, order + k)

    def walk(n: int, i: int, low: int, total: int, below_a: dict, below_b: dict) -> None:
        # row i takes part p >= low, and rows 0..i-1 each take at least p
        for p in range(low, (order - total) // (i + 1) + 1):
            ma = expand_row(jt_row(h, e * p - i, n), below_a)
            if not ma:
                continue
            mb = expand_row(jt_row(hb, p - i, n), below_b)
            if not mb:
                continue
            if i:
                walk(n, i - 1, p, total + p, ma, mb)
                continue
            # row 0 leaves one minor: the determinant, on all n columns
            (tr, ti), = ma.values()
            (br, bi), = mb.values()
            sr[total + p] += tr * br - ti * bi
            si[total + p] += tr * bi + ti * br

    for n in range(1, min(k, order) + 1):
        walk(n, n - 1, 1, 0, {0: (1, 0)}, {0: (1, 0)})
    return _divided(sr, si, den ** e * den_b)


def _summed_determinants(h: list, n: int, e: int, order: int):
    """Yields pairs (d, x) whose x, summed for each d, give the sum over
    partitions lam of d with exactly n parts of det[h(e*lam_i - i + j)]:
    the undivided int-pair sums of s_(e*lam) that _schur_sum adds up,
    for one length n.

    The rows are built from the last up. Row i with part q sits above
    every tail (rows i+1..n-1) whose top part is at most q, and a
    Laplace expansion along it is linear in the minors below, so it is
    expanded once (whittaker.expand_row) against the sum of those
    tails' minors. A level maps each total t of its rows to the rising
    list of their top parts p and, for each p, the summed minors (a map
    from column set to int pair) of every tail with total t and top
    part at most p. Rows 0..i-1 each take at least q, so t + (i + 1)*q
    stays within order. Rows 1 and 0 are built one total t of rows
    1..n-1 at a time and not stored: the determinants with row 0 of
    part q are one expansion along it of the summed minors of rows
    1..n-1 with total t and part at most q, which grow with q by one
    expansion of row 1 each.
    """
    if n == 1:
        for q in range(1, order + 1):
            yield q, h[e * q]
        return
    level = {0: ([0], [{0: (1, 0)}])}
    for i in range(n - 1, 1, -1):
        nxt: dict = {}
        # t falls, so each total t + q of nxt gets its parts q in rising order
        for total in sorted(level, reverse=True):
            parts, sums = level.pop(total)
            for q in range(max(parts[0], 1), (order - total) // (i + 1) + 1):
                below = sums[bisect_right(parts, q) - 1]
                minors = expand_row(jt_row(h, e * q - i, n), below)
                if minors:
                    got_parts, got_sums = nxt.setdefault(total + q, ([], []))
                    if got_sums:
                        minors = _added(minors, got_sums[-1])
                    got_parts.append(q)
                    got_sums.append(minors)
        level = nxt
    for total in range(n - 1, order):
        # running: summed minors of rows 1..n-1 with total `total` and row-1 part <= q
        running: dict = {}
        for q in range(1, order - total + 1):
            got = level.get(total - q)
            if got is not None and got[0][0] <= q:
                parts, sums = got
                below = sums[bisect_right(parts, q) - 1]
                running = _added(expand_row(jt_row(h, e * q - 1, n), below), running)
            if running:
                # row 0 leaves one minor: the summed determinants, on all n columns
                for det in expand_row(jt_row(h, e * q, n), running).values():
                    yield total + q, det


def _added(minors: dict, onto: dict) -> dict:
    """Adds onto into minors, column set by column set, and returns
    minors: a map fresh from expand_row, which no one else holds."""
    for mask, (mr, mi) in onto.items():
        got = minors.get(mask)
        minors[mask] = (mr, mi) if got is None else (got[0] + mr, got[1] + mi)
    return minors


def _divided(sr: list, si: list, scale: int) -> Series:
    """Series with coefficient d equal to (sr[d] + i*si[d]) / scale^d."""
    coeffs = []
    den_d = 1
    for tr, ti in zip(sr, si):
        coeffs.append(GaussRat(rat(tr, den_d), rat(ti, den_d)))
        den_d *= scale
    return Series(coeffs)


def flicker_series(mod: UnramifiedModule, order: int) -> Series:
    """Twisted-tensor integral of the spherical vector against the unit
    lattice function, as a truncated series in t = q_F^(-s).

    Iwasawa form: sum over dominant lam >= 0 in Z^r of the spherical
    value at e*lam times q_F^(modulus exponent of lam) times t^|lam|,
    which is the sum of s_(e*lam) over partitions of length <= r.
    """
    return _schur_sum(mod.satake, mod.r, mod.fp.e, order)


def mirabolic_series(rep, order: int) -> Series:
    """Mirabolic period sum over the F-points of the (n-1)-torus, with
    the determinant twist |det|^(s-1), as a series in t = q_F^(-s).

    Accepts a GenericRep or a bare UnramifiedModule (n = r). The
    essential vector is supported on the first r torus entries of the
    unramified support, so both the spherical route (r = n) and the
    essential-vector route (r < n) sum s_(e*lam) over partitions of
    length <= min(r, n-1).
    """
    return _schur_sum(*_mirabolic_sum(rep), order)


def _mirabolic_sum(rep) -> tuple:
    """(alpha, k, e) of the Schur sum of mirabolic_series(rep, order)."""
    if isinstance(rep, UnramifiedModule):
        mod, n = rep, rep.r
    elif isinstance(rep, GenericRep):
        mod, n = pi_u(rep), rep.n
    else:
        raise TypeError("expected GenericRep or UnramifiedModule")
    return mod.satake, min(mod.r, n - 1), mod.fp.e


def mirabolic_largest_order(rep) -> int:
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
    own = sorted(((v.re, v.im) for v in pi_u(rep).satake))
    other = sorted(((v.re, v.im) for v in pi_u(dual).satake))
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


def lattice_value_at(rep: GenericRep, s: int, cf: RatFunc | None = None) -> GaussRat:
    """Exact closed-form value of the mirabolic period at integer s >= 1,
    t = q_F^(-s). Raises ZeroDivisionError on a pole. Pass cf when the
    caller has already built closed_form_for(rep)."""
    if s < 1:
        raise ValueError("s must be a positive integer")
    if cf is None:
        cf = closed_form_for(rep)
    t0 = GaussRat(rat(1, rep.fp.q_F)) ** s
    return eval_at(cf, t0)
