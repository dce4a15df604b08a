"""Lattice sums for the three integrals, reconstruction round trips, and
the theorem-level verification reports.

The Schur-sum kernel behind the lattice sums is cross-checked against
the weighted Iwasawa sums themselves (iwasawa.brute_flicker,
brute_mirabolic, brute_rs): Whittaker values from
spherical_value/essential_value times the modulus weights, all (c, m)
monomials c * q_F^(m/2), summed over an integer box with no dominance
constraints assumed, so every term outside the cone must vanish on its
own through the Whittaker values, and the terms with odd m must cancel.
"""

import gc
import itertools
import math
import random
import tracemalloc

import pytest

from asaiperiods.rational import rat
from asaiperiods.scalars import GaussRat
from asaiperiods.series import Poly, Series, graded
from asaiperiods.ratfunc import RatFunc, eval_at, reconstruct, series_mismatch, series_of
from asaiperiods.localfields import FieldPair
from asaiperiods.segments import (
    GenericRep,
    MultChar,
    NotGenericError,
    Segment,
    UnramifiedModule,
    conductor,
    is_unramified_rep,
    pi_u,
)
from asaiperiods.lfactors import asai_L, asai_factor_list, closed_form_for, lattice_value_at, lstar_at_1, rs_L, tate_L
from asaiperiods.periods import (
    essential_rs_check,
    flicker_series,
    mirabolic_series,
    rs_series,
    verify_c_pi,
    verify_theorem1,
)
from asaiperiods.whittaker import schur
from asaiperiods import corpus, periods, whittaker
from corpora import csd_module, module_as_rep, omega_trivial_module, unit_circle_gauss
from iwasawa import (
    brute_flicker,
    brute_mirabolic,
    brute_rs,
    iwasawa_sum,
    kernel_mismatches,
    rs_terms,
    schur_bialternant,
)

UFP = FieldPair(2, False)
RFP = FieldPair(2, True, 1)


def g(p, q=1, ip=0, iq=1):
    return GaussRat(rat(p, q), rat(ip, iq))


def umod(fp, *vals):
    return UnramifiedModule(fp, tuple(v if isinstance(v, GaussRat) else g(v) for v in vals))


def steinberg(fp):
    return GenericRep(fp, (Segment(MultChar.unramified(g(1)), 2),))


def generic_draw(make):
    """First generic representation that make() builds."""
    while True:
        try:
            return make()
        except NotGenericError:
            pass


def essential_route_rep(rng, fp, r):
    """r unramified GL(1) pieces beside one ramified-character segment,
    so the unramified support has rank r < n."""
    def make():
        mod = corpus.rand_module(rng, fp, r)
        segs = [Segment(MultChar.unramified(v), 1) for v in mod.satake]
        segs.append(Segment(corpus.ramified_char(rng, rng.randint(1, 2)), rng.randint(1, 2)))
        return GenericRep(fp, tuple(segs))
    return generic_draw(make)


def test_kernel_matches_weighted_sums_random_modules():
    rng = random.Random(1201)
    for i in range(8):
        fp = corpus.rand_field(rng, ramified=bool(i % 2))
        rep = generic_draw(lambda: module_as_rep(
            corpus.rand_module(rng, fp, rng.randint(1, 3))))
        mod = pi_u(rep)
        assert kernel_mismatches(flicker_series(mod, 8), brute_flicker(mod, 8)) == []
        assert kernel_mismatches(mirabolic_series(rep, 8), brute_mirabolic(rep, 8)) == []


def test_mirabolic_sum_takes_a_rep_only():
    # a bare module enters through module_as_rep
    mod = umod(UFP, g(1, 2), g(-1, 3))
    for bad in (mod, None):
        with pytest.raises(TypeError):
            mirabolic_series(bad, 8)
        with pytest.raises(TypeError):
            periods.mirabolic_largest_order(bad)
    rep = module_as_rep(mod)
    assert mirabolic_series(rep, 8) == series_of(closed_form_for(rep), 8)


def test_kernel_matches_weighted_sums_essential_route():
    rng = random.Random(1202)
    for ramified in (False, True):
        fp = corpus.rand_field(rng, ramified)
        for r in range(4):
            rep = essential_route_rep(rng, fp, r)
            assert pi_u(rep).r == r < rep.n
            assert kernel_mismatches(mirabolic_series(rep, 7), brute_mirabolic(rep, 7)) == []


def test_kernel_matches_weighted_sums_rank5():
    rng = random.Random(1203)
    fp = corpus.rand_field(rng, ramified=True)
    rep = generic_draw(lambda: module_as_rep(corpus.rand_module(rng, fp, 5)))
    mod = pi_u(rep)
    assert kernel_mismatches(flicker_series(mod, 5), brute_flicker(mod, 5)) == []
    assert kernel_mismatches(mirabolic_series(rep, 5), brute_mirabolic(rep, 5)) == []


# -- the integer kernel against the bialternant oracle --------------------

# distinct Satake values with hostile denominators: large coprime ones,
# purely imaginary, negative, and real beside complex
HOSTILE = (
    (g(-14322, 1185665), g(7), g(3, 1024), g(0, 1, 5, 7)),
    (g(0, 1, 1, 3), g(0, 1, -2, 5), g(0, 1, 7)),
    (g(-1, 2), g(-3), g(-5, 7), g(-11, 13)),
    (g(1, 2, 1, 3), g(-4, 9), g(2, 1, -1), g(0, 1, 9, 10)),
    (g(5, 3, -1, 2), g(-7, 11), g(0, 1, 2, 9), g(4), g(-1, 6, 5, 4)),
)


def oracle_partitions(d, k):
    """Weakly decreasing tuples of k nonnegative parts summing to d."""
    return [lam for lam in itertools.product(range(d, -1, -1), repeat=k)
            if sum(lam) == d and all(lam[i] >= lam[i + 1] for i in range(k - 1))]


def bialternant_sum(alpha, k, e, order, beta=None):
    """Coefficient d: sum over lam |- d with <= k parts of
    s_(e*lam)(alpha) * s_lam(beta), every Schur value a bialternant."""
    def pad(lam, m):
        return tuple(lam) + (0,) * (m - len(lam))

    coeffs = []
    for d in range(order + 1):
        acc = GaussRat(0)
        for lam in oracle_partitions(d, k):
            term = schur_bialternant(pad([e * x for x in lam], len(alpha)), alpha)
            if beta is not None:
                term = term * schur_bialternant(pad(lam, len(beta)), beta)
            acc = acc + term
        coeffs.append(acc)
    return Series(coeffs)


def test_integer_kernel_matches_bialternant_oracle():
    # at order 7 the rank-5 tuple meets partitions of every length 1..5,
    # and Jacobi-Trudi entries h_(lam_i - i + j) with a negative index
    # (lam = (1, 1, 1): row 2, column 0) for e = 1
    lengths = {len([x for x in lam if x]) for lam in oracle_partitions(7, 5)}
    assert lengths == {1, 2, 3, 4, 5}
    for alpha in HOSTILE:
        m = len(alpha)
        order = 7 if m == 5 else 5
        for e in (1, 2):
            for k in (m, m - 1):
                got = periods._schur_sum(alpha, k, e, order)
                assert got == bialternant_sum(alpha, k, e, order), (alpha, k, e)


def test_integer_kernel_rs_different_denominators():
    # the two variable sets clear different denominators; k = len(beta)
    for alpha, beta in ((HOSTILE[0][:3], (g(5, 6), g(0, 1, -1, 11))),
                        (HOSTILE[3][:3], HOSTILE[2][:2]),
                        (HOSTILE[1], (g(-14322, 1185665), g(1, 2, 1, 2))),
                        (HOSTILE[4], HOSTILE[3])):
        k = len(beta)
        got = periods._schur_sum(alpha, k, 1, 6, beta)
        assert got == bialternant_sum(alpha, k, 1, 6, beta), (alpha, beta)


# -- the summed kernel against one determinant per partition --------------

# a repeated value and an inverse pair in each, which the bialternant
# quotient cannot take: 2 twice and 2, 1/2 (rank 5); 1/3 twice and 3,
# 1/3 beside i/2, -2i (rank 6)
COINCIDENT = (
    (g(2), g(2), g(1, 2), g(-3, 5, 1, 4), g(0, 1, 7, 3)),
    (g(3), g(1, 3), g(1, 3), g(0, 1, 1, 2), g(0, 1, -2), g(-1, 1, 2, 5)),
)


def partitions_within(d, k, top):
    """Weakly decreasing tuples of at most k positive parts, each at most
    top, summing to d."""
    if d == 0:
        yield ()
        return
    if k == 0:
        return
    for first in range(min(d, top), 0, -1):
        for rest in partitions_within(d - first, k - 1, first):
            yield (first,) + rest


def per_partition_sum(alpha, k, e, order):
    """Coefficient d: sum over lam |- d with <= k parts of s_(e*lam)(alpha),
    one Jacobi-Trudi determinant (whittaker.schur) per partition."""
    coeffs = []
    for d in range(order + 1):
        acc = GaussRat(0)
        for lam in partitions_within(d, k, d):
            acc = acc + schur(tuple(e * x for x in lam) + (0,) * (len(alpha) - len(lam)), alpha)
        coeffs.append(acc)
    return Series(coeffs)


def test_summed_kernel_matches_one_determinant_per_partition():
    # k = 1..8 on five and six values: n = 1 (the table itself), even n
    # (a Pfaffian), odd n (a bordered one), and k past the number of
    # values, where a partition with more parts has s = 0; an order below
    # k cuts n to the order, and order 0 leaves the constant 1
    for alpha, orders in ((COINCIDENT[0], (0, 3, 14)), (COINCIDENT[1], (5, 12))):
        m = len(alpha)
        for order in orders:
            for e in (1, 2):
                want = [per_partition_sum(alpha, j, e, order) for j in range(m + 1)]
                for k in range(1, 9):
                    got = periods._schur_sum(alpha, k, e, order)
                    assert got == want[min(k, m)], (m, order, e, k)
    # with beta, e = 1: n = 1 is the one entry M_00 of the Cauchy-Binet matrix
    for alpha, beta in ((COINCIDENT[0], COINCIDENT[1]), (COINCIDENT[1], COINCIDENT[0][:3])):
        for k in range(1, 9):
            got = periods._schur_sum(alpha, k, 1, 7, beta)
            assert got == per_partition_product_sum(alpha, k, 1, 7, beta), (alpha, beta, k)
    with pytest.raises(ValueError, match="needs e = 1"):
        periods._schur_sum(COINCIDENT[0], 3, 2, 6, COINCIDENT[1])


def test_rank_two_kernel_matches_one_determinant_per_partition_to_order_60():
    # k = 2 is the one entry Q_01: for e = 2 its coefficients take the
    # h(alpha^2) term of H(t)H(-t) = H_(alpha^2)(t^2)
    rng = random.Random(1414)
    for size in (1, 2, 3, 5):
        alpha = [g(rng.randint(-9, 9), rng.randint(1, 9), rng.randint(-9, 9), rng.randint(1, 9))
                 for _ in range(size)]
        for e in (1, 2):
            want = per_partition_sum(alpha, min(2, size), e, 60)
            for order in (0, 1, 2, 60):
                got = periods._schur_sum(alpha, 2, e, order)
                assert got.coeffs == want.coeffs[:order + 1], (alpha, e, order)


# -- the kernel at the Gaussian scale -------------------------------------

# inverses of Gaussian integers over split primes, whose least Gaussian
# denominator is a square root of their integer one: 1/(1+i), 1/(2+i),
# 1/(3+2i), 1/(4+i), 1/(3+4i) and 1/(1-8i), over 2, 5, 13, 17, 25, 65
SPLIT = (g(1, 2, -1, 2), g(2, 5, -1, 5), g(3, 13, -2, 13), g(4, 17, -1, 17),
         g(3, 25, -4, 25), g(1, 65, 8, 65))
GAUSSIAN_SCALE = (
    SPLIT[:5],
    (SPLIT[1], SPLIT[1], SPLIT[2], g(-3, 5)),
    (SPLIT[5], g(7, 65, 4, 65), g(1, 2), g(0, 1, 2, 13)),
    (SPLIT[3], SPLIT[4], SPLIT[3].conj(), g(2, 1, 1, 1)),
)


def per_partition_product_sum(alpha, k, e, order, beta):
    """Coefficient d: sum over lam |- d with <= k parts of
    s_(e*lam)(alpha) * s_lam(beta), one Jacobi-Trudi determinant
    (whittaker.schur, at the integer scale) per Schur value."""
    coeffs = []
    for d in range(order + 1):
        acc = GaussRat(0)
        for lam in partitions_within(d, min(k, len(alpha), len(beta)), d):
            acc = acc + (schur(tuple(e * x for x in lam) + (0,) * (len(alpha) - len(lam)), alpha)
                         * schur(tuple(lam) + (0,) * (len(beta) - len(lam)), beta))
        coeffs.append(acc)
    return Series(coeffs)


def test_gaussian_scale_kernel_matches_one_determinant_per_partition():
    for alpha in GAUSSIAN_SCALE:
        for k in range(1, 9):
            for e in (1, 2):
                # a partition with more parts than alpha has values s = 0
                got = periods._schur_sum(alpha, k, e, 7)
                assert got == per_partition_sum(alpha, min(k, len(alpha)), e, 7), (alpha, k, e)
    for alpha, beta in ((GAUSSIAN_SCALE[0], GAUSSIAN_SCALE[2]), (GAUSSIAN_SCALE[1], SPLIT[4:]),
                        (GAUSSIAN_SCALE[3], (g(1, 3), g(-2, 5))), (GAUSSIAN_SCALE[2], SPLIT[:1])):
        for k in range(1, 9):
            got = periods._schur_sum(alpha, k, 1, 6, beta)
            assert got == per_partition_product_sum(alpha, k, 1, 6, beta), (alpha, beta, k)


def test_gaussian_scale_halves_the_table_bits(monkeypatch):
    # 1/(2+i), 1/(3+2i), 1/(1+4i) have the integer denominator D = 5*13*17
    # (11 bits), which gives the table h 9-10 bits per degree; their least
    # Gaussian denominator (2+i)(3+2i)(1+4i) has norm D, and gives it 4-5
    alpha = (g(2, 5, -1, 5), g(3, 13, -2, 13), g(1, 17, -4, 17))
    den = 5 * 13 * 17
    tables = []

    def spy(a, upto):
        h = whittaker.h_table(a, upto)
        tables.append(h)
        return h

    monkeypatch.setattr(periods, "h_table", spy)
    assert periods._schur_sum(alpha, 3, 1, 20) == per_partition_sum(alpha, 3, 1, 20)
    (h,) = tables
    for d, (x, y) in enumerate(h[1:], 1):
        assert max(abs(x), abs(y)).bit_length() <= d * (den.bit_length() + 2) / 2, (d, x, y)


# the Satake values of the MAX_LATTICE_WORK comment
CAP_VALUES = (g(1, 2), g(-1, 3), g(2, 5), g(3, 7), g(-5, 6), g(4, 15), g(1, 35))


def test_pfaffian_kernel_peak_memory_at_the_work_cap():
    # rank 6 at order 55, the work cap, on the Satake values of the
    # MAX_LATTICE_WORK comment: the summed row-expansion kernel this
    # Pfaffian replaced traced 0.737 MB at its best (Python 3.11)
    gc.collect()
    tracemalloc.start()
    try:
        periods._schur_sum(CAP_VALUES, 6, 1, 55)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 820_000, peak


def test_pfaffian_takes_one_product_per_distinct_factor(monkeypatch):
    # e = 1 at order 12: rank 3 (bordered) is g*(2Q_1 - Q_2), rank 4 is
    # Q_1*(Q_1 + Q_3) - Q_2^2; ranks 10 and 12 took 317 and 1,055
    # products term by term; with beta, rank 3 took 9
    counts = {"_mul_add": 0, "_square_add": 0}
    for name in counts:
        def spy(*args, name=name, real=getattr(periods, name)):
            counts[name] += 1
            return real(*args)
        monkeypatch.setattr(periods, name, spy)
    alpha = CAP_VALUES * 2
    for k, beta, want in ((3, None, (1, 0)), (4, None, (1, 1)), (10, None, (200, 10)),
                          (12, None, (692, 16)), (3, CAP_VALUES[3:6], (7, 2))):
        counts.update(_mul_add=0, _square_add=0)
        periods._schur_sum(alpha[:k + 1], k, 1, 12, beta)
        assert (counts["_mul_add"], counts["_square_add"]) == want, k


def test_kernel_matrices_share_equal_entries():
    # Q_ij by (j - i, parity), the border by parity, M_xy by y - x
    a = [(3, 0), (-2, 1), (5, -4)]
    for n, e in ((3, 1), (5, 2)):
        entry = periods._mirabolic_matrix(a, n, e, 6)
        for i, j in itertools.combinations(range(n - e), 2):
            assert entry(i, j) is entry(i + e, j + e)
        assert entry(0, n) is entry(e, n) and (entry(0, n) is entry(1, n)) == (e == 1)
    n = 4
    entry = periods._cauchy_matrix(a, [(1, 1), (7, 0)], n, 6)
    for x, y in itertools.product(range(n - 1), repeat=2):
        assert entry(x, n + y) is entry(x + 1, n + y + 1)
    assert entry(0, 1) is None and entry(n, n + 1) is None


def test_square_add_matches_mul_add_of_the_factor_with_itself():
    rng = random.Random(3232)

    def part():
        return rng.choice((0, rng.randint(-9, 9), rng.randint(-2 ** 80, 2 ** 80)))

    for _ in range(200):
        size = rng.randint(1, 12)
        length = rng.choice((size, size, 1, size + rng.randint(1, 5)))
        kind = rng.choice(("gaussian", "real", "imaginary", "zero"))
        x = [(0 if kind in ("imaginary", "zero") else part(),
              0 if kind in ("real", "zero") else part()) for _ in range(length)]
        for negate in (0, 1):
            start = [rng.randint(-99, 99) for _ in range(2 * size)]
            want = start[:size], start[size:]
            got = start[:size], start[size:]
            periods._mul_add(*want, x, x, negate)
            periods._square_add(*got, x, negate)
            assert got == want, (x, size, negate)
    # the diagonal takes the sign too: -(1 + 2t + 5t^2)^2 = -1 - 4t - 14t^2 - ...
    re, im = [0] * 3, [0] * 3
    periods._square_add(re, im, [(1, 0), (2, 0), (5, 0)], 1)
    assert (re, im) == ([-1, -4, -14], [0, 0, 0])


def test_schur_integer_path_matches_bialternant_oracle():
    rng = random.Random(1717)
    for alpha in HOSTILE:
        m = len(alpha)
        # negative parts go through the central shift
        lams = [tuple(range(1, 1 - m, -1))]
        lams += [tuple(sorted((rng.randint(-3, 4) for _ in range(m)), reverse=True))
                 for _ in range(6)]
        for lam in lams:
            assert schur(lam, alpha) == schur_bialternant(lam, alpha), (lam, alpha)


def test_lattice_work_counts_partitions():
    for k in range(6):
        for order in range(9):
            count = sum(len(oracle_partitions(d, k)) for d in range(order + 1))
            assert periods.lattice_work(k, order) == count << min(k, order), (k, order)


def test_schur_sum_over_work_cap_raises_before_summing(monkeypatch):
    def never(*args):
        raise AssertionError("table built past the work cap")
    monkeypatch.setattr(periods, "h_table", never)
    assert periods.lattice_work(5, 40) * 10 < periods.MAX_LATTICE_WORK
    for k, order in ((5, 100000), (1, 10 ** 9), (30, 20)):
        assert periods.lattice_work(k, order) > periods.MAX_LATTICE_WORK
        with pytest.raises(periods.LatticeCostError, match="rank %d" % k):
            periods._schur_sum(HOSTILE[4], k, 1, order)


# -- flicker_series ------------------------------------------------------


def test_flicker_rank_zero_is_one():
    s = flicker_series(umod(UFP), 5)
    assert s.coeffs[0] == g(1)
    assert all(c.is_zero() for c in s.coeffs[1:])


def test_flicker_gl1_geometric():
    a = g(3, 7)
    s = flicker_series(umod(UFP, a), 8)
    assert s == series_of(RatFunc(Poly([1]), Poly.one_minus(a)), 8)


def test_flicker_gl1_ramified_square():
    # ramified: F-points sit at even E-valuations, character restricts to a^2
    a = g(3)
    s = flicker_series(umod(RFP, a), 8)
    assert s == series_of(RatFunc(Poly([1]), Poly.one_minus(a * a)), 8)


def test_flicker_matches_asai_both_types():
    assert flicker_series(umod(UFP, g(3), g(1, 3)), 30) == series_of(
        asai_L(umod(UFP, g(3), g(1, 3))), 30)
    assert flicker_series(umod(RFP, g(2), g(1, 2)), 30) == series_of(
        asai_L(umod(RFP, g(2), g(1, 2))), 30)


def test_flicker_randomized_modules():
    rng = random.Random(121)
    for i in range(12):
        fp = corpus.rand_field(rng, ramified=bool(i % 2))
        mod = corpus.rand_module(rng, fp, rng.randint(0, 3))
        assert flicker_series(mod, 14) == series_of(asai_L(mod), 14)


def test_flicker_reconstruct_recovers_asai():
    mod = umod(UFP, g(3), g(1, 3))
    rf = asai_L(mod)
    got = reconstruct(flicker_series(mod, 12), 0, rf.den_degree)
    assert got == rf


def test_flicker_sqrt_component_vanishes():
    # the Iwasawa sum over a ramified pair, built from (c, m) Whittaker
    # values and weights, has no odd-m part left, and its even-m part is
    # the kernel's series
    rng = random.Random(232)
    for _ in range(6):
        mod = corpus.rand_module(rng, RFP, rng.randint(1, 3))
        brute = brute_flicker(mod, 10)
        assert all(odd.is_zero() for _, odd in brute)
        assert [even for even, _ in brute] == list(flicker_series(mod, 10).coeffs)


# -- mirabolic_series ----------------------------------------------------


def test_mirabolic_gl1_is_constant():
    rep = GenericRep(UFP, (Segment(MultChar.unramified(g(7)), 1),))
    s = mirabolic_series(rep, 6)
    assert s.coeffs[0] == g(1)
    assert all(c.is_zero() for c in s.coeffs[1:])


def test_mirabolic_steinberg_is_geometric():
    s = mirabolic_series(steinberg(UFP), 20)
    assert s == series_of(RatFunc(Poly([1]), Poly.one_minus(g(1))), 20)


def test_mirabolic_unramified_equals_asai_times_complement():
    rng = random.Random(343)
    for i in range(8):
        fp = corpus.rand_field(rng, ramified=bool(i % 2))
        mod = corpus.rand_module(rng, fp, rng.randint(1, 3))
        rep = module_as_rep(mod)
        n = rep.n
        want = asai_L(mod) * Poly.one_minus(mod.omega_at_unif(), n)
        assert mirabolic_series(rep, 16) == series_of(want, 16)


def test_mirabolic_ramified_equals_asai_of_pi_u():
    rng = random.Random(454)
    for i in range(8):
        fp = corpus.rand_field(rng, ramified=bool(i % 2))
        rep = corpus.ramified_rep(rng, fp)
        mod = pi_u(rep)
        assert mirabolic_series(rep, 12) == series_of(asai_L(mod), 12)


def test_mirabolic_chain_identity_general_center():
    # flicker = mirabolic * 1/(1 - omega(unif_F) t^n): exact for any module
    rng = random.Random(565)
    for i in range(8):
        fp = corpus.rand_field(rng, ramified=bool(i % 2))
        mod = corpus.rand_module(rng, fp, rng.randint(1, 3))
        rep = module_as_rep(mod)
        n = rep.n
        center = series_of(tate_L(mod.omega_at_unif(), n), 16)
        assert flicker_series(mod, 16) == mirabolic_series(rep, 16) * center


def test_mirabolic_chain_identity_trivial_center():
    # with central character trivial on F* the cofactor is 1/(1-t^n)
    rng = random.Random(676)
    for i in range(8):
        fp = corpus.rand_field(rng, ramified=bool(i % 2))
        mod = omega_trivial_module(rng, fp, rng.randint(1, 4))
        rep = module_as_rep(mod)
        center = series_of(tate_L(g(1), rep.n), 16)
        assert flicker_series(mod, 16) == mirabolic_series(rep, 16) * center


def test_mirabolic_sqrt_component_vanishes():
    rng = random.Random(787)
    for _ in range(5):
        rep = corpus.ramified_rep(rng, RFP)
        brute = brute_mirabolic(rep, 8)
        assert all(odd.is_zero() for _, odd in brute)
        assert [even for even, _ in brute] == list(mirabolic_series(rep, 8).coeffs)


def test_mirabolic_at_the_largest_admitted_order_rank5():
    # the largest order the caps admit, on the spherical route (n = r = 5,
    # sums over 4 parts) and the essential route (r = 5 < n = 6, 5
    # parts), where the work cap binds: one order more is refused
    vals = (g(2), g(1, 3), g(-1, 2, 1, 2), g(3, 2), g(0, 1, 2, 3))
    unram = tuple(Segment(MultChar.unramified(v), 1) for v in vals)
    ramified = Segment(corpus.ramified_char(random.Random(1210), 1), 1)
    for rep in (GenericRep(UFP, unram), GenericRep(UFP, unram + (ramified,))):
        order = periods.mirabolic_largest_order(rep)
        k = min(pi_u(rep).r, rep.n - 1)
        assert periods.lattice_work(k, order + 1) > periods.MAX_LATTICE_WORK
        assert mirabolic_series(rep, order) == series_of(closed_form_for(rep), order)
        with pytest.raises(periods.LatticeCostError, match="largest order for this sum is %d" % order):
            mirabolic_series(rep, order + 1)


def test_theorem1_at_the_largest_admitted_order_ranks_2_and_3():
    # at ranks 2 and 3 the size cap binds before the work cap (orders 1428
    # and 352 for the first values at e = 1); the Gaussian integers 1+2i,
    # -1+3i, 2+5i give rank 2 order 1586 at e = 1 and 793 at e = 2
    real = (g(1, 2), g(-1, 3), g(2, 5), g(3, 7))
    for fp in (UFP, RFP):
        for vals in (real[:3], (g(1, 1, 2), g(-1, 1, 3), g(2, 1, 5)), real):
            rep = GenericRep(fp, tuple(Segment(MultChar.unramified(v), 1) for v in vals))
            order = periods.mirabolic_largest_order(rep)
            k = len(vals) - 1
            assert periods.lattice_work(k, order) <= periods.MAX_LATTICE_WORK
            report = verify_theorem1(rep, order)
            assert report.match and report.series.order == order, (fp.e, vals)


# -- rs_series -----------------------------------------------------------


def test_rs_series_gl1():
    s = rs_series(umod(UFP, g(3)), umod(UFP), 6)
    assert s.coeffs[0] == g(1)
    assert all(c.is_zero() for c in s.coeffs[1:])


def test_rs_series_gl2_cauchy():
    m1 = umod(UFP, g(2), g(1, 2))
    m2 = umod(UFP, g(3))
    assert rs_series(m1, m2, 20) == series_of(rs_L(m1, m2), 20)


def test_rs_series_matches_brute_enumeration():
    for fp in (UFP, RFP):
        m1 = umod(fp, g(2), g(1, 3))
        m2 = umod(fp, g(5))
        assert kernel_mismatches(rs_series(m1, m2, 6), brute_rs(m1, m2, 6, width=7)) == []
        m1b = umod(fp, g(2), g(1, 2), g(3))
        m2b = umod(fp, g(1, 5), g(7))
        assert kernel_mismatches(rs_series(m1b, m2b, 5), brute_rs(m1b, m2b, 5, width=6)) == []


def test_kernel_mismatches_flag_a_wrong_half_power():
    # on a ramified pair single Rankin-Selberg factors have odd m. One
    # half power more on every weight swaps the parities: the odd-m sum
    # becomes the kernel's series. Two half powers keep them and scale
    # the even-m sum by q_F. Both must be flagged wherever the kernel's
    # coefficient is nonzero.
    m1, m2 = umod(RFP, g(2), g(1, 3)), umod(RFP, g(5))
    kernel = rs_series(m1, m2, 4)
    terms = list(rs_terms(m1, m2, 4, 5))
    assert any(m % 2 for _, factors in terms for _, m in factors)
    assert kernel_mismatches(kernel, iwasawa_sum(terms, 4, 2)) == []
    nonzero = [d for d, c in enumerate(kernel.coeffs) if c]
    assert nonzero

    def shifted(k):
        return iwasawa_sum(((d, fs[:-1] + ((fs[-1][0], fs[-1][1] + k),)) for d, fs in terms),
                           4, 2)

    one = shifted(1)
    assert [odd for _, odd in one] == list(kernel.coeffs)
    assert kernel_mismatches(kernel, one) == nonzero
    two = shifted(2)
    assert all(not odd for _, odd in two)
    assert [even for even, _ in two] == [2 * c for c in kernel.coeffs]
    assert kernel_mismatches(kernel, two) == nonzero


def test_rs_series_randomized_vs_closed_form():
    rng = random.Random(898)
    for i in range(10):
        fp = corpus.rand_field(rng, ramified=bool(i % 2))
        n = rng.randint(1, 4)
        m1 = corpus.rand_module(rng, fp, n)
        m2 = corpus.rand_module(rng, fp, n - 1)
        assert rs_series(m1, m2, 12) == series_of(rs_L(m1, m2), 12)


def test_rs_series_rank_mismatch():
    with pytest.raises(ValueError, match="rank"):
        rs_series(umod(UFP, g(2)), umod(UFP, g(3)), 4)


# -- verify_theorem1 -----------------------------------------------------


def test_theorem1_steinberg():
    report = verify_theorem1(steinberg(UFP), 25)
    assert report.match
    assert report.reconstructed == report.closed_form
    assert report.value_at_1 == g(2)


def test_theorem1_unitary_example():
    rep = corpus.unitary_gl2_example()
    report = verify_theorem1(rep, 25)
    assert report.match
    assert report.value_at_1 == g(20, 13)


def test_theorem1_unitary_float_partial_sums():
    rep = corpus.unitary_gl2_example()
    report = verify_theorem1(rep, 60)
    # closed form evaluates termwise to floats; partial sums at t=1/2 of the
    # flicker series of pi converge to L(1); L* scales by (1-t^n)
    mod = pi_u(rep)
    total = 0.0
    for d, c in enumerate(flicker_series(mod, 60).coeffs):
        total += float(c.re) * 0.5**d
    lstar = total * (1 - 0.5**rep.n)
    assert math.isclose(lstar, 20 / 13, abs_tol=1e-6)
    assert report.value_at_1 == g(20, 13)


def test_theorem1_engineered_pole():
    # alpha1*alpha2 = q_F^2 = 4 puts a pair factor zero at t = 1/2; the
    # third value restores a trivial central restriction so the
    # theorem-form closed form still matches the lattice sum
    rep = GenericRep(UFP, (
        Segment(MultChar.unramified(g(8)), 1),
        Segment(MultChar.unramified(g(1, 2)), 1),
        Segment(MultChar.unramified(g(1, 4)), 1),
    ))
    report = verify_theorem1(rep, 24)
    assert report.match  # the series identity still holds formally
    assert report.value_at_1 is None


def test_theorem1_nontrivial_central_restriction():
    # omega(unif_F) = 4 here: the mirabolic sum is asai*(1-4t^2), whose
    # central factor cancels the pair factor 1/(1-4t^2) of the Asai
    # factor; the edge value comes from the reduced form, with no pole
    rep = GenericRep(UFP, (
        Segment(MultChar.unramified(g(8)), 1),
        Segment(MultChar.unramified(g(1, 2)), 1),
    ))
    report = verify_theorem1(rep, 20)
    assert report.match
    true_form = RatFunc(Poly([1]), Poly.one_minus(g(8)) * Poly.one_minus(g(1, 2)))
    assert report.closed_form == true_form
    assert report.reconstructed == true_form
    assert report.value_at_1 == g(-4, 9)


def test_theorem1_randomized_central_character():
    # rand_module draws omega(unif_F) freely, so this covers the central
    # Tate factor L(ns, omega|F*) for omega nontrivial on F*
    rng = random.Random(1204)
    for i in range(12):
        fp = corpus.rand_field(rng, ramified=bool(i % 2))
        rep = generic_draw(lambda: module_as_rep(
            corpus.rand_module(rng, fp, rng.randint(1, 3))))
        report = verify_theorem1(rep, 16)
        assert report.match
        assert report.reconstructed == report.closed_form


def test_theorem1_order_too_small():
    rep = steinberg(UFP)
    cf = closed_form_for(rep)
    assert cf.num_degree + cf.den_degree + 1 == 2
    with pytest.raises(periods.OrderTooSmall, match="smallest order that certifies is 2"):
        verify_theorem1(rep, 1)
    assert verify_theorem1(rep, 2).match


def test_theorem1_checks_order_before_summing(monkeypatch):
    def never(rep, order):
        raise AssertionError("series built before the order check")
    monkeypatch.setattr(periods, "mirabolic_ints", never)
    with pytest.raises(ValueError, match="order"):
        verify_theorem1(steinberg(UFP), 1)


def test_reconstruct_of_period_series_is_the_closed_form():
    # the equality that lets verify_theorem1 skip the solve on a match:
    # at the minimal certifying order num_deg + den_deg + 1 and above it,
    # reconstruction within the closed form's degree bounds returns the
    # closed form itself, on the spherical route (r = n) and on the
    # essential-vector route (r < n), over both field types
    rng = random.Random(1207)
    cases = [(ramified, route, r) for ramified in (False, True)
             for route, r in (("spherical", 1), ("spherical", 2), ("spherical", 3),
                              ("essential", 1), ("essential", 2))]
    for ramified, route, r in cases:
        fp = corpus.rand_field(rng, ramified)
        if route == "spherical":
            rep = generic_draw(lambda: module_as_rep(corpus.rand_module(rng, fp, r)))
        else:
            rep = essential_route_rep(rng, fp, r)
            assert pi_u(rep).r == r < rep.n
        cf = closed_form_for(rep)
        minimal = cf.num_degree + cf.den_degree + 1
        for order in (minimal, minimal + rng.randint(1, 4)):
            series = mirabolic_series(rep, order)
            assert reconstruct(series, cf.num_degree, cf.den_degree) == cf


def kernel_route_rep(rng, fp, route):
    """A generic rep whose mirabolic sum takes route: "rank0" (no
    unramified support, or one GL(1) piece: k = 0), "one-row" (k = 1),
    "spherical" (a module of rank 0-6 as a rep) or "essential" (rank
    0-5 beside a ramified segment); a quarter of the modules repeat a
    value."""
    def values(r):
        vals = [corpus.rand_gauss(rng) for _ in range(r)]
        if r >= 2 and rng.random() < 0.25:
            vals[-1] = rng.choice(vals[:-1])
        return vals

    def make():
        if route == "rank0":
            if rng.random() < 0.5:
                return module_as_rep(UnramifiedModule(fp, values(1)))
            segs = [Segment(corpus.ramified_char(rng, rng.randint(1, 2)), rng.randint(1, 2))]
        elif route == "one-row":
            return module_as_rep(UnramifiedModule(fp, values(2)))
        elif route == "spherical":
            return module_as_rep(UnramifiedModule(fp, values(rng.randint(1, 6))))
        else:
            segs = [Segment(MultChar.unramified(v), 1) for v in values(rng.randint(0, 5))]
            segs.append(Segment(corpus.ramified_char(rng, rng.randint(1, 2)), rng.randint(1, 2)))
        return GenericRep(fp, tuple(segs))
    return generic_draw(make)


def test_series_mismatch_agrees_with_expanding_the_closed_form():
    # the integer check (the series times a denominator against the
    # numerator over it) gives the verdict and the index that the
    # GaussRat expansion gives, on the true closed form (cancelled
    # numerators included: a GL(1) rep has closed form 1), on series
    # perturbed at one index, and on wrong closed forms: a factor
    # dropped, omega set to 1, a factor swapped for one whose
    # denominator the series' scale does not cover, and the numerator
    # times a constant that is not a Gaussian integer; each form both as
    # from_factors builds it (the check multiplies by its unreduced
    # factors) and as a plain RatFunc (by its reduced denominator)
    rng = random.Random(3307)
    seen = set()
    for i in range(240):
        fp = corpus.rand_field(rng, ramified=bool(i % 2))
        route = ("rank0", "one-row", "spherical", "essential")[i % 4]
        rep = kernel_route_rep(rng, fp, route)
        order = rng.randint(0, 30 if pi_u(rep).r <= 4 else 16)
        ints = periods.mirabolic_ints(rep, order)
        cf = closed_form_for(rep)
        mod = pi_u(rep)
        factors = asai_factor_list(mod)
        numerator = [(mod.omega_at_unif(), rep.n)] if is_unramified_rep(rep) else []
        assert cf.unreduced is not None
        assert cf == RatFunc.from_factors(factors) * RatFunc.from_factors(numerator).den
        re, im, scale = ints
        bumped = list(re), list(im)
        at = rng.randint(0, order)
        bumped[rng.randint(0, 1)][at] += rng.choice((-1, 1)) * rng.randint(1, 5) * scale ** rng.randint(0, at)
        third = GaussRat(rat(1, 3), rat(rng.randint(0, 2)))
        variants = [(ints, cf), ((*bumped, scale), cf), (ints, RatFunc(cf.num * third, cf.den))]
        if factors:
            drop = rng.randrange(len(factors))
            variants.append((ints, RatFunc.from_factors(factors[:drop] + factors[drop + 1:], numerator)))
            swapped = list(factors)
            swapped[drop] = (GaussRat(rat(rng.randint(1, 9), rng.choice((7, 11, 13, 49)))),
                             factors[drop][1])
            variants.append((ints, RatFunc.from_factors(swapped, numerator)))
        if numerator:
            variants.append((ints, RatFunc.from_factors(factors, [(GaussRat(1), numerator[0][1])])))
        for (xr, xi, s), rf in variants:
            want = Series(graded(xr, xi, s)).first_mismatch(series_of(rf, order))
            for form in (rf, RatFunc(rf.num, rf.den)):
                assert series_mismatch(xr, xi, s, form) == want, (route, fp, order, rf)
            seen.add((route, len(ints[0]) == 1, want is None, cf.num_degree == 0 and bool(numerator)))
        assert series_mismatch(*ints, cf) is None
    # every route, matches and mismatches, and the cancelled GL(1) forms
    assert {r for r, _, _, _ in seen} == {"rank0", "one-row", "spherical", "essential"}
    assert {m for _, _, m, _ in seen} == {True, False}
    assert any(c for _, _, _, c in seen) and any(one for _, one, _, _ in seen)


def test_theorem1_match_never_reconstructs(monkeypatch):
    def never(s, max_num_deg, max_den_deg):
        raise AssertionError("reconstruct called on a matching series")
    monkeypatch.setattr(periods, "reconstruct", never)
    rng = random.Random(1208)
    reps = [steinberg(UFP), steinberg(RFP), corpus.unitary_gl2_example()]
    reps += [essential_route_rep(rng, RFP, 2), essential_route_rep(rng, UFP, 1)]
    for rep in reps:
        report = verify_theorem1(rep, 16)
        assert report.match
        assert report.reconstructed == report.closed_form
        assert report.expected == series_of(report.closed_form, 16)


def test_theorem1_mismatch_reconstructs_the_true_form(monkeypatch):
    # omega(unif_F) = 4; with the closed form swapped for asai * (1 - t^2),
    # which ignores the central character, the series diverges from it
    # at t^2, and reconstruction within that form's bounds (2, 4) reports
    # the true reduced form 1/((1 - 8t)(1 - t/2))
    rep = GenericRep(UFP, (
        Segment(MultChar.unramified(g(8)), 1),
        Segment(MultChar.unramified(g(1, 2)), 1),
    ))

    def trivial_center_form(rep):
        return asai_L(pi_u(rep)) * Poly.one_minus(g(1), rep.n)
    monkeypatch.setattr(periods, "closed_form_for", trivial_center_form)
    report = verify_theorem1(rep, 20)
    assert not report.match
    wrong = trivial_center_form(rep)
    assert report.closed_form == wrong
    assert report.expected == series_of(wrong, 20)
    assert report.series.first_mismatch(report.expected) == 2
    true_form = RatFunc(Poly([1]), Poly.one_minus(g(8)) * Poly.one_minus(g(1, 2)))
    assert report.reconstructed == true_form


# -- verify_c_pi ---------------------------------------------------------


def test_c_pi_steinberg():
    assert verify_c_pi(steinberg(UFP))
    # over a ramified pair the Steinberg conductor is 1 (odd), so the
    # even-conductor input to the proof chain fails: not distinguished
    assert not verify_c_pi(steinberg(RFP))


def test_c_pi_unramified_csd_module():
    rng = random.Random(919)
    for _ in range(10):
        mod = csd_module(rng, UFP, pairs=1, self_ones=1)
        assert verify_c_pi(module_as_rep(mod))


def test_c_pi_sigma_paired_ramified_even_conductor():
    rng = random.Random(929)
    a, b = corpus.sigma_paired_segments(rng, unit_conductor=1, k=1)
    rep = GenericRep(RFP, (a, b))
    assert conductor(rep) % 2 == 0
    assert verify_c_pi(rep)


def test_c_pi_rejects_non_csd():
    rep = GenericRep(UFP, (Segment(MultChar.unramified(g(3)), 1),))
    with pytest.raises(ValueError, match="not distinguished-compatible"):
        verify_c_pi(rep)


# -- essential_rs_check ---------------------------------------------------


def test_essential_rs_small_ranks():
    assert essential_rs_check(
        GenericRep(UFP, (Segment(MultChar.unramified(g(3)), 1),)), umod(UFP), 6)
    # (3, 1/3) is unlinked over q_E = 4, unlike (2, 1/2)
    rep2 = GenericRep(UFP, (
        Segment(MultChar.unramified(g(3)), 1),
        Segment(MultChar.unramified(g(1, 3)), 1),
    ))
    assert essential_rs_check(rep2, umod(UFP, g(5)), 12)


def test_essential_rs_unit_circle_rank3():
    rng = random.Random(939)
    vals = tuple(unit_circle_gauss(rng) for _ in range(3))
    rep = GenericRep(UFP, tuple(Segment(MultChar.unramified(v), 1) for v in vals))
    t_mod = umod(UFP, unit_circle_gauss(rng), unit_circle_gauss(rng))
    assert essential_rs_check(rep, t_mod, 10)


def test_essential_rs_rejects_ramified_rep():
    with pytest.raises(ValueError, match="out of scope"):
        essential_rs_check(steinberg(UFP), umod(UFP, g(1)), 6)


# -- holomorphy at the edge for distinguished-compatible data -------------


def test_no_pole_at_edge_for_csd_corpus():
    rng = random.Random(949)
    for ramified in (False, True):
        fp = corpus.rand_field(rng, ramified)
        for _ in range(15):
            rep = corpus.csd_rep(rng, fp)
            lstar_at_1(rep)  # raises on a pole


# -- lattice_value_at ------------------------------------------------------


def test_lattice_value_at_integer_points():
    rep = steinberg(UFP)
    assert lattice_value_at(rep, 2) == g(4, 3)
    assert lattice_value_at(rep, 1) == g(2)
    with pytest.raises(ValueError):
        lattice_value_at(rep, 0)


def test_period_values_are_gauss_rationals():
    # every series, closed form and value of the period layer lies in Q(i)
    rng = random.Random(911)
    reps = [corpus.unitary_gl2_example(), steinberg(RFP),
            essential_route_rep(rng, RFP, 2),
            module_as_rep(omega_trivial_module(rng, RFP, 3))]
    for rep in reps:
        mod = pi_u(rep)
        report = verify_theorem1(rep, 12)
        scalars = list(report.series.coeffs) + list(report.expected.coeffs)
        for rf in (report.closed_form, report.reconstructed, asai_L(mod)):
            scalars += list(rf.num.coeffs) + list(rf.den.coeffs)
        scalars += list(flicker_series(mod, 6).coeffs)
        scalars += list(rs_series(mod, umod(rep.fp, g(3)), 6).coeffs) if mod.r == 2 else []
        scalars += [report.value_at_1, lstar_at_1(rep), eval_at(report.closed_form, g(1, 7))]
        assert all(type(c) is GaussRat for c in scalars)
    assert type(lattice_value_at(reps[0], 2)) is GaussRat


def bits(c):
    return max(max(x.numerator.bit_length(), x.denominator.bit_length()) for x in (c.re, c.im))


def test_size_bounds_hold_on_large_values():
    # coefficient_bits and value_bits bound what the sums, closed forms
    # and values really need, here on Satake values up to 2^40 in height
    rng = random.Random(1301)

    def big_gauss():
        im = rng.choice((0, rng.randint(-2 ** 30, 2 ** 30)))
        return GaussRat(rat(rng.randint(-2 ** 40, 2 ** 40) or 1, rng.randint(1, 2 ** 20)),
                        rat(im, rng.randint(1, 99)))

    for i in range(10):
        fp = corpus.rand_field(rng, ramified=bool(i % 2))
        rep = generic_draw(lambda: module_as_rep(
            umod(fp, *(big_gauss() for _ in range(rng.randint(1, 3))))))
        mod, e = pi_u(rep), fp.e
        u = periods.coefficient_bits(mod.satake)
        for series in (flicker_series(mod, 8), mirabolic_series(rep, 8)):
            for d, c in enumerate(series.coeffs):
                assert bits(c) <= max(1, e * d * u)
        other = umod(fp, *(big_gauss() for _ in range(mod.r - 1)))
        rs_u = u + periods.coefficient_bits(other.satake)
        for d, c in enumerate(rs_series(mod, other, 6).coeffs):
            assert bits(c) <= max(1, d * rs_u)
        for rf, per_degree in ((closed_form_for(rep), e * u), (rs_L(mod, other), rs_u)):
            for poly in (rf.num, rf.den):
                for m, c in enumerate(poly.coeffs):
                    assert bits(c) <= max(1, m * per_degree)
        for s in (1, 2, 5):
            try:
                value = lattice_value_at(rep, s)
            except ZeroDivisionError:
                continue
            assert bits(value) <= periods.value_bits(mod.r, u, e, fp.q_F, s)
