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
from asaiperiods.series import Poly, Series
from asaiperiods.ratfunc import RatFunc, eval_at, reconstruct, series_of
from asaiperiods.localfields import FieldPair
from asaiperiods.segments import (
    GenericRep,
    MultChar,
    NotGenericError,
    Segment,
    UnramifiedModule,
    conductor,
    pi_u,
)
from asaiperiods.lfactors import asai_L, closed_form_for, lattice_value_at, lstar_at_1, rs_L, tate_L
from asaiperiods.periods import (
    essential_rs_check,
    flicker_series,
    mirabolic_series,
    rs_series,
    verify_c_pi,
    verify_theorem1,
)
from asaiperiods.whittaker import schur, schur_bialternant
from asaiperiods import corpus, periods, whittaker
from iwasawa import (
    brute_flicker,
    brute_mirabolic,
    brute_rs,
    iwasawa_sum,
    kernel_mismatches,
    rs_terms,
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
        rep = generic_draw(lambda: corpus.module_as_rep(
            corpus.rand_module(rng, fp, rng.randint(1, 3))))
        mod = pi_u(rep)
        assert kernel_mismatches(flicker_series(mod, 8), brute_flicker(mod, 8)) == []
        assert kernel_mismatches(mirabolic_series(rep, 8), brute_mirabolic(rep, 8)) == []


def test_mirabolic_sum_takes_a_rep_only():
    # a bare module enters through corpus.module_as_rep
    mod = umod(UFP, g(1, 2), g(-1, 3))
    for bad in (mod, None):
        with pytest.raises(TypeError):
            mirabolic_series(bad, 8)
        with pytest.raises(TypeError):
            periods.mirabolic_largest_order(bad)
    rep = corpus.module_as_rep(mod)
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
    rep = generic_draw(lambda: corpus.module_as_rep(corpus.rand_module(rng, fp, 5)))
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
    for alpha, orders in ((COINCIDENT[0], (12, 14)), (COINCIDENT[1], (10, 14))):
        m = len(alpha)
        for order in orders:
            # many tails share a key (total of rows 1.., part of row 1),
            # so the kernel sums their minors before it expands row 0
            lams = [lam for d in range(order + 1) for lam in partitions_within(d, m, d)]
            keys = {(sum(lam[1:]), lam[1]) for lam in lams if len(lam) > 1}
            assert len(lams) > 3 * len(keys)
            for e in (1, 2):
                for k in (m, m - 1):
                    got = periods._schur_sum(alpha, k, e, order)
                    assert got == per_partition_sum(alpha, k, e, order), (m, order, e, k)
    # k = 1..3 give n = 1 (no row expanded), 2 (row 1 against the empty
    # tail) and 3 (one stored level); an order below k cuts n to the order
    alpha = COINCIDENT[0]
    for k in (1, 2, 3):
        for order in (k - 1, 12):
            for e in (1, 2):
                got = periods._schur_sum(alpha, k, e, order)
                assert got == per_partition_sum(alpha, k, e, order), (order, e, k)


def test_summed_kernel_frees_the_level_below():
    # rank 6 at order 55, the work cap, on the Satake values of the
    # MAX_LATTICE_WORK comment: the traced peak was 0.911 MB while a step
    # held the whole level below it, and 0.737 MB once it pops each entry
    # after its last reader (Python 3.11)
    alpha = [g(1, 2), g(-1, 3), g(2, 5), g(3, 7), g(-5, 6), g(4, 15), g(1, 35)]
    gc.collect()
    tracemalloc.start()
    try:
        periods._schur_sum(alpha, 6, 1, 55)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 820_000, peak


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


def test_free_column_cache_holds_only_the_masks_a_sum_reaches(monkeypatch):
    # k = 13 at order 13 is admitted by the work cap; a table of every
    # column set for every first column would hold 14 * 2^13 lists
    k = order = 13
    assert periods.lattice_work(k, order) <= periods.MAX_LATTICE_WORK
    tables, reached = {}, set()

    def spy(rows, start, n, below):
        tables[id(rows)] = rows
        reached.update((id(rows), n, max(0, -start), mask) for mask in below)
        return whittaker.expand_row(rows, start, n, below)

    monkeypatch.setattr(periods, "expand_row", spy)
    alpha = [g(p, q) for p, q in ((1, 2), (-1, 3), (2, 5), (3, 7), (-5, 6), (4, 15), (1, 35))] * 2
    assert periods._schur_sum(alpha, k, 1, order).coeffs[1] == sum(alpha, g(0))
    cached = sum(len(masks) for rows in tables.values() for masks in rows.free.values())
    assert 0 < cached <= len(reached) < 2 ** k


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
        rep = corpus.module_as_rep(mod)
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
        rep = corpus.module_as_rep(mod)
        n = rep.n
        center = series_of(tate_L(mod.omega_at_unif(), n), 16)
        assert flicker_series(mod, 16) == mirabolic_series(rep, 16) * center


def test_mirabolic_chain_identity_trivial_center():
    # with central character trivial on F* the cofactor is 1/(1-t^n)
    rng = random.Random(676)
    for i in range(8):
        fp = corpus.rand_field(rng, ramified=bool(i % 2))
        mod = corpus.omega_trivial_module(rng, fp, rng.randint(1, 4))
        rep = corpus.module_as_rep(mod)
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
        total += c.to_complex().real * 0.5**d
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
        rep = generic_draw(lambda: corpus.module_as_rep(
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
    monkeypatch.setattr(periods, "mirabolic_series", never)
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
            rep = generic_draw(lambda: corpus.module_as_rep(corpus.rand_module(rng, fp, r)))
        else:
            rep = essential_route_rep(rng, fp, r)
            assert pi_u(rep).r == r < rep.n
        cf = closed_form_for(rep)
        minimal = cf.num_degree + cf.den_degree + 1
        for order in (minimal, minimal + rng.randint(1, 4)):
            series = mirabolic_series(rep, order)
            assert reconstruct(series, cf.num_degree, cf.den_degree) == cf


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
        mod = corpus.csd_module(rng, UFP, pairs=1, self_ones=1)
        assert verify_c_pi(corpus.module_as_rep(mod))


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
    vals = tuple(corpus.unit_circle_gauss(rng) for _ in range(3))
    rep = GenericRep(UFP, tuple(Segment(MultChar.unramified(v), 1) for v in vals))
    t_mod = umod(UFP, corpus.unit_circle_gauss(rng), corpus.unit_circle_gauss(rng))
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
            corpus.module_as_rep(corpus.omega_trivial_module(rng, RFP, 3))]
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
        rep = generic_draw(lambda: corpus.module_as_rep(
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
            assert bits(value) <= periods.value_bits(mod.satake, e, fp.q_F, s)
