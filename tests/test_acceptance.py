"""Acceptance gate: eleven exact end-to-end criteria.

Every criterion prints (and records for the terminal summary) a single
"[criterion N] PASS/FAIL" line. All identities are exact over the
Gaussian rationals; criterion 11 sums Whittaker values c * q_F^(m/2),
with the terms of odd m in a separate sqrt(q_F) accumulator. The only
tolerances are the one float cross-check (1e-6) and the wall-clock
budget of criterion 1.
"""

import itertools
import random
import time
from functools import lru_cache

from conftest import record_criterion

from asaiperiods.rational import rat
from asaiperiods.scalars import GAUSS_ZERO, GaussRat
from asaiperiods.series import Poly, Series
from asaiperiods.ratfunc import RatFunc, eval_at, series_of
from asaiperiods.localfields import (
    AddCharData,
    FieldPair,
    conductor_zero_shift,
    trace_conductor,
)
from asaiperiods.segments import (
    GenericRep,
    asai_holomorphic_witness,
    conductor,
    pi_u,
)
from asaiperiods.whittaker import schur
from asaiperiods.lfactors import (
    asai_L,
    asai_L_multiplicative,
    kable_factorization_check,
    lstar_at_1,
    rs_L,
    tate_L,
)
from asaiperiods.periods import flicker_series, mirabolic_series, rs_series
from asaiperiods import corpus
from corpora import csd_module, module_as_rep, omega_trivial_module
from iwasawa import (
    brute_flicker,
    brute_mirabolic,
    iwasawa_sum,
    kernel_mismatches,
    rs_terms,
    schur_bialternant,
)


def _check(num: int, label: str, ok: bool, detail: str = "") -> None:
    line = "[criterion %d] %s %s" % (num, "PASS" if ok else "FAIL", label)
    if detail and not ok:
        line += " (%s)" % detail
    print(line)
    record_criterion(line)
    assert ok, line


def g(p, q=1):
    return GaussRat(rat(p, q))


# -- shared corpora (memoized so criterion 11 reuses the series) ----------


@lru_cache(maxsize=None)
def corpus_flicker():
    """Criterion 1 corpus: 50 random modules, r <= 4, both field types."""
    rng = random.Random(20260817)
    out = []
    for i in range(50):
        fp = corpus.rand_field(rng, ramified=bool(i % 2))
        mod = corpus.rand_module(rng, fp, rng.randint(1, 4))
        out.append((mod, flicker_series(mod, 30)))
    return out


@lru_cache(maxsize=None)
def corpus_chain():
    """Criterion 2 corpus: modules with central character trivial on F*,
    n <= 4, both field types, with flicker and mirabolic series."""
    rng = random.Random(6031)
    out = []
    for i in range(12):
        fp = corpus.rand_field(rng, ramified=bool(i % 2))
        mod = omega_trivial_module(rng, fp, rng.randint(1, 4))
        rep = module_as_rep(mod)
        out.append((mod, rep, flicker_series(mod, 30), mirabolic_series(rep, 30)))
    return out


@lru_cache(maxsize=None)
def corpus_ramified_reps():
    """Criterion 3 corpus: ramified reps with character supports,
    including both Steinbergs, mixed supports, and r = 0 cases."""
    rng = random.Random(6021)
    reps = [
        corpus.steinberg_gl2(FieldPair(2, False)),
        corpus.steinberg_gl2(FieldPair(3, True, 1)),
    ]
    for _ in range(2):  # no unramified support at all: r = 0
        seg = corpus.selfdual_ramified_segment(rng, 1, 2)
        reps.append(GenericRep(FieldPair(5, False), (seg,)))
    for i in range(16):
        fp = corpus.rand_field(rng, ramified=bool(i % 2))
        reps.append(corpus.ramified_rep(rng, fp))
    return [(rep, mirabolic_series(rep, 30)) for rep in reps]


@lru_cache(maxsize=None)
def corpus_rs_pairs():
    """Criterion 6 corpus: 30 module pairs of ranks n and n-1, n <= 3,
    both field types."""
    rng = random.Random(306)
    out = []
    for i in range(30):
        fp = corpus.rand_field(rng, ramified=bool(i % 2))
        n = rng.randint(1, 3)
        out.append((corpus.rand_module(rng, fp, n), corpus.rand_module(rng, fp, n - 1)))
    return out


# -- criteria --------------------------------------------------------------


def test_criterion_1_flicker_identity():
    start = time.perf_counter()
    bad = sum(1 for mod, s in corpus_flicker() if s != series_of(asai_L(mod), 30))
    elapsed = time.perf_counter() - start
    ok = bad == 0 and elapsed < 30.0
    _check(1, "flicker lattice sum = Asai factor, 50 modules, order 30 "
              "(%.2fs)" % elapsed, ok,
           "%d mismatches, %.1fs" % (bad, elapsed))


def test_criterion_2_mirabolic_chain_and_edge_value():
    chain_ok = True
    for mod, rep, flick, mira in corpus_chain():
        cofactor = series_of(tate_L(g(1), rep.n), 30)
        if flick != mira * cofactor:
            chain_ok = False
    rep = corpus.unitary_gl2_example()
    exact = lstar_at_1(rep)
    exact_ok = exact == g(20, 13)
    total = 0.0
    for d, c in enumerate(flicker_series(pi_u(rep), 60).coeffs):
        total += float(c.re) * 0.5**d
    float_val = total * (1 - 0.5**rep.n)
    float_ok = abs(float_val - 20 / 13) < 1e-6
    _check(2, "central cofactor chain at order 30 and L*(1) = 20/13 "
              "(float %.7f)" % float_val,
           chain_ok and exact_ok and float_ok,
           "chain=%s exact=%s float=%s" % (chain_ok, exact_ok, float_ok))


def test_criterion_3_mirabolic_equals_asai_of_support():
    bad = 0
    for rep, mira in corpus_ramified_reps():
        if mira != series_of(asai_L(pi_u(rep)), 30):
            bad += 1
    steinberg = corpus.steinberg_gl2(FieldPair(2, False))
    value_ok = lstar_at_1(steinberg) == g(2)
    _check(3, "mirabolic period of ramified reps = Asai of the unramified "
              "support, order 30; Steinberg value 2",
           bad == 0 and value_ok,
           "%d mismatches, steinberg_ok=%s" % (bad, value_ok))


def test_criterion_4_multiplicativity():
    rng = random.Random(304)
    bad = 0
    for i in range(100):
        fp = corpus.rand_field(rng, ramified=bool(i % 2))
        mod = corpus.rand_module(rng, fp, rng.randint(0, 5))
        if asai_L(mod) != asai_L_multiplicative(mod):
            bad += 1
    _check(4, "Asai factor = standard-module product formula, 100 modules",
           bad == 0, "%d mismatches" % bad)


def test_criterion_5_kable_factorization():
    rng = random.Random(305)
    bad = 0
    for _ in range(100):
        fp = corpus.rand_field(rng, ramified=False)
        mod = corpus.rand_module(rng, fp, rng.randint(0, 4))
        if not kable_factorization_check(mod):
            bad += 1
    _check(5, "self-pairing factors as Asai times sign-twisted Asai, "
              "100 unramified-pair modules", bad == 0, "%d failures" % bad)


def test_criterion_6_rs_series_identity():
    bad = 0
    for m1, m2 in corpus_rs_pairs():
        if rs_series(m1, m2, 25) != series_of(rs_L(m1, m2), 25):
            bad += 1
    _check(6, "Rankin-Selberg lattice sum = closed form, order 25, n <= 3",
           bad == 0, "%d mismatches" % bad)


def test_criterion_7_c_pi_endpoint():
    from asaiperiods.periods import verify_c_pi

    rng = random.Random(307)
    checked = 0
    bad = 0
    for ramified in (False, True):
        fp = corpus.rand_field(rng, ramified)
        for _ in range(25):
            rep = corpus.csd_rep(rng, fp)
            checked += 1
            if not verify_c_pi(rep):
                bad += 1
    even_ok = True
    for _ in range(10):  # sigma-paired segments over ramified pairs
        k = rng.randint(1, 2)
        a, b = corpus.sigma_paired_segments(rng, rng.randint(1, 2), k)
        rep = GenericRep(FieldPair(3, True, 1), (a, b))
        checked += 1
        if conductor(rep) % 2 != 0:
            even_ok = False
        if not verify_c_pi(rep):
            bad += 1
    _check(7, "c(pi) = 1 endpoint on %d conjugate-self-dual reps, "
              "even conductor on sigma-paired ramified corpora" % checked,
           bad == 0 and even_ok and checked >= 50,
           "%d failures, even_ok=%s" % (bad, even_ok))


def test_criterion_8_holomorphy_at_edge():
    rng = random.Random(308)
    checked = 0
    bad_pole = 0
    bad_witness = 0
    for ramified in (False, True):
        fp = corpus.rand_field(rng, ramified)
        for _ in range(100):
            pairs = rng.randint(1, 2)
            self_ones = rng.randint(0, 1)
            mod = csd_module(rng, fp, pairs, self_ones)
            checked += 1
            t0 = GaussRat(rat(1, fp.q_F))
            try:
                eval_at(asai_L(mod), t0)
            except ZeroDivisionError:
                bad_pole += 1
            if not asai_holomorphic_witness(module_as_rep(mod)):
                bad_witness += 1
    _check(8, "Asai denominator nonzero at t = 1/q_F and witness true, "
              "%d conjugate-self-dual modules" % checked,
           bad_pole == 0 and bad_witness == 0 and checked >= 200,
           "poles=%d witness_failures=%d" % (bad_pole, bad_witness))


def _partitions_up_to(total, max_parts):
    def rec(remaining, parts_left, cap):
        if remaining == 0:
            yield ()
            return
        if parts_left == 0:
            return
        for first in range(min(remaining, cap), 0, -1):
            for rest in rec(remaining - first, parts_left - 1, first):
                yield (first,) + rest
    for d in range(total + 1):
        yield from rec(d, max_parts, d)


def _pad(lam, m):
    return tuple(lam) + (0,) * (m - len(lam))


def test_criterion_9_symmetric_function_engine():
    rng = random.Random(309)
    bad_engine = 0
    for _ in range(500):
        m = rng.randint(1, 5)
        vals = rng.sample(range(2, 60), m)
        den = rng.randint(1, 3)  # shared so the values stay distinct
        alpha = tuple(g(v, den) for v in vals)
        lam = [0] * m
        budget = 8
        for i in range(m):
            lam[i] = rng.randint(0, budget)
            budget -= lam[i]
        lam = tuple(sorted(lam, reverse=True))
        if schur(lam, alpha) != schur_bialternant(lam, alpha):
            bad_engine += 1

    order = 20
    alpha = (g(2), g(1, 3), g(5, 7))
    m = len(alpha)

    def sum_series(pick, grade):
        coeffs = [GAUSS_ZERO] * (order + 1)
        for lam in _partitions_up_to(order, m):
            d = grade(lam)
            if d > order:
                continue
            if not pick(lam):
                continue
            coeffs[d] = coeffs[d] + schur(_pad(lam, m), alpha)
        return Series(tuple(coeffs))

    littlewood = sum_series(lambda lam: True, lambda lam: sum(lam))
    lw_den = Poly([1])
    for a in alpha:
        lw_den = lw_den * Poly.one_minus(a)
    for i in range(m):
        for j in range(i + 1, m):
            lw_den = lw_den * Poly.one_minus(alpha[i] * alpha[j], 2)
    lw_ok = littlewood == series_of(RatFunc(Poly([1]), lw_den), order)

    even = sum_series(lambda lam: all(x % 2 == 0 for x in lam), lambda lam: sum(lam))
    ev_den = Poly([1])
    for i in range(m):
        for j in range(i, m):
            ev_den = ev_den * Poly.one_minus(alpha[i] * alpha[j], 2)
    ev_ok = even == series_of(RatFunc(Poly([1]), ev_den), order)

    beta = (g(3), g(7, 5))
    cauchy_coeffs = [GAUSS_ZERO] * (order + 1)
    for lam in _partitions_up_to(order, len(beta)):
        d = sum(lam)
        cauchy_coeffs[d] = cauchy_coeffs[d] + (
            schur(_pad(lam, m), alpha) * schur(_pad(lam, len(beta)), beta))
    ca_den = Poly([1])
    for a, b in itertools.product(alpha, beta):
        ca_den = ca_den * Poly.one_minus(a * b)
    ca_ok = Series(tuple(cauchy_coeffs)) == series_of(RatFunc(Poly([1]), ca_den), order)

    _check(9, "Jacobi-Trudi vs bialternant on 500 inputs; Littlewood, "
              "even-Littlewood, Cauchy identities at order 20",
           bad_engine == 0 and lw_ok and ev_ok and ca_ok,
           "engine=%d lw=%s ev=%s ca=%s" % (bad_engine, lw_ok, ev_ok, ca_ok))


def test_criterion_10_conductor_grid():
    ok = True
    for n_psi in range(-5, 6):
        if trace_conductor(FieldPair(3, False), n_psi) != n_psi:
            ok = False
        for f_ext in (1, 2):
            fp = FieldPair(3, True, f_ext)
            if trace_conductor(fp, n_psi) != 2 * n_psi + f_ext:
                ok = False
    for k in range(-5, 6):
        u = FieldPair(2, False)
        if conductor_zero_shift(u, AddCharData(k, True)) != k:
            ok = False
        r = FieldPair(2, True, 2)
        if k % 2 == 0:
            if conductor_zero_shift(r, AddCharData(k, True)) != k // 2:
                ok = False
        else:
            try:
                conductor_zero_shift(r, AddCharData(k, True))
                ok = False  # odd conductors over ramified pairs must be rejected
            except ValueError:
                pass
    _check(10, "conductor calculus on the exhaustive grid "
               "n(psi') in [-5,5], both types, f(E/F) in {1,2}", ok)


def test_criterion_11_sqrt_component_vanishes():
    # the Iwasawa sums themselves, term by term in (c, m) monomials
    # c * q_F^(m/2), over the criteria 1-3 corpora and the criterion 6
    # pairs at low order: on ramified pairs single Whittaker values and
    # weights of the Rankin-Selberg sums have odd m, and every
    # coefficient must come out with a zero odd-m sum and an even-m sum
    # equal to the kernel's
    order = 8
    sums = [(s, brute_flicker(mod, order)) for mod, s in corpus_flicker()]
    for mod, rep, flick, mira in corpus_chain():
        sums.append((mira, brute_mirabolic(rep, order)))
    sums.extend((s, brute_mirabolic(rep, order)) for rep, s in corpus_ramified_reps())
    with_sqrt = 0
    for m1, m2 in corpus_rs_pairs():
        terms = list(rs_terms(m1, m2, order, order + 1))
        with_sqrt += sum(1 for _, factors in terms for _, m in factors if m % 2)
        sums.append((rs_series(m1, m2, order), iwasawa_sum(terms, order, m1.fp.q_F)))
    bad = sum(len(kernel_mismatches(Series(s.coeffs[:order + 1]), brute)) for s, brute in sums)
    _check(11, "zero sqrt(q)-component, and the kernel's value, in every coefficient "
               "of %d brute Iwasawa sums through order %d (%d factors with a sqrt(q) part)"
               % (len(sums), order, with_sqrt),
           bad == 0 and with_sqrt > 0, "%d offending coefficients" % bad)
